//! Per-layer replay of the serving path, in the benchmark process.
//!
//! The requests a workload sent are pushed, one public call at a time,
//! through the same functions the server runs for them — HTTP framing,
//! body decode, routing, entity resolution (and the NER inside it), the
//! response cache, inference (and the mixture mode search inside it),
//! and response rendering — each call under a span. Nothing inside the
//! program changes; the spans measure the calls from outside.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use edge_core::{EdgeModel, PredictOptions, PredictRequest, Predictor};
use edge_serve::http::{parse_buffered, ParseStatus, ReadLimits};
use edge_serve::json::{parse_predict_body, render_response};
use edge_serve::{CacheKey, ResponseCache, Router};

use crate::trace::{mean, Tracer};

/// Server defaults the replay mirrors (`ServeConfig::default()`).
fn replay_cache() -> ResponseCache {
    let c = edge_serve::ServeConfig::default();
    ResponseCache::new(c.cache_capacity, c.cache_shards, c.cache_lsh_bits, c.cache_hamming_max)
}

/// Replays the `warmup` and then the `measured` request wire bytes.
/// Returns per-layer mean self times (µs) and the mean request body size
/// of the measured requests.
pub fn replay(
    tracer: &mut Tracer,
    names: &[String],
    models: &[Arc<EdgeModel>],
    warmup: &[Vec<u8>],
    measured: &[Vec<u8>],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let router = Router::new(names.to_vec(), models);
    let caches: Vec<ResponseCache> = models.iter().map(|_| replay_cache()).collect();
    let limits = ReadLimits { max_body_bytes: usize::MAX, read_budget: Duration::ZERO };
    let opts = PredictOptions::default();
    let mut body_bytes = Vec::new();
    for (id, wire) in warmup.iter().chain(measured).enumerate() {
        let in_window = id >= warmup.len();
        let id = id as u64;
        tracer.span("request", id, |t| -> Result<(), String> {
            let req = match t.span("serve.http.frame", id, |_| parse_buffered(wire, &limits)) {
                ParseStatus::Complete { req, .. } => req,
                other => return Err(format!("replayed request did not frame: {other:?}")),
            };
            if in_window {
                body_bytes.push(req.body.len() as f64);
            }
            let body = t.span("serve.json.decode", id, |_| parse_predict_body(&req.body))?;
            for text in &body.texts {
                let s = t.span("serve.router.route", id, |_| router.route_text(text, models));
                let model = &models[s];
                let entities = t.span("core.resolve", id, |_| model.resolve_entities(text));
                t.replay_after("core.resolve", "text.ner.recognize", id, || {
                    model.recognizer().recognize(text)
                });
                let key = CacheKey { generation: 1, entities, fallback: false };
                if t.span("serve.cache.get", id, |_| caches[s].get(&key)).is_some() {
                    continue;
                }
                let request = [PredictRequest::entities(key.entities.clone())];
                let resp = t
                    .span("core.infer", id, |_| model.locate_batch(&request, &opts))
                    .pop()
                    .expect("one result per request")
                    .map_err(|e| format!("replayed inference failed: {e}"))?;
                t.replay_after("core.infer", "geo.mixture.mode", id, || {
                    resp.prediction.mixture.mode()
                });
                let bytes = t.span("serve.json.render", id, |_| render_response(&resp));
                t.span("serve.cache.insert", id, |_| caches[s].insert(key, Arc::new(bytes)));
            }
            Ok(())
        })?;
    }
    // Means over the measured requests; a layer they never reach (a warm
    // workload's inference, answered from cache) is measured on the
    // warm-up requests that reached it.
    let measured_own = tracer.self_times_us(warmup.len() as u64);
    let all_own = tracer.self_times_us(0);
    let mut out = BTreeMap::new();
    for name in [
        "serve.http.frame",
        "serve.json.decode",
        "serve.router.route",
        "text.ner.recognize",
        "core.resolve",
        "serve.cache.get",
        "serve.cache.insert",
        "core.infer",
        "geo.mixture.mode",
        "serve.json.render",
    ] {
        let samples = measured_own
            .get(name)
            .or_else(|| all_own.get(name))
            .ok_or(format!("replay never ran {name}"))?;
        out.insert(name, mean(samples));
    }
    out.insert("serve.json.body_bytes", mean(&body_bytes));
    Ok(out)
}
