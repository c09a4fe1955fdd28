//! The `/predict` wire format: request parsing (via the `serde_json`
//! value tree) and a hand-rolled response writer.
//!
//! The writer matters: rendering is the only per-text cost besides
//! inference itself, and the bit-identity guarantee rides on it. Floats
//! are written by the Ryū-based writer in `float.rs`, byte for byte what
//! Rust's `Display` writes — the shortest string that round-trips — so a
//! client (or test) parsing the JSON recovers the exact `f64`/`f32` bits
//! the model produced, without a `core::fmt` call per float. Its oracle is
//! `Display` itself: the tests below render every answered NYMA-smoke
//! test text both ways, and `float.rs` compares single floats over random
//! bit patterns and edge cases (and, ignored by default, every `f32`).

use std::cell::RefCell;

use crate::float::{write_f32, write_f64};
use edge_core::{PredictError, PredictResponse};

/// A parsed `POST /predict` body.
#[derive(Debug)]
pub struct PredictBody {
    /// The texts to locate (one for the single-tweet shape).
    pub texts: Vec<String>,
    /// `{"text": ...}` (reply with a bare object) vs `{"texts": [...]}`
    /// (reply with `{"results": [...]}`).
    pub single: bool,
    /// Per-request override of the server's zero-entity policy.
    pub fallback_prior: Option<bool>,
}

/// Parses either `{"text": "..."}"` or `{"texts": ["...", ...]}`, each
/// with an optional `"fallback_prior": bool`.
pub fn parse_predict_body(body: &[u8]) -> Result<PredictBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("invalid json: {e}"))?;
    let fallback_prior = match value.get("fallback_prior") {
        None | Some(serde_json::Value::Null) => None,
        Some(serde_json::Value::Bool(b)) => Some(*b),
        Some(_) => return Err("fallback_prior must be a boolean".to_string()),
    };
    if let Some(single) = value.get("text") {
        let s = single.as_str().ok_or("\"text\" must be a string")?;
        return Ok(PredictBody { texts: vec![s.to_string()], single: true, fallback_prior });
    }
    if let Some(batch) = value.get("texts") {
        let items = batch.as_array().ok_or("\"texts\" must be an array")?;
        let mut texts = Vec::with_capacity(items.len());
        for item in items {
            texts.push(item.as_str().ok_or("\"texts\" items must be strings")?.to_string());
        }
        if texts.is_empty() {
            return Err("\"texts\" must not be empty".to_string());
        }
        return Ok(PredictBody { texts, single: false, fallback_prior });
    }
    Err("body needs a \"text\" string or a \"texts\" array".to_string())
}

fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    // Every escape is of an ASCII byte, and no byte of a multi-byte UTF-8
    // character needs one, so the string is scanned as bytes and copied
    // in runs.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[start..i]);
        start = i + 1;
        match b {
            b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let hex = |nibble: u8| HEX[nibble as usize];
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 15)]);
            }
        }
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

fn push_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_finite() {
        write_f64(out, x);
    } else {
        out.extend_from_slice(b"null");
    }
}

fn push_f32(out: &mut Vec<u8>, x: f32) {
    if x.is_finite() {
        write_f32(out, x);
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Renders one successful prediction as a JSON object:
/// `{"point":{"lat":..,"lon":..},"mixture":[{"weight":..,"mu":{..},
/// "sigma_lat":..,"sigma_lon":..,"rho":..},..],"attention":[["name",w],..],
/// "from_fallback":bool}`.
pub fn render_response(resp: &PredictResponse) -> Vec<u8> {
    render_response_inner(resp, false)
}

/// [`render_response`] for brownout `PriorOnly` answers: identical wire
/// shape plus a trailing `"degraded":true`, so clients can tell a
/// quality-reduced answer from a full one. The normal path never emits
/// the key at all — bit-identity with direct `Predictor` calls rides on
/// that.
pub fn render_response_degraded(resp: &PredictResponse) -> Vec<u8> {
    render_response_inner(resp, true)
}

thread_local! {
    /// Each thread's rendering buffer. An answer is written here and
    /// copied out at its exact size, so the buffer a cache entry keeps is
    /// allocated once and holds no spare capacity.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn render_response_inner(resp: &PredictResponse, degraded: bool) -> Vec<u8> {
    SCRATCH.with(|scratch| {
        let out = &mut *scratch.borrow_mut();
        out.clear();
        write_prediction(out, resp, degraded);
        out.to_vec()
    })
}

fn write_prediction(out: &mut Vec<u8>, resp: &PredictResponse, degraded: bool) {
    let p = &resp.prediction;
    out.extend_from_slice(b"{\"point\":{\"lat\":");
    push_f64(out, p.point.lat);
    out.extend_from_slice(b",\"lon\":");
    push_f64(out, p.point.lon);
    out.extend_from_slice(b"},\"mixture\":[");
    for (i, (weight, g)) in p.mixture.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"weight\":");
        push_f64(out, weight);
        out.extend_from_slice(b",\"mu\":{\"lat\":");
        push_f64(out, g.mu.lat);
        out.extend_from_slice(b",\"lon\":");
        push_f64(out, g.mu.lon);
        out.extend_from_slice(b"},\"sigma_lat\":");
        push_f64(out, g.sigma_lat);
        out.extend_from_slice(b",\"sigma_lon\":");
        push_f64(out, g.sigma_lon);
        out.extend_from_slice(b",\"rho\":");
        push_f64(out, g.rho);
        out.push(b'}');
    }
    out.extend_from_slice(b"],\"attention\":[");
    for (i, (name, w)) in p.attention.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_escaped(out, name);
        out.push(b',');
        push_f32(out, *w);
        out.push(b']');
    }
    out.extend_from_slice(b"],\"from_fallback\":");
    out.extend_from_slice(if resp.from_fallback { b"true" } else { b"false" });
    if degraded {
        out.extend_from_slice(b",\"degraded\":true");
    }
    out.push(b'}');
}

/// The typed `DeadlineExceeded` fragment (HTTP 504): what a queued text
/// evicted past its budget — or a whole expired request — answers with.
pub fn render_deadline_error() -> Vec<u8> {
    simple_object(&[
        ("error", "deadline_exceeded"),
        ("detail", "request deadline budget exhausted"),
    ])
}

/// Renders a typed prediction error as `{"error": "...", "detail": "..."}`.
pub fn render_error(err: &PredictError) -> Vec<u8> {
    let code = match err {
        PredictError::NoEntities => "no_entities",
        PredictError::EntityOutOfRange { .. } => "entity_out_of_range",
        PredictError::UnsupportedInput(_) => "unsupported_input",
    };
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"{\"error\":");
    push_escaped(&mut out, code);
    out.extend_from_slice(b",\"detail\":");
    push_escaped(&mut out, &err.to_string());
    out.push(b'}');
    out
}

/// A small ad-hoc JSON object (status payloads, error envelopes).
pub fn simple_object(fields: &[(&str, &str)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(b'{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_escaped(&mut out, k);
        out.push(b':');
        push_escaped(&mut out, v);
    }
    out.push(b'}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_core::Prediction;
    use edge_geo::{BivariateGaussian, GaussianMixture, Point};

    fn response() -> PredictResponse {
        let g = BivariateGaussian::new(Point::new(40.75, -73.99), 0.01, 0.02, 0.3);
        let mixture = GaussianMixture::new(vec![(1.0, g)]);
        PredictResponse {
            prediction: Prediction {
                point: mixture.mode(),
                mixture,
                attention: vec![("Central \"Park\"".to_string(), 0.75f32)],
            },
            from_fallback: false,
        }
    }

    /// The `Display`-based renderer `render_response_inner` replaced:
    /// the byte oracle for the float writer and the escaping.
    fn display_reference(resp: &PredictResponse, degraded: bool) -> Vec<u8> {
        use std::fmt::Write;
        fn num(out: &mut String, x: impl std::fmt::Display, finite: bool) {
            if finite {
                write!(out, "{x}").unwrap();
            } else {
                out.push_str("null");
            }
        }
        fn string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let p = &resp.prediction;
        let mut out = String::new();
        out.push_str("{\"point\":{\"lat\":");
        num(&mut out, p.point.lat, p.point.lat.is_finite());
        out.push_str(",\"lon\":");
        num(&mut out, p.point.lon, p.point.lon.is_finite());
        out.push_str("},\"mixture\":[");
        for (i, (weight, g)) in p.mixture.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fields = [
                ("{\"weight\":", weight),
                (",\"mu\":{\"lat\":", g.mu.lat),
                (",\"lon\":", g.mu.lon),
                ("},\"sigma_lat\":", g.sigma_lat),
                (",\"sigma_lon\":", g.sigma_lon),
                (",\"rho\":", g.rho),
            ];
            for (key, x) in fields {
                out.push_str(key);
                num(&mut out, x, x.is_finite());
            }
            out.push('}');
        }
        out.push_str("],\"attention\":[");
        for (i, (name, w)) in p.attention.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            string(&mut out, name);
            out.push(',');
            num(&mut out, w, w.is_finite());
            out.push(']');
        }
        write!(out, "],\"from_fallback\":{}", resp.from_fallback).unwrap();
        if degraded {
            out.push_str(",\"degraded\":true");
        }
        out.push('}');
        out.into_bytes()
    }

    /// Asserts both renderings equal the reference and hold no spare
    /// capacity.
    fn assert_renders_like_display(resp: &PredictResponse) {
        let full = render_response(resp);
        assert_eq!(
            String::from_utf8_lossy(&full),
            String::from_utf8_lossy(&display_reference(resp, false))
        );
        let degraded = render_response_degraded(resp);
        assert_eq!(degraded, display_reference(resp, true));
        assert_eq!(full.capacity(), full.len(), "allocated at its exact size");
    }

    /// Every answered test text of NYMA-smoke under the fast profile
    /// renders to the bytes `Display` writes.
    #[test]
    fn answered_nyma_smoke_texts_render_like_display() {
        use edge_core::{EdgeConfig, EdgeModel, PredictOptions, PredictRequest, Predictor};
        let dataset = edge_data::nyma(edge_data::PresetSize::Smoke, 42);
        let (train, test) = dataset.paper_split();
        let recognizer = edge_data::dataset_recognizer(&dataset);
        let (model, _) = EdgeModel::train(
            train,
            recognizer,
            &dataset.bbox,
            EdgeConfig::fast(),
            &Default::default(),
        )
        .expect("train");
        let mut answered = 0;
        for tweet in test {
            let request = PredictRequest::text(&tweet.text);
            if let Ok(resp) = model.locate(&request, &PredictOptions::default()) {
                assert_renders_like_display(&resp);
                answered += 1;
            }
        }
        assert!(answered > test.len() / 2, "{answered} of {} answered", test.len());
    }

    /// Names needing every kind of escape, and floats at the extremes.
    #[test]
    fn escapes_and_extreme_floats_render_like_display() {
        let mut resp = response();
        let controls: String = (0u8..0x20).map(char::from).collect();
        resp.prediction.attention = vec![
            (controls, f32::MIN_POSITIVE),
            ("quote \" back \\ slash, café ✓".to_string(), -0.0),
            (String::new(), f32::from_bits(1)),
            ("nan".to_string(), f32::NAN),
        ];
        assert_renders_like_display(&resp);
        let extremes = [5e-324, f64::MAX, -0.0, 1e300, f64::INFINITY, 1.0, 0.1];
        for (i, x) in extremes.into_iter().enumerate() {
            let mut resp = response();
            resp.prediction.point = Point::new(x, extremes[(i + 1) % extremes.len()]);
            assert_renders_like_display(&resp);
        }
    }

    #[test]
    fn rendered_floats_round_trip_bit_exactly() {
        let resp = response();
        let bytes = render_response(&resp);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let lat = match v.get("point").unwrap().get("lat").unwrap() {
            serde_json::Value::Num(n) => n.as_f64(),
            other => panic!("lat not a number: {other:?}"),
        };
        assert_eq!(lat.to_bits(), resp.prediction.point.lat.to_bits());
        let att = v.get("attention").unwrap().as_array().unwrap();
        let w = match &att[0].as_array().unwrap()[1] {
            serde_json::Value::Num(n) => n.as_f64() as f32,
            other => panic!("weight not a number: {other:?}"),
        };
        assert_eq!(w.to_bits(), 0.75f32.to_bits());
        assert_eq!(att[0].as_array().unwrap()[0].as_str().unwrap(), "Central \"Park\"");
    }

    #[test]
    fn parses_single_and_batch_bodies() {
        let single = parse_predict_body(br#"{"text": "hello", "fallback_prior": true}"#).unwrap();
        assert!(single.single);
        assert_eq!(single.texts, ["hello"]);
        assert_eq!(single.fallback_prior, Some(true));
        let batch = parse_predict_body(br#"{"texts": ["a", "b"]}"#).unwrap();
        assert!(!batch.single);
        assert_eq!(batch.texts.len(), 2);
        assert_eq!(batch.fallback_prior, None);
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert!(parse_predict_body(b"not json").is_err());
        assert!(parse_predict_body(br#"{"texts": []}"#).is_err());
        assert!(parse_predict_body(br#"{"texts": [1]}"#).is_err());
        assert!(parse_predict_body(br#"{"nope": true}"#).is_err());
        assert!(parse_predict_body(br#"{"text": "x", "fallback_prior": "yes"}"#).is_err());
    }

    #[test]
    fn error_rendering_is_valid_json() {
        let bytes = render_error(&PredictError::NoEntities);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "no_entities");
        let bytes = render_deadline_error();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "deadline_exceeded");
    }

    #[test]
    fn degraded_rendering_adds_only_the_marker() {
        let resp = response();
        let full = render_response(&resp);
        let degraded = render_response_degraded(&resp);
        assert!(!String::from_utf8(full.clone()).unwrap().contains("degraded"));
        let text = String::from_utf8(degraded.clone()).unwrap();
        assert!(text.ends_with(",\"degraded\":true}"), "{text}");
        // Identical prefix: the marker is strictly additive.
        assert_eq!(&degraded[..full.len() - 1], &full[..full.len() - 1]);
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("degraded"), Some(&serde_json::Value::Bool(true)));
    }
}
