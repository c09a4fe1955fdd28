//! The serving parse path, measured instead of assumed: with the
//! `alloc-stats` counting allocator compiled in, routing a text across two
//! shards, resolving it on the owning shard and probing that shard's
//! response cache performs **zero heap allocations** once the cache is
//! warm and the per-loop scratch has grown to the texts' size.
//!
//! The count is process-global, so this file holds a single test (the
//! perf-smoke script runs it with `--test-threads=1`).
#![cfg(feature = "alloc-stats")]

use std::sync::Arc;

use edge_core::{EdgeConfig, EdgeModel, TrainOptions};
use edge_data::{dataset_recognizer, lama, nyma, Dataset, PresetSize};
use edge_serve::{CacheKey, ResponseCache, Router, ServeConfig, TextScratch};

fn shard(d: &Dataset) -> Arc<EdgeModel> {
    let (train, _) = d.paper_split();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 1;
    let (model, _) = edge_par::with_max_threads(1, || {
        EdgeModel::train(train, dataset_recognizer(d), &d.bbox, cfg, &TrainOptions::default())
    })
    .expect("train");
    Arc::new(model)
}

#[test]
fn warm_cache_hit_texts_allocate_nothing() {
    // Counters record, as they do under a server.
    let _lease = edge_obs::metrics_lease();
    let datasets = [nyma(PresetSize::Smoke, 42), lama(PresetSize::Smoke, 42)];
    let models: Vec<Arc<EdgeModel>> = datasets.iter().map(shard).collect();
    let router = Router::new(vec!["nyma".into(), "lama".into()], &models);
    let c = ServeConfig::default();
    let caches: Vec<ResponseCache> = models
        .iter()
        .map(|_| {
            ResponseCache::new(
                c.cache_capacity,
                c.cache_shards,
                c.cache_lsh_bits,
                c.cache_hamming_max,
            )
        })
        .collect();

    // Covered test texts of both metros, interleaved.
    let mut scratch = TextScratch::new();
    let (ny, la) = (datasets[0].paper_split().1, datasets[1].paper_split().1);
    let texts: Vec<&str> = ny
        .iter()
        .zip(la)
        .flat_map(|(a, b)| [a.text.as_str(), b.text.as_str()])
        .filter(|t| {
            router.route_resolve(t, &models, &mut scratch);
            !scratch.entities().is_empty()
        })
        .take(1000)
        .collect();
    assert!(texts.len() >= 500, "enough covered texts: {}", texts.len());

    // Warm: fill each owning shard's cache, then hit every entry once so
    // every buffer and counter handle exists.
    for text in &texts {
        let s = router.route_resolve(text, &models, &mut scratch);
        let key =
            CacheKey { generation: 1, entities: scratch.entities().to_vec(), fallback: false };
        caches[s].insert(key, Arc::new(b"{}".to_vec()));
    }
    for text in &texts {
        let s = router.route_resolve(text, &models, &mut scratch);
        assert!(caches[s].probe(1, scratch.entities(), false).is_some());
    }

    let resolves = edge_obs::metrics::counter("core.ner.resolve.calls");
    let affinity = edge_obs::metrics::counter("serve.route.affinity");
    let ring = edge_obs::metrics::counter("serve.route.ring");
    let counted = (resolves.get(), affinity.get() + ring.get());
    let mut hits = 0usize;
    let before = edge_obs::alloc::counts();
    for text in &texts {
        let s = router.route_resolve(text, &models, &mut scratch);
        hits += caches[s].probe(1, scratch.entities(), false).is_some() as usize;
    }
    let allocs = edge_obs::alloc::counts().count - before.count;
    assert_eq!(hits, texts.len(), "every measured text is a cache hit");
    assert_eq!(allocs, 0, "{allocs} heap allocations over {} warm cache-hit texts", texts.len());

    // One resolution and one routing decision per text, no more.
    assert_eq!(resolves.get() - counted.0, texts.len() as u64);
    assert_eq!(affinity.get() + ring.get() - counted.1, texts.len() as u64);

    // The counter is live: the owned-result API still allocates.
    let before = edge_obs::alloc::counts();
    let mentions = models[0].recognizer().recognize(texts[0]);
    let fresh = edge_obs::alloc::counts().count - before.count;
    assert!(!mentions.is_empty());
    assert!(fresh > 0, "recognize() should allocate its owned mentions, saw {fresh}");
}
