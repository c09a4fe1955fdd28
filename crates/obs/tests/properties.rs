//! Property tests for the metrics layer's concurrency contract: a
//! histogram's buckets — and therefore its estimated quantiles, which are
//! a pure function of the buckets — must not depend on how recording was
//! interleaved across threads, and `metrics::reset` must zero every cell
//! of every family, unlabeled metrics (a family's empty-label cell)
//! included.

use std::sync::Mutex;

use proptest::prelude::*;

/// The registry is process-global and `reset` sweeps all of it, so the
/// two properties below must not interleave.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// A fresh labeled histogram cell, distinguished by a unique label.
fn fresh_cell(tag: &str) -> (&'static edge_obs::Histogram, String) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let label = format!("{tag}-{id}");
    let cell = edge_obs::labels::histogram_family(
        "obs_properties_us",
        "Scratch histogram cells for the concurrency property tests.",
    )
    .with(&[("case", &label)]);
    (cell, label)
}

fn record_across(cell: &'static edge_obs::Histogram, values: &[f64], threads: usize) {
    std::thread::scope(|scope| {
        let chunk = values.len().div_ceil(threads).max(1);
        for part in values.chunks(chunk) {
            scope.spawn(move || {
                for &v in part {
                    cell.record(v);
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bucket_counts_and_quantiles_are_interleaving_invariant(
        values in proptest::collection::vec(0.0f64..1e12, 1..400),
    ) {
        let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _lease = edge_obs::metrics_lease();

        let (serial, serial_label) = fresh_cell("serial");
        for &v in &values {
            serial.record(v);
        }

        for threads in [1usize, 2, 8] {
            let (cell, label) = fresh_cell("conc");
            record_across(cell, &values, threads);
            let snap = edge_obs::metrics::snapshot();
            let serial_snap = snap
                .labeled_histogram("obs_properties_us", &[("case", &serial_label)])
                .expect("serial cell snapshotted");
            let conc_snap = snap
                .labeled_histogram("obs_properties_us", &[("case", &label)])
                .expect("concurrent cell snapshotted");

            prop_assert_eq!(conc_snap.count, values.len() as u64);
            prop_assert_eq!(
                &conc_snap.buckets,
                &serial_snap.buckets,
                "bucket counts must not depend on thread interleaving ({} threads)",
                threads
            );
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(
                    conc_snap.quantile(q),
                    serial_snap.quantile(q),
                    "q{} must match ({} threads)",
                    q,
                    threads
                );
            }
            // The CAS-accumulated sum can differ only by float addition
            // order.
            let tol = 1e-9 * serial_snap.sum.abs().max(1.0);
            prop_assert!((conc_snap.sum - serial_snap.sum).abs() <= tol);
        }
    }

    #[test]
    fn reset_zeroes_labeled_families(
        counts in proptest::collection::vec(1u64..50, 1..8),
        sample in 0.0f64..1e9,
    ) {
        let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _lease = edge_obs::metrics_lease();

        let counter_family = edge_obs::labels::counter_family(
            "obs_properties_events",
            "Scratch labeled counters for the reset property test.",
        );
        static LANES: [&str; 8] = ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7"];
        for (i, &n) in counts.iter().enumerate() {
            counter_family.with(&[("lane", LANES[i])]).inc(n);
        }
        let (hist, _) = fresh_cell("reset");
        hist.record(sample);
        edge_obs::counter!("obs.properties.unlabeled").inc(counts[0]);
        edge_obs::gauge!("obs.properties.level").set(sample + 1.0);
        edge_obs::histogram!("obs.properties.unlabeled_us").record(sample);

        let snap = edge_obs::metrics::snapshot();
        prop_assert_eq!(
            snap.labeled_counter("obs_properties_events", &[("lane", "l0")]),
            Some(counts[0])
        );
        prop_assert_eq!(snap.counter("obs.properties.unlabeled"), Some(counts[0]));

        edge_obs::metrics::reset();
        let snap = edge_obs::metrics::snapshot();
        for family in &snap.counters {
            for (_, value) in &family.cells {
                prop_assert_eq!(*value, 0, "counter cell survived reset");
            }
        }
        for family in &snap.gauges {
            for (_, value) in &family.cells {
                prop_assert_eq!(*value, 0.0, "gauge cell survived reset");
            }
        }
        for family in &snap.histograms {
            for (_, h) in &family.cells {
                prop_assert_eq!(h.count, 0, "histogram cell survived reset");
                prop_assert_eq!(h.sum, 0.0);
                prop_assert!(h.buckets.iter().all(|&(_, n)| n == 0));
            }
        }
    }
}
