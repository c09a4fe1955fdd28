//! Metric families: counters, gauges, and histograms keyed by a small
//! label set (`endpoint`, `status`, `stage`, `shard`, ...).
//!
//! Every metric lives in a [`Family`] in the one registry of
//! [`crate::metrics`]; an unlabeled metric (`counter!`, `gauge!`,
//! `histogram!`) is its family's empty-label cell. Each distinct label
//! combination resolves to a leaked `&'static` cell, so the hot path is
//! one relaxed atomic op. Resolution (`with`) takes a lock and copies the
//! labels into the family: call it once at startup and keep the returned
//! handle (the serving layer pre-resolves its whole endpoint × status
//! grid into a struct of handles).

use serde::{Serialize, Value};
use std::sync::{Mutex, MutexGuard};

use crate::metrics::{family, Counter, Gauge, Histogram};

/// One label combination: owned `(key, value)` pairs in declaration order.
pub type Labels = Vec<(String, String)>;

/// One cell per label combination.
pub struct Family<M: 'static> {
    name: &'static str,
    help: String,
    cells: Mutex<Vec<(Labels, &'static M)>>,
}

fn same_labels(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have.iter().zip(want).all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

impl<M: Default + 'static> Family<M> {
    pub(crate) fn new(name: &'static str, help: String) -> Self {
        Family { name, help, cells: Mutex::new(Vec::new()) }
    }

    /// Resolves (or creates) the cell for `labels`. Takes a lock:
    /// resolve once and cache the `&'static` handle on hot paths.
    pub fn with(&self, labels: &[(&str, &str)]) -> &'static M {
        let mut cells = self.cells();
        if let Some(&(_, cell)) = cells.iter().find(|(have, _)| same_labels(have, labels)) {
            return cell;
        }
        let cell: &'static M = Box::leak(Box::default());
        cells.push((labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(), cell));
        cell
    }

    fn cells(&self) -> MutexGuard<'_, Vec<(Labels, &'static M)>> {
        self.cells.lock().expect("no family user panics holding the lock")
    }

    pub fn help(&self) -> &str {
        &self.help
    }

    /// Copies the family, reading each cell with `value`; cells sort by labels.
    pub(crate) fn snapshot<V>(&self, value: impl Fn(&M) -> V) -> FamilySnapshot<V> {
        let mut cells: Vec<(Labels, V)> =
            self.cells().iter().map(|(labels, cell)| (labels.clone(), value(cell))).collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        FamilySnapshot { name: self.name.to_string(), help: self.help.clone(), cells }
    }

    pub(crate) fn for_each_cell(&self, f: impl Fn(&M)) {
        self.cells().iter().for_each(|(_, cell)| f(cell));
    }
}

/// Looks up or creates the counter family `name` (`help` is kept from the
/// first registration).
///
/// # Panics
/// If another name or kind already exposes as `name`'s OpenMetrics form.
pub fn counter_family(name: &'static str, help: &'static str) -> &'static Family<Counter> {
    family(name, Some(help))
}

/// Looks up or creates the gauge family `name`.
pub fn gauge_family(name: &'static str, help: &'static str) -> &'static Family<Gauge> {
    family(name, Some(help))
}

/// Looks up or creates the histogram family `name`.
pub fn histogram_family(name: &'static str, help: &'static str) -> &'static Family<Histogram> {
    family(name, Some(help))
}

/// Point-in-time copy of one family: `(labels, value)` per cell, sorted by
/// labels.
#[derive(Debug, Clone)]
pub struct FamilySnapshot<V> {
    pub name: String,
    pub help: String,
    pub cells: Vec<(Labels, V)>,
}

impl<V> FamilySnapshot<V> {
    /// The cell whose labels are exactly `labels`.
    pub(crate) fn cell(&self, labels: &[(&str, &str)]) -> Option<&V> {
        self.cells.iter().find(|(have, _)| same_labels(have, labels)).map(|(_, v)| v)
    }
}

// Written out because the derive does not take generic types.
impl<V: Serialize> Serialize for FamilySnapshot<V> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("help".to_string(), self.help.to_value()),
            ("cells".to_string(), self.cells.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_labels_resolve_to_the_same_cell() {
        let fam = counter_family("labels.test.same", "test");
        let a = fam.with(&[("endpoint", "predict"), ("status", "200")]);
        let b = fam.with(&[("endpoint", "predict"), ("status", "200")]);
        let c = fam.with(&[("endpoint", "predict"), ("status", "429")]);
        assert!(std::ptr::eq(a, b), "identical labels must share a cell");
        assert!(!std::ptr::eq(a, c), "distinct labels must not share a cell");
    }

    #[test]
    fn families_are_registered_once() {
        let a = counter_family("labels.test.once", "first help wins");
        let b = counter_family("labels.test.once", "ignored");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.help(), "first help wins");
    }

    #[test]
    fn an_unlabeled_metric_is_its_familys_empty_label_cell() {
        let fam = counter_family("labels.test.unlabeled", "test");
        assert!(std::ptr::eq(crate::metrics::counter("labels.test.unlabeled"), fam.with(&[])));
        let owned = String::from("runtime");
        let cell = fam.with(&[("shard", &owned)]);
        assert!(std::ptr::eq(cell, fam.with(&[("shard", "runtime")])));
    }

    #[test]
    fn a_name_that_exposes_like_another_is_refused_naming_both() {
        use std::panic::catch_unwind;
        crate::metrics::counter("labels.test.collide");
        for refused in [
            catch_unwind(|| crate::metrics::counter("labels_test_collide")).map(|_| ()),
            catch_unwind(|| crate::metrics::gauge("labels.test.collide")).map(|_| ()),
            catch_unwind(|| histogram_family("labels-test-collide", "test")).map(|_| ()),
        ] {
            let msg = *refused.expect_err("must panic").downcast::<String>().unwrap();
            assert!(msg.contains("\"labels.test.collide\"") && msg.contains("labels_test_collide"));
        }
        // The refusals left the registry as it was.
        let cell = counter_family("labels.test.collide", "").with(&[]);
        assert!(std::ptr::eq(crate::metrics::counter("labels.test.collide"), cell));
    }
}
