//! The Kullback-Leibler grid classifier of Hulden et al.: "finds the cell
//! whose word distribution best matches the word distribution of the
//! document, i.e., the cell with the minimum KL-divergence."
//!
//! `KL(p‖q_c) = Σ_w p(w) (log p(w) − log q_c(w))`; the `Σ p log p` term is
//! constant across cells, so the classifier minimizes the cross-entropy
//! `−Σ_w p(w) log q_c(w)` with Laplace-smoothed cell distributions `q_c`.

use edge_data::Tweet;
use edge_geo::{Grid, Point};

use crate::grid_model::{model_words, GridCounts};
use edge_core::Geolocator;
#[cfg(test)]
use edge_core::PointEval;

/// The trained KL grid model.
pub struct KullbackLeibler {
    counts: GridCounts,
    name: String,
}

impl KullbackLeibler {
    /// Fits the count-based variant.
    pub fn fit(train: &[Tweet], grid: Grid) -> Self {
        Self { counts: GridCounts::fit(train, grid), name: "Kullback-Leibler".to_string() }
    }

    /// The `kde2d` variant.
    pub fn fit_kde2d(train: &[Tweet], grid: Grid, bandwidth_cells: f64) -> Self {
        let counts = GridCounts::fit(train, grid).smoothed(bandwidth_cells);
        Self { counts, name: "Kullback-Leibler_kde2d".to_string() }
    }

    /// Wraps pre-computed counts.
    pub fn from_counts(counts: GridCounts, name: &str) -> Self {
        Self { counts, name: name.to_string() }
    }

    /// Per-cell cross-entropy (lower = better match).
    pub fn cell_cross_entropy(&self, text: &str) -> Vec<f64> {
        let words = model_words(text);
        let v = self.counts.vocab_size() as f64;
        let n = words.len().max(1) as f64;
        // Uniform document distribution over tokens: p(w) = multiplicity/n.
        let mut ce: Vec<f64> = (0..self.counts.grid().len())
            .map(|c| (self.counts.cell_total(c) + v).ln()) // Σ p(w)·log denom = log denom
            .collect();
        for w in &words {
            for &(c, count) in self.counts.word_cells(w) {
                ce[c as usize] -= ((count as f64) + 1.0).ln() / n;
            }
        }
        ce
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        self.counts.grid()
    }
}

impl Geolocator for KullbackLeibler {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_point(&self, text: &str) -> Option<Point> {
        let ce = self.cell_cross_entropy(text);
        let best = ce.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c)?;
        let grid = self.counts.grid();
        Some(grid.center_of(grid.cell_at(best)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, PresetSize};
    use edge_geo::DistanceReport;

    #[test]
    fn predicts_and_beats_center() {
        let d = nyma(PresetSize::Smoke, 5);
        let (train, test) = d.paper_split();
        let kl = KullbackLeibler::fit(train, Grid::new(d.bbox, 50, 50));
        let PointEval { pairs, coverage: cov, .. } = kl.evaluate_points(test);
        assert_eq!(cov, 1.0);
        let r = DistanceReport::from_pairs(&pairs).unwrap();
        let center: Vec<(Point, Point)> =
            test.iter().map(|t| (d.bbox.center(), t.location)).collect();
        let c = DistanceReport::from_pairs(&center).unwrap();
        assert!(r.mean_km < c.mean_km * 1.05, "KL {} vs center {}", r.mean_km, c.mean_km);
    }

    #[test]
    fn cross_entropy_shape_and_finiteness() {
        let d = nyma(PresetSize::Smoke, 6);
        let (train, _) = d.paper_split();
        let kl = KullbackLeibler::fit(train, Grid::new(d.bbox, 30, 30));
        let ce = kl.cell_cross_entropy("quarantine downtown");
        assert_eq!(ce.len(), kl.grid().len());
        assert!(ce.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn cell_with_matching_words_scores_lower() {
        let d = nyma(PresetSize::Smoke, 7);
        let (train, _) = d.paper_split();
        let kl = KullbackLeibler::fit(train, Grid::new(d.bbox, 30, 30));
        // A training tweet's own words should make its own cell competitive.
        let t = train.iter().find(|t| !t.gold_entities.is_empty()).unwrap();
        let ce = kl.cell_cross_entropy(&t.text);
        let own = kl.grid().index_of(kl.grid().cell_of(&t.location));
        let best = ce.iter().copied().fold(f64::INFINITY, f64::min);
        let rank = ce.iter().filter(|&&x| x < ce[own]).count();
        assert!(
            rank < kl.grid().len() / 4,
            "own cell ranks {rank}/{} (best {best}, own {})",
            kl.grid().len(),
            ce[own]
        );
    }

    #[test]
    fn kde2d_variant_name() {
        let d = nyma(PresetSize::Smoke, 8);
        let (train, _) = d.paper_split();
        let kl = KullbackLeibler::fit_kde2d(&train[..500], Grid::new(d.bbox, 20, 20), 1.0);
        assert_eq!(kl.name(), "Kullback-Leibler_kde2d");
        assert!(kl.predict_point("hello world").is_some());
    }
}
