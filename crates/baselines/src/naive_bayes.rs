//! The NaiveBayes grid classifier of Hulden et al.: "treats the
//! geolocation as a classification problem and uses a Naive Bayes
//! classifier to assign a document to a geographical grid cell by counting
//! the number of words from each cell."
//!
//! Score of cell `c` for tweet `w₁..w_n`:
//! `log P(c) + Σᵢ log P(wᵢ|c)` with Laplace smoothing
//! `P(w|c) = (count(w,c) + 1) / (total(c) + |V|)`.
//!
//! The same struct serves the `NaiveBayes_kde2d` variant: construct it from
//! a [`GridCounts::smoothed`] table.

use edge_data::Tweet;
use edge_geo::{Grid, Point};

use crate::grid_model::{model_words, GridCounts};
use edge_core::Geolocator;
#[cfg(test)]
use edge_core::PointEval;

/// The trained NaiveBayes grid model.
pub struct NaiveBayes {
    counts: GridCounts,
    name: String,
}

impl NaiveBayes {
    /// Fits the count-based variant on the paper's 100×100 grid (or any
    /// provided grid).
    pub fn fit(train: &[Tweet], grid: Grid) -> Self {
        Self { counts: GridCounts::fit(train, grid), name: "NaiveBayes".to_string() }
    }

    /// The `kde2d` variant: kernel-smoothed counts.
    pub fn fit_kde2d(train: &[Tweet], grid: Grid, bandwidth_cells: f64) -> Self {
        let counts = GridCounts::fit(train, grid).smoothed(bandwidth_cells);
        Self { counts, name: "NaiveBayes_kde2d".to_string() }
    }

    /// Wraps pre-computed counts (used by the harness to share one fit
    /// between NB and KL).
    pub fn from_counts(counts: GridCounts, name: &str) -> Self {
        Self { counts, name: name.to_string() }
    }

    /// Per-cell log-posterior scores for a text.
    pub fn cell_scores(&self, text: &str) -> Vec<f64> {
        let words = model_words(text);
        let n_cells = self.counts.grid().len();
        let v = self.counts.vocab_size() as f64;
        let total_tweets = self.counts.total_tweets().max(1.0);
        let mut scores: Vec<f64> = (0..n_cells)
            .map(|c| {
                // log P(c), with a floor so empty cells stay comparable.
                ((self.counts.cell_tweet_count(c) + 0.5) / (total_tweets + 0.5 * n_cells as f64))
                    .ln()
                    // The per-word denominators are independent of the word.
                    - words.len() as f64 * (self.counts.cell_total(c) + v).ln()
            })
            .collect();
        for w in &words {
            for &(c, count) in self.counts.word_cells(w) {
                // Sparse correction: log(count+1) − log(1) over the smoothed base.
                scores[c as usize] += ((count as f64) + 1.0).ln();
            }
        }
        scores
    }

    /// The grid the model classifies over.
    pub fn grid(&self) -> &Grid {
        self.counts.grid()
    }
}

impl Geolocator for NaiveBayes {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_point(&self, text: &str) -> Option<Point> {
        let scores = self.cell_scores(text);
        let best = scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c)?;
        let grid = self.counts.grid();
        Some(grid.center_of(grid.cell_at(best)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, PresetSize};
    use edge_geo::DistanceReport;

    fn fitted() -> (NaiveBayes, edge_data::Dataset) {
        let d = nyma(PresetSize::Smoke, 3);
        let (train, _) = d.paper_split();
        (NaiveBayes::fit(train, Grid::new(d.bbox, 50, 50)), d)
    }

    #[test]
    fn predicts_inside_region() {
        let (nb, d) = fitted();
        let p = nb.predict_point("majestic theatre tonight").unwrap();
        assert!(d.bbox.contains(&p));
    }

    #[test]
    fn scores_cover_grid() {
        let (nb, _) = fitted();
        let scores = nb.cell_scores("anything at all");
        assert_eq!(scores.len(), nb.grid().len());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn geo_word_shifts_prediction_toward_its_cluster() {
        // A word seen only at one location should pull the argmax there.
        let (nb, d) = fitted();
        let (train, _) = d.paper_split();
        // Find a training tweet with a distinctive multi-use word.
        let target = train
            .iter()
            .find(|t| !t.gold_entities.is_empty() && t.gold_entities[0].contains('_'))
            .expect("entity tweet");
        let word = target.gold_entities[0].split('_').next().unwrap().to_string();
        let p = nb.predict_point(&word).unwrap();
        // Prediction lands within the region; a stronger statement (distance
        // to the entity) is covered by the integration tests.
        assert!(d.bbox.contains(&p));
    }

    #[test]
    fn beats_center_baseline_on_test_split() {
        let (nb, d) = fitted();
        let (_, test) = d.paper_split();
        let PointEval { pairs, coverage: cov, .. } = nb.evaluate_points(test);
        assert_eq!(cov, 1.0, "NB covers everything");
        let r = DistanceReport::from_pairs(&pairs).unwrap();
        let center: Vec<(Point, Point)> =
            test.iter().map(|t| (d.bbox.center(), t.location)).collect();
        let c = DistanceReport::from_pairs(&center).unwrap();
        assert!(r.mean_km < c.mean_km * 1.05, "NB {} vs center {}", r.mean_km, c.mean_km);
    }

    #[test]
    fn kde2d_variant_smooths_scores() {
        let d = nyma(PresetSize::Smoke, 4);
        let (train, test) = d.paper_split();
        let raw = NaiveBayes::fit(train, Grid::new(d.bbox, 40, 40));
        let smooth = NaiveBayes::fit_kde2d(train, Grid::new(d.bbox, 40, 40), 1.0);
        assert_eq!(smooth.name(), "NaiveBayes_kde2d");
        let PointEval { pairs: pairs_raw, .. } = raw.evaluate_points(&test[..300.min(test.len())]);
        let PointEval { pairs: pairs_smooth, .. } =
            smooth.evaluate_points(&test[..300.min(test.len())]);
        let r_raw = DistanceReport::from_pairs(&pairs_raw).unwrap();
        let r_smooth = DistanceReport::from_pairs(&pairs_smooth).unwrap();
        // Both produce sane results; the smoothed variant should not be
        // drastically worse (in the paper it is better at @5km).
        assert!(r_smooth.mean_km < r_raw.mean_km * 1.5);
    }
}
