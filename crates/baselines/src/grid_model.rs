//! Shared substrate of the Hulden-et-al. grid classifiers: per-cell word
//! statistics over the paper's uniform 100×100 grid, in both raw-count and
//! kernel-smoothed (`kde2d`) form.

use std::collections::HashMap;

use edge_data::Tweet;
use edge_geo::{Grid, Kde2d};
use edge_text::{is_stopword, lower_words};

/// The tokens a grid model sees in a tweet: lowercase words minus stop
/// words.
pub fn model_words(text: &str) -> Vec<String> {
    lower_words(text).into_iter().filter(|w| !is_stopword(w)).collect()
}

/// Per-cell word counts plus priors over the paper's uniform grid.
#[derive(Debug, Clone)]
pub struct GridCounts {
    grid: Grid,
    /// word → sparse `(cell index, count)` list, ascending by cell.
    word_cells: HashMap<String, Vec<(u32, f32)>>,
    /// Total word tokens per cell.
    cell_totals: Vec<f64>,
    /// Tweets per cell (the class prior).
    cell_tweets: Vec<f64>,
    vocab_size: usize,
}

impl GridCounts {
    /// Accumulates counts from the training tweets.
    pub fn fit(train: &[Tweet], grid: Grid) -> Self {
        let mut word_cells: HashMap<String, HashMap<u32, f32>> = HashMap::new();
        let mut cell_totals = vec![0.0; grid.len()];
        let mut cell_tweets = vec![0.0; grid.len()];
        for t in train {
            let cell = grid.index_of(grid.cell_of(&t.location));
            cell_tweets[cell] += 1.0;
            for w in model_words(&t.text) {
                *word_cells.entry(w).or_default().entry(cell as u32).or_insert(0.0) += 1.0;
                cell_totals[cell] += 1.0;
            }
        }
        let word_cells = word_cells
            .into_iter()
            .map(|(w, cells)| {
                let mut v: Vec<(u32, f32)> = cells.into_iter().collect();
                v.sort_unstable_by_key(|&(c, _)| c);
                (w, v)
            })
            .collect::<HashMap<_, _>>();
        let vocab_size = word_cells.len();
        Self { grid, word_cells, cell_totals, cell_tweets, vocab_size }
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Vocabulary size (used in Laplace smoothing).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The sparse per-cell counts of `word` (empty when unseen).
    pub fn word_cells(&self, word: &str) -> &[(u32, f32)] {
        self.word_cells.get(word).map_or(&[], Vec::as_slice)
    }

    /// Total word mass in cell `c`.
    pub fn cell_total(&self, c: usize) -> f64 {
        self.cell_totals[c]
    }

    /// Tweet (prior) mass in cell `c`.
    pub fn cell_tweet_count(&self, c: usize) -> f64 {
        self.cell_tweets[c]
    }

    /// Total tweet mass.
    pub fn total_tweets(&self) -> f64 {
        self.cell_tweets.iter().sum()
    }

    /// The kde2d variant: every word's cell histogram (and the totals) are
    /// smoothed with an isotropic 2-D Gaussian kernel of `bandwidth_cells`.
    /// Smoothed mass below `1e-4` is dropped to keep the tables sparse.
    pub fn smoothed(&self, bandwidth_cells: f64) -> Self {
        let kde = Kde2d::new(self.grid.clone(), bandwidth_cells);
        let smooth_sparse = |sparse: &Vec<(u32, f32)>| -> Vec<(u32, f32)> {
            let mut dense = vec![0.0f64; self.grid.len()];
            for &(c, v) in sparse {
                dense[c as usize] = v as f64;
            }
            kde.smooth(&dense)
                .into_iter()
                .enumerate()
                .filter(|&(_, v)| v > 1e-4)
                .map(|(c, v)| (c as u32, v as f32))
                .collect()
        };
        let words: Vec<(&String, &Vec<(u32, f32)>)> = self.word_cells.iter().collect();
        let mut smoothed: Vec<Vec<(u32, f32)>> = vec![Vec::new(); words.len()];
        edge_par::parallel_for_chunks_mut(&mut smoothed, 1, |i, slot| {
            slot[0] = smooth_sparse(words[i].1);
        });
        let word_cells: HashMap<String, Vec<(u32, f32)>> =
            words.iter().map(|&(w, _)| w.clone()).zip(smoothed).collect();
        // Recompute totals from the smoothed words so the conditional
        // distributions stay consistent.
        let mut cell_totals = vec![0.0; self.grid.len()];
        for cells in word_cells.values() {
            for &(c, v) in cells {
                cell_totals[c as usize] += v as f64;
            }
        }
        Self {
            grid: self.grid.clone(),
            word_cells,
            cell_totals,
            cell_tweets: kde.smooth(&self.cell_tweets),
            vocab_size: self.vocab_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, PresetSize};
    use edge_geo::BBox;

    fn counts() -> GridCounts {
        let d = nyma(PresetSize::Smoke, 1);
        let (train, _) = d.paper_split();
        GridCounts::fit(train, Grid::new(d.bbox, 40, 40))
    }

    #[test]
    fn model_words_filters() {
        let w = model_words("The Majestic Theatre was GREAT today");
        assert_eq!(w, vec!["majestic", "theatre"]);
    }

    #[test]
    fn totals_are_consistent() {
        let c = counts();
        let word_mass: f64 = (0..c.grid().len()).map(|i| c.cell_total(i)).sum();
        let from_words: f64 =
            c.word_cells.values().flat_map(|v| v.iter().map(|&(_, x)| x as f64)).sum();
        assert!((word_mass - from_words).abs() < 1e-6);
        assert!(c.total_tweets() > 2900.0);
        assert!(c.vocab_size() > 100);
    }

    #[test]
    fn word_cells_sorted_and_bounded() {
        let c = counts();
        for cells in c.word_cells.values() {
            assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(cells.iter().all(|&(cell, v)| (cell as usize) < c.grid().len() && v > 0.0));
        }
    }

    #[test]
    fn unseen_word_is_empty() {
        assert!(counts().word_cells("qqqzzz").is_empty());
    }

    #[test]
    fn smoothing_preserves_mass_and_spreads() {
        let c = counts();
        let s = c.smoothed(1.0);
        // Total mass approximately preserved (edge truncation + sparsity cut).
        let before: f64 = (0..c.grid().len()).map(|i| c.cell_total(i)).sum();
        let after: f64 = (0..s.grid().len()).map(|i| s.cell_total(i)).sum();
        assert!((before - after).abs() / before < 0.05, "{before} vs {after}");
        // A word's support grows.
        let word =
            c.word_cells.iter().max_by_key(|(_, v)| v.len()).map(|(w, _)| w.clone()).unwrap();
        assert!(s.word_cells(&word).len() > c.word_cells(&word).len());
    }

    #[test]
    fn empty_training_set_is_harmless() {
        let g = Grid::new(BBox::new(0.0, 1.0, 0.0, 1.0), 5, 5);
        let c = GridCounts::fit(&[], g);
        assert_eq!(c.vocab_size(), 0);
        assert_eq!(c.total_tweets(), 0.0);
    }
}
