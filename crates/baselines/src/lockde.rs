//! LocKDE (Ozdikis et al.): per-term kernel density estimation over a
//! uniform grid, "where the bandwidth of the kernel function for each term
//! is determined separately according to the location indicativeness of the
//! term."
//!
//! Training fits a [`TermKde`] per sufficiently frequent term (adaptive
//! bandwidth: focused terms narrow, diffuse terms wide) and precomputes each
//! term's density surface over the grid. Prediction sums the surfaces of a
//! tweet's terms, weighted by indicativeness (1/bandwidth), and returns the
//! argmax cell centre.

use std::collections::HashMap;

use edge_data::Tweet;
use edge_geo::{Grid, Point, TermKde};

use crate::grid_model::model_words;
use edge_core::Geolocator;
#[cfg(test)]
use edge_core::PointEval;

/// The trained LocKDE model.
pub struct LocKde {
    grid: Grid,
    /// term → (density surface over the grid, indicativeness weight).
    surfaces: HashMap<String, (Vec<f32>, f64)>,
}

/// LocKDE fitting parameters.
#[derive(Debug, Clone, Copy)]
pub struct LocKdeParams {
    /// Minimum occurrences for a term to get a KDE.
    pub min_count: usize,
    /// Bandwidth bounds in km.
    pub min_bw_km: f64,
    /// Upper bandwidth bound in km.
    pub max_bw_km: f64,
    /// Max training points per term (dense terms are stride-subsampled).
    pub max_points: usize,
}

impl Default for LocKdeParams {
    fn default() -> Self {
        Self { min_count: 3, min_bw_km: 0.5, max_bw_km: 8.0, max_points: 400 }
    }
}

impl LocKde {
    /// Fits LocKDE. `region_scale_km` calibrates indicativeness (use
    /// `MetroArea::scale_km()` or the bbox diagonal / 2).
    pub fn fit(train: &[Tweet], grid: Grid, region_scale_km: f64, params: LocKdeParams) -> Self {
        let mut term_points: HashMap<String, Vec<Point>> = HashMap::new();
        for t in train {
            for w in model_words(&t.text) {
                term_points.entry(w).or_default().push(t.location);
            }
        }
        let terms: Vec<(String, Vec<Point>)> =
            term_points.into_iter().filter(|(_, pts)| pts.len() >= params.min_count).collect();
        let mut fitted: Vec<(Vec<f32>, f64)> = vec![(Vec::new(), 0.0); terms.len()];
        edge_par::parallel_for_chunks_mut(&mut fitted, 1, |i, slot| {
            // Dense terms are stride-subsampled down to about `max_points`.
            let pts = &terms[i].1;
            let stride = (pts.len() / params.max_points).max(1);
            let pts: Vec<Point> = pts.iter().step_by(stride).copied().collect();
            let kde = TermKde::fit(pts, params.min_bw_km, params.max_bw_km, region_scale_km);
            let weight = 1.0 / kde.bandwidth_km();
            let surface: Vec<f32> = kde.density_grid(&grid).into_iter().map(|d| d as f32).collect();
            slot[0] = (surface, weight);
        });
        let surfaces: HashMap<String, (Vec<f32>, f64)> =
            terms.into_iter().map(|(term, _)| term).zip(fitted).collect();
        Self { grid, surfaces }
    }

    /// Number of terms with a fitted KDE.
    pub fn n_terms(&self) -> usize {
        self.surfaces.len()
    }

    /// The weighted density surface of a tweet (empty vec when no known
    /// term).
    pub fn tweet_surface(&self, text: &str) -> Option<Vec<f64>> {
        let mut acc: Option<Vec<f64>> = None;
        for w in model_words(text) {
            if let Some((surface, weight)) = self.surfaces.get(&w) {
                let acc = acc.get_or_insert_with(|| vec![0.0; self.grid.len()]);
                for (a, &d) in acc.iter_mut().zip(surface) {
                    *a += weight * d as f64;
                }
            }
        }
        acc
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

impl Geolocator for LocKde {
    fn name(&self) -> &str {
        "LocKDE"
    }

    fn predict_point(&self, text: &str) -> Option<Point> {
        let surface = self.tweet_surface(text)?;
        let best = surface.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c)?;
        Some(self.grid.center_of(self.grid.cell_at(best)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, MetroArea, PresetSize};
    use edge_geo::DistanceReport;

    fn fitted() -> (LocKde, edge_data::Dataset) {
        let d = nyma(PresetSize::Smoke, 9);
        let (train, _) = d.paper_split();
        let scale = MetroArea::new_york_like().scale_km();
        let model = LocKde::fit(train, Grid::new(d.bbox, 50, 50), scale, LocKdeParams::default());
        (model, d)
    }

    #[test]
    fn fits_many_terms() {
        let (m, _) = fitted();
        assert!(m.n_terms() > 100, "terms {}", m.n_terms());
    }

    #[test]
    fn unknown_terms_abstain_gracefully() {
        let (m, _) = fitted();
        // LocKDE with no known term has no surface; predict falls back to None.
        assert!(m.predict_point("zzzqqq xyzzy").is_none());
    }

    #[test]
    fn predictions_inside_region_and_beat_center() {
        let (m, d) = fitted();
        let (_, test) = d.paper_split();
        let PointEval { pairs, coverage: cov, .. } = m.evaluate_points(test);
        assert!(cov > 0.5, "coverage {cov}");
        for (p, _) in &pairs {
            assert!(d.bbox.contains(p));
        }
        let r = DistanceReport::from_pairs(&pairs).unwrap();
        let center: Vec<(Point, Point)> =
            pairs.iter().map(|(_, t)| (d.bbox.center(), *t)).collect();
        let c = DistanceReport::from_pairs(&center).unwrap();
        assert!(r.median_km < c.median_km, "LocKDE {} vs center {}", r.median_km, c.median_km);
    }

    #[test]
    fn focused_term_predicts_near_its_cluster() {
        let (m, d) = fitted();
        let (train, _) = d.paper_split();
        // Use a signature entity's first word; its tweets cluster tightly.
        let majestic_tweets: Vec<&edge_data::Tweet> = train
            .iter()
            .filter(|t| t.gold_entities.iter().any(|e| e == "majestic_theatre"))
            .collect();
        if majestic_tweets.len() >= 3 {
            let centroid = edge_geo::point::centroid(
                &majestic_tweets.iter().map(|t| t.location).collect::<Vec<_>>(),
            )
            .unwrap();
            let p = m.predict_point("majestic theatre").unwrap();
            assert!(
                p.haversine_km(&centroid) < 5.0,
                "prediction {:?} far from cluster {:?}",
                p,
                centroid
            );
        }
    }

    #[test]
    fn tweet_surface_is_additive() {
        let (m, _) = fitted();
        if let (Some(a), Some(b)) = (m.tweet_surface("majestic"), m.tweet_surface("theatre")) {
            let both = m.tweet_surface("majestic theatre").unwrap();
            for i in 0..both.len() {
                assert!((both[i] - a[i] - b[i]).abs() < 1e-9);
            }
        }
    }
}
