//! Geographic and statistical substrate for the EDGE reproduction.
//!
//! This crate provides everything the EDGE model, its baselines and its
//! evaluation harness need to reason about *where* things are:
//!
//! * [`point::Point`] — WGS-84 latitude/longitude points with haversine
//!   distances and a local planar (km) projection,
//! * [`bbox::BBox`] — axis-aligned bounding boxes over lat/lon,
//! * [`grid::Grid`] — uniform cell grids used by the grid-classifier
//!   baselines (NaiveBayes, Kullback-Leibler, LocKDE),
//! * [`gaussian::BivariateGaussian`] — the bivariate normal with the
//!   `(σ₁, σ₂, ρ)` covariance parameterization of the paper's Eq. 5,
//!   including confidence ellipses for the Figure-7 use case,
//! * [`mixture::GaussianMixture`] — the paper's prediction object: pdf,
//!   log-pdf, sampling, density-argmax mode extraction (Eq. 14), and
//!   probability-mass-within-radius queries (the RDP metric),
//! * [`vmf::VonMisesFisher`] — the mixture-of-von-Mises–Fisher output
//!   distribution used by the UnicodeCNN baseline,
//! * [`kde::Kde2d`] / [`kde::TermKde`] — grid-smoothing and per-term
//!   adaptive-bandwidth kernel density estimation,
//! * [`metrics`] — Mean / Median / @3km / @5km and Radius Density
//!   Precision, the evaluation metrics of Tables III–IV and Figure 5,
//! * [`heatmap`] — density heatmaps for the Figure 1/8/9 use cases,
//! * [`simd`] — runtime-detected AVX2+FMA kernels for batched haversine
//!   distances, accuracy-gated against the scalar path (`EDGE_NO_SIMD`
//!   disables them).
//!
//! Everything is deterministic given an explicit seed; nothing here reads
//! clocks or global RNG state.

pub mod bbox;
pub mod gaussian;
pub mod grid;
pub mod heatmap;
pub mod kde;
pub mod metrics;
pub mod mixture;
pub mod point;
pub mod simd;
pub mod vmf;

pub use bbox::BBox;
pub use gaussian::{BivariateGaussian, ConfidenceEllipse};
pub use grid::{Cell, Grid};
pub use heatmap::Heatmap;
pub use kde::{Kde2d, TermKde};
pub use metrics::{rdp, DistanceReport};
pub use mixture::GaussianMixture;
pub use point::Point;
pub use simd::{haversine_km_batch, simd_active, simd_available, with_scalar_kernels};
pub use vmf::{MvMfMixture, VonMisesFisher};

/// Mean Earth radius in kilometres (IUGG value), used by all haversine math.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Kilometres per degree of latitude (spherical approximation).
pub const KM_PER_DEG_LAT: f64 = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;
