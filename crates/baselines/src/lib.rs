//! The comparison methods of the EDGE paper's Table III, re-implemented
//! from their descriptions: LocKDE (Ozdikis et al.), the NaiveBayes /
//! Kullback-Leibler grid classifiers and their `kde2d` kernel-smoothed
//! variants (Hulden et al.), Hyper-local geo-specific n-grams (Flatow et
//! al.) and the character-level UnicodeCNN with a mixture-of-von-Mises–
//! Fisher head (Izbicki et al.).
//!
//! All methods expose the [`Geolocator`] trait (now part of
//! `edge_core::predict`, where EDGE and BOW pick it up through the blanket
//! `Predictor` implementation) the benchmark harness evaluates through.

pub mod grid_model;
pub mod hyperlocal;
pub mod kullback_leibler;
pub mod lockde;
pub mod naive_bayes;
pub mod unicode_cnn;

pub use edge_core::{Geolocator, PointEval};
pub use grid_model::{model_words, GridCounts};
pub use hyperlocal::{HyperLocal, HyperLocalParams};
pub use kullback_leibler::KullbackLeibler;
pub use lockde::{LocKde, LocKdeParams};
pub use naive_bayes::NaiveBayes;
pub use unicode_cnn::{UnicodeCnn, UnicodeCnnConfig};
