//! entity2vec substrate: skip-gram-with-negative-sampling embeddings,
//! implemented from scratch (the paper uses gensim's word2vec, unavailable
//! in Rust).
//!
//! The EDGE pipeline composes these as: NER phrase tokens → SGNS →
//! per-entity semantic embeddings that seed the GCN diffusion.

pub mod embedding;
pub mod sampler;
pub mod sgns;

pub use embedding::{cosine, Embedding};
pub use sampler::{keep_probability, NegativeTable};
pub use sgns::{train_sgns, SgnsConfig};
