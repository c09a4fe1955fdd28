//! A tape-based reverse-mode autodiff engine — the neural-network substrate
//! of the EDGE reproduction.
//!
//! The paper trains EDGE (and the UnicodeCNN baseline) with PyTorch on a
//! GPU; the Rust ML ecosystem has no equivalent for sparse GCN training, so
//! this crate implements the required subset from scratch:
//!
//! * [`Matrix`] — dense row-major f32 matrices with a register-blocked,
//!   pool-parallel matmul (dispatching directly onto `edge-par`),
//! * [`CsrMatrix`] — sparse CSR matrices for the constant GCN propagation
//!   operator,
//! * [`Tape`] — an eagerly evaluated autodiff graph covering dense/sparse
//!   products, the paper's activations (ReLU, softmax, softplus, softsign),
//!   row gather/concat, one-node-per-batch segment attention and segment sum
//!   over the tweets' entity sets, im2col/max-pool for the character CNN,
//!   and fused mixture-NLL heads with analytically derived,
//!   finite-difference-verified gradients,
//! * [`optim`] — SGD and Adam with decoupled weight decay (the paper's
//!   training configuration),
//! * [`init`] — Xavier/He initialization,
//! * [`TapeArena`] — cross-batch buffer recycling so the steady-state train
//!   loop performs zero heap allocations per batch,
//! * [`simd`] — runtime-detected AVX2 microkernels for matmul and spmm that
//!   are bit-for-bit identical to the scalar reference kernels (`EDGE_NO_SIMD`
//!   falls back to pure scalar),
//! * [`quant`] — f16 and per-row-absmax int8 codecs (scalar reference plus
//!   F16C/AVX2 dequant kernels) for compact mmap model artifacts.
//!
//! The engine is deliberately rank-2 (every value is a matrix): all tensors
//! in the EDGE model family are naturally matrices, and the restriction
//! keeps every backward rule small enough to test exhaustively.

pub mod arena;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod quant;
mod segment;
pub mod simd;
pub mod sparse;
pub mod tape;

pub use arena::{ArenaStats, TapeArena};
pub use matrix::{Matrix, PAR_THRESHOLD};
pub use optim::{Adam, Optimizer, Sgd};
pub use simd::{axpy, simd_active, simd_available, with_scalar_kernels};
pub use sparse::CsrMatrix;
pub use tape::{NodeId, ParamId, ParamStore, Tape};
