//! # nm-core — N:M vector-wise sparsity for matrix multiplication
//!
//! Core library of the NM-SpMM reproduction (Ma et al., IPDPS 2025,
//! arXiv:2503.01253). Implements the paper's sparse format and the offline
//! algorithms it depends on:
//!
//! * dense row-major [`MatrixF32`] with seeded generators,
//! * the N:M vector-wise configuration [`NmConfig`] (keep N vectors of
//!   length `L` out of every M along the `k` dimension),
//! * pruning ([`prune`]) by magnitude, random or strided selection,
//! * compression into [`NmSparseMatrix`] — the `B′` values matrix (`w×n`)
//!   plus the index matrix `D` (`w×q`), including bit-packed index layouts,
//! * offline pre-processing for the high-sparsity packing path
//!   ([`colinfo`]): `col_info` extraction, index reordering and layout
//!   transformation (paper Fig. 4, Listing 3),
//! * reference kernels ([`spmm`]) implementing Eq. (1) directly and via
//!   decompress-then-GEMM, plus an `f64` reference for accuracy checks,
//! * the confusion-matrix approximation metric of Eq. (2) ([`confusion`]).
//!
//! The GPU-side implementation and the native CPU V1→V3 ladder live in the
//! `nm-kernels` crate (on top of the `gpu-sim` substrate); both consume the
//! types defined here.
//!
//! ## Quick start
//!
//! ```
//! use nm_core::prelude::*;
//!
//! // 2:4 sparsity with vector length 4 — 50% of B is pruned away.
//! let cfg = NmConfig::new(2, 4, 4).unwrap();
//! let a = MatrixF32::random(64, 128, 1);
//! let b = MatrixF32::random(128, 96, 2);
//! let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
//! let c = nm_core::spmm::spmm_reference(&a, &sb);
//! assert_eq!((c.rows(), c.cols()), (64, 96));
//! ```

#![warn(missing_docs)]

pub mod colinfo;
pub mod confusion;
pub mod error;
pub mod index;
pub mod inspect;
pub mod json;
pub mod layerwise;
pub mod matrix;
pub mod pattern;
pub mod permute;
pub mod prune;
pub mod serialize;
pub mod sliced;
pub mod sparse;
pub mod spmm;

pub use colinfo::ColInfo;
pub use error::NmError;
pub use index::{IndexLayout, IndexMatrix};
pub use json::JsonValue;
pub use matrix::MatrixF32;
pub use pattern::NmConfig;
pub use sliced::{SlicedLayout, SlicedMatrix, StorageFormat};
pub use sparse::NmSparseMatrix;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::colinfo::ColInfo;
    pub use crate::error::NmError;
    pub use crate::index::{IndexLayout, IndexMatrix};
    pub use crate::matrix::MatrixF32;
    pub use crate::pattern::NmConfig;
    pub use crate::sliced::{SlicedLayout, SlicedMatrix, StorageFormat};
    pub use crate::sparse::NmSparseMatrix;
}
