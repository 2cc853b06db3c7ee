//! # nm-gpu — WGSL code generation with trace-level parity
//!
//! `gpu-sim` answers *how fast* an NM-SpMM kernel would run on the
//! paper's hardware; this crate answers *what that kernel is*. It is a
//! three-layer code-generation and validation subsystem:
//!
//! 1. **Shader IR** ([`ir`], [`mod@lower`]): a typed kernel description —
//!    [`TileLoop`](ir::Node::TileLoop), [`SharedStage`](ir::Node::SharedStage),
//!    [`GatherLoad`](ir::Node::GatherLoad), [`Epilogue`](ir::Node::Epilogue)
//!    nodes — lowered from the planner's blocking parameters and the N:M
//!    pattern config. Every kernel family of the paper's ladder (V1 → V3
//!    blocking, the skinny decode row path) lowers through the same path
//!    over the row-major column blocks the CPU kernel stages.
//! 2. **WGSL emission + validation** ([`wgsl`], [`validate`]): the IR
//!    pretty-prints to a complete WGSL compute shader, and a minimal
//!    in-repo parser/validator (no external toolchain, no network)
//!    checks bracket balance, entry-point shape, binding uniqueness,
//!    workgroup limits and identifier resolution — so malformed
//!    emission fails in unit tests and CI, not on a user's GPU.
//! 3. **Deterministic interpretation** ([`interp`], [`trace`]): a host
//!    interpreter executes the generated kernel's tile walk workgroup
//!    by workgroup, reproducing the CPU oracle's floating-point chains
//!    bit for bit and counting phase events that must match the
//!    simulator's [`gpu_sim::ExecutionTrace`] launch shape.
//!
//! The `nm-kernels` crate wires all three into its codegen verifier
//! (`CodegenPrepared`); a real `wgpu` runtime would replace layer 3 with a
//! device queue and keep layers 1–2 unchanged.

#![warn(missing_docs)]

pub mod interp;
pub mod ir;
pub mod lower;
pub mod stats;
pub mod trace;
pub mod validate;
pub mod wgsl;

pub use interp::{interpret, ColumnGroup, KernelBindings, WindowSpan};
pub use ir::{AluMode, KernelFamily, KernelIr, KernelSpec, Node};
pub use lower::{lower, SHARED_BUDGET_BYTES};
pub use stats::ShaderStats;
pub use trace::InterpTrace;
pub use validate::{validate_wgsl, ShaderInfo, ValidateOptions, WgslError};
pub use wgsl::emit_wgsl;

/// Glob-import of the subsystem's most used types.
pub mod prelude {
    pub use crate::interp::{interpret, ColumnGroup, KernelBindings, WindowSpan};
    pub use crate::ir::{AluMode, KernelFamily, KernelIr, KernelSpec, Node};
    pub use crate::lower::lower;
    pub use crate::stats::ShaderStats;
    pub use crate::trace::InterpTrace;
    pub use crate::validate::{validate_wgsl, ValidateOptions};
    pub use crate::wgsl::emit_wgsl;
}
