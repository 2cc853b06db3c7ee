//! # nm-spmm — meta crate
//!
//! Re-exports the whole NM-SpMM workspace behind one dependency:
//!
//! * [`core`] — N:M vector-wise format, pruning, compression,
//!   offline pre-processing and the scalar reference kernels,
//! * [`sim`] — the GPGPU simulator substrate,
//! * [`gpu`] — the WGSL code-generation subsystem: typed shader IR,
//!   emitter + validator, and the deterministic host interpreter the
//!   codegen verifier executes through,
//! * [`kernels`] — simulated GPU kernels (dense GEMM, NM-SpMM
//!   V1/V2/V3, nmSPARSE, Sputnik), the native CPU kernel and the
//!   **prepared-session API**
//!   (`SessionBuilder` → `Session::load_with` → `PreparedLayer::forward`),
//!   the single public execution surface,
//! * [`serve`] — the serving front-end: bounded request queue,
//!   continuous batching of decode vectors into one skinny `forward`,
//!   deadlines and latency-distribution stats,
//! * [`analysis`] — arithmetic intensity, CMAR, roofline and
//!   the strategy advisor,
//! * [`workloads`] — the Llama 100-point dataset and Table II
//!   shapes.
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use gpu_sim as sim;
pub use nm_analysis as analysis;
pub use nm_core as core;
pub use nm_gpu as gpu;
pub use nm_kernels as kernels;
pub use nm_serve as serve;
pub use nm_workloads as workloads;

/// One-stop prelude: the full public execution + serving surface.
///
/// Covers the data types (`MatrixF32`, `NmConfig`, `NmSparseMatrix`,
/// errors), the device constructors, the prepared-session API
/// (`SessionBuilder`/`Session`/`LoadSpec`/`PreparedLayer` and `ExecRun`),
/// and the serving front-end (`Server`, its config, submit options,
/// tickets, completions and stats) — everything the examples and a
/// downstream serving binary need from one import.
pub mod prelude {
    pub use gpu_sim::prelude::*;
    pub use nm_core::prelude::*;
    pub use nm_kernels::{
        BackendKind, ExecRun, LoadSpec, NmVersion, Plan, PreparedLayer, PreparedModel, Session,
        SessionBuilder, ShapeClass, DECODE_MAX_ROWS,
    };
    pub use nm_serve::{
        Completion, DispatchInfo, RequestTiming, Server, ServerConfig, ServerStats, SubmitOptions,
        Ticket,
    };
}
