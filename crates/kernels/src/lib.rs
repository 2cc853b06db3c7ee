//! # nm-kernels — simulated GPU kernels
//!
//! The paper's kernels (Listings 1–4) and its comparison baselines, written
//! against the `gpu-sim` substrate. The simulated kernels **predict**; they
//! do not multiply. Each derives its event counts and timing-model report
//! from geometry alone (`predict`; `estimate` is its report), fast enough
//! to sweep the 100-point Llama dataset across devices. Counts and report
//! come from one profile, so they cannot drift apart. The only weight
//! data a prediction reads is NM-SpMM's measured `col_info` packing ratio
//! and Sputnik's nonzero count.
//!
//! Kernels:
//!
//! * [`dense::DenseGemmKernel`] — hierarchically blocked, double-buffered
//!   dense GEMM; the cuBLAS stand-in,
//! * [`nm::NmSpmmKernel`] with [`nm::NmVersion`] `V1`/`V2`/`V3` — the
//!   paper's step-wise optimization ladder (hierarchical blocking →
//!   sparsity-aware packing → pipelined double buffering),
//! * [`nmsparse::NmSparseKernel`] — the nmSPARSE VW baseline (per-window
//!   depth, no packing, no double buffering),
//! * [`sputnik::SputnikKernel`] — the Sputnik unstructured-SpMM baseline
//!   (CSR row-split with uncoalesced gathers).
//!
//! The five families are unified behind the [`plan::Planner`]:
//! `Planner::plan` runs the §III-A strategy decision plus the exhaustive
//! autotune once per `(device, shape class, N:M)` key and memoizes the
//! winning [`plan::Plan`] in a JSON-serializable [`plan::PlanCache`],
//! which a session can back with a file.
//!
//! ## The session API — the public execution surface
//!
//! Execution goes through [`session`]: a [`session::Session`] (built by
//! [`session::SessionBuilder`]) turns weights into
//! [`session::PreparedLayer`] handles that plan, stage and dispatch
//! **once**, then amortize that offline work across every
//! `forward`/`forward_batch` call — the paper's offline/online split as
//! an object. Examples, bench bins and the `nm-workloads` layer-sweep
//! driver all execute through sessions.
//!
//! ## One kernel runs; the model predicts beside it
//!
//! Every prepared layer runs one kernel, [`cpu`]: a **native** host
//! kernel (the paper's V1→V3 ladder stays in the simulator and the
//! codegen) whose tile sizes are derived from the plan's auto-tuned
//! blocking — the measured-performance path the `bench_measured` harness
//! sweeps. Two things attach to it without running it:
//!
//! * [`plan::Plan::predict`] — the simulated kernels' event counts and
//!   timing report for the plan, computed on demand from the plan and the
//!   weights' measured `col_info` packing ratio;
//! * [`codegen::CodegenPrepared`] — the plan lowered to a **generated WGSL
//!   compute shader** through the `nm-gpu` crate (typed shader IR →
//!   validated WGSL → deterministic host interpretation), the verifier
//!   that proves it bit-identical to the CPU kernel and phase-matched
//!   against the simulator's launch timeline.
//!
//! Plans record their [`plan::Provenance`]: the analytic cost model, or
//! **measurement** — [`measure`](mod@measure) is a short-run harness that times the
//! CPU kernel in place, and a session built with
//! [`session::SessionBuilder::autotune`] consults/persists the
//! measured-best choice through the same plan cache (keyed by host ISA
//! and thread count, so evidence never travels between machines).
//!
//! ## Data layout note
//!
//! As in the reference CUDA implementation, the activation matrix `A` is
//! assumed **k-major (column-major)** in global memory, so both the dense
//! tile load and the packed per-column gather are fully coalesced; the
//! traffic model accounts sectors for that k-major layout, whatever layout
//! the host kernel uses.

#![warn(missing_docs)]

pub mod autotune;
pub mod backend;
pub mod codegen;
pub mod common;
pub mod cpu;
pub mod dense;
pub mod measure;
pub mod nm;
pub mod nmsparse;
pub mod params;
pub mod plan;
pub mod session;
pub mod simd;
pub mod sparse_tc;
pub mod sputnik;

pub use autotune::{tune, TuneResult};
pub use backend::{BackendKind, ExecRun};
pub use codegen::CodegenPrepared;
pub use cpu::{spmm_cpu_prepared, spmv_cpu_prepared, CpuPrepared, CpuTiling};
pub use dense::DenseGemmKernel;
pub use measure::{
    measure, measurement_passes, race, AutotuneMode, MeasureOutcome, MeasureSpec, MeasuredSample,
    Spread,
};
pub use nm::{NmSpmmKernel, NmVersion};
pub use nmsparse::NmSparseKernel;
pub use params::{Blocking, BlockingParams};
pub use plan::{
    CacheStats, KernelChoice, MeasuredChoice, Plan, PlanCache, PlanHost, PlanKey, Planner,
    Provenance, ShapeClass, DECODE_MAX_ROWS,
};
pub use session::{BatchRun, LoadSpec, PreparedLayer, PreparedModel, Session, SessionBuilder};
pub use simd::{Isa, MicroKernel};
pub use sparse_tc::SparseTensorCoreKernel;
pub use sputnik::SputnikKernel;
