//! # gpu-sim — a GPGPU substrate simulator
//!
//! The NM-SpMM paper is evaluated on NVIDIA A100/RTX 3090/RTX 4090 hardware.
//! This crate is the substitution for that hardware: a simulator that models
//! exactly the architectural quantities the paper's analysis is built on —
//!
//! * device configurations encoding the paper's Table III
//!   ([`device::DeviceConfig`] with [`device::a100_80g`],
//!   [`device::rtx3090`], [`device::rtx4090`] presets),
//! * warp-level global-memory coalescing (32-byte sectors, [`mem`]),
//! * shared-memory bank conflicts (32 banks × 4 B, replay counting),
//! * occupancy (registers / shared memory / warp slots, [`occupancy`]),
//! * an L2 inter-block reuse model ([`l2`]),
//! * a pipeline-aware timing model ([`timing`]) reproducing the paper's
//!   Fig. 5/6 overlap structure: serial (V1/V2) vs double-buffered (V3)
//!   main loops, DRAM latency exposure, and multi-block interleaving,
//! * the machine roofline ([`roofline`]).
//!
//! Kernels (in the `nm-kernels` crate) do not compute results here: they
//! derive their event counts ([`stats::KernelStats`]) and resource shape
//! ([`timing::KernelProfile`]) from the problem's geometry, and this
//! crate's timing model turns them into cycles, seconds, TFLOPS and
//! efficiency.

#![warn(missing_docs)]

pub mod device;
pub mod energy;
pub mod l2;
pub mod mem;
pub mod occupancy;
pub mod roofline;
pub mod stats;
pub mod timing;
pub mod trace;

pub use device::DeviceConfig;
pub use stats::KernelStats;
pub use timing::{KernelProfile, LaunchReport, PipelineMode};
pub use trace::{ExecutionTrace, PhaseCounts};

/// Glob-import of the simulator's most used types.
pub mod prelude {
    pub use crate::device::{a100_80g, a100_ncu_locked, rtx3090, rtx4090, DeviceConfig};
    pub use crate::occupancy::{BlockResources, Occupancy};
    pub use crate::roofline::Roofline;
    pub use crate::stats::KernelStats;
    pub use crate::timing::{Bound, KernelProfile, LaunchReport, PipelineMode};
    pub use crate::trace::{ExecutionTrace, PhaseCounts};
}
