//! The typed shader IR: what a generated NM-SpMM kernel *is*, before it
//! is rendered to WGSL text.
//!
//! A [`KernelSpec`] captures the blocking decision a plan made (tile
//! geometry, kernel family); [`crate::lower()`] turns it
//! into a [`KernelIr`] — a small tree of [`Node`]s mirroring the phase
//! structure the simulator's timing model assumes (prologue, k-block main
//! loop, epilogue). The IR is the single source of truth: the WGSL
//! emitter renders it, the host interpreter executes it, and the trace
//! comparison counts its phases.

use nm_core::error::{NmError, Result};
use nm_core::pattern::NmConfig;

/// The kernel families the generator can lower — the paper's V1→V3
/// optimization ladder plus the skinny decode specialization.
///
/// Every family computes the identical matrix; they differ in data
/// movement (staging, packing, pipelining) — which is exactly what the
/// IR structure encodes. Numerics follow the V3 semantics for all
/// families so the interpreter stays bit-identical to the `cpu_v3`
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Hierarchical blocking only: serial stage → sync → compute.
    V1,
    /// V1 + sparsity-aware `col_info` packing (dependent index loads).
    V2,
    /// V2 + double-buffered staging: prefetch next k-block's tile while
    /// computing the current one.
    V3,
    /// The decode specialization: one activation row per workgroup
    /// (`m ≤ DECODE_MAX_ROWS`), V3 pipeline structure.
    SkinnyDecode,
}

impl KernelFamily {
    /// Every family, ladder order then the decode specialization.
    pub fn all() -> [KernelFamily; 4] {
        [
            KernelFamily::V1,
            KernelFamily::V2,
            KernelFamily::V3,
            KernelFamily::SkinnyDecode,
        ]
    }

    /// Stable identifier (used in shader names and snapshot file names).
    pub fn name(&self) -> &'static str {
        match self {
            KernelFamily::V1 => "v1",
            KernelFamily::V2 => "v2",
            KernelFamily::V3 => "v3",
            KernelFamily::SkinnyDecode => "skinny_decode",
        }
    }

    /// Whether the family's staging pipeline alternates two shared
    /// buffers (the paper's V3 load/compute overlap).
    pub fn double_buffered(&self) -> bool {
        matches!(self, KernelFamily::V3 | KernelFamily::SkinnyDecode)
    }

    /// Whether the family stages a packed `A` panel through `col_info`
    /// (a dependent index load chain) at high sparsity. V1 always
    /// gathers directly.
    pub fn packs(&self) -> bool {
        !matches!(self, KernelFamily::V1)
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a generated kernel's multiply-accumulate chain rounds.
///
/// The two flavors are *not* interchangeable bit-wise: fused
/// multiply-add rounds once per step, separate multiply/add rounds
/// twice. The lowering picks the flavor the CPU oracle's micro-kernel
/// ISA uses so the interpreter reproduces its results exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluMode {
    /// Single-rounding fused multiply-add (`fma()` in WGSL) — what the
    /// vectorized SIMD micro-kernels execute.
    Fma,
    /// Separate multiply then add — the scalar micro-kernel's chain.
    MulAdd,
}

impl AluMode {
    /// Stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            AluMode::Fma => "fma",
            AluMode::MulAdd => "mul_add",
        }
    }
}

/// Which loop a [`Node::TileLoop`] walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopDim {
    /// The main loop over k-blocks (the simulator's `MainLoop` phase).
    KBlocks,
    /// Pruning windows (column spans) inside one column group.
    Windows,
    /// The 4→2→1 output-row ladder inside one window.
    RowLadder,
    /// SIMD lanes across one window's columns.
    Lanes,
}

impl LoopDim {
    /// Stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            LoopDim::KBlocks => "k_blocks",
            LoopDim::Windows => "windows",
            LoopDim::RowLadder => "row_ladder",
            LoopDim::Lanes => "lanes",
        }
    }
}

/// One node of the shader IR tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A counted loop over `dim`, executing `body` each iteration.
    TileLoop {
        /// Which dimension the loop walks.
        dim: LoopDim,
        /// Iteration count (static for the lowered spec).
        count: usize,
        /// Nodes executed per iteration.
        body: Vec<Node>,
    },
    /// Fill one shared-memory tile (`floats` f32 slots) from global
    /// memory — the `transformLayout` panel fill.
    SharedStage {
        /// The workgroup-memory buffer name (`bs0` / `bs1`).
        buffer: &'static str,
        /// f32 slots filled.
        floats: usize,
        /// Whether the fill targets the *next* iteration's buffer while
        /// the current one is consumed (V3 pipelining).
        prefetch: bool,
    },
    /// Resolve gather indices for one k-block's windows and load the
    /// `A` operands they name.
    GatherLoad {
        /// Whether the load chain goes through the packed `col_info`
        /// indirection (a dependent load) rather than direct dense
        /// offsets.
        packed: bool,
    },
    /// The multiply-accumulate chain for one window span.
    Compute {
        /// Rounding flavor of the fast-path chain.
        alu: AluMode,
        /// Whether the general path skips zero `A` operands (it always
        /// does; the fast path never does).
        zero_skip: bool,
        /// Output rows per register tile.
        rows: usize,
        /// SIMD lanes per tile (16 or 32).
        lanes: usize,
    },
    /// A workgroup barrier.
    Sync,
    /// Write the accumulated tile back to `C`.
    Epilogue {
        /// `true`: `C += acc` (the ladder's per-k-block contract);
        /// `false` would overwrite.
        accumulate: bool,
    },
}

impl Node {
    /// Total nodes in this subtree (self included).
    pub fn count(&self) -> usize {
        match self {
            Node::TileLoop { body, .. } => 1 + body.iter().map(Node::count).sum::<usize>(),
            _ => 1,
        }
    }
}

/// Everything the lowering needs to know about one kernel instance:
/// the problem geometry, the plan's (clamped) tile decision, and the
/// execution flavor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// The kernel family to lower.
    pub family: KernelFamily,
    /// The N:M(:L) sparsity configuration.
    pub cfg: NmConfig,
    /// Output columns.
    pub n: usize,
    /// Dense depth of `A`.
    pub k: usize,
    /// Compressed rows of `B′` (`k_pad · N / M`).
    pub w: usize,
    /// Output rows per workgroup (grid-y tile).
    pub mb: usize,
    /// Columns per column group (multiple of `L`) — the clamped CPU
    /// `nb`.
    pub nb: usize,
    /// Dense depth per k-block (multiple of `M`) — the clamped CPU
    /// `kb`.
    pub kb: usize,
    /// Grid-x extent: column blocks.
    pub groups: usize,
    /// Whether the family's data path stages a packed `A` panel (V2/V3
    /// at high sparsity).
    pub packed: bool,
    /// Whether the multiply-accumulate chain fuses (SIMD micro-kernel)
    /// or rounds twice (scalar).
    pub fma: bool,
}

impl KernelSpec {
    /// Compressed rows per k-block (`kb · N / M`).
    pub fn ub(&self) -> usize {
        self.kb * self.cfg.n / self.cfg.m
    }

    /// Main-loop iterations: k-blocks covering the compressed rows.
    pub fn kblocks(&self) -> usize {
        self.w.div_ceil(self.ub().max(1)).max(1)
    }

    /// Pruning windows across the output width.
    pub fn windows(&self) -> usize {
        self.n.div_ceil(self.cfg.l)
    }

    /// The generated kernel's name: family, the `rowmajor` staging, and
    /// geometry — stable, so snapshots and traces can be keyed by it.
    pub fn name(&self) -> String {
        format!(
            "nm_{}_rowmajor_{}x{}x{}",
            self.family, self.mb, self.nb, self.kb
        )
    }

    /// Reject geometry the kernel families cannot execute.
    ///
    /// # Errors
    /// [`NmError::InvalidBlocking`] for zero or misaligned tiles.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 || self.k == 0 || self.w == 0 {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "codegen needs a non-empty problem (n={}, k={}, w={})",
                    self.n, self.k, self.w
                ),
            });
        }
        if self.mb == 0 || self.groups == 0 {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "codegen needs a positive grid (mb={}, groups={})",
                    self.mb, self.groups
                ),
            });
        }
        if self.nb == 0 || !self.nb.is_multiple_of(self.cfg.l) {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "nb={} must be a positive multiple of L={}",
                    self.nb, self.cfg.l
                ),
            });
        }
        if self.kb == 0 || !self.kb.is_multiple_of(self.cfg.m) {
            return Err(NmError::InvalidBlocking {
                reason: format!(
                    "kb={} must be a positive multiple of M={}",
                    self.kb, self.cfg.m
                ),
            });
        }
        Ok(())
    }
}

/// A lowered kernel: the IR tree plus the launch-shape facts the
/// emitter, interpreter, and trace comparison all share.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// The spec this was lowered from.
    pub spec: KernelSpec,
    /// Workgroup shape `(x lanes, y rows)`; `x · y ≤ 256`.
    pub workgroup: (u32, u32),
    /// f32 slots per shared staging buffer.
    pub shared_floats: usize,
    /// Shared staging buffers (2 when double-buffered).
    pub buffers: usize,
    /// Columns staged per shared strip (a multiple of `L`, shrunk from
    /// `nb` until the buffers fit the workgroup-memory budget).
    pub strip_cols: usize,
    /// Nodes executed once before the main loop (first tile fill for
    /// pipelined families).
    pub prologue: Vec<Node>,
    /// The main loop — always a [`Node::TileLoop`] over
    /// [`LoopDim::KBlocks`].
    pub main_loop: Node,
    /// Nodes executed once after the main loop (the `C` write-back).
    pub epilogue: Vec<Node>,
}

impl KernelIr {
    /// Total IR nodes across prologue, main loop, and epilogue.
    pub fn node_count(&self) -> usize {
        self.prologue.iter().map(Node::count).sum::<usize>()
            + self.main_loop.count()
            + self.epilogue.iter().map(Node::count).sum::<usize>()
    }

    /// Main-loop iteration count.
    pub fn main_iters(&self) -> usize {
        match &self.main_loop {
            Node::TileLoop { count, .. } => *count,
            _ => 0,
        }
    }

    /// Workgroup-memory footprint in bytes (all staging buffers).
    pub fn shared_bytes(&self) -> usize {
        self.shared_floats * 4 * self.buffers
    }

    /// Threads per workgroup.
    pub fn threads(&self) -> u32 {
        self.workgroup.0 * self.workgroup.1
    }
}
