//! Lowering: [`KernelSpec`] → [`KernelIr`].
//!
//! The structure each family gets is the structure the simulator's
//! timing model (and the CUDA original) assumes:
//!
//! * **V1** — serial pipeline: stage tile → barrier → gather + compute →
//!   barrier, twice-synchronized per k-block.
//! * **V2** — V1 plus the packed `col_info` staging: the gather becomes
//!   a dependent load chain through the reordered indices.
//! * **V3 / skinny decode** — double-buffered: the prologue fills the
//!   first tile; each main-loop iteration prefetches the *next* tile
//!   into the alternate buffer before computing the current one, so a
//!   single barrier per iteration suffices.
//!
//! Shared staging is strip-mined: the staged column strip shrinks from
//! `nb` in multiples of `L` until the buffers fit
//! [`SHARED_BUDGET_BYTES`], mirroring how a real kernel would bound its
//! `var<workgroup>` footprint rather than assume the whole column block
//! fits.

use nm_core::error::Result;

use crate::ir::{AluMode, KernelFamily, KernelIr, KernelSpec, LoopDim, Node};

/// Workgroup-memory budget for all staging buffers of one kernel: 32 KiB
/// keeps two double-buffered strips under WebGPU's default
/// `maxComputeWorkgroupStorageSize` with headroom for future operand
/// tiles.
pub const SHARED_BUDGET_BYTES: usize = 32 * 1024;

/// Output rows per workgroup-y thread tile (matches the CPU register
/// micro-tile's 4-row rung).
const TILE_ROWS: u32 = 4;

/// Lower a kernel spec to IR.
///
/// # Errors
/// [`nm_core::error::NmError::InvalidBlocking`] when the spec's geometry
/// is degenerate or misaligned (see [`KernelSpec::validate`]).
pub fn lower(spec: &KernelSpec) -> Result<KernelIr> {
    spec.validate()?;
    let cfg = spec.cfg;
    let lanes: u32 = if cfg.l.is_multiple_of(32) { 32 } else { 16 };
    let rows_y: u32 = if spec.family == KernelFamily::SkinnyDecode {
        1
    } else {
        TILE_ROWS
    };
    let buffers = if spec.family.double_buffered() { 2 } else { 1 };
    let ub = spec.ub();

    // Strip-mine the staged columns to the shared-memory budget.
    let mut strip_cols = spec.nb;
    while ub * strip_cols * 4 * buffers > SHARED_BUDGET_BYTES && strip_cols > cfg.l {
        strip_cols -= cfg.l;
    }
    let shared_floats = ub * strip_cols;

    // Windows walked per column group: the group's column extent in
    // L-wide spans.
    let windows = spec.nb.div_ceil(cfg.l);
    let alu = if spec.fma {
        AluMode::Fma
    } else {
        AluMode::MulAdd
    };
    let compute = Node::TileLoop {
        dim: LoopDim::Windows,
        count: windows,
        body: vec![Node::TileLoop {
            dim: LoopDim::RowLadder,
            count: rows_y as usize,
            body: vec![Node::Compute {
                alu,
                zero_skip: true,
                rows: rows_y as usize,
                lanes: lanes as usize,
            }],
        }],
    };
    let gather = Node::GatherLoad {
        packed: spec.packed && spec.family.packs(),
    };

    let (prologue, main_body) = if spec.family.double_buffered() {
        // Pipelined: first tile filled up front; each iteration
        // prefetches the next tile, computes the current, then syncs
        // once to retire the buffer swap.
        let prologue = vec![
            Node::SharedStage {
                buffer: "bs0",
                floats: shared_floats,
                prefetch: false,
            },
            gather.clone(),
            Node::Sync,
        ];
        let body = vec![
            Node::SharedStage {
                buffer: "bs1",
                floats: shared_floats,
                prefetch: true,
            },
            gather,
            compute,
            Node::Sync,
        ];
        (prologue, body)
    } else {
        // Serial: stage, sync, compute, sync — every k-block.
        let body = vec![
            Node::SharedStage {
                buffer: "bs0",
                floats: shared_floats,
                prefetch: false,
            },
            Node::Sync,
            gather,
            compute,
            Node::Sync,
        ];
        (Vec::new(), body)
    };

    Ok(KernelIr {
        spec: *spec,
        workgroup: (lanes, rows_y),
        shared_floats,
        buffers,
        strip_cols,
        prologue,
        main_loop: Node::TileLoop {
            dim: LoopDim::KBlocks,
            count: spec.kblocks(),
            body: main_body,
        },
        epilogue: vec![Node::Epilogue { accumulate: true }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_core::pattern::NmConfig;

    fn spec(family: KernelFamily) -> KernelSpec {
        KernelSpec {
            family,
            cfg: NmConfig::new(2, 8, 32).unwrap(),
            n: 96,
            k: 100,
            w: 26,
            mb: 16,
            nb: 64,
            kb: 104,
            groups: 2,
            packed: true,
            fma: true,
        }
    }

    #[test]
    fn families_lower_to_their_pipeline_shapes() {
        for family in KernelFamily::all() {
            let ir = lower(&spec(family)).unwrap();
            assert_eq!(ir.buffers, if family.double_buffered() { 2 } else { 1 });
            assert_eq!(
                ir.prologue.is_empty(),
                !family.double_buffered(),
                "{family}: pipelined families pre-fill the first tile"
            );
            assert_eq!(ir.main_iters(), ir.spec.kblocks());
            assert!(ir.threads() <= 256, "{family}: WebGPU workgroup cap");
            assert!(
                ir.shared_bytes() <= SHARED_BUDGET_BYTES,
                "{family}: {} bytes over budget",
                ir.shared_bytes()
            );
            assert!(ir.node_count() >= 5);
        }
    }

    #[test]
    fn skinny_decode_runs_one_row_per_workgroup() {
        let ir = lower(&spec(KernelFamily::SkinnyDecode)).unwrap();
        assert_eq!(ir.workgroup.1, 1);
    }

    #[test]
    fn column_groups_walk_their_block_of_windows() {
        let ir = lower(&spec(KernelFamily::V3)).unwrap();
        let Node::TileLoop { body, .. } = &ir.main_loop else {
            panic!("main loop must be a TileLoop");
        };
        let windows = body.iter().find_map(|n| match n {
            Node::TileLoop {
                dim: LoopDim::Windows,
                count,
                ..
            } => Some(*count),
            _ => None,
        });
        // nb = 64 over L = 32: two windows per column block.
        assert_eq!(windows, Some(2));
    }

    #[test]
    fn degenerate_specs_are_structured_errors() {
        let mut s = spec(KernelFamily::V1);
        s.kb = 13; // not a multiple of M=8
        assert!(lower(&s).is_err());
        let mut s = spec(KernelFamily::V1);
        s.n = 0;
        assert!(lower(&s).is_err());
    }
}
