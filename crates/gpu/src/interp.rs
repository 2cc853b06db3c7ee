//! The deterministic shader interpreter: execute a generated kernel's
//! tile walk on the host, workgroup by workgroup.
//!
//! This is layer 3 of the subsystem — the proof that the generated
//! shader *means* what the CPU oracle computes. The interpreter walks
//! exactly the loop structure the emitted WGSL encodes (grid → k-blocks
//! → window spans → rows → lanes) over exactly the tables the shader
//! binds (the position-major gather table, the span records, the
//! per-`(span, k-block)` fast flags), and reproduces the oracle's floating-point
//! chains bit for bit:
//!
//! * **fast spans** run the micro-kernel chain — fused multiply-add
//!   ([`AluMode::Fma`]) or twice-rounded multiply/add
//!   ([`AluMode::MulAdd`]) depending on the prepared ISA — with **no**
//!   zero skip, padded-tail operands loaded as `0.0`;
//! * **general spans** skip zero `A` operands and round twice — the
//!   scalar general path's exact semantics;
//! * every output element receives exactly one accumulation per
//!   k-block, k-blocks ascending — the `+=` ordering both CPU stagings
//!   share, which is what makes the whole chain order-identical.

use nm_core::error::{NmError, Result};

use crate::ir::{AluMode, KernelIr};
use crate::trace::InterpTrace;

/// One window span of a column group: `width` output columns starting
/// at `col`. Spans flattened in group order are the staged window
/// positions, which index the gather table and the fast flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// First output column the span writes.
    pub col: u32,
    /// Columns in the span (`≤ L`).
    pub width: u32,
    /// Offset of the span's columns inside the staged shared strip.
    pub strip_off: u32,
}

/// One grid-x workgroup's column work: a column block (row-major) or a
/// SELL-C-σ slice (sliced), as an ordered span list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnGroup {
    /// Spans in execution order.
    pub spans: Vec<WindowSpan>,
}

/// The host-side buffers a generated kernel binds — the same tables the
/// WGSL declares as storage bindings.
#[derive(Debug, Clone, Copy)]
pub struct KernelBindings<'a> {
    /// Compressed `B′` values, `w × n` row-major.
    pub b: &'a [f32],
    /// Absolute dense-k gather indices, position-major: the flat span
    /// `pos` (spans flattened in group order) gathers compressed row `u`
    /// through `gather[pos * w + u]`.
    pub gather: &'a [u32],
    /// Column groups in grid-x order.
    pub groups: &'a [ColumnGroup],
    /// Fast/general selector per `(flat span, k-block)`:
    /// `fast[span * kblocks + bk]`, spans flattened in group order.
    pub fast: &'a [bool],
    /// Pruning windows (`q`): the number of `w`-long gather runs.
    pub q: usize,
}

/// Execute the kernel over `a` (`m × k` row-major), returning the
/// output (`m × n` row-major) and the execution trace.
///
/// # Errors
/// [`NmError::DimensionMismatch`] when the bindings disagree with the
/// IR's geometry (wrong table sizes, group count, or span/flag counts).
pub fn interpret(
    ir: &KernelIr,
    bind: &KernelBindings<'_>,
    a: &[f32],
    m: usize,
) -> Result<(Vec<f32>, InterpTrace)> {
    let spec = &ir.spec;
    let (n, k, w, q) = (spec.n, spec.k, spec.w, bind.q);
    let ub = spec.ub();
    let kblocks = spec.kblocks();

    let mismatch = |expected: String, found: String| NmError::DimensionMismatch { expected, found };
    if a.len() != m * k {
        return Err(mismatch(
            format!("A with {m} x {k} = {} elements", m * k),
            format!("{} elements", a.len()),
        ));
    }
    if bind.b.len() != w * n {
        return Err(mismatch(
            format!("B' values with {w} x {n} elements"),
            format!("{} elements", bind.b.len()),
        ));
    }
    if bind.gather.len() != w * q {
        return Err(mismatch(
            format!("a {q} x {w} gather table"),
            format!("{} entries", bind.gather.len()),
        ));
    }
    if bind.groups.len() != spec.groups {
        return Err(mismatch(
            format!("{} column groups", spec.groups),
            format!("{}", bind.groups.len()),
        ));
    }
    let total_spans: usize = bind.groups.iter().map(|g| g.spans.len()).sum();
    if bind.fast.len() != total_spans * kblocks {
        return Err(mismatch(
            format!("{total_spans} x {kblocks} fast flags"),
            format!("{}", bind.fast.len()),
        ));
    }

    let alu = if spec.fma {
        AluMode::Fma
    } else {
        AluMode::MulAdd
    };
    let row_tiles = m.div_ceil(spec.mb).max(1);
    let mut c = vec![0f32; m * n];
    let mut trace = InterpTrace {
        grid: (bind.groups.len(), row_tiles),
        workgroups: 0,
        main_iters_per_workgroup: kblocks,
        prologue_fills: 0,
        shared_stages: 0,
        gather_loads: 0,
        flops: 0,
        writebacks: 0,
        epilogues: 0,
    };

    // Workgroup-by-workgroup walk: grid-y row tiles × grid-x groups.
    // Workgroups touch disjoint C elements, so the walk order between
    // them is irrelevant; *within* one element the chain is fixed:
    // k-blocks ascending, one `+=` each.
    for by in 0..row_tiles {
        let r_lo = by * spec.mb;
        let r_hi = (r_lo + spec.mb).min(m);
        let mut group_span_base = 0usize;
        for group in bind.groups {
            trace.workgroups += 1;
            if ir.buffers == 2 {
                // Pipelined families pre-fill the first tile.
                trace.prologue_fills += 1;
            }
            for bk in 0..kblocks {
                trace.shared_stages += 1;
                let u_lo = bk * ub;
                let u_hi = ((bk + 1) * ub).min(w);
                for (si, span) in group.spans.iter().enumerate() {
                    let pos = group_span_base + si;
                    let fast = bind.fast[pos * kblocks + bk];
                    let gather = &bind.gather[pos * w + u_lo..pos * w + u_hi];
                    for r in r_lo..r_hi {
                        let a_row = &a[r * k..(r + 1) * k];
                        for ci in 0..span.width as usize {
                            let j = span.col as usize + ci;
                            let mut acc = 0f32;
                            for (u, &s) in (u_lo..u_hi).zip(gather) {
                                let s = s as usize;
                                trace.gather_loads += 1;
                                // The padded tail of the final window
                                // reads 0.0 — the value every staged
                                // path puts there.
                                let av = if s < k { a_row[s] } else { 0.0 };
                                let bv = bind.b[u * n + j];
                                if fast {
                                    trace.flops += 2;
                                    match alu {
                                        AluMode::Fma => acc = av.mul_add(bv, acc),
                                        AluMode::MulAdd => acc += av * bv,
                                    }
                                } else if av != 0.0 {
                                    trace.flops += 2;
                                    acc += av * bv;
                                }
                            }
                            c[r * n + j] += acc;
                            trace.writebacks += 1;
                        }
                    }
                }
            }
            trace.epilogues += 1;
            group_span_base += group.spans.len();
        }
    }
    Ok((c, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelFamily, KernelSpec};
    use crate::lower::lower;
    use nm_core::pattern::NmConfig;
    use nm_core::sliced::StorageFormat;

    /// A tiny hand-checkable kernel: 1 group, 1 window, no padding.
    fn tiny() -> (KernelIr, Vec<ColumnGroup>) {
        let ir = lower(&KernelSpec {
            family: KernelFamily::V1,
            storage: StorageFormat::RowMajor,
            cfg: NmConfig::new(1, 2, 4).unwrap(),
            n: 4,
            k: 4,
            w: 2,
            mb: 2,
            nb: 4,
            kb: 4,
            groups: 1,
            packed: false,
            fma: true,
        })
        .unwrap();
        let groups = vec![ColumnGroup {
            spans: vec![WindowSpan {
                col: 0,
                width: 4,
                strip_off: 0,
            }],
        }];
        (ir, groups)
    }

    #[test]
    fn tiny_kernel_computes_the_expected_product() {
        let (ir, groups) = tiny();
        // w=2 compressed rows; gather picks dense k-indices 1 and 2.
        let b = vec![
            1.0, 2.0, 3.0, 4.0, // u=0
            5.0, 6.0, 7.0, 8.0, // u=1
        ];
        let gather = vec![1u32, 2u32];
        // One span × kblocks fast flags.
        let fast = vec![true; ir.spec.kblocks()];
        let bind = KernelBindings {
            b: &b,
            gather: &gather,
            groups: &groups,
            fast: &fast,
            q: 1,
        };
        let a = vec![10.0, 20.0, 30.0, 40.0];
        let (c, trace) = interpret(&ir, &bind, &a, 1).unwrap();
        // c[j] = a[1]*b[0][j] + a[2]*b[1][j]
        assert_eq!(
            c,
            vec![
                20.0 + 30.0 * 5.0,
                40.0 + 30.0 * 6.0,
                60.0 + 30.0 * 7.0,
                80.0 + 30.0 * 8.0
            ]
        );
        assert_eq!(trace.workgroups, 1);
        assert_eq!(trace.writebacks, 4);
        assert_eq!(trace.gather_loads, 8);
    }

    #[test]
    fn binding_mismatches_are_structured_errors() {
        let (ir, groups) = tiny();
        let b = vec![0.0; 8];
        let gather = vec![0u32; 2];
        let fast = vec![true; ir.spec.kblocks()];
        let short_a = vec![0.0; 3];
        let bind = KernelBindings {
            b: &b,
            gather: &gather,
            groups: &groups,
            fast: &fast,
            q: 1,
        };
        assert!(interpret(&ir, &bind, &short_a, 1).is_err());
        let bad_fast = KernelBindings { fast: &[], ..bind };
        assert!(interpret(&ir, &bad_fast, &[0.0; 4], 1).is_err());
    }
}
