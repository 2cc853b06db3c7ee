//! WGSL emission: render a lowered [`KernelIr`] as a complete compute
//! shader module.
//!
//! The emitted module is deterministic for a given IR (snapshot-stable),
//! self-contained (one entry point, one helper), and structured the way
//! the IR says: serial families stage-sync-compute-sync per k-block;
//! pipelined families pre-fill the first tile and prefetch the next one
//! into the alternate buffer inside the loop, retiring the swap with a
//! single barrier.
//!
//! ## Binding model
//!
//! | binding | buffer       | contents                                       |
//! |---------|--------------|------------------------------------------------|
//! | 0       | `params`     | uniform problem/tile geometry                  |
//! | 1       | `a_mat`      | dense activations, `m × k` row-major           |
//! | 2       | `b_vals`     | compressed `B′` values, `w × n` row-major      |
//! | 3       | `gather_idx` | absolute dense-k gather indices, one `w`-long run per span |
//! | 4       | `span_meta`  | group offsets + per-span (col, width, strip offset) |
//! | 5       | `fast_flags` | per `(span, k-block)` fast/general selector    |
//! | 6       | `c_mat`      | output, `m × n` row-major, accumulated into    |
//!
//! `span_meta` starts with `groups + 1` prefix offsets, then one 3-`u32`
//! record per span. Spans flattened in group order are the staged window
//! positions: span `sp` gathers row `u` through `gather_idx[sp * w + u]`
//! and reads its selector at `fast_flags[sp * kblocks + bk]` — the same
//! tables the host interpreter executes, so shader and interpreter walk
//! identical data.

use crate::ir::{AluMode, KernelIr, Node};

/// Line-oriented emission buffer.
struct W(String);

impl W {
    fn l(&mut self, line: &str) {
        self.0.push_str(line);
        self.0.push('\n');
    }
}

/// Render `ir` as WGSL source.
pub fn emit_wgsl(ir: &KernelIr) -> String {
    let spec = &ir.spec;
    let (lx, ly) = ir.workgroup;
    let strip = ir.strip_cols;
    let shared = ir.shared_floats;
    let double = ir.buffers == 2;
    let packed = matches!(
        ir.main_loop,
        Node::TileLoop { ref body, .. }
            if body.iter().any(|n| matches!(n, Node::GatherLoad { packed: true, .. }))
    );
    let alu = if spec.fma {
        AluMode::Fma
    } else {
        AluMode::MulAdd
    };

    let mut out = W(String::with_capacity(8 * 1024));
    out.l(&format!(
        "// {} — generated by nm-gpu, do not edit",
        spec.name()
    ));
    out.l(&format!(
        "// family={} storage=rowmajor cfg={}:{}:{} alu={}",
        spec.family,
        spec.cfg.n,
        spec.cfg.m,
        spec.cfg.l,
        alu.name(),
    ));
    out.l(&format!(
        "// tiles: mb={} nb={} kb={} ub={} kblocks={} groups={} strip={}",
        spec.mb,
        spec.nb,
        spec.kb,
        spec.ub(),
        spec.kblocks(),
        spec.groups,
        strip,
    ));
    out.l(&format!(
        "// pipeline: {} ({} shared buffer{}), {} IR nodes",
        if double {
            "double-buffered prefetch"
        } else {
            "serial stage-sync-compute"
        },
        ir.buffers,
        if ir.buffers == 1 { "" } else { "s" },
        ir.node_count(),
    ));
    if packed {
        out.l("// gather: dependent col_info chain (packed A panel at high sparsity)");
    } else {
        out.l("// gather: direct dense-offset loads");
    }
    out.l("");
    out.l("struct Params {");
    out.l("  m : u32,");
    out.l("  n : u32,");
    out.l("  k : u32,");
    out.l("  w : u32,");
    out.l("  q : u32,");
    out.l("  mb : u32,");
    out.l("  ub : u32,");
    out.l("  kblocks : u32,");
    out.l("  groups : u32,");
    out.l("}");
    out.l("");
    out.l("@group(0) @binding(0) var<uniform> params : Params;");
    out.l("@group(0) @binding(1) var<storage, read> a_mat : array<f32>;");
    out.l("@group(0) @binding(2) var<storage, read> b_vals : array<f32>;");
    out.l("@group(0) @binding(3) var<storage, read> gather_idx : array<u32>;");
    out.l("@group(0) @binding(4) var<storage, read> span_meta : array<u32>;");
    out.l("@group(0) @binding(5) var<storage, read> fast_flags : array<u32>;");
    out.l("@group(0) @binding(6) var<storage, read_write> c_mat : array<f32>;");
    out.l("");
    out.l(&format!("var<workgroup> bs0 : array<f32, {shared}u>;"));
    if double {
        out.l(&format!("var<workgroup> bs1 : array<f32, {shared}u>;"));
    }
    out.l("");
    out.l("// Bounds-aware A gather: indices past the dense depth k land in the");
    out.l("// padded tail of the final window and read as 0.0 — the same value");
    out.l("// the packed CPU path stages there, keeping results bit-identical.");
    out.l("fn gather_a(row : u32, s : u32) -> f32 {");
    out.l("  if (s < params.k) {");
    out.l("    return a_mat[row * params.k + s];");
    out.l("  }");
    out.l("  return 0.0;");
    out.l("}");
    out.l("");
    out.l(&format!("@compute @workgroup_size({lx}, {ly}, 1)"));
    out.l("fn nm_spmm_main(@builtin(workgroup_id) wg : vec3<u32>,");
    out.l("        @builtin(local_invocation_id) lid : vec3<u32>) {");
    out.l("  let group = wg.x;");
    out.l("  let row0 = wg.y * params.mb;");
    out.l("  let span_lo = span_meta[group];");
    out.l("  let span_hi = span_meta[group + 1u];");
    out.l("  let meta_base = params.groups + 1u;");
    out.l(&format!("  let tid = lid.y * {lx}u + lid.x;"));
    out.l("");

    if double {
        stage(&mut out, ir, "p_", "0u", Buf::Bs0, "  ");
        if packed {
            out.l("  // GatherLoad (prologue): resolve the first k-block's packed");
            out.l("  // col_info positions — a dependent load ahead of the pipeline.");
        }
        out.l("  workgroupBarrier();");
    }
    out.l("");
    out.l("  // MainLoop: one iteration per k-block.");
    out.l("  var bk : u32 = 0u;");
    out.l("  loop {");
    out.l("    if (bk >= params.kblocks) { break; }");
    out.l("    let u_base = bk * params.ub;");
    out.l("    let u_hi = min(u_base + params.ub, params.w);");
    if double {
        out.l("    if (bk + 1u < params.kblocks) {");
        stage(&mut out, ir, "n_", "bk + 1u", Buf::Parity, "      ");
        out.l("    }");
    } else {
        stage(&mut out, ir, "s_", "bk", Buf::Bs0, "    ");
        out.l("    workgroupBarrier();");
    }
    if packed {
        out.l("    // GatherLoad: packed col_info indirection — the index load");
        out.l("    // depends on the reordered position table (dependent chain).");
    } else {
        out.l("    // GatherLoad: direct dense-offset indices.");
    }
    out.l("");
    out.l("    // Window walk: every span of this column group.");
    out.l("    var sp : u32 = span_lo;");
    out.l("    loop {");
    out.l("      if (sp >= span_hi) { break; }");
    out.l("      let meta = meta_base + sp * 3u;");
    out.l("      let col0 = span_meta[meta];");
    out.l("      let width = span_meta[meta + 1u];");
    out.l("      let soff = span_meta[meta + 2u];");
    out.l(&format!("      let staged = soff + width <= {strip}u;"));
    out.l("      let fast = fast_flags[sp * params.kblocks + bk];");
    out.l("      var r : u32 = row0 + lid.y;");
    out.l("      loop {");
    out.l("        if (r >= params.m || r >= row0 + params.mb) { break; }");
    out.l("        var ci : u32 = lid.x;");
    out.l("        loop {");
    out.l("          if (ci >= width) { break; }");
    out.l("          var acc : f32 = 0.0;");
    out.l("          var u : u32 = u_base;");
    out.l("          loop {");
    out.l("            if (u >= u_hi) { break; }");
    out.l("            let s = gather_idx[sp * params.w + u];");
    out.l("            let av = gather_a(r, s);");
    out.l("            var bv : f32;");
    out.l("            if (staged) {");
    let slot = format!("(u - u_base) * {strip}u + soff + ci");
    if double {
        out.l("              if ((bk & 1u) == 0u) {");
        out.l(&format!("                bv = bs0[{slot}];"));
        out.l("              } else {");
        out.l(&format!("                bv = bs1[{slot}];"));
        out.l("              }");
    } else {
        out.l(&format!("              bv = bs0[{slot}];"));
    }
    out.l("            } else {");
    out.l("              // Strip overflow: stream straight from global memory.");
    out.l("              bv = b_vals[u * params.n + col0 + ci];");
    out.l("            }");
    out.l("            if (fast == 1u) {");
    match alu {
        AluMode::Fma => {
            out.l("              // Fast window: fused multiply-add, no zero skip.");
            out.l("              acc = fma(av, bv, acc);");
        }
        AluMode::MulAdd => {
            out.l("              // Fast window (scalar ALU): separate multiply/add.");
            out.l("              acc = acc + av * bv;");
        }
    }
    out.l("            } else if (av != 0.0) {");
    out.l("              // General window: zero-operand skip, twice-rounded.");
    out.l("              acc = acc + av * bv;");
    out.l("            }");
    out.l("            u = u + 1u;");
    out.l("          }");
    out.l("          // Epilogue contract per k-block: accumulate into C.");
    out.l("          c_mat[r * params.n + col0 + ci] = c_mat[r * params.n + col0 + ci] + acc;");
    out.l(&format!("          ci = ci + {lx}u;"));
    out.l("        }");
    out.l(&format!("        r = r + {ly}u;"));
    out.l("      }");
    out.l("      sp = sp + 1u;");
    out.l("    }");
    out.l("    workgroupBarrier();");
    out.l("    bk = bk + 1u;");
    out.l("  }");
    out.l("}");
    out.0
}

/// Which shared buffer a staging site writes.
enum Buf {
    /// Always `bs0` (serial families, and the pipelined prologue).
    Bs0,
    /// The buffer the *next* iteration will read: parity of `bk`.
    Parity,
}

/// Emit one inlined shared-tile fill. `prefix` keeps the site's local
/// names unique; `bk_expr` is the staged k-block.
fn stage(out: &mut W, ir: &KernelIr, prefix: &str, bk_expr: &str, buf: Buf, indent: &str) {
    let strip = ir.strip_cols;
    let threads = ir.threads();
    let mut l = |line: &str| {
        out.0.push_str(indent);
        out.0.push_str(line);
        out.0.push('\n');
    };
    l(&format!(
        "// SharedStage: k-block ({bk_expr}) strip into {}",
        match buf {
            Buf::Bs0 => "bs0",
            Buf::Parity => "the alternate buffer (prefetch)",
        }
    ));
    l(&format!("var {prefix}sp : u32 = span_lo;"));
    l("loop {");
    l(&format!("  if ({prefix}sp >= span_hi) {{ break; }}"));
    l(&format!(
        "  let {prefix}meta = meta_base + {prefix}sp * 3u;"
    ));
    l(&format!("  let {prefix}col = span_meta[{prefix}meta];"));
    l(&format!("  let {prefix}w = span_meta[{prefix}meta + 1u];"));
    l(&format!(
        "  let {prefix}off = span_meta[{prefix}meta + 2u];"
    ));
    l(&format!("  if ({prefix}off + {prefix}w <= {strip}u) {{"));
    l(&format!("    var {prefix}fl : u32 = tid;"));
    l("    loop {");
    l(&format!(
        "      if ({prefix}fl >= {prefix}w * params.ub) {{ break; }}"
    ));
    l(&format!("      let {prefix}u = {prefix}fl / {prefix}w;"));
    l(&format!("      let {prefix}c = {prefix}fl % {prefix}w;"));
    l(&format!(
        "      let {prefix}gu = ({bk_expr}) * params.ub + {prefix}u;"
    ));
    l(&format!("      if ({prefix}gu < params.w) {{"));
    let src = format!("b_vals[{prefix}gu * params.n + {prefix}col + {prefix}c]");
    let slot = format!("{prefix}u * {strip}u + {prefix}off + {prefix}c");
    match buf {
        Buf::Bs0 => l(&format!("        bs0[{slot}] = {src};")),
        Buf::Parity => {
            l(&format!("        if ((({bk_expr}) & 1u) == 0u) {{"));
            // The prefetch writes the buffer the *staged* block will be
            // read from: staged block parity, not the current one.
            l(&format!("          bs0[{slot}] = {src};"));
            l("        } else {");
            l(&format!("          bs1[{slot}] = {src};"));
            l("        }");
        }
    }
    l("      }");
    l(&format!("      {prefix}fl = {prefix}fl + {threads}u;"));
    l("    }");
    l("  }");
    l(&format!("  {prefix}sp = {prefix}sp + 1u;"));
    l("}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelFamily, KernelSpec};
    use crate::lower::lower;
    use nm_core::pattern::NmConfig;

    fn sample_ir(family: KernelFamily) -> KernelIr {
        lower(&KernelSpec {
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
        })
        .unwrap()
    }

    #[test]
    fn emission_is_deterministic() {
        let ir = sample_ir(KernelFamily::V3);
        assert_eq!(emit_wgsl(&ir), emit_wgsl(&ir));
    }

    #[test]
    fn families_emit_their_pipeline_structure() {
        let v1 = emit_wgsl(&sample_ir(KernelFamily::V1));
        let v3 = emit_wgsl(&sample_ir(KernelFamily::V3));
        assert!(v1.contains("serial stage-sync-compute"));
        assert!(!v1.contains("bs1"), "serial families get one buffer");
        assert!(v3.contains("double-buffered prefetch"));
        assert!(v3.contains("bs1"), "pipelined families get two buffers");
        assert_ne!(v1, v3);
    }
}
