//! Static shader statistics: what a generated kernel *is*, independent
//! of any launch — line counts, IR size, shared-memory footprint.
//!
//! These feed the `bench_codegen` lane's JSON artifact and give CI a
//! cheap drift signal: a refactor that silently doubles a kernel's
//! shared-memory budget or loses its double buffer shows up here
//! before any perf lane notices.

use crate::ir::KernelIr;
use crate::validate::{validate_wgsl, ShaderInfo, ValidateOptions};

/// Summary of one generated shader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShaderStats {
    /// Kernel name (from the spec).
    pub name: String,
    /// Kernel family name (`v1` … `skinny_decode`).
    pub family: &'static str,
    /// Non-empty WGSL source lines.
    pub lines: usize,
    /// IR nodes lowered.
    pub nodes: usize,
    /// Main-loop iterations per workgroup (k-blocks).
    pub main_iters: usize,
    /// Workgroup threads (`x * y`).
    pub threads: u32,
    /// `var<workgroup>` bytes the shader declares.
    pub shared_bytes: usize,
    /// Resource bindings declared.
    pub bindings: usize,
    /// Whether the main loop is double-buffered.
    pub double_buffered: bool,
}

impl ShaderStats {
    /// Compute stats for `ir` and its emitted `wgsl` source, using the
    /// validator's parse of the source for the binding/size facts so the
    /// numbers describe the *emission*, not the IR's intent.
    ///
    /// # Errors
    /// Propagates validation failure — stats for an invalid shader are
    /// meaningless.
    pub fn collect(ir: &KernelIr, wgsl: &str) -> Result<ShaderStats, crate::validate::WgslError> {
        let info: ShaderInfo = validate_wgsl(wgsl, &ValidateOptions::default())?;
        Ok(ShaderStats {
            name: ir.spec.name(),
            family: ir.spec.family.name(),
            lines: wgsl.lines().filter(|l| !l.trim().is_empty()).count(),
            nodes: ir.node_count(),
            main_iters: ir.main_iters(),
            threads: (info.workgroup_size.0 * info.workgroup_size.1 * info.workgroup_size.2) as u32,
            shared_bytes: info.workgroup_bytes,
            bindings: info.bindings,
            double_buffered: ir.buffers == 2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelFamily, KernelSpec};
    use crate::lower::lower;
    use crate::wgsl::emit_wgsl;
    use nm_core::pattern::NmConfig;

    #[test]
    fn stats_reflect_the_emission() {
        let spec = KernelSpec {
            family: KernelFamily::V3,
            cfg: NmConfig::new(2, 8, 16).unwrap(),
            n: 128,
            k: 256,
            w: 64,
            mb: 4,
            nb: 64,
            kb: 64,
            groups: 2,
            packed: true,
            fma: true,
        };
        let ir = lower(&spec).unwrap();
        let wgsl = emit_wgsl(&ir);
        let stats = ShaderStats::collect(&ir, &wgsl).unwrap();
        assert_eq!(stats.family, "v3");
        assert_eq!(stats.bindings, 7);
        assert!(stats.double_buffered);
        assert!(stats.lines > 50, "real shader, not a stub: {}", stats.lines);
        assert_eq!(stats.shared_bytes, ir.shared_bytes());
        assert_eq!(stats.threads, ir.threads());
    }
}
