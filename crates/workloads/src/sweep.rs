//! Batched layer sweep: drive a whole model's linear layers through the
//! prepared-session API.
//!
//! This is the serving-shaped loop the ROADMAP asks for: given a
//! [`Session`] (device + plan cache + backend configuration) and one
//! Llama model, plan every linear layer at a fixed sequence length,
//! optionally execute each layer — through the native CPU V3 ladder
//! **and** a [`PreparedLayer`](nm_kernels::PreparedLayer) on the Sim
//! backend (the reference oracle with the chosen kernel's prediction
//! attached), cross checking the numerics — and emit a per-layer report:
//! chosen kernel, tuned blocking, estimated seconds and speedup over the
//! dense baseline.
//!
//! Because the planner memoizes by `(device, shape class, N:M)`, sweeping
//! a model exercises the cache naturally — Llama's `mlp.gate` and `mlp.up`
//! share one weight shape, and repeated sweeps (more sequence lengths,
//! more sparsity levels, a reloaded cache file) hit without re-tuning.
//! [`SweepReport`] carries the hit/miss delta so callers can prove it.
//!
//! With [`SweepOptions::decode`] set, every layer also gets a **decode
//! lane** per [`DECODE_BATCH_SIZES`] batch — the skinny shapes a
//! generating server runs between prefills, planned under
//! `ShapeClass::Decode` keys (no GEMM autotune) — and, when execution is
//! requested, one real `m = 1` step through the prepared SpMV path.

use nm_core::error::Result;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sliced::StorageFormat;
use nm_core::sparse::NmSparseMatrix;
use nm_kernels::backend::BackendKind;
use nm_kernels::measure::AutotuneMode;
use nm_kernels::nm::NmVersion;
use nm_kernels::plan::Plan;
use nm_kernels::session::Session;

use crate::llama::{layer_shapes, LayerShape, LlamaModel};
use crate::models::DECODE_BATCH_SIZES;

/// Whether (and at what size) the sweep executes layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutePolicy {
    /// Analytic estimates only — plans every layer, executes nothing.
    EstimateOnly,
    /// Execute each layer with every dimension divided by the given factor
    /// (clamped to a sane floor), keeping the sweep interactive while still
    /// running real numerics end to end.
    Scaled(usize),
    /// Execute at full layer size (minutes of CPU time for big models).
    Full,
}

impl ExecutePolicy {
    fn divisor(&self) -> Option<usize> {
        match self {
            ExecutePolicy::EstimateOnly => None,
            ExecutePolicy::Scaled(d) => Some((*d).max(1)),
            ExecutePolicy::Full => Some(1),
        }
    }
}

/// Knobs for [`sweep_model`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Input sequence length `m` shared by every layer (the prefill lane).
    pub seq_len: usize,
    /// Execution policy.
    pub execute: ExecutePolicy,
    /// Seed for the generated operands (execution only).
    pub seed: u64,
    /// Also plan every layer at each [`DECODE_BATCH_SIZES`] batch — the
    /// skinny lane a generating server runs between prefills. Decode
    /// plans skip the GEMM autotuner, so this lane is cheap; when
    /// execution is requested, the `m = 1` step additionally runs
    /// `forward_vec` through the native CPU ladder for real.
    pub decode: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            seq_len: 512,
            execute: ExecutePolicy::EstimateOnly,
            seed: 0x5eed,
            decode: false,
        }
    }
}

/// Execution measurements for one layer.
#[derive(Debug, Clone, Copy)]
pub struct ExecReport {
    /// Executed dimensions (scaled per [`ExecutePolicy`]).
    pub m: usize,
    /// Executed output columns.
    pub n: usize,
    /// Executed reduction depth.
    pub k: usize,
    /// Online wall time of the CPU V3 ladder on the pruned weights,
    /// milliseconds.
    pub cpu_ms: f64,
    /// Online wall time of the same ladder on the dense weights (the
    /// `N = M` configuration [`NmConfig::dense32`]), milliseconds — the
    /// dense baseline.
    pub cpu_dense_ms: f64,
    /// Max |sim − cpu| over the output — the cross-check that the Sim
    /// backend's reference oracle and the CPU path compute the same
    /// matrix.
    pub sim_vs_cpu_max_diff: f32,
    /// Wall time of the measured-autotuned native CPU ladder, milliseconds
    /// — the evidence-based lane. `None` when the session's
    /// [`AutotuneMode`] is `Off`.
    pub measured_ms: Option<f64>,
    /// Wall milliseconds of one prepared decode step (`m = 1`,
    /// `forward_vec` on the native CPU ladder) against the scaled
    /// weights; `None` unless [`SweepOptions::decode`] was set.
    pub decode_ms: Option<f64>,
    /// Max |decode − cpu row 0| — the cross-check that the prepared SpMV
    /// path and the CPU matrix path agree on the first activation row.
    pub decode_vs_cpu_max_diff: Option<f32>,
}

/// One decode batch size's planning row in a [`LayerReport`].
#[derive(Debug, Clone)]
pub struct DecodeLane {
    /// Activation rows (the decode batch size).
    pub batch: usize,
    /// The resolved decode plan — keyed `ShapeClass::Decode`, planned
    /// without the GEMM autotuner.
    pub plan: Plan,
    /// Whether the plan came out of the cache.
    pub cache_hit: bool,
    /// Estimated milliseconds of the chosen kernel at this batch.
    pub est_ms: f64,
    /// The storage format this lane would stage under — measured
    /// evidence when the plan carries it, else the plan key's lane
    /// (mirroring how the CPU backend resolves the staged format).
    pub format: StorageFormat,
}

/// One layer's row in the sweep report.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Which layer (e.g. `"mlp.gate"`).
    pub layer: &'static str,
    /// Full-size output rows (the sequence length).
    pub m: usize,
    /// Full-size output columns.
    pub n: usize,
    /// Full-size reduction depth.
    pub k: usize,
    /// The resolved plan (chosen kernel, tuned blocking, decision).
    pub plan: Plan,
    /// Whether the plan came out of the cache.
    pub cache_hit: bool,
    /// Estimated milliseconds of the chosen kernel at full size.
    pub est_ms: f64,
    /// Estimated milliseconds of the dense baseline at full size.
    pub dense_ms: f64,
    /// The decode lanes ([`DECODE_BATCH_SIZES`] batches); empty unless
    /// [`SweepOptions::decode`] was set.
    pub decode: Vec<DecodeLane>,
    /// Execution measurements, when execution was requested.
    pub exec: Option<ExecReport>,
}

impl LayerReport {
    /// Estimated speedup of the chosen kernel over dense.
    pub fn speedup(&self) -> f64 {
        self.dense_ms / self.est_ms
    }
}

/// Result of sweeping one model at one sparsity level.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Device the engine planned for.
    pub device: String,
    /// Model name.
    pub model: &'static str,
    /// Sparsity configuration.
    pub cfg: NmConfig,
    /// Sequence length.
    pub seq_len: usize,
    /// Per-layer rows, in [`layer_shapes`] order.
    pub layers: Vec<LayerReport>,
    /// Plan-cache hits attributable to this sweep's planning pass.
    pub cache_hits: u64,
    /// Plan-cache misses attributable to this sweep's planning pass.
    pub cache_misses: u64,
}

impl SweepReport {
    /// Sum of estimated chosen-kernel milliseconds across layers.
    pub fn total_est_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.est_ms).sum()
    }

    /// Sum of estimated dense milliseconds across layers.
    pub fn total_dense_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.dense_ms).sum()
    }

    /// Whole-model estimated speedup over dense.
    pub fn total_speedup(&self) -> f64 {
        self.total_dense_ms() / self.total_est_ms()
    }
}

/// The linear layers of one model, in dataset order.
pub fn model_layers(model: &LlamaModel) -> Vec<LayerShape> {
    layer_shapes()
        .into_iter()
        .filter(|s| s.model == model.name)
        .collect()
}

/// Scale a dimension down by `div`, keeping the 32-element kernel granule
/// and a floor large enough for every Table I blocking. `div == 1`
/// ([`ExecutePolicy::Full`]) returns the dimension untouched; the scaled
/// result never exceeds the original rounded up to the granule.
fn scaled_dim(d: usize, div: usize) -> usize {
    if div <= 1 {
        return d;
    }
    let padded = d.max(1).div_ceil(32) * 32;
    ((d / div).max(64).div_ceil(32) * 32).min(padded)
}

/// Plan (and per [`SweepOptions::execute`], run) every linear layer of
/// `model` through the session at one sparsity level.
pub fn sweep_model(
    session: &mut Session,
    model: &LlamaModel,
    cfg: NmConfig,
    opts: &SweepOptions,
) -> Result<SweepReport> {
    let shapes = model_layers(model);
    let before = session.stats();

    // Planning pass: full-size shapes, O(1) on cache hits.
    let mut layers = Vec::with_capacity(shapes.len());
    for shape in &shapes {
        let hits_before = session.stats().hits;
        let plan = session.plan(opts.seq_len, shape.n, shape.k, cfg)?;
        let cache_hit = session.stats().hits > hits_before;
        let est_ms = plan.best()?.seconds * 1e3;
        let dense_ms = plan.estimates.dense.seconds * 1e3;
        layers.push(LayerReport {
            layer: shape.layer,
            m: opts.seq_len,
            n: shape.n,
            k: shape.k,
            plan,
            cache_hit,
            est_ms,
            dense_ms,
            decode: Vec::new(),
            exec: None,
        });
    }
    let after = session.stats();

    // Decode lanes: the same layers at generation batch sizes. Planned
    // after the snapshot above so the prefill hit/miss accounting stays
    // untouched; decode plans skip the GEMM autotuner, so this pass is
    // cheap even for big models.
    if opts.decode {
        for (row, shape) in layers.iter_mut().zip(&shapes) {
            for batch in DECODE_BATCH_SIZES {
                let hits_before = session.stats().hits;
                let plan = session.plan(batch, shape.n, shape.k, cfg)?;
                let cache_hit = session.stats().hits > hits_before;
                let est_ms = plan.best()?.seconds * 1e3;
                let format = plan
                    .measured
                    .as_ref()
                    .map(|m| m.storage)
                    .unwrap_or(plan.key.storage);
                row.decode.push(DecodeLane {
                    batch,
                    plan,
                    cache_hit,
                    est_ms,
                    format,
                });
            }
        }
    }

    // Execution pass: real numerics through the chosen simulated kernel
    // and the CPU path, at (possibly scaled) dimensions. Each layer is
    // prepared against the full-size plan via `Session::load_planned`, so
    // the pass does not touch the cache counters above.
    if let Some(div) = opts.execute.divisor() {
        for (row, shape) in layers.iter_mut().zip(&shapes) {
            let (me, ne, ke) = (
                scaled_dim(opts.seq_len, div),
                scaled_dim(shape.n, div),
                scaled_dim(shape.k, div),
            );
            let a = MatrixF32::random(me, ke, opts.seed);
            let bd = MatrixF32::random(ke, ne, opts.seed ^ 1);
            let sb = NmSparseMatrix::prune_magnitude(&bd, cfg)?;

            // CPU sparse path: the V3 ladder under the full-size plan's
            // blocking.
            let cpu = session.load_planned(
                row.plan.clone(),
                sb.clone(),
                BackendKind::Cpu(NmVersion::V3),
            )?;
            let cpu_run = cpu.forward(&a)?;
            let c_cpu = cpu_run.c;
            let cpu_ms = cpu_run.wall_seconds * 1e3;

            // Dense baseline: the same ladder with N = M keeps every
            // vector of B, under the same plan's blocking.
            let dense = NmSparseMatrix::prune_magnitude(&bd, NmConfig::dense32(cfg.l))?;
            let dense_layer =
                session.load_planned(row.plan.clone(), dense, BackendKind::Cpu(NmVersion::V3))?;
            let cpu_dense_ms = dense_layer.forward(&a)?.wall_seconds * 1e3;

            // Measured-autotune lane: when the session measures, load the
            // scaled layer through the evidence-based CPU path and time
            // it. Plans (and the measured cache
            // entries) for the scaled shapes are separate keys, so the
            // full-size planning accounting above stays untouched.
            let measured_ms = if session.autotune() != AutotuneMode::Off {
                let measured = session.load(sb.clone(), me)?;
                Some(measured.forward(&a)?.wall_seconds * 1e3)
            } else {
                None
            };

            // One decode step for real: the first activation row through
            // the prepared SpMV path (`forward_vec` on the native CPU
            // ladder), cross-checked against row 0 of the CPU matrix
            // result. The decode plan is a separate `ShapeClass::Decode`
            // cache key, outside the prefill accounting.
            let (decode_ms, decode_vs_cpu_max_diff) = if opts.decode {
                let dplan = session.plan(1, ne, ke, cfg)?;
                let dlayer =
                    session.load_planned(dplan, sb.clone(), BackendKind::Cpu(NmVersion::V3))?;
                let drun = dlayer.forward_vec(a.row(0))?;
                let diff = drun
                    .c
                    .row(0)
                    .iter()
                    .zip(c_cpu.row(0))
                    .map(|(x, y)| (x - y).abs())
                    .fold(0f32, f32::max);
                (Some(drun.wall_seconds * 1e3), Some(diff))
            } else {
                (None, None)
            };

            // The Sim backend (reference oracle plus prediction), through
            // a prepared handle carrying the full-size plan.
            let layer = session.load_planned(row.plan.clone(), sb, BackendKind::Sim)?;
            let run = layer.forward(&a)?;
            row.exec = Some(ExecReport {
                m: me,
                n: ne,
                k: ke,
                cpu_ms,
                cpu_dense_ms,
                sim_vs_cpu_max_diff: run.c.max_abs_diff(&c_cpu),
                measured_ms,
                decode_ms,
                decode_vs_cpu_max_diff,
            });
        }
    }

    Ok(SweepReport {
        device: session.device().name.clone(),
        model: model.name,
        cfg,
        seq_len: opts.seq_len,
        layers,
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llama::LLAMA_FAMILY;
    use gpu_sim::device::a100_80g;
    use nm_kernels::session::SessionBuilder;

    fn small_opts(execute: ExecutePolicy) -> SweepOptions {
        SweepOptions {
            seq_len: 256,
            execute,
            seed: 7,
            decode: false,
        }
    }

    fn session() -> Session {
        SessionBuilder::new(a100_80g()).build().unwrap()
    }

    #[test]
    fn sweep_reports_every_layer_with_dense_speedup() {
        let mut eng = session();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let report = sweep_model(
            &mut eng,
            &LLAMA_FAMILY[0],
            cfg,
            &small_opts(ExecutePolicy::EstimateOnly),
        )
        .unwrap();
        assert_eq!(report.layers.len(), 5, "five linear shapes per model");
        for l in &report.layers {
            assert!(l.est_ms > 0.0 && l.dense_ms > 0.0, "{}", l.layer);
            assert!(
                l.speedup() > 1.0,
                "{} at 87.5% must beat dense, got {:.2}x",
                l.layer,
                l.speedup()
            );
        }
        assert!(report.total_speedup() > 1.0);
        assert_eq!(report.model, "Llama-7B");
        assert_eq!(report.device, "A100 80G PCIe");
    }

    #[test]
    fn gate_and_up_share_a_plan_cache_entry() {
        let mut eng = session();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        let report = sweep_model(
            &mut eng,
            &LLAMA_FAMILY[0],
            cfg,
            &small_opts(ExecutePolicy::EstimateOnly),
        )
        .unwrap();
        // mlp.gate and mlp.up have identical (n, k): exactly one hit.
        assert_eq!(report.cache_hits, 1, "gate/up must share a shape class");
        assert_eq!(report.cache_misses, 4);
        let hit_layers: Vec<&str> = report
            .layers
            .iter()
            .filter(|l| l.cache_hit)
            .map(|l| l.layer)
            .collect();
        assert_eq!(hit_layers, vec!["mlp.up"]);

        // A second sweep of the same model is all hits.
        let again = sweep_model(
            &mut eng,
            &LLAMA_FAMILY[0],
            cfg,
            &small_opts(ExecutePolicy::EstimateOnly),
        )
        .unwrap();
        assert_eq!(again.cache_hits, 5);
        assert_eq!(again.cache_misses, 0);
    }

    #[test]
    fn scaled_execution_cross_checks_sim_against_cpu() {
        let mut eng = session();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let report = sweep_model(
            &mut eng,
            &LLAMA_FAMILY[0],
            cfg,
            &small_opts(ExecutePolicy::Scaled(64)),
        )
        .unwrap();
        for l in &report.layers {
            let e = l.exec.expect("execution requested");
            assert!(e.m >= 64 && e.n >= 64 && e.k >= 64);
            assert!(e.m % 32 == 0 && e.n % 32 == 0 && e.k % 32 == 0);
            assert!(e.cpu_ms > 0.0 && e.cpu_dense_ms > 0.0);
            assert!(
                e.sim_vs_cpu_max_diff < 1e-2,
                "{}: simulated kernel and CPU path disagree by {}",
                l.layer,
                e.sim_vs_cpu_max_diff
            );
        }
        // Execution must not have perturbed the planning-pass accounting.
        assert_eq!(report.cache_misses as usize + report.cache_hits as usize, 5);
    }

    #[test]
    fn decode_lanes_plan_every_batch_without_touching_prefill_accounting() {
        let mut eng = session();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        let mut opts = small_opts(ExecutePolicy::EstimateOnly);
        opts.decode = true;
        let report = sweep_model(&mut eng, &LLAMA_FAMILY[0], cfg, &opts).unwrap();
        // The pinned prefill arithmetic is unchanged by the decode pass.
        assert_eq!(report.cache_hits, 1, "gate/up still share one entry");
        assert_eq!(report.cache_misses, 4);
        for l in &report.layers {
            let batches: Vec<usize> = l.decode.iter().map(|d| d.batch).collect();
            assert_eq!(batches, DECODE_BATCH_SIZES.to_vec(), "{}", l.layer);
            for d in &l.decode {
                assert!(d.plan.key.shape.is_decode(), "{} m={}", l.layer, d.batch);
                assert!(d.est_ms > 0.0);
                // Estimate-only decode plans carry no measured evidence,
                // so the reported format is the plan key's auto lane.
                assert_eq!(d.format, StorageFormat::RowMajor, "{}", l.layer);
            }
        }
        // mlp.up's decode lanes replay mlp.gate's keys: all cache hits.
        let up = report.layers.iter().find(|l| l.layer == "mlp.up").unwrap();
        assert!(up.decode.iter().all(|d| d.cache_hit));
    }

    #[test]
    fn decode_execution_runs_forward_vec_and_agrees_with_the_cpu_row() {
        let mut eng = session();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let mut opts = small_opts(ExecutePolicy::Scaled(64));
        opts.decode = true;
        let report = sweep_model(&mut eng, &LLAMA_FAMILY[0], cfg, &opts).unwrap();
        for l in &report.layers {
            let e = l.exec.expect("execution requested");
            let ms = e.decode_ms.expect("decode step ran");
            assert!(ms > 0.0);
            let diff = e.decode_vs_cpu_max_diff.expect("cross-checked");
            assert!(
                diff < 1e-2,
                "{}: prepared SpMV and the CPU path disagree by {diff}",
                l.layer
            );
        }
    }

    #[test]
    fn scaled_dim_full_is_exact_and_scaled_is_bounded() {
        // Full (div = 1) must not inflate ragged dims.
        assert_eq!(scaled_dim(100, 1), 100);
        assert_eq!(scaled_dim(31, 1), 31);
        // Scaled keeps the floor/granule but never exceeds the padded
        // original.
        assert_eq!(scaled_dim(4096, 64), 64);
        assert_eq!(scaled_dim(100, 2), 64);
        assert_eq!(scaled_dim(32, 8), 32);
        assert_eq!(scaled_dim(11008, 8), 1376);
    }

    #[test]
    fn model_layers_filters_by_model() {
        for m in &LLAMA_FAMILY {
            let layers = model_layers(m);
            assert_eq!(layers.len(), 5);
            assert!(layers.iter().all(|s| s.model == m.name));
        }
    }
}
