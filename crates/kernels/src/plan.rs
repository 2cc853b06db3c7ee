//! The unified kernel planner: one entry point that picks a kernel family,
//! tunes its blocking, and memoizes the result.
//!
//! The paper's end-to-end workflow (§IV, Fig. 9, Table I) is: given a
//! device, a problem shape and an N:M configuration, run the §III-A/III-C
//! decision procedure, pick the best kernel version and blocking plan, then
//! sweep whole models. Before this module every bench bin re-derived that
//! selection by hand and [`crate::autotune`] re-searched from scratch on
//! every call. [`Planner::plan`] does it once per [`PlanKey`] —
//! `(device, shape class, N:M)` — and memoizes the finished [`Plan`] in a
//! [`PlanCache`], which serializes to JSON (via `nm_core::json`; the
//! offline `serde` shim has no serializer) so tuning survives across
//! processes. Cache hits and misses are counted, mirroring the offline
//! tuning-then-lookup workflow of real sparse kernel libraries (NMSPARSE;
//! Yang et al., *Design Principles for Sparse Matrix Multiplication on the
//! GPU*).
//!
//! Shapes are keyed by **class**, not raw dimensions: every dimension is
//! padded up to the 32-element granularity the kernels themselves pad to,
//! so a `100×200×300` problem and a `128×224×320` one share the
//! `128×224×320` key and therefore the same plan. The plan is computed
//! *from the padded dimensions*, making `key → plan` a pure function —
//! equal keys can never observe different plans.

use crate::autotune;
use crate::cpu::CpuTiling;
use crate::dense::DenseGemmKernel;
use crate::nm::{NmSpmmKernel, NmVersion};
use crate::nmsparse::NmSparseKernel;
use crate::params::BlockingParams;
use crate::sparse_tc::SparseTensorCoreKernel;
use crate::sputnik::SputnikKernel;
use gpu_sim::device::DeviceConfig;
use gpu_sim::timing::LaunchReport;
use nm_analysis::strategy::{PipelineHint, PredictedBound, StrategyDecision};
use nm_core::error::{NmError, Result};
use nm_core::json::JsonValue;
use nm_core::pattern::NmConfig;
use nm_core::sliced::StorageFormat;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Kernel-dimension padding granularity used for shape classes.
const CLASS_GRANULE: usize = 32;

#[inline]
fn pad_dim(d: usize) -> usize {
    d.max(1).div_ceil(CLASS_GRANULE) * CLASS_GRANULE
}

/// Largest activation-row count classified as decode. Autoregressive
/// serving batches a handful of tokens per step; past 8 rows the 4- and
/// 8-row register tiles amortize well and the GEMM regime applies.
pub const DECODE_MAX_ROWS: usize = 8;

/// The execution regime of a shape — a first-class planner dimension.
///
/// Prefill (square-ish GEMM) and decode (1–8 activation rows, the
/// autoregressive serving regime) want different plans: decode is
/// bandwidth-bound streaming of `B′` where the GEMM autotuner's tile
/// search is meaningless, so decode keys skip it and lean on measured
/// evidence instead. Keying the class separately means an `m = 1` SpMV
/// and an `m = 512` GEMM over the same weights can never collide on one
/// cache entry (both pad to the same 32-row granule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShapeClass {
    /// The GEMM regime: more than [`DECODE_MAX_ROWS`] activation rows.
    Prefill,
    /// Autoregressive decode with this exact activation-row count
    /// (1..=[`DECODE_MAX_ROWS`]); `Decode(1)` is SpMV.
    Decode(usize),
}

impl ShapeClass {
    /// Classify a concrete (unpadded) activation-row count.
    pub fn of_rows(m: usize) -> Self {
        if (1..=DECODE_MAX_ROWS).contains(&m) {
            ShapeClass::Decode(m)
        } else {
            ShapeClass::Prefill
        }
    }

    /// Whether this is the decode regime.
    pub fn is_decode(&self) -> bool {
        matches!(self, ShapeClass::Decode(_))
    }

    /// The exact decode row count, when decode.
    pub fn decode_rows(&self) -> Option<usize> {
        match self {
            ShapeClass::Decode(rows) => Some(*rows),
            ShapeClass::Prefill => None,
        }
    }

    /// Stable identifier used in the JSON cache (`"prefill"`,
    /// `"decode:4"`).
    pub fn tag(&self) -> String {
        match self {
            ShapeClass::Prefill => "prefill".to_string(),
            ShapeClass::Decode(rows) => format!("decode:{rows}"),
        }
    }

    /// Inverse of [`ShapeClass::tag`].
    pub fn from_tag(tag: &str) -> Result<Self> {
        if tag == "prefill" {
            return Ok(ShapeClass::Prefill);
        }
        if let Some(rows) = tag.strip_prefix("decode:") {
            let rows: usize = rows.parse().map_err(|_| NmError::Persist {
                reason: format!("malformed shape class `{tag}`"),
            })?;
            if (1..=DECODE_MAX_ROWS).contains(&rows) {
                return Ok(ShapeClass::Decode(rows));
            }
        }
        Err(NmError::Persist {
            reason: format!("unknown shape class `{tag}`"),
        })
    }

    /// Deterministic ordering rank for cache serialization.
    fn sort_rank(&self) -> (u8, usize) {
        match self {
            ShapeClass::Prefill => (0, 0),
            ShapeClass::Decode(rows) => (1, *rows),
        }
    }
}

impl std::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// Deterministic fingerprint of every timing-relevant [`DeviceConfig`]
/// parameter (FNV-1a over a canonical rendering). Part of the cache key,
/// so plans computed against an edited device model — same marketing name,
/// different silicon — can never replay as stale hits. Changes to the
/// timing-model *code* are not fingerprinted; bump [`CACHE_FORMAT_VERSION`]
/// for those.
fn device_fingerprint(dev: &DeviceConfig) -> String {
    let canon = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        dev.clock_mhz,
        dev.sm_count,
        dev.fp32_cores_per_sm,
        dev.fp32_flops_per_clock_per_sm,
        dev.register_file_per_sm,
        dev.max_registers_per_thread,
        dev.l1_shared_per_sm,
        dev.max_shared_per_sm,
        dev.l2_bytes,
        dev.dram_bytes,
        dev.dram_bw,
        dev.l2_bw_ratio,
        dev.max_warps_per_sm,
        dev.max_blocks_per_sm,
        dev.max_threads_per_block,
        dev.smem_bytes_per_clock,
        dev.dram_latency_cycles,
        dev.l2_latency_cycles,
        dev.barrier_cycles,
        dev.sustained_efficiency,
    );
    let mut h: u64 = 0xcbf29ce484222325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The measurement scope of a **measured** plan: which host the evidence
/// was gathered on.
///
/// Measured cache entries are keyed by
/// `(host ISA, thread count, shape class, N:M(L))` in addition to the
/// device fields, so a cache file moved between machines (different ISA)
/// or run configurations (different worker count) **misses** instead of
/// replaying foreign measurements. Cost-model entries carry no host —
/// an analytic estimate is host-independent by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanHost {
    /// Micro-kernel ISA name ([`crate::simd::Isa::name`]) the measurement
    /// dispatched to.
    pub isa: String,
    /// Rayon worker threads the measurement fanned across.
    pub threads: usize,
}

impl std::fmt::Display for PlanHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}t", self.isa, self.threads)
    }
}

/// Cache key: device identity, shape class and sparsity configuration.
///
/// `m`, `n`, `k` are stored **padded** to the 32-element class granule;
/// plans are
/// computed from these padded dimensions, so equal keys yield equal plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Device name (from [`DeviceConfig::name`]).
    pub device: String,
    /// FNV-1a fingerprint of the device's timing-relevant parameters,
    /// so an edited device model (same name, different silicon) misses
    /// instead of replaying stale estimates.
    pub device_fp: String,
    /// Padded output rows.
    pub m: usize,
    /// Padded output columns.
    pub n: usize,
    /// Padded reduction depth.
    pub k: usize,
    /// Vectors kept per pruning window (`N`).
    pub n_keep: usize,
    /// Pruning-window depth (`M`).
    pub m_win: usize,
    /// Vector length (`L`).
    pub l: usize,
    /// Prefill vs decode — classified on the *unpadded* row count, so
    /// skinny decode shapes (which all pad to the same 32-row granule)
    /// plan, measure and cache separately from each other and from
    /// prefill.
    pub shape: ShapeClass,
    /// The storage lane this plan is keyed to. [`StorageFormat::RowMajor`]
    /// is both the paper's layout and the *auto* lane (measurement may
    /// still pick a sliced winner, recorded in
    /// [`MeasuredChoice::storage`]); an explicit sliced pin keys its own
    /// cache identity so it never shadows the auto entry. Pre-v4
    /// documents load as row-major.
    pub storage: StorageFormat,
    /// The measurement scope for measured entries; `None` for cost-model
    /// plans. Part of the key, so measured evidence never shadows the
    /// analytic plan for the same shape (and vice versa).
    pub host: Option<PlanHost>,
}

impl PlanKey {
    /// Key for a concrete problem instance.
    pub fn new(dev: &DeviceConfig, m: usize, n: usize, k: usize, cfg: NmConfig) -> Self {
        Self {
            device: dev.name.clone(),
            device_fp: device_fingerprint(dev),
            m: pad_dim(m),
            n: pad_dim(n),
            k: pad_dim(k),
            n_keep: cfg.n,
            m_win: cfg.m,
            l: cfg.l,
            shape: ShapeClass::of_rows(m),
            storage: StorageFormat::RowMajor,
            host: None,
        }
    }

    /// The same key scoped to measured evidence gathered on `host`.
    pub fn for_host(&self, host: PlanHost) -> Self {
        Self {
            host: Some(host),
            ..self.clone()
        }
    }

    /// The same key re-keyed to an explicit storage lane.
    pub fn with_storage(&self, storage: StorageFormat) -> Self {
        Self {
            storage,
            ..self.clone()
        }
    }

    /// The sparsity configuration the key encodes.
    pub fn cfg(&self) -> Result<NmConfig> {
        NmConfig::new(self.n_keep, self.m_win, self.l)
    }
}

impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}x{}x{} {}:{}(L={})",
            self.device, self.m, self.n, self.k, self.n_keep, self.m_win, self.l
        )?;
        if self.shape.is_decode() {
            write!(f, " [{}]", self.shape)?;
        }
        if self.storage != StorageFormat::RowMajor {
            write!(f, " [{}]", self.storage)?;
        }
        if let Some(host) = &self.host {
            write!(f, " @{host}")?;
        }
        Ok(())
    }
}

/// The kernel family a [`Plan`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Dense GEMM (the cuBLAS stand-in) — chosen when sparsity cannot pay.
    Dense,
    /// NM-SpMM V1: hierarchical blocking only.
    NmV1,
    /// NM-SpMM V2: V1 + sparsity-aware packing.
    NmV2,
    /// NM-SpMM V3: V2 + pipelined double buffering (the paper's kernel).
    NmV3,
    /// The nmSPARSE VW baseline.
    NmSparse,
    /// The Sputnik unstructured-SpMM baseline.
    Sputnik,
    /// Sparse tensor cores (2:4 element-wise only).
    SparseTc,
}

impl KernelChoice {
    /// Stable identifier used in the JSON cache.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Dense => "dense",
            KernelChoice::NmV1 => "nm_v1",
            KernelChoice::NmV2 => "nm_v2",
            KernelChoice::NmV3 => "nm_v3",
            KernelChoice::NmSparse => "nmsparse",
            KernelChoice::Sputnik => "sputnik",
            KernelChoice::SparseTc => "sparse_tc",
        }
    }

    /// Inverse of [`KernelChoice::name`].
    pub fn from_name(name: &str) -> Result<Self> {
        Ok(match name {
            "dense" => KernelChoice::Dense,
            "nm_v1" => KernelChoice::NmV1,
            "nm_v2" => KernelChoice::NmV2,
            "nm_v3" => KernelChoice::NmV3,
            "nmsparse" => KernelChoice::NmSparse,
            "sputnik" => KernelChoice::Sputnik,
            "sparse_tc" => KernelChoice::SparseTc,
            other => {
                return Err(NmError::Persist {
                    reason: format!("unknown kernel choice `{other}`"),
                })
            }
        })
    }

    /// The NM-SpMM version this choice corresponds to, if any.
    pub fn nm_version(&self) -> Option<NmVersion> {
        match self {
            KernelChoice::NmV1 => Some(NmVersion::V1),
            KernelChoice::NmV2 => Some(NmVersion::V2),
            KernelChoice::NmV3 => Some(NmVersion::V3),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelChoice::Dense => "dense GEMM",
            KernelChoice::NmV1 => "NM-SpMM V1",
            KernelChoice::NmV2 => "NM-SpMM V2",
            KernelChoice::NmV3 => "NM-SpMM V3",
            KernelChoice::NmSparse => "nmSPARSE",
            KernelChoice::Sputnik => "Sputnik",
            KernelChoice::SparseTc => "sparse tensor cores",
        })
    }
}

/// Compact, serializable summary of one kernel's timing estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimateSummary {
    /// Wall time in seconds.
    pub seconds: f64,
    /// Useful throughput in TFLOPS.
    pub tflops: f64,
    /// Fraction of the device's FP32 peak.
    pub efficiency: f64,
}

impl From<&LaunchReport> for EstimateSummary {
    fn from(r: &LaunchReport) -> Self {
        Self {
            seconds: r.seconds,
            tflops: r.tflops,
            efficiency: r.efficiency,
        }
    }
}

/// Per-family timing estimates for one [`PlanKey`].
///
/// `dense` and `sputnik` always estimate; the others are `None` when the
/// family cannot launch this configuration (e.g. sparse tensor cores on
/// anything but 2:4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelEstimates {
    /// The cuBLAS stand-in (the "1.0×" baseline of Fig. 9).
    pub dense: EstimateSummary,
    /// NM-SpMM V1 with the tuned blocking.
    pub nm_v1: Option<EstimateSummary>,
    /// NM-SpMM V2 with the tuned blocking.
    pub nm_v2: Option<EstimateSummary>,
    /// NM-SpMM V3 with the tuned blocking.
    pub nm_v3: Option<EstimateSummary>,
    /// The nmSPARSE VW baseline.
    pub nmsparse: Option<EstimateSummary>,
    /// The Sputnik CSR baseline.
    pub sputnik: EstimateSummary,
    /// Sparse tensor cores (2:4 only).
    pub sparse_tc: Option<EstimateSummary>,
}

impl KernelEstimates {
    /// The estimate for one family, if available.
    pub fn get(&self, choice: KernelChoice) -> Option<EstimateSummary> {
        match choice {
            KernelChoice::Dense => Some(self.dense),
            KernelChoice::NmV1 => self.nm_v1,
            KernelChoice::NmV2 => self.nm_v2,
            KernelChoice::NmV3 => self.nm_v3,
            KernelChoice::NmSparse => self.nmsparse,
            KernelChoice::Sputnik => Some(self.sputnik),
            KernelChoice::SparseTc => self.sparse_tc,
        }
    }
}

/// Where a [`Plan`]'s decision came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// The analytic timing model (strategy decision + exhaustive
    /// estimate-driven autotune) — host-independent.
    CostModel,
    /// Short-run measurement on the executing host
    /// ([`measure`](mod@crate::measure)) — scoped by the key's [`PlanHost`].
    Measured,
}

impl Provenance {
    /// Stable identifier used in the JSON cache.
    pub fn name(&self) -> &'static str {
        match self {
            Provenance::CostModel => "cost_model",
            Provenance::Measured => "measured",
        }
    }

    /// Inverse of [`Provenance::name`].
    pub fn from_name(name: &str) -> Result<Self> {
        match name {
            "cost_model" => Ok(Provenance::CostModel),
            "measured" => Ok(Provenance::Measured),
            other => Err(NmError::Persist {
                reason: format!("unknown plan provenance `{other}`"),
            }),
        }
    }
}

/// Stable identifier for a ladder version, as written into bench reports
/// (`"v1"`/`"v2"`/`"v3"`).
pub fn version_name(v: NmVersion) -> &'static str {
    match v {
        NmVersion::V1 => "v1",
        NmVersion::V2 => "v2",
        NmVersion::V3 => "v3",
    }
}

/// The measured-best CPU execution choice carried by a `Measured` plan:
/// the tile geometry and storage format the V3 kernel runs with, plus the
/// evidence (throughput, sample count) that picked them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredChoice {
    /// The (effective, clamped) CPU tile geometry it measured fastest
    /// with.
    pub cpu_tiling: CpuTiling,
    /// The storage format that measured fastest — on an auto
    /// (row-major-keyed) decode entry this is where a sliced layout wins
    /// its place; execution stages `B′` in this format.
    pub storage: StorageFormat,
    /// Measured useful throughput of the winner, in GFLOP/s.
    pub gflops: f64,
    /// Timed iterations behind the winning sample.
    pub samples: usize,
}

/// A fully resolved execution plan for one `(device, shape class, N:M)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The key this plan answers.
    pub key: PlanKey,
    /// Fastest kernel family under the timing model.
    pub choice: KernelChoice,
    /// Auto-tuned Table I blocking for the NM-SpMM family.
    pub params: BlockingParams,
    /// Candidates the exhaustive search evaluated (0 when tuning was
    /// impossible and `params` fell back to `Para_Init_Table`).
    pub evaluated: usize,
    /// The §III-A decision (packing, pipeline orientation, roofline bound).
    pub decision: StrategyDecision,
    /// Per-family timing estimates.
    pub estimates: KernelEstimates,
    /// Where the decision came from.
    pub provenance: Provenance,
    /// The measured-best CPU choice; present exactly when `provenance`
    /// is [`Provenance::Measured`].
    pub measured: Option<MeasuredChoice>,
}

impl Plan {
    /// Validated cost-model plan constructor — the invariant that the
    /// chosen family carries an estimate is checked **here**, at
    /// construction, so no later accessor can trip over it (it used to be
    /// enforced only on the JSON parse path, letting in-process
    /// construction build a plan whose [`Plan::best`] panicked).
    pub fn new(
        key: PlanKey,
        choice: KernelChoice,
        params: BlockingParams,
        evaluated: usize,
        decision: StrategyDecision,
        estimates: KernelEstimates,
    ) -> Result<Self> {
        let plan = Self {
            key,
            choice,
            params,
            evaluated,
            decision,
            estimates,
            provenance: Provenance::CostModel,
            measured: None,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Check the structural invariants every construction path must hold:
    /// the chosen family has an estimate, and measured evidence is present
    /// exactly when the provenance says so.
    pub fn validate(&self) -> Result<()> {
        if self.estimates.get(self.choice).is_none() {
            return Err(NmError::InvalidConfig {
                reason: format!(
                    "plan for `{}` chooses `{}` but carries no estimate for it",
                    self.key,
                    self.choice.name()
                ),
            });
        }
        if (self.provenance == Provenance::Measured) != self.measured.is_some() {
            return Err(NmError::InvalidConfig {
                reason: format!(
                    "plan for `{}` has provenance `{}` but measured evidence is {}",
                    self.key,
                    self.provenance.name(),
                    if self.measured.is_some() {
                        "present"
                    } else {
                        "absent"
                    }
                ),
            });
        }
        if self.provenance == Provenance::Measured && self.key.host.is_none() {
            return Err(NmError::InvalidConfig {
                reason: format!("measured plan for `{}` is not scoped to a host", self.key),
            });
        }
        Ok(())
    }

    /// Derive the measured variant of this plan: same shape class and
    /// analytic estimates, re-keyed to `host` and carrying the measured
    /// CPU winner. The cost-model entry stays untouched under its own
    /// (host-less) key.
    pub fn with_measured(&self, host: PlanHost, measured: MeasuredChoice) -> Result<Self> {
        let mut plan = self.clone();
        plan.key = self.key.for_host(host);
        plan.provenance = Provenance::Measured;
        plan.measured = Some(measured);
        plan.validate()?;
        Ok(plan)
    }

    /// The winning family's estimate.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] when the plan's chosen family carries no
    /// estimate — a structural corruption every constructor rejects, but a
    /// hand-built `Plan` literal can still encode.
    pub fn best(&self) -> Result<EstimateSummary> {
        self.estimates
            .get(self.choice)
            .ok_or_else(|| NmError::InvalidConfig {
                reason: format!(
                    "plan for `{}` chooses `{}` but carries no estimate for it",
                    self.key,
                    self.choice.name()
                ),
            })
    }

    /// Estimated speedup of the chosen kernel over the dense baseline.
    ///
    /// # Errors
    /// Propagates [`Plan::best`].
    pub fn speedup_vs_dense(&self) -> Result<f64> {
        Ok(self.estimates.dense.seconds / self.best()?.seconds)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let p = self.params;
        let timing = match self.best() {
            Ok(best) => format!(
                "{:.3} ms, {:.2}x vs dense",
                best.seconds * 1e3,
                self.estimates.dense.seconds / best.seconds
            ),
            Err(_) => "no estimate".to_string(),
        };
        let evidence = match &self.measured {
            Some(m) => format!(" [measured: {} {:.1} GFLOP/s]", m.storage.tag(), m.gflops),
            None => String::new(),
        };
        format!(
            "{} via {} [{}x{} mt{}xnt{}]{} — {timing}{evidence}",
            self.key,
            self.choice,
            p.ms,
            p.ns,
            p.mt,
            p.nt,
            if self.decision.packing {
                ", packing"
            } else {
                ""
            },
        )
    }
}

// ---------------------------------------------------------------------------
// JSON encoding (hand-rolled: the offline serde shim has no serializer).
// ---------------------------------------------------------------------------

fn est_to_json(e: &EstimateSummary) -> JsonValue {
    JsonValue::object(vec![
        ("seconds", JsonValue::Number(e.seconds)),
        ("tflops", JsonValue::Number(e.tflops)),
        ("efficiency", JsonValue::Number(e.efficiency)),
    ])
}

fn est_from_json(v: &JsonValue) -> Result<EstimateSummary> {
    Ok(EstimateSummary {
        seconds: v.f64_field("seconds")?,
        tflops: v.f64_field("tflops")?,
        efficiency: v.f64_field("efficiency")?,
    })
}

fn opt_est_to_json(e: &Option<EstimateSummary>) -> JsonValue {
    match e {
        Some(e) => est_to_json(e),
        None => JsonValue::Null,
    }
}

fn opt_est_from_json(v: &JsonValue) -> Result<Option<EstimateSummary>> {
    match v {
        JsonValue::Null => Ok(None),
        other => Ok(Some(est_from_json(other)?)),
    }
}

fn host_to_json(host: &Option<PlanHost>) -> JsonValue {
    match host {
        Some(h) => JsonValue::object(vec![
            ("isa", JsonValue::from_str_value(&h.isa)),
            ("threads", JsonValue::from_usize(h.threads)),
        ]),
        None => JsonValue::Null,
    }
}

fn host_from_json(v: Option<&JsonValue>) -> Result<Option<PlanHost>> {
    match v {
        None | Some(JsonValue::Null) => Ok(None),
        Some(h) => Ok(Some(PlanHost {
            isa: h.str_field("isa")?.to_string(),
            threads: h.usize_field("threads")?,
        })),
    }
}

/// Parse a storage tag from a cache document; an unrecognized tag is a
/// malformed document.
fn storage_from_json(v: &JsonValue) -> Result<StorageFormat> {
    StorageFormat::from_name(v.str_field("storage")?).map_err(|e| NmError::Persist {
        reason: format!("malformed storage format: {e}"),
    })
}

impl MeasuredChoice {
    /// The evidence as the plan cache stores it: the tile geometry
    /// (`mb`, `nb`, `kb`, `mt`), `storage`, `gflops` and `samples`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("mb", JsonValue::from_usize(self.cpu_tiling.mb)),
            ("nb", JsonValue::from_usize(self.cpu_tiling.nb)),
            ("kb", JsonValue::from_usize(self.cpu_tiling.kb)),
            ("mt", JsonValue::from_usize(self.cpu_tiling.mt)),
            ("storage", JsonValue::from_str_value(&self.storage.tag())),
            ("gflops", JsonValue::Number(self.gflops)),
            ("samples", JsonValue::from_usize(self.samples)),
        ])
    }
}

fn measured_from_json(v: Option<&JsonValue>) -> Result<Option<MeasuredChoice>> {
    match v {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => Ok(Some(MeasuredChoice {
            cpu_tiling: CpuTiling {
                mb: m.usize_field("mb")?,
                nb: m.usize_field("nb")?,
                kb: m.usize_field("kb")?,
                mt: m.usize_field("mt")?,
            },
            storage: storage_from_json(m)?,
            gflops: m.f64_field("gflops")?,
            samples: m.usize_field("samples")?,
        })),
    }
}

fn plan_to_json(plan: &Plan) -> JsonValue {
    let k = &plan.key;
    let p = &plan.params;
    let d = &plan.decision;
    let e = &plan.estimates;
    JsonValue::object(vec![
        (
            "key",
            JsonValue::object(vec![
                ("device", JsonValue::from_str_value(&k.device)),
                ("device_fp", JsonValue::from_str_value(&k.device_fp)),
                ("m", JsonValue::from_usize(k.m)),
                ("n", JsonValue::from_usize(k.n)),
                ("k", JsonValue::from_usize(k.k)),
                ("n_keep", JsonValue::from_usize(k.n_keep)),
                ("m_win", JsonValue::from_usize(k.m_win)),
                ("l", JsonValue::from_usize(k.l)),
                ("shape", JsonValue::from_str_value(&k.shape.tag())),
                ("storage", JsonValue::from_str_value(&k.storage.tag())),
                ("host", host_to_json(&k.host)),
            ]),
        ),
        ("choice", JsonValue::from_str_value(plan.choice.name())),
        (
            "provenance",
            JsonValue::from_str_value(plan.provenance.name()),
        ),
        (
            "measured",
            (plan.measured.as_ref()).map_or(JsonValue::Null, MeasuredChoice::to_json),
        ),
        (
            "params",
            JsonValue::object(vec![
                ("ms", JsonValue::from_usize(p.ms)),
                ("ns", JsonValue::from_usize(p.ns)),
                ("mr", JsonValue::from_usize(p.mr)),
                ("nr", JsonValue::from_usize(p.nr)),
                ("mt", JsonValue::from_usize(p.mt)),
                ("nt", JsonValue::from_usize(p.nt)),
            ]),
        ),
        ("evaluated", JsonValue::from_usize(plan.evaluated)),
        (
            "decision",
            JsonValue::object(vec![
                ("packing", JsonValue::Bool(d.packing)),
                (
                    "pipeline",
                    JsonValue::from_str_value(match d.pipeline {
                        PipelineHint::ComputeHidesLoad => "compute_hides_load",
                        PipelineHint::LoadHidesCompute => "load_hides_compute",
                    }),
                ),
                (
                    "bound",
                    JsonValue::from_str_value(match d.predicted_bound {
                        PredictedBound::Compute => "compute",
                        PredictedBound::Memory => "memory",
                    }),
                ),
                ("ai_flops_per_byte", JsonValue::Number(d.ai_flops_per_byte)),
                ("packing_ratio", JsonValue::Number(d.packing_ratio)),
                ("sparsity", JsonValue::Number(d.sparsity)),
            ]),
        ),
        (
            "estimates",
            JsonValue::object(vec![
                ("dense", est_to_json(&e.dense)),
                ("nm_v1", opt_est_to_json(&e.nm_v1)),
                ("nm_v2", opt_est_to_json(&e.nm_v2)),
                ("nm_v3", opt_est_to_json(&e.nm_v3)),
                ("nmsparse", opt_est_to_json(&e.nmsparse)),
                ("sputnik", est_to_json(&e.sputnik)),
                ("sparse_tc", opt_est_to_json(&e.sparse_tc)),
            ]),
        ),
    ])
}

fn plan_from_json(v: &JsonValue) -> Result<Plan> {
    let kv = v.field("key")?;
    let key = PlanKey {
        device: kv.str_field("device")?.to_string(),
        device_fp: kv.str_field("device_fp")?.to_string(),
        m: kv.usize_field("m")?,
        n: kv.usize_field("n")?,
        k: kv.usize_field("k")?,
        n_keep: kv.usize_field("n_keep")?,
        m_win: kv.usize_field("m_win")?,
        l: kv.usize_field("l")?,
        shape: ShapeClass::from_tag(kv.str_field("shape")?)?,
        storage: storage_from_json(kv)?,
        host: host_from_json(kv.get("host"))?,
    };
    let choice = KernelChoice::from_name(v.str_field("choice")?)?;
    let provenance = Provenance::from_name(v.str_field("provenance")?)?;
    let measured = measured_from_json(v.get("measured"))?;
    let pv = v.field("params")?;
    let params = BlockingParams {
        ms: pv.usize_field("ms")?,
        ns: pv.usize_field("ns")?,
        mr: pv.usize_field("mr")?,
        nr: pv.usize_field("nr")?,
        mt: pv.usize_field("mt")?,
        nt: pv.usize_field("nt")?,
    };
    params.validate()?;
    let dv = v.field("decision")?;
    let decision = StrategyDecision {
        packing: dv.bool_field("packing")?,
        pipeline: match dv.str_field("pipeline")? {
            "compute_hides_load" => PipelineHint::ComputeHidesLoad,
            "load_hides_compute" => PipelineHint::LoadHidesCompute,
            other => {
                return Err(NmError::Persist {
                    reason: format!("unknown pipeline hint `{other}`"),
                })
            }
        },
        predicted_bound: match dv.str_field("bound")? {
            "compute" => PredictedBound::Compute,
            "memory" => PredictedBound::Memory,
            other => {
                return Err(NmError::Persist {
                    reason: format!("unknown bound `{other}`"),
                })
            }
        },
        ai_flops_per_byte: dv.f64_field("ai_flops_per_byte")?,
        packing_ratio: dv.f64_field("packing_ratio")?,
        sparsity: dv.f64_field("sparsity")?,
    };
    let ev = v.field("estimates")?;
    let estimates = KernelEstimates {
        dense: est_from_json(ev.field("dense")?)?,
        nm_v1: opt_est_from_json(ev.field("nm_v1")?)?,
        nm_v2: opt_est_from_json(ev.field("nm_v2")?)?,
        nm_v3: opt_est_from_json(ev.field("nm_v3")?)?,
        nmsparse: opt_est_from_json(ev.field("nmsparse")?)?,
        sputnik: est_from_json(ev.field("sputnik")?)?,
        sparse_tc: opt_est_from_json(ev.field("sparse_tc")?)?,
    };
    let plan = Plan {
        key,
        choice,
        params,
        evaluated: v.usize_field("evaluated")?,
        decision,
        estimates,
        provenance,
        measured,
    };
    // Same invariants as in-process construction ([`Plan::validate`]): a
    // (hand-edited or corrupted) document that breaks them is malformed,
    // not merely surprising.
    plan.validate()?;
    Ok(plan)
}

/// Version tag written into cache files; bump on schema changes.
///
/// * v1 — analytic plans only.
/// * v2 — adds `key.host`, `provenance` and `measured` (evidence-based
///   planning).
/// * v3 — adds `key.shape` (prefill vs decode).
/// * v4 — adds `key.storage` and `measured.storage` (the SELL-C-σ sliced
///   lane).
/// * v5 — same schema; CPU V3 splits decode calls across column ranges,
///   so measured decode winners recorded before it (V1/V2) are stale.
/// * v6 — drops `measured.ladder_version`: measurement races tilings and
///   storage formats of V3 only.
///
/// A document older than [`CACHE_FORMAT_OLDEST`] loads as an empty cache:
/// every key misses and re-plans, and the next save writes this version.
/// A newer version is rejected.
const CACHE_FORMAT_VERSION: usize = 6;

/// Oldest cache-file version whose plans [`PlanCache::from_json`] loads.
const CACHE_FORMAT_OLDEST: usize = 6;

/// In-memory memo of finished [`Plan`]s with hit/miss accounting and JSON
/// persistence.
#[derive(Debug, Default, Clone)]
pub struct PlanCache {
    entries: HashMap<PlanKey, Plan>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found a plan (since construction or load).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Counted lookup: bumps the hit or miss counter.
    pub fn lookup(&mut self, key: &PlanKey) -> Option<&Plan> {
        if self.entries.contains_key(key) {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.entries.get(key)
    }

    /// Uncounted lookup.
    pub fn peek(&self, key: &PlanKey) -> Option<&Plan> {
        self.entries.get(key)
    }

    /// Store a plan under its own key.
    pub fn insert(&mut self, plan: Plan) {
        self.entries.insert(plan.key.clone(), plan);
    }

    /// Iterate over memoized plans (unspecified order).
    pub fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.entries.values()
    }

    /// Serialize every entry to a JSON document (deterministic order:
    /// entries are sorted by key).
    pub fn to_json(&self) -> Result<String> {
        let mut plans: Vec<&Plan> = self.entries.values().collect();
        plans.sort_by_key(|p| {
            (
                p.key.device.clone(),
                p.key.device_fp.clone(),
                p.key.m,
                p.key.n,
                p.key.k,
                p.key.n_keep,
                p.key.m_win,
                p.key.l,
                p.key.shape.sort_rank(),
                p.key.storage.tag(),
                p.key.host.clone(),
            )
        });
        let doc = JsonValue::object(vec![
            ("format", JsonValue::from_str_value("nm-spmm plan cache")),
            ("version", JsonValue::from_usize(CACHE_FORMAT_VERSION)),
            (
                "entries",
                JsonValue::Array(plans.into_iter().map(plan_to_json).collect()),
            ),
        ]);
        doc.dump()
    }

    /// Parse a cache from the JSON produced by [`PlanCache::to_json`].
    /// Hit/miss counters start at zero. A document of an older format
    /// version loads empty, so its keys miss and re-plan; a newer version
    /// or a malformed document is an [`NmError::Persist`].
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = JsonValue::parse(text)?;
        if doc.str_field("format")? != "nm-spmm plan cache" {
            return Err(NmError::Persist {
                reason: "not a plan-cache document".into(),
            });
        }
        let version = doc.usize_field("version")?;
        if version > CACHE_FORMAT_VERSION {
            return Err(NmError::Persist {
                reason: format!(
                    "plan-cache version {version} is newer than this build \
                     (expected at most {CACHE_FORMAT_VERSION})"
                ),
            });
        }
        let mut cache = Self::new();
        if version < CACHE_FORMAT_OLDEST {
            return Ok(cache);
        }
        let entries = doc
            .field("entries")?
            .as_array()
            .ok_or_else(|| NmError::Persist {
                reason: "`entries` is not an array".into(),
            })?;
        for entry in entries {
            cache.insert(plan_from_json(entry)?);
        }
        Ok(cache)
    }

    /// Write the cache to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        let json = self.to_json()?;
        std::fs::write(path, json).map_err(|e| NmError::Persist {
            reason: format!("writing {}: {e}", path.display()),
        })
    }

    /// Read a cache from a file written by [`PlanCache::save`].
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| NmError::Persist {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_json(&text)
    }
}

/// The unified planner: strategy decision + exhaustive autotune, memoized.
#[derive(Debug, Clone)]
pub struct Planner {
    dev: DeviceConfig,
    cache: PlanCache,
}

impl Planner {
    /// Planner for one device with an empty cache.
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            dev,
            cache: PlanCache::new(),
        }
    }

    /// Planner seeded with a previously built (e.g. loaded) cache.
    pub fn with_cache(dev: DeviceConfig, cache: PlanCache) -> Self {
        Self { dev, cache }
    }

    /// The device this planner plans for.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Read access to the memo.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Surrender the memo (for persistence).
    pub fn into_cache(self) -> PlanCache {
        self.cache
    }

    /// Plan a problem: cache lookup first, full strategy + autotune on miss.
    ///
    /// Deterministic: equal `(device, shape class, N:M)` keys always return
    /// equal plans, whether computed or replayed from the cache.
    pub fn plan(&mut self, m: usize, n: usize, k: usize, cfg: NmConfig) -> Result<Plan> {
        self.plan_as(ShapeClass::of_rows(m), m, n, k, cfg)
    }

    /// As [`Planner::plan`], but under an **explicit** shape class instead
    /// of the one `m` classifies to — the planner face of the
    /// [`LoadSpec`](crate::session::LoadSpec) shape-class override.
    ///
    /// `ShapeClass::Decode(r)` plans the decode regime for `r` rows
    /// regardless of `m` (a layer loaded for a prefill row count can get a
    /// decode-band plan without re-loading); `ShapeClass::Prefill` forces
    /// the GEMM regime even for a skinny `m ≤ DECODE_MAX_ROWS` shape.
    ///
    /// # Errors
    /// [`NmError::InvalidConfig`] when `Decode(r)` names a row count
    /// outside `1..=DECODE_MAX_ROWS`.
    pub fn plan_as(
        &mut self,
        class: ShapeClass,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        self.plan_stored(class, StorageFormat::RowMajor, m, n, k, cfg)
    }

    /// As [`Planner::plan_as`], but keyed to an explicit storage lane —
    /// the planner face of the [`LoadSpec`](crate::session::LoadSpec)
    /// storage override. A sliced lane gets its own cache identity; the
    /// analytic estimates are storage-independent (the cost model times
    /// data movement the GPU kernels share), so the lane only changes the
    /// key and what execution stages.
    ///
    /// # Errors
    /// As [`Planner::plan_as`].
    pub fn plan_stored(
        &mut self,
        class: ShapeClass,
        storage: StorageFormat,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        if let ShapeClass::Decode(rows) = class {
            if !(1..=DECODE_MAX_ROWS).contains(&rows) {
                return Err(NmError::InvalidConfig {
                    reason: format!(
                        "decode shape class supports 1..={DECODE_MAX_ROWS} rows, got {rows}"
                    ),
                });
            }
        }
        // A decode override plans *as* that row count; a prefill override
        // keeps the caller's dimensions and only forces the regime.
        let eff_m = match class {
            ShapeClass::Decode(rows) => rows,
            ShapeClass::Prefill => m,
        };
        let mut key = PlanKey::new(&self.dev, eff_m, n, k, cfg);
        key.shape = class;
        key.storage = storage;
        if let Some(plan) = self.cache.lookup(&key) {
            return Ok(plan.clone());
        }
        let plan = compute_plan(&self.dev, key)?;
        self.cache.insert(plan.clone());
        Ok(plan)
    }

    /// Counted lookup of an already-resolved plan under an arbitrary key —
    /// how the session layer consults measured (host-scoped) entries that
    /// [`Planner::plan`] itself never computes.
    pub fn lookup(&mut self, key: &PlanKey) -> Option<Plan> {
        self.cache.lookup(key).cloned()
    }

    /// Store an externally resolved plan (e.g. measured evidence) in the
    /// memo under its own key.
    pub fn insert(&mut self, plan: Plan) {
        self.cache.insert(plan);
    }
}

/// The pure `key → plan` function: everything below operates on the padded
/// class dimensions so equal keys can never diverge.
fn compute_plan(dev: &DeviceConfig, key: PlanKey) -> Result<Plan> {
    let cfg = key.cfg()?;
    let (m, n, k) = (key.m, key.n, key.k);

    // Dense baseline is mandatory — without it no speedup is defined.
    let dense: EstimateSummary = (&DenseGemmKernel::auto(m, n).estimate(dev, m, n, k)?).into();

    // Exhaustive search over the valid blocking space for V3 (the paper's
    // kernel); fall back to the Para_Init_Table preset when the space is
    // empty (e.g. an L no supported ns is a multiple of). Decode keys
    // skip the search entirely: the autotuner ranks *GEMM* tilings by
    // modeled FLOP throughput, which is meaningless at 1–8 activation
    // rows where the kernel streams `B′` once — the preset records a
    // valid launch geometry and the real skinny-vs-GEMM call is made from
    // measurement ([`crate::measure`]), not the cost model.
    let (params, evaluated, nm_v3) = if key.shape.is_decode() {
        let preset = BlockingParams::para_init_table(m, n);
        let rep = NmSpmmKernel::new(NmVersion::V3, preset)
            .estimate(dev, m, n, k, cfg, None)
            .ok();
        (preset, 0, rep.as_ref().map(EstimateSummary::from))
    } else {
        match autotune::tune(dev, m, n, k, cfg) {
            Ok(t) => (t.params, t.evaluated, Some((&t.report).into())),
            Err(_) => {
                let preset = BlockingParams::para_init_table(m, n);
                let rep = NmSpmmKernel::new(NmVersion::V3, preset)
                    .estimate(dev, m, n, k, cfg, None)
                    .ok();
                (preset, 0, rep.as_ref().map(EstimateSummary::from))
            }
        }
    };

    // The strategy decision for the winning blocking. When even the preset
    // cannot launch, fall back to a plain Strategy::decide on the Table I
    // geometry so the plan still records the paper's packing/pipeline call.
    let decision = match NmSpmmKernel::new(NmVersion::V3, params).plan(dev, m, n, k, cfg) {
        Ok(p) => p.decision,
        Err(_) => {
            let block = nm_analysis::ai::BlockAi {
                ms: params.ms,
                ns: params.ns,
                ks: cfg.m.max(32),
                ws: cfg.n.max(1) * cfg.m.max(32) / cfg.m.max(1),
            };
            nm_analysis::strategy::Strategy::decide(dev, cfg, block, (params.ns / cfg.l).max(1))
        }
    };

    // Step-wise versions at the same tuned blocking (Fig. 7's ladder).
    let nm_v1 = NmSpmmKernel::new(NmVersion::V1, params)
        .estimate(dev, m, n, k, cfg, None)
        .ok()
        .as_ref()
        .map(EstimateSummary::from);
    let nm_v2 = NmSpmmKernel::new(NmVersion::V2, params)
        .estimate(dev, m, n, k, cfg, None)
        .ok()
        .as_ref()
        .map(EstimateSummary::from);

    // Comparison baselines.
    let nmsparse = NmSparseKernel
        .estimate(dev, m, n, k, cfg)
        .ok()
        .as_ref()
        .map(EstimateSummary::from);
    let sputnik: EstimateSummary = (&SputnikKernel.estimate(dev, m, n, k, cfg)).into();
    let sparse_tc = SparseTensorCoreKernel
        .estimate(dev, m, n, k, cfg)
        .ok()
        .as_ref()
        .map(EstimateSummary::from);

    let estimates = KernelEstimates {
        dense,
        nm_v1,
        nm_v2,
        nm_v3,
        nmsparse,
        sputnik,
        sparse_tc,
    };

    // Fastest family wins. Only families with an estimate compete; strict
    // `<` means ties keep the earlier entry, and NM-SpMM is listed first,
    // so an exact tie against any baseline (dense included) keeps the
    // paper's kernel.
    let mut choice = KernelChoice::Dense;
    let mut best = f64::INFINITY;
    for cand in [
        KernelChoice::NmV3,
        KernelChoice::NmSparse,
        KernelChoice::Sputnik,
        KernelChoice::SparseTc,
        KernelChoice::Dense,
    ] {
        if let Some(e) = estimates.get(cand) {
            if e.seconds < best {
                best = e.seconds;
                choice = cand;
            }
        }
    }

    Plan::new(key, choice, params, evaluated, decision, estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::{a100_80g, rtx4090};

    fn cfg(n: usize, m: usize) -> NmConfig {
        NmConfig::new(n, m, 32).unwrap()
    }

    #[test]
    fn shape_class_pads_to_32() {
        let dev = a100_80g();
        let a = PlanKey::new(&dev, 100, 200, 300, cfg(4, 16));
        assert_eq!((a.m, a.n, a.k), (128, 224, 320));
        let b = PlanKey::new(&dev, 128, 224, 320, cfg(4, 16));
        assert_eq!(a, b, "shapes in the same class share a key");
        let c = PlanKey::new(&dev, 129, 224, 320, cfg(4, 16));
        assert_ne!(a, c);
    }

    #[test]
    fn planner_hits_cache_on_identical_key() {
        let mut planner = Planner::new(a100_80g());
        let first = planner.plan(512, 512, 512, cfg(4, 16)).unwrap();
        assert_eq!(planner.cache().hits(), 0);
        assert_eq!(planner.cache().misses(), 1);
        // Same class (padding makes 500 ≡ 512 is false — 500 pads to 512).
        let second = planner.plan(500, 500, 500, cfg(4, 16)).unwrap();
        assert_eq!(planner.cache().hits(), 1, "same class must hit");
        assert_eq!(planner.cache().misses(), 1);
        assert_eq!(first, second, "cache replay must be byte-identical");
        assert_eq!(planner.cache().len(), 1);
    }

    #[test]
    fn plan_is_deterministic_for_fixed_key() {
        let dev = rtx4090();
        for level in [cfg(8, 16), cfg(2, 16)] {
            let a = Planner::new(dev.clone())
                .plan(1024, 2048, 4096, level)
                .unwrap();
            let b = Planner::new(dev.clone())
                .plan(1024, 2048, 4096, level)
                .unwrap();
            assert_eq!(a, b, "{level}: fresh planners must agree");
        }
    }

    #[test]
    fn tuned_plan_beats_or_matches_preset() {
        let mut planner = Planner::new(a100_80g());
        let plan = planner.plan(4096, 4096, 4096, cfg(2, 16)).unwrap();
        assert!(plan.evaluated > 100, "search must be exhaustive");
        let preset = NmSpmmKernel::auto(NmVersion::V3, 4096, 4096)
            .estimate(&a100_80g(), 4096, 4096, 4096, cfg(2, 16), None)
            .unwrap();
        let tuned = plan.estimates.nm_v3.unwrap();
        assert!(tuned.seconds <= preset.seconds * 1.0001);
    }

    #[test]
    fn high_sparsity_plan_packs_and_picks_nm() {
        let mut planner = Planner::new(a100_80g());
        let plan = planner.plan(4096, 4096, 4096, cfg(2, 16)).unwrap();
        assert!(plan.decision.packing);
        assert_eq!(plan.choice, KernelChoice::NmV3);
        assert!(plan.speedup_vs_dense().unwrap() > 1.0);
        assert!(!plan.summary().is_empty());
    }

    #[test]
    fn sparse_tc_only_estimated_for_2_4() {
        let mut planner = Planner::new(a100_80g());
        let p24 = planner
            .plan(1024, 1024, 1024, NmConfig::new(2, 4, 32).unwrap())
            .unwrap();
        assert!(p24.estimates.sparse_tc.is_some());
        let p216 = planner.plan(1024, 1024, 1024, cfg(2, 16)).unwrap();
        assert!(p216.estimates.sparse_tc.is_none());
    }

    #[test]
    fn cache_json_round_trips_exactly() {
        let mut planner = Planner::new(a100_80g());
        for level in [
            cfg(8, 16),
            cfg(4, 16),
            cfg(2, 16),
            NmConfig::new(2, 4, 32).unwrap(),
        ] {
            planner.plan(512, 1024, 2048, level).unwrap();
            planner.plan(256, 256, 256, level).unwrap();
        }
        let cache = planner.into_cache();
        let json = cache.to_json().unwrap();
        let reloaded = PlanCache::from_json(&json).unwrap();
        assert_eq!(reloaded.len(), cache.len());
        for plan in cache.plans() {
            assert_eq!(
                reloaded.peek(&plan.key),
                Some(plan),
                "{} must survive the round trip bit-exactly",
                plan.key
            );
        }
        // Serialization is deterministic.
        assert_eq!(json, reloaded.to_json().unwrap());
    }

    #[test]
    fn reloaded_cache_serves_hits_without_recompute() {
        let dev = a100_80g();
        let mut planner = Planner::new(dev.clone());
        let original = planner.plan(512, 512, 2048, cfg(4, 16)).unwrap();
        let json = planner.cache().to_json().unwrap();

        let reloaded = PlanCache::from_json(&json).unwrap();
        let mut warm = Planner::with_cache(dev, reloaded);
        let replay = warm.plan(512, 512, 2048, cfg(4, 16)).unwrap();
        assert_eq!(warm.cache().hits(), 1, "reload must hit");
        assert_eq!(warm.cache().misses(), 0);
        assert_eq!(original, replay);
    }

    #[test]
    fn malformed_cache_documents_rejected() {
        assert!(PlanCache::from_json("{}").is_err());
        assert!(PlanCache::from_json("[]").is_err());
        assert!(PlanCache::from_json(
            r#"{"format":"nm-spmm plan cache","version":99,"entries":[]}"#
        )
        .is_err());
        assert!(
            PlanCache::from_json(r#"{"format":"something else","version":1,"entries":[]}"#)
                .is_err()
        );
        // Empty but well-formed is fine.
        let empty =
            PlanCache::from_json(r#"{"format":"nm-spmm plan cache","version":4,"entries":[]}"#)
                .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn edited_device_model_invalidates_cached_plans() {
        // Same marketing name, different silicon: the fingerprint must
        // force a miss instead of replaying stale estimates.
        let mut dev = a100_80g();
        let level = cfg(4, 16);
        let mut planner = Planner::new(dev.clone());
        planner.plan(1024, 1024, 1024, level).unwrap();
        let cache = planner.into_cache();

        dev.dram_bw *= 2.0;
        // The handed-over cache keeps its counters (unlike a JSON reload,
        // which zeroes them): one miss from the population pass above.
        let mut warm = Planner::with_cache(dev, cache);
        warm.plan(1024, 1024, 1024, level).unwrap();
        assert_eq!(warm.cache().hits(), 0, "stale plan must not replay");
        assert_eq!(warm.cache().misses(), 2);
        assert_eq!(warm.cache().len(), 2, "both fingerprints coexist");
    }

    #[test]
    fn choice_without_estimate_is_rejected_at_load() {
        // A document whose chosen family carries a null estimate would
        // panic in Plan::best; loading must fail instead.
        let mut planner = Planner::new(a100_80g());
        let plan = planner.plan(256, 256, 256, cfg(2, 16)).unwrap();
        assert!(
            plan.estimates.sparse_tc.is_none(),
            "test setup: 2:16 has no sparse-TC estimate"
        );
        let json = planner.cache().to_json().unwrap();
        let needle = format!("\"choice\":\"{}\"", plan.choice.name());
        let corrupted = json.replace(&needle, "\"choice\":\"sparse_tc\"");
        let err = PlanCache::from_json(&corrupted).unwrap_err();
        assert!(
            err.to_string().contains("no estimate"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tie_against_dense_keeps_the_nm_kernel() {
        // Dense N = M config: V3 and dense model the same computation, so
        // their estimates can tie; the NM kernel must win the tie per the
        // documented resolution order (NM listed first).
        let mut planner = Planner::new(a100_80g());
        let plan = planner
            .plan(4096, 4096, 4096, NmConfig::new(32, 32, 32).unwrap())
            .unwrap();
        let v3 = plan.estimates.nm_v3.unwrap();
        if v3.seconds <= plan.estimates.dense.seconds {
            assert_eq!(plan.choice, KernelChoice::NmV3);
        } else {
            assert_eq!(plan.choice, KernelChoice::Dense);
        }
    }

    fn demo_host() -> PlanHost {
        PlanHost {
            isa: "avx2".into(),
            threads: 4,
        }
    }

    fn demo_measured() -> MeasuredChoice {
        MeasuredChoice {
            cpu_tiling: CpuTiling {
                mb: 64,
                nb: 128,
                kb: 128,
                mt: 8,
            },
            storage: StorageFormat::RowMajor,
            gflops: 12.5,
            samples: 3,
        }
    }

    #[test]
    fn in_process_construction_rejects_choice_without_estimate() {
        // The old `Plan::best()` panicked on exactly this shape of plan;
        // the validated constructor must refuse to build it instead.
        let mut planner = Planner::new(a100_80g());
        let plan = planner.plan(256, 256, 256, cfg(2, 16)).unwrap();
        assert!(plan.estimates.sparse_tc.is_none());
        let err = Plan::new(
            plan.key.clone(),
            KernelChoice::SparseTc,
            plan.params,
            plan.evaluated,
            plan.decision,
            plan.estimates,
        )
        .unwrap_err();
        assert!(matches!(err, NmError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("no estimate"), "{err}");

        // A hand-built literal that sneaks past the constructor still gets
        // a structured error from `best()`, never a panic.
        let mut bad = plan.clone();
        bad.choice = KernelChoice::SparseTc;
        assert!(bad.best().is_err());
        assert!(bad.speedup_vs_dense().is_err());
        assert!(bad.summary().contains("no estimate"));
    }

    #[test]
    fn measured_provenance_round_trips_through_json() {
        let mut planner = Planner::new(a100_80g());
        let base = planner.plan(512, 512, 512, cfg(2, 8)).unwrap();
        assert_eq!(base.provenance, Provenance::CostModel);
        let measured = base.with_measured(demo_host(), demo_measured()).unwrap();
        assert_eq!(measured.provenance, Provenance::Measured);
        assert_eq!(measured.key.host, Some(demo_host()));

        let mut cache = planner.into_cache();
        cache.insert(measured.clone());
        let json = cache.to_json().unwrap();
        let reloaded = PlanCache::from_json(&json).unwrap();
        assert_eq!(reloaded.len(), 2, "cost-model and measured coexist");
        assert_eq!(reloaded.peek(&base.key), Some(&base));
        assert_eq!(reloaded.peek(&measured.key), Some(&measured));
        // Serialization stays deterministic with host-scoped keys present.
        assert_eq!(json, reloaded.to_json().unwrap());
    }

    #[test]
    fn measured_entries_miss_on_foreign_host() {
        // A cache moved between hosts (different ISA) or run configs
        // (different thread count) must miss, not replay the measurement.
        let mut planner = Planner::new(a100_80g());
        let base = planner.plan(512, 512, 512, cfg(2, 8)).unwrap();
        let measured = base.with_measured(demo_host(), demo_measured()).unwrap();
        let mut cache = planner.into_cache();
        cache.insert(measured.clone());

        assert!(cache.lookup(&measured.key).is_some());
        let other_isa = base.key.for_host(PlanHost {
            isa: "avx512".into(),
            threads: 4,
        });
        assert!(cache.lookup(&other_isa).is_none(), "ISA change must miss");
        let other_threads = base.key.for_host(PlanHost {
            isa: "avx2".into(),
            threads: 8,
        });
        assert!(
            cache.lookup(&other_threads).is_none(),
            "thread-count change must miss"
        );
    }

    #[test]
    fn stale_documents_load_empty_and_newer_versions_fail() {
        // Rewrite a v6 document into v5 (which also recorded a measured
        // entry's ladder step), v4 (same schema as v6 without evidence),
        // the exact v3 schema (no storage) and the exact v1 schema (no
        // shape, host, provenance or measured either) — the serializer is
        // ours, so the surgery is exact. Each loads empty, never migrated.
        let mut planner = Planner::new(a100_80g());
        let plan = planner.plan(512, 1024, 2048, cfg(4, 16)).unwrap();
        let measured = plan.with_measured(demo_host(), demo_measured()).unwrap();
        let mut with_evidence = planner.cache().clone();
        with_evidence.insert(measured.clone());
        let v5 = with_evidence
            .to_json()
            .unwrap()
            .replace("\"version\":6", "\"version\":5")
            .replace("\"measured\":{", "\"measured\":{\"ladder_version\":\"v1\",");
        let v6 = planner.cache().to_json().unwrap();
        assert_eq!(PlanCache::from_json(&v6).unwrap().len(), 1);
        let v4 = v6.replace("\"version\":6", "\"version\":4");
        let v3 = v4
            .replace("\"version\":4", "\"version\":3")
            .replace("\"storage\":\"rowmajor\",", "");
        let v1 = v3
            .replace("\"version\":3", "\"version\":1")
            .replace("\"shape\":\"prefill\",", "")
            .replace(",\"host\":null", "")
            .replace("\"provenance\":\"cost_model\",\"measured\":null,", "");
        assert!(!v3.contains("storage"), "surgery must remove v4 fields");
        assert!(!v1.contains("provenance"), "surgery must remove v2 fields");
        assert!(!v1.contains("shape"), "surgery must remove v3 fields");
        assert!(v5.contains("ladder_version"), "surgery must add v5 fields");
        for doc in [&v1, &v3, &v4, &v5] {
            let mut stale = PlanCache::from_json(doc).unwrap();
            assert!(stale.is_empty(), "a stale document loads no plans");
            assert!(stale.lookup(&plan.key).is_none());
            assert!(stale.lookup(&measured.key).is_none());
            assert_eq!(stale.misses(), 2, "its keys miss and re-plan");
            stale.insert(measured.clone());
            assert!(
                stale.to_json().unwrap().contains("\"version\":6"),
                "the next save writes the current version"
            );
        }
        // A newer version, and a v6 document with a v6 field stripped,
        // still fail.
        let v99 = v6.replace("\"version\":6", "\"version\":99");
        let stripped = v6.replace("\"storage\":\"rowmajor\",", "");
        for doc in [&v99, &stripped] {
            assert!(matches!(
                PlanCache::from_json(doc),
                Err(NmError::Persist { .. })
            ));
        }
    }

    #[test]
    fn decode_shapes_key_separately_from_prefill_and_each_other() {
        // m = 1..8 all pad to the same 32-row granule; before the shape
        // class they collided on one cache entry with each other AND with
        // a 32-row prefill problem.
        let dev = a100_80g();
        let level = cfg(4, 16);
        let prefill = PlanKey::new(&dev, 32, 4096, 4096, level);
        assert_eq!(prefill.shape, ShapeClass::Prefill);
        let mut seen = vec![prefill];
        for rows in 1..=DECODE_MAX_ROWS {
            let key = PlanKey::new(&dev, rows, 4096, 4096, level);
            assert_eq!(key.m, 32, "decode rows still pad for plan purity");
            assert_eq!(key.shape, ShapeClass::Decode(rows));
            assert!(
                !seen.contains(&key),
                "decode:{rows} must not collide with any earlier key"
            );
            seen.push(key);
        }
        assert_eq!(ShapeClass::of_rows(9), ShapeClass::Prefill);
        assert_eq!(
            ShapeClass::of_rows(0),
            ShapeClass::Prefill,
            "empty is not decode"
        );
    }

    #[test]
    fn decode_plans_skip_the_gemm_autotuner_and_round_trip() {
        let mut planner = Planner::new(a100_80g());
        let decode = planner.plan(1, 4096, 4096, cfg(2, 16)).unwrap();
        assert!(decode.key.shape.is_decode());
        assert_eq!(
            decode.evaluated, 0,
            "decode must not search GEMM tilings; selection is measured"
        );
        let prefill = planner.plan(512, 4096, 4096, cfg(2, 16)).unwrap();
        assert!(prefill.evaluated > 0, "prefill keeps the exhaustive search");

        let cache = planner.into_cache();
        let json = cache.to_json().unwrap();
        assert!(json.contains("\"shape\":\"decode:1\""));
        let reloaded = PlanCache::from_json(&json).unwrap();
        assert_eq!(reloaded.peek(&decode.key), Some(&decode));
        assert_eq!(json, reloaded.to_json().unwrap(), "deterministic order");
    }

    #[test]
    fn shape_class_tags_round_trip() {
        for class in [
            ShapeClass::Prefill,
            ShapeClass::Decode(1),
            ShapeClass::Decode(DECODE_MAX_ROWS),
        ] {
            assert_eq!(ShapeClass::from_tag(&class.tag()).unwrap(), class);
        }
        assert!(ShapeClass::from_tag("decode:0").is_err());
        assert!(ShapeClass::from_tag("decode:9").is_err());
        assert!(ShapeClass::from_tag("decode:x").is_err());
        assert!(ShapeClass::from_tag("gemm").is_err());
    }

    #[test]
    fn measured_invariants_rejected_at_load_and_construction() {
        let mut planner = Planner::new(a100_80g());
        let base = planner.plan(256, 256, 256, cfg(2, 16)).unwrap();
        let measured = base.with_measured(demo_host(), demo_measured()).unwrap();
        let mut cache = PlanCache::new();
        cache.insert(measured);
        let json = cache.to_json().unwrap();

        // Provenance says measured but the evidence is stripped out.
        let broken = json.replace("\"measured\":{", "\"measured\":null,\"x\":{");
        assert!(PlanCache::from_json(&broken).is_err());

        // In-process: measured provenance without evidence must not build.
        let mut bad = base.clone();
        bad.provenance = Provenance::Measured;
        assert!(bad.validate().is_err());
        // And measured evidence requires a host-scoped key.
        let mut unscoped = base.with_measured(demo_host(), demo_measured()).unwrap();
        unscoped.key.host = None;
        assert!(unscoped.validate().is_err());
    }

    #[test]
    fn storage_lane_keys_and_measured_storage_round_trip() {
        use nm_core::sliced::SlicedLayout;
        let mut planner = Planner::new(a100_80g());
        let level = cfg(2, 16);
        let sliced = StorageFormat::Sliced(SlicedLayout::new(8, 32).unwrap());
        // The sliced lane gets its own cache identity next to the auto one.
        let auto = planner
            .plan_as(ShapeClass::Decode(1), 1, 4096, 4096, level)
            .unwrap();
        let pinned = planner
            .plan_stored(ShapeClass::Decode(1), sliced, 1, 4096, 4096, level)
            .unwrap();
        assert_eq!(auto.key.storage, StorageFormat::RowMajor);
        assert_eq!(pinned.key.storage, sliced);
        assert_ne!(auto.key, pinned.key, "lanes must not collide");
        assert_eq!(planner.cache().len(), 2);

        // A measured winner can carry a sliced format on the auto lane.
        let mut m = demo_measured();
        m.storage = sliced;
        let measured = auto.with_measured(demo_host(), m).unwrap();
        let mut cache = planner.into_cache();
        cache.insert(measured.clone());
        let json = cache.to_json().unwrap();
        assert!(json.contains("\"storage\":\"sliced:8:32\""));
        let reloaded = PlanCache::from_json(&json).unwrap();
        assert_eq!(reloaded.peek(&pinned.key), Some(&pinned));
        assert_eq!(
            reloaded
                .peek(&measured.key)
                .unwrap()
                .measured
                .unwrap()
                .storage,
            sliced
        );
        assert_eq!(json, reloaded.to_json().unwrap(), "deterministic order");

        // A malformed storage tag is a persistence error, not a fallback.
        let bad = json.replace("\"storage\":\"sliced:8:32\"", "\"storage\":\"sell\"");
        assert!(matches!(
            PlanCache::from_json(&bad),
            Err(NmError::Persist { .. })
        ));
    }

    #[test]
    fn provenance_names_round_trip() {
        for p in [Provenance::CostModel, Provenance::Measured] {
            assert_eq!(Provenance::from_name(p.name()).unwrap(), p);
        }
        assert!(Provenance::from_name("oracle").is_err());
    }

    #[test]
    fn kernel_choice_names_round_trip() {
        for c in [
            KernelChoice::Dense,
            KernelChoice::NmV1,
            KernelChoice::NmV2,
            KernelChoice::NmV3,
            KernelChoice::NmSparse,
            KernelChoice::Sputnik,
            KernelChoice::SparseTc,
        ] {
            assert_eq!(KernelChoice::from_name(c.name()).unwrap(), c);
        }
        assert!(KernelChoice::from_name("cublas").is_err());
    }
}
