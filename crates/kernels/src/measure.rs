//! Measured autotuning: a criterion-style short-run harness for the
//! native CPU kernel.
//!
//! The analytic planner ([`crate::plan::Planner`]) picks tilings from the
//! *GPU* cost model; on the native CPU backend that model is frequently
//! wrong (its V3 pays for shared-memory bandwidth the host caches don't
//! charge, so its tilings are no host optimum). This module supplies the
//! missing evidence: it benchmarks candidate [`CpuTiling`]s × `B′` storage
//! formats of the CPU kernel — the one a session executes — **in-place**
//! on the executing host and returns the
//! measured-best as a [`MeasuredChoice`] the plan cache can persist.
//!
//! ## What is (and is not) inside the timed window
//!
//! Per the paper's accounting, everything derived from the weights alone
//! is offline: each candidate's [`CpuPrepared`] (B′ staging, ISA
//! dispatch) is built **before** its clock starts, and one prepared state
//! serves warmup and every timed iteration. The zero-padded copy of `A`
//! a ragged depth needs stays inside the window — it recurs per call in
//! production too.
//!
//! ## One timing primitive
//!
//! Every rep loop goes through [`race`]; candidates are scored by the
//! **median** of a **fixed** number of rounds, so two runs do identical
//! work (only the clock readings vary). [`measure`] keeps the plan-derived
//! default unless a rival beats it head to head — measured evidence never
//! loses to the default it replaces.
//!
//! ## Modes
//!
//! [`AutotuneMode`] scales the search: `Quick` times the plan-derived
//! tiling (plus the skinny geometries of a decode key) in every candidate
//! storage format; `Full` adds tile-geometry variants around it. `Off`
//! disables measurement entirely (the cost-model default). The
//! `NM_SPMM_AUTOTUNE` environment variable selects a mode process-wide
//! and is validated strictly — an unrecognized value is a structured
//! error, never a silent `Off`.

use crate::cpu::{spmm_cpu_prepared, CpuPrepared, CpuTiling};
use crate::plan::{MeasuredChoice, Plan};
use crate::simd::MicroKernel;
use nm_core::error::{NmError, Result};
use nm_core::matrix::MatrixF32;
use nm_core::sliced::{SlicedLayout, StorageFormat};
use nm_core::sparse::NmSparseMatrix;
use std::time::Instant;

/// Environment variable selecting a process-wide [`AutotuneMode`].
pub const AUTOTUNE_ENV: &str = "NM_SPMM_AUTOTUNE";

/// Seed for the synthetic activation the harness multiplies by — fixed so
/// repeated measurements of one layer do bit-identical arithmetic.
const MEASURE_SEED: u64 = 0x6d65_6173;

/// How much measured autotuning a session performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AutotuneMode {
    /// No measurement: plans come from the analytic cost model only.
    #[default]
    Off,
    /// Time the kernel at the plan-derived tiling — plus, on decode keys, the
    /// skinny geometries — in every candidate storage format (a handful
    /// of short runs; the mode CI uses).
    Quick,
    /// `Quick` plus tile-geometry variants around the plan-derived
    /// tiling.
    Full,
}

impl AutotuneMode {
    /// Stable identifier (`off`, `quick`, `full`).
    pub fn name(&self) -> &'static str {
        match self {
            AutotuneMode::Off => "off",
            AutotuneMode::Quick => "quick",
            AutotuneMode::Full => "full",
        }
    }

    /// Inverse of [`AutotuneMode::name`] (ASCII case-insensitive).
    ///
    /// # Errors
    /// [`NmError::Unsupported`] for anything else — like `NM_SPMM_ISA`,
    /// a typo must surface, never degrade to [`AutotuneMode::Off`].
    pub fn from_name(name: &str) -> Result<Self> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "off" => Ok(AutotuneMode::Off),
            "quick" => Ok(AutotuneMode::Quick),
            "full" => Ok(AutotuneMode::Full),
            other => Err(NmError::Unsupported {
                reason: format!(
                    "{AUTOTUNE_ENV}=`{other}` is not a recognized autotune mode \
                     (use `off`, `quick` or `full`)"
                ),
            }),
        }
    }

    /// The mode requested through the `NM_SPMM_AUTOTUNE` environment
    /// variable: `None` when unset or empty, the parsed mode otherwise.
    ///
    /// # Errors
    /// [`NmError::Unsupported`] when the variable holds an unrecognized
    /// value — validated up front, exactly like `NM_SPMM_ISA`, so a typo
    /// can never silently run without measurement.
    pub fn from_env() -> Result<Option<Self>> {
        match std::env::var(AUTOTUNE_ENV) {
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => Self::from_name(&v).map(Some),
            Err(_) => Ok(None),
        }
    }
}

impl std::fmt::Display for AutotuneMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fixed-work timing recipe one measurement run follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Timed [`race`] rounds per candidate and per head-to-head;
    /// **fixed**, so two runs of the same spec do identical work (the
    /// determinism the cache contract needs).
    pub timed_iters: usize,
    /// Whether to search tile-geometry variants beyond the plan-derived
    /// tiling.
    pub tiling_variants: bool,
}

impl MeasureSpec {
    /// The recipe a mode implies; `None` for [`AutotuneMode::Off`].
    pub fn for_mode(mode: AutotuneMode) -> Option<Self> {
        match mode {
            AutotuneMode::Off => None,
            AutotuneMode::Quick => Some(Self {
                timed_iters: 3,
                tiling_variants: false,
            }),
            AutotuneMode::Full => Some(Self {
                timed_iters: 5,
                tiling_variants: true,
            }),
        }
    }
}

/// One candidate's timing evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredSample {
    /// The (effective, clamped) tile geometry it ran with.
    pub tiling: CpuTiling,
    /// The `B′` storage format it staged.
    pub storage: StorageFormat,
    /// Median per-iteration wall time over its [`race`] rounds, seconds.
    pub seconds: f64,
    /// Useful throughput at `seconds`, GFLOP/s.
    pub gflops: f64,
}

/// The harness result: the winner plus every sample behind it, in
/// deterministic enumeration order (tiling order, then format order).
#[derive(Debug, Clone)]
pub struct MeasureOutcome {
    /// The measured-best choice, ready for
    /// [`Plan::with_measured`](crate::plan::Plan::with_measured).
    pub best: MeasuredChoice,
    /// Every candidate's screen, enumeration order.
    pub samples: Vec<MeasuredSample>,
}

/// Median and interquartile range of one rival's timed rounds, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median round.
    pub median: f64,
    /// Third quartile minus first quartile.
    pub iqr: f64,
}

impl Spread {
    /// Summarise `rounds` (any order; at least one). Quartiles
    /// interpolate linearly between order statistics, so four rounds
    /// `1, 2, 3, 4` give median 2.5 and IQR 3.25 − 1.75 = 1.5.
    pub fn of(rounds: &[f64]) -> Spread {
        let mut sorted = rounds.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let at = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        };
        Spread {
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }
}

/// Race `rivals` against one clock in `reps` timed rounds (at least
/// one). Round `r` runs every rival once, starting at rival `r mod k` and
/// going round in input order, so every rival leads equally often and
/// slow drift of the host lands on all of them alike. Every timed call
/// directly follows a call of the same rival — an untimed one whenever
/// another rival ran last — so each rival's first call is an untimed
/// warm-up, and no rival's time carries what another left behind (cold
/// caches, a parked worker pool).
///
/// Returns, per rival in input order, the wall time of each of its timed
/// rounds in round order — round `r` of every rival ran side by side, so
/// two rivals' rounds pair up — and the output of its last call. The
/// clock covers the call alone: outputs are dropped after it stops.
///
/// # Errors
/// The first error any rival returns; the race ends there.
pub fn race<T, E, F: FnMut() -> std::result::Result<T, E>>(
    rivals: &mut [F],
    reps: usize,
) -> std::result::Result<Vec<(Vec<f64>, T)>, E> {
    let k = rivals.len();
    let reps = reps.max(1);
    let mut rounds = vec![Vec::with_capacity(reps); k];
    let mut last: Vec<Option<T>> = (0..k).map(|_| None).collect();
    let mut prev = None;
    for r in 0..reps {
        for i in (0..k).map(|j| (r + j) % k) {
            if prev != Some(i) {
                rivals[i]()?;
            }
            let t0 = Instant::now();
            let out = rivals[i]()?;
            rounds[i].push(t0.elapsed().as_secs_f64());
            last[i] = Some(out);
            prev = Some(i);
        }
    }
    let last = last.into_iter().map(|l| l.expect("every rival ran"));
    Ok(rounds.into_iter().zip(last).collect())
}

thread_local! {
    /// See [`measurement_passes`].
    static MEASUREMENT_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Measurement-cost probe: how many harness runs ([`measure`] calls) the
/// **current thread** has performed since it started.
///
/// The cache contract says a layer's measurement happens once and then
/// replays from the [`PlanCache`](crate::plan::PlanCache); this counter
/// lets tests *prove* a second `Session::load` of the same shape
/// re-measured nothing, the same way
/// [`offline_staging_passes`](crate::cpu::offline_staging_passes) proves
/// the prepare-once contract.
pub fn measurement_passes() -> u64 {
    MEASUREMENT_PASSES.with(|c| c.get())
}

/// Deterministic candidate tile geometries for one plan: the plan-derived
/// tiling first, then (when `variants` is set) power-of-two `mb`/`nb`
/// neighbors around it. Duplicate-free; every candidate keeps `nb` a
/// multiple of `L`, so none is structurally rejectable. Candidates run as
/// given, so a prefill plan's derived `mb` is first cut as the cost-model
/// path cuts it at the plan's `m` on this host's workers: the base
/// times what the cost-model default runs and names the panel that ran.
///
/// Decode-class plans ([`ShapeClass::Decode`](crate::plan::ShapeClass))
/// additionally enumerate **skinny** geometries in every mode: a row
/// panel sized to the activation (the SpMV geometry at one row, running
/// the 1/2-row rungs of the register-tile ladder) and wider column blocks
/// for the bandwidth-bound `B′` stream. The GEMM-vs-SpMV call for skinny
/// shapes is therefore made from this measured evidence, never from the
/// GEMM cost model.
pub fn tiling_candidates(plan: &Plan, sb: &NmSparseMatrix, variants: bool) -> Vec<CpuTiling> {
    let cfg = sb.cfg();
    let base = CpuTiling::derive(plan.params, cfg, sb.k())
        .or_else(|_| CpuTiling::auto(cfg, plan.key.m, sb.cols(), sb.k()));
    let Ok(mut base) = base else {
        return Vec::new();
    };
    if plan.key.shape.decode_rows().is_none() {
        base.mb = crate::cpu::v3_cost_model_panel(base.mb, plan.params.ms, plan.key.m);
    }
    let mut out = vec![base];
    let push = |out: &mut Vec<CpuTiling>, t: CpuTiling| {
        if t.mb >= t.mt && t.nb >= cfg.l && !out.contains(&t) {
            out.push(t);
        }
    };
    if let Some(rows) = plan.key.shape.decode_rows() {
        let mt = base.mt.min(rows).max(1);
        push(
            &mut out,
            CpuTiling {
                mb: rows,
                mt,
                ..base
            },
        );
        for nb in [base.nb * 2, base.nb * 4] {
            if nb.is_multiple_of(cfg.l) {
                push(
                    &mut out,
                    CpuTiling {
                        mb: rows,
                        mt,
                        nb,
                        ..base
                    },
                );
            }
        }
    }
    if variants {
        for mb in [base.mb / 2, base.mb * 2] {
            if mb >= 1 {
                push(&mut out, CpuTiling { mb, ..base });
            }
        }
        for nb in [base.nb / 2, base.nb * 2] {
            if nb >= 1 && nb.is_multiple_of(cfg.l) {
                push(&mut out, CpuTiling { nb, ..base });
            }
        }
    }
    out
}

/// Deterministic candidate storage formats for one plan.
///
/// A plan pinned to a specific format (its
/// [`PlanKey::storage`](crate::plan::PlanKey) is not the row-major auto
/// lane) measures that format only — the pin is the user's call, the
/// harness merely finds the best tiling for it. On the auto lane,
/// decode-class keys compare row-major against the SELL-C-σ sliced grid
/// (`C ∈ {4, 8, 32}`, `σ ∈ {1, C, 4·C}`); prefill-class keys stay
/// row-major by default (the prefill staging path is already column-panel
/// contiguous, so slicing rarely has anything to sell there) **unless**
/// `NM_SPMM_STORAGE` pins a sliced layout, in which case that one layout
/// joins the prefill grid so the harness can measure it against row-major
/// instead of trusting the pin blindly. Row-major enumerates first so
/// timing ties keep the simpler format.
pub fn format_candidates(plan: &Plan) -> Vec<StorageFormat> {
    // The env value was already strictly validated when the session was
    // built; a malformed value here (direct harness use) simply means no
    // extra prefill candidate.
    format_candidates_with(plan, StorageFormat::from_env().ok().flatten())
}

/// [`format_candidates`] with the environment pin passed explicitly —
/// the testable core.
pub(crate) fn format_candidates_with(
    plan: &Plan,
    env_pin: Option<StorageFormat>,
) -> Vec<StorageFormat> {
    if plan.key.storage.is_sliced() {
        return vec![plan.key.storage];
    }
    let mut out = vec![StorageFormat::RowMajor];
    if plan.key.shape.is_decode() {
        for c in [4usize, 8, 32] {
            for sigma in [1usize, c, 4 * c] {
                let f = StorageFormat::Sliced(SlicedLayout::new(c, sigma).unwrap());
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
    } else if let Some(f) = env_pin.filter(|f| f.is_sliced()) {
        // Prefill auto lane: admit the env-pinned sliced layout as a
        // measured candidate alongside row-major.
        out.push(f);
    }
    out
}

/// Run the short-run harness: benchmark the CPU kernel over candidate
/// tilings × storage formats against `sb` for activations of `rows` rows,
/// and return the measured-best together with every sample. Every
/// candidate is timed, even when the grid holds only one.
///
/// Each candidate's offline staging ([`CpuPrepared`]) happens **outside**
/// its timed window and is reused across all its rounds; candidates
/// whose geometry cannot prepare are skipped. The grid is screened one
/// staged candidate at a time, each as a [`race`] of one; a screen winner
/// other than the default (the first candidate that prepared) is then
/// raced head to head against it. `kernel` pins the micro-kernel for
/// every candidate (a session's ISA override); `None` uses the standard
/// runtime dispatch.
///
/// # Errors
/// [`NmError::InvalidBlocking`] when no candidate can prepare at all, and
/// [`NmError::Unsupported`] when micro-kernel dispatch fails (e.g. a bad
/// `NM_SPMM_ISA` value).
pub fn measure(
    plan: &Plan,
    sb: &NmSparseMatrix,
    rows: usize,
    kernel: Option<MicroKernel>,
    spec: MeasureSpec,
) -> Result<MeasureOutcome> {
    MEASUREMENT_PASSES.with(|c| c.set(c.get() + 1));
    let kernel = kernel.map_or_else(MicroKernel::select, Ok)?;
    let rows = rows.max(1);
    let a = MatrixF32::random(rows, sb.k(), MEASURE_SEED);
    let useful_flops = 2.0 * rows as f64 * sb.cols() as f64 * sb.w() as f64;
    // Offline: staging + dispatch, excluded from the clock exactly as in
    // production (`Session::load`).
    let stage = |tiling, format| CpuPrepared::with_format(sb, tiling, kernel, format);
    let race_staged = |preps: &[&CpuPrepared]| {
        let mut rivals: Vec<_> = preps
            .iter()
            .map(|prep| || spmm_cpu_prepared(&a, prep))
            .collect();
        race(&mut rivals, spec.timed_iters)
    };
    let sample = |tiling, storage, (rounds, _): &(Vec<f64>, MatrixF32)| {
        let seconds = Spread::of(rounds).median;
        MeasuredSample {
            tiling,
            storage,
            seconds,
            gflops: useful_flops / seconds / 1e9,
        }
    };

    let candidates = tiling_candidates(plan, sb, spec.tiling_variants);
    let formats = format_candidates(plan);
    let mut samples = Vec::new();
    // The default — the first candidate that prepares — stays staged
    // through the screen, so a head to head needs one more staging only.
    let mut default_prep = None;
    for &tiling in &candidates {
        for &format in &formats {
            let Ok(prep) = stage(tiling, format) else {
                continue;
            };
            let raced = race_staged(&[&prep])?;
            // The *effective* (clamped) geometry, so replaying the choice
            // prepares exactly what was measured.
            samples.push(sample(prep.tiling(), format, &raced[0]));
            default_prep.get_or_insert(prep);
        }
    }
    let (Some(default_prep), Some(&default)) = (default_prep, samples.first()) else {
        return Err(NmError::InvalidBlocking {
            reason: format!(
                "no CPU candidate could prepare for {} (tried {} tilings x {} formats)",
                plan.key,
                candidates.len(),
                formats.len()
            ),
        });
    };
    // `min_by` keeps the first of equal minima, and the head to head
    // keeps the default on a tie: ties go to the earlier (simpler)
    // candidate — the derived tiling, row-major before sliced.
    let by_seconds = |x: &&MeasuredSample, y: &&MeasuredSample| x.seconds.total_cmp(&y.seconds);
    let screened = *samples.iter().min_by(by_seconds).expect("non-empty");
    let winner = if screened == default {
        default
    } else {
        let challenger = stage(screened.tiling, screened.storage)?;
        let raced = race_staged(&[&default_prep, &challenger])?;
        let timed = [
            sample(default.tiling, default.storage, &raced[0]),
            sample(screened.tiling, screened.storage, &raced[1]),
        ];
        *timed.iter().min_by(by_seconds).expect("two rivals")
    };
    Ok(MeasureOutcome {
        best: MeasuredChoice {
            cpu_tiling: winner.tiling,
            storage: winner.storage,
            gflops: winner.gflops,
            samples: spec.timed_iters.max(1),
        },
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Planner, ShapeClass};
    use gpu_sim::device::a100_80g;
    use nm_core::pattern::NmConfig;
    use nm_core::prune::PrunePolicy;

    fn demo() -> (Plan, NmSparseMatrix) {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(64, 128, 128, cfg).unwrap();
        let b = MatrixF32::random(128, 128, 9);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 10 }).unwrap();
        (plan, sb)
    }

    #[test]
    fn autotune_mode_names_round_trip_and_reject_garbage() {
        for m in [AutotuneMode::Off, AutotuneMode::Quick, AutotuneMode::Full] {
            assert_eq!(AutotuneMode::from_name(m.name()).unwrap(), m);
            assert_eq!(
                AutotuneMode::from_name(&m.name().to_uppercase()).unwrap(),
                m
            );
            assert!(!m.to_string().is_empty());
        }
        for bad in ["on", "1", "fast", "QUICKLY"] {
            let err = AutotuneMode::from_name(bad).unwrap_err();
            assert!(matches!(err, NmError::Unsupported { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn spec_scales_with_mode() {
        assert!(MeasureSpec::for_mode(AutotuneMode::Off).is_none());
        let quick = MeasureSpec::for_mode(AutotuneMode::Quick).unwrap();
        let full = MeasureSpec::for_mode(AutotuneMode::Full).unwrap();
        assert!(!quick.tiling_variants && full.tiling_variants);
        assert!(full.timed_iters >= quick.timed_iters);
    }

    #[test]
    fn candidates_are_deterministic_valid_and_deduped() {
        let (plan, sb) = demo();
        let quick = tiling_candidates(&plan, &sb, false);
        assert_eq!(quick.len(), 1, "quick mode times the derived tiling only");
        let full = tiling_candidates(&plan, &sb, true);
        assert_eq!(full, tiling_candidates(&plan, &sb, true));
        assert!(full.len() > 1, "full mode adds variants");
        assert_eq!(full[0], quick[0], "derived tiling enumerates first");
        let l = sb.cfg().l;
        for t in &full {
            assert!(t.nb.is_multiple_of(l), "{t:?}");
            assert!(t.mb >= 1 && t.kb >= 1 && t.mt >= 1, "{t:?}");
        }
        let mut dedup = full.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), full.len(), "no duplicate candidates");
    }

    #[test]
    fn measure_does_fixed_deterministic_work() {
        let (plan, sb) = demo();
        // Tiling variants give the screen rivals to the default, so the
        // head-to-head step runs whenever one of them wins the screen.
        let spec = MeasureSpec {
            timed_iters: 2,
            tiling_variants: true,
        };
        let before = measurement_passes();
        let a = measure(&plan, &sb, 32, None, spec).unwrap();
        let b = measure(&plan, &sb, 32, None, spec).unwrap();
        assert_eq!(measurement_passes() - before, 2, "one pass per run");
        // Same candidate enumeration, same sample counts — only the clock
        // readings may differ between the two runs.
        assert!(a.samples.len() > 1, "the screen has rivals");
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!((x.tiling, x.storage), (y.tiling, y.storage));
            assert!(x.seconds > 0.0 && x.gflops > 0.0);
        }
        for run in [&a, &b] {
            assert_eq!(run.best.samples, spec.timed_iters);
            // The winner is the default (the first candidate) or the
            // screen's winner, which had to beat the default head to head.
            let key = |s: &MeasuredSample| (s.tiling, s.storage);
            let mut by_time = run.samples.clone();
            by_time.sort_by(|x, y| x.seconds.total_cmp(&y.seconds));
            let pick = (run.best.cpu_tiling, run.best.storage);
            let why = format!("{:?} vs {:?}", run.best, run.samples);
            assert!(
                pick == key(&run.samples[0]) || pick == key(&by_time[0]),
                "{why}"
            );
        }
    }

    #[test]
    fn race_warms_up_untimed_then_rotates_the_lead() {
        // Each rival logs its index; every odd-numbered call of its own
        // sleeps far longer than any other call can take.
        let log = std::cell::RefCell::new(Vec::new());
        let sleep = std::time::Duration::from_millis(10);
        let (k, reps) = (3usize, 6usize);
        let mut rivals: Vec<_> = (0..k)
            .map(|i| {
                let log = &log;
                move || -> Result<usize> {
                    let calls = log.borrow().iter().filter(|&&j| j == i).count();
                    if calls % 2 == 0 {
                        std::thread::sleep(sleep);
                    }
                    log.borrow_mut().push(i);
                    Ok(calls + 1)
                }
            })
            .collect();
        let raced = race(&mut rivals, reps).unwrap();
        // Every timed call follows an untimed (sleeping) call of the same
        // rival, and round r runs r, r+1, … mod k: each leads reps/k.
        let want: Vec<usize> = (0..reps)
            .flat_map(|r| (0..k).map(move |j| (r + j) % k))
            .collect();
        let paired: Vec<usize> = want.iter().flat_map(|&i| [i, i]).collect();
        assert_eq!(log.into_inner(), paired);
        for (rounds, last) in &raced {
            assert_eq!(rounds.len(), reps, "one time per timed round");
            assert!(Spread::of(rounds).median < sleep.as_secs_f64(), "untimed");
            assert_eq!(*last, 2 * reps, "the last call's output is returned");
        }
        // A race of one warms up once, then repeats itself timed.
        let calls = std::cell::Cell::new(0);
        let mut one = [|| -> Result<()> {
            calls.set(calls.get() + 1);
            Ok(())
        }];
        assert_eq!(race(&mut one, 4).unwrap()[0].0.len(), 4);
        assert_eq!(calls.get(), 1 + 4);
    }

    #[test]
    fn spread_is_the_median_and_interquartile_range() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.iqr), (2.5, 1.5));
        let s = Spread::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.iqr), (2.0, 1.0));
        let s = Spread::of(&[7.0]);
        assert_eq!((s.median, s.iqr), (7.0, 0.0));
        // One wild round moves neither statistic.
        let s = Spread::of(&[1.0, 1.0, 1.0, 1.0, 100.0]);
        assert_eq!((s.median, s.iqr), (1.0, 0.0));
    }

    #[test]
    fn a_failing_rival_ends_the_race_with_its_error() {
        // Rival 1 fails on its second call (its first timed round), the
        // fourth call of the race.
        let calls = std::cell::Cell::new(0);
        let broke = || NmError::Unsupported {
            reason: "rival 1 broke".into(),
        };
        let mut rivals: Vec<_> = (0..2)
            .map(|i| {
                let calls = &calls;
                move || -> Result<()> {
                    calls.set(calls.get() + 1);
                    (i != 1 || calls.get() != 4).then_some(()).ok_or_else(broke)
                }
            })
            .collect();
        let err = race(&mut rivals, 5).unwrap_err();
        assert!(
            matches!(&err, NmError::Unsupported { reason } if reason == "rival 1 broke"),
            "{err}"
        );
        assert_eq!(calls.get(), 4, "no call after the failure");
    }

    #[test]
    fn decode_plans_enumerate_skinny_candidates_in_every_mode() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let plan = Planner::new(a100_80g()).plan(1, 128, 128, cfg).unwrap();
        assert!(plan.key.shape.is_decode());
        let b = MatrixF32::random(128, 128, 9);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 10 }).unwrap();
        let quick = tiling_candidates(&plan, &sb, false);
        assert!(
            quick.len() > 1,
            "decode must compare skinny geometries even in quick mode: {quick:?}"
        );
        assert!(
            quick.iter().any(|t| t.mb == 1 && t.mt == 1),
            "the SpMV geometry (one-row panel) must be a candidate: {quick:?}"
        );
        let full = tiling_candidates(&plan, &sb, true);
        assert!(full.len() > quick.len(), "full mode still adds variants");
        let mut dedup = full.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), full.len(), "no duplicate candidates");
        // The harness can actually time the skinny candidates across
        // every storage format.
        let spec = MeasureSpec::for_mode(AutotuneMode::Quick).unwrap();
        let formats = format_candidates(&plan);
        let outcome = measure(&plan, &sb, 1, None, spec).unwrap();
        assert_eq!(
            outcome.samples.len(),
            quick.len() * formats.len(),
            "tilings x formats"
        );
    }

    #[test]
    fn decode_plans_compare_storage_formats_and_pins_restrict_them() {
        let cfg = NmConfig::new(2, 8, 32).unwrap();
        let mut planner = Planner::new(a100_80g());
        let decode = planner
            .plan_as(ShapeClass::Decode(1), 1, 128, 128, cfg)
            .unwrap();
        let formats = format_candidates(&decode);
        assert_eq!(formats[0], StorageFormat::RowMajor, "auto lane leads");
        assert_eq!(
            formats.len(),
            1 + 9,
            "row-major + C in {{4,8,32}} x sigma in {{1,C,4C}}: {formats:?}"
        );
        for c in [4usize, 8, 32] {
            for sigma in [1, c, 4 * c] {
                let f = StorageFormat::Sliced(SlicedLayout::new(c, sigma).unwrap());
                assert!(formats.contains(&f), "missing {f}");
            }
        }
        assert_eq!(formats, format_candidates(&decode), "deterministic");

        // Prefill keys stay row-major only (no env pin in this process).
        let prefill = planner.plan(64, 128, 128, cfg).unwrap();
        assert_eq!(
            format_candidates_with(&prefill, None),
            vec![StorageFormat::RowMajor]
        );
        // A sliced env pin joins the prefill grid behind row-major; a
        // row-major pin adds nothing.
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        assert_eq!(
            format_candidates_with(&prefill, Some(pin)),
            vec![StorageFormat::RowMajor, pin],
            "env-pinned sliced layout must be measured on prefill too"
        );
        assert_eq!(
            format_candidates_with(&prefill, Some(StorageFormat::RowMajor)),
            vec![StorageFormat::RowMajor]
        );
        // Decode grids and plan-key pins ignore the env value — the grid
        // already covers sliced layouts, and a key pin is the user's call.
        let decode_with_env = format_candidates_with(&decode, Some(pin));
        assert_eq!(decode_with_env, format_candidates_with(&decode, None));

        // A pinned sliced plan measures exactly its pin.
        let pin = StorageFormat::Sliced(SlicedLayout::DEFAULT);
        let pinned = planner
            .plan_stored(ShapeClass::Decode(1), pin, 1, 128, 128, cfg)
            .unwrap();
        assert_eq!(format_candidates(&pinned), vec![pin]);

        // The measured winner records the storage format it staged.
        let b = MatrixF32::random(128, 128, 9);
        let sb = NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed: 10 }).unwrap();
        let spec = MeasureSpec {
            timed_iters: 1,
            tiling_variants: false,
        };
        let outcome = measure(&pinned, &sb, 1, None, spec).unwrap();
        assert_eq!(outcome.best.storage, pin);
        assert!(outcome.samples.iter().all(|s| s.storage == pin));
    }

    #[test]
    fn measured_winner_attaches_to_the_plan() {
        let (plan, sb) = demo();
        let spec = MeasureSpec::for_mode(AutotuneMode::Quick).unwrap();
        let outcome = measure(&plan, &sb, 16, None, spec).unwrap();
        let host = crate::plan::PlanHost {
            isa: MicroKernel::select().unwrap().isa().name().to_string(),
            threads: rayon::current_num_threads(),
        };
        let measured = plan.with_measured(host, outcome.best).unwrap();
        measured.validate().unwrap();
        assert_eq!(measured.measured, Some(outcome.best));
    }
}
