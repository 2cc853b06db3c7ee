//! Auto-tuning: search the blocking-parameter space with the timing model.
//!
//! Table I gives three hand-picked configurations; this module searches the
//! full valid space (power-of-two tiles, 32-lane warp grids, the Eq. 4/5
//! shared-memory equation, the Eq. 6 register budget) and returns the
//! fastest plan for a concrete `(device, m, n, k, N:M)` instance. The
//! search space is small (a couple hundred candidates) and each candidate
//! costs one analytic estimate (~0.3 µs), so exhaustive search is cheap —
//! the same offline-tuning workflow real kernel libraries use.
//!
//! [`candidates`] guarantees a **duplicate-free** list: the enumeration
//! walks warp lane grids `(ly, lx)`, but a [`BlockingParams`] only stores
//! the derived `(mr, nr) = (ly·mt, lx·nt)`, so two lane grids that map to
//! the same tuple would otherwise be counted (and evaluated, and ranked)
//! twice — inflating [`TuneResult::evaluated`] and the leaderboard. A set
//! keyed on the full parameter tuple filters them at the source.
//!
//! Callers rarely use this module directly: [`crate::plan::Planner`] runs
//! the search once per `(device, shape-class, N:M)` key and memoizes the
//! winner in a [`crate::plan::PlanCache`] (optionally persisted to JSON by
//! a [`crate::session::Session`]), so repeated sweeps over the same shapes are
//! O(1) lookups instead of re-searches.

use crate::nm::{NmSpmmKernel, NmVersion};
use crate::params::BlockingParams;
use gpu_sim::device::DeviceConfig;
use gpu_sim::timing::LaunchReport;
use nm_core::error::{NmError, Result};
use nm_core::pattern::NmConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Result of an auto-tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneResult {
    /// The winning parameters.
    pub params: BlockingParams,
    /// Its timing report.
    pub report: LaunchReport,
    /// Number of valid candidates evaluated.
    pub evaluated: usize,
    /// Runner-up configurations (params, seconds), best first, for
    /// diagnostics.
    pub leaderboard: Vec<(BlockingParams, f64)>,
}

/// Enumerate every structurally valid candidate for the given `L`
/// (`ns` must be a multiple of the vector length).
///
/// The returned list is sorted and **contains no duplicates**: distinct
/// `(ly, lx)` lane grids that collapse to the same
/// `(ms, ns, mr, nr, mt, nt)` tuple are emitted once (a `BlockingParams`
/// cannot tell them apart, so evaluating both would only double-count).
pub fn candidates(l: usize) -> Vec<BlockingParams> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for ms in [32usize, 64, 128] {
        for ns in [32usize, 64, 128, 256] {
            // ns must be a multiple of L for the window blocking.
            if ns % l != 0 {
                continue;
            }
            for mt in [4usize, 8, 16] {
                for nt in [4usize, 8, 16] {
                    // Warp lane grids that give 32 lanes and divide the tile.
                    for (ly, lx) in [(4usize, 8usize), (8, 4), (2, 16), (16, 2)] {
                        let (mr, nr) = (ly * mt, lx * nt);
                        let p = BlockingParams {
                            ms,
                            ns,
                            mr,
                            nr,
                            mt,
                            nt,
                        };
                        if p.validate().is_ok()
                            && p.threads() >= 32
                            && p.threads() <= 1024
                            && seen.insert((ms, ns, mr, nr, mt, nt))
                        {
                            out.push(p);
                        }
                    }
                }
            }
        }
    }
    out.sort_by_key(|p| (p.ms, p.ns, p.mt, p.nt, p.mr, p.nr));
    out
}

/// Exhaustively tune the V3 kernel for one problem instance.
pub fn tune(dev: &DeviceConfig, m: usize, n: usize, k: usize, cfg: NmConfig) -> Result<TuneResult> {
    let mut board: Vec<(BlockingParams, f64, Option<LaunchReport>)> = Vec::new();
    let mut evaluated = 0usize;
    for p in candidates(cfg.l) {
        let kern = NmSpmmKernel::new(NmVersion::V3, p);
        match kern.estimate(dev, m, n, k, cfg, None) {
            Ok(rep) => {
                evaluated += 1;
                board.push((p, rep.seconds, Some(rep)));
            }
            Err(_) => continue, // unlaunchable on this device — skip
        }
    }
    if board.is_empty() {
        return Err(NmError::InvalidBlocking {
            reason: format!(
                "no valid blocking for m={m}, n={n}, k={k}, {cfg} on {}",
                dev.name
            ),
        });
    }
    board.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (params, _, report) = board.remove(0);
    Ok(TuneResult {
        params,
        report: report.expect("winner has a report"),
        evaluated,
        leaderboard: board.into_iter().take(8).map(|(p, s, _)| (p, s)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::{a100_80g, rtx4090};

    #[test]
    fn candidate_space_is_nonempty_and_valid() {
        let cands = candidates(32);
        assert!(cands.len() >= 20, "got {}", cands.len());
        for p in &cands {
            p.validate().unwrap();
            assert_eq!(p.ns % 32, 0);
        }
        // Table I's large config must be in the space.
        assert!(cands.contains(&BlockingParams::large()));
        assert!(cands.contains(&BlockingParams::small()));
    }

    #[test]
    fn tuned_never_loses_to_table_i() {
        let dev = a100_80g();
        for (m, n, k) in [(512usize, 512usize, 512usize), (4096, 4096, 4096)] {
            let cfg = NmConfig::new(4, 16, 32).unwrap();
            let tuned = tune(&dev, m, n, k, cfg).unwrap();
            let preset = NmSpmmKernel::auto(NmVersion::V3, m, n)
                .estimate(&dev, m, n, k, cfg, None)
                .unwrap();
            assert!(
                tuned.report.seconds <= preset.seconds * 1.0001,
                "{m}x{n}x{k}: tuned {} must not lose to preset {}",
                tuned.report.seconds,
                preset.seconds
            );
        }
    }

    #[test]
    fn small_problems_prefer_small_tiles() {
        let dev = a100_80g();
        let cfg = NmConfig::new(8, 16, 32).unwrap();
        let t = tune(&dev, 256, 256, 512, cfg).unwrap();
        assert!(
            t.params.ms * t.params.ns <= 64 * 128,
            "a 256x256 problem should not pick a giant tile: {:?}",
            t.params
        );
    }

    #[test]
    fn leaderboard_is_sorted() {
        let dev = rtx4090();
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let t = tune(&dev, 1024, 1024, 1024, cfg).unwrap();
        assert!(!t.leaderboard.is_empty());
        for w in t.leaderboard.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(t.report.seconds <= t.leaderboard[0].1);
        assert!(t.evaluated > t.leaderboard.len());
    }

    #[test]
    fn respects_vector_length_constraint() {
        let cands = candidates(128);
        assert!(cands.iter().all(|p| p.ns % 128 == 0));
        assert!(!cands.is_empty());
    }

    #[test]
    fn candidates_are_unique() {
        // Regression guard for the duplicate-candidate bug: two lane grids
        // mapping onto one (ms, ns, mr, nr, mt, nt) tuple must yield ONE
        // candidate, or `evaluated` and the leaderboard double-count it.
        for l in [8usize, 16, 32, 64, 128] {
            let cands = candidates(l);
            let unique: HashSet<(usize, usize, usize, usize, usize, usize)> = cands
                .iter()
                .map(|p| (p.ms, p.ns, p.mr, p.nr, p.mt, p.nt))
                .collect();
            assert_eq!(
                unique.len(),
                cands.len(),
                "L={l}: candidate list contains duplicates"
            );
        }
    }

    #[test]
    fn evaluated_is_bounded_by_unique_candidates() {
        // `evaluated` counts only launchable candidates, each exactly once.
        let dev = a100_80g();
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        let t = tune(&dev, 2048, 2048, 2048, cfg).unwrap();
        let cands = candidates(cfg.l);
        assert!(
            t.evaluated <= cands.len(),
            "evaluated {} exceeds the {} unique candidates",
            t.evaluated,
            cands.len()
        );
        // The leaderboard (winner excluded) can never exceed evaluated − 1.
        assert!(t.leaderboard.len() < t.evaluated);
    }
}
