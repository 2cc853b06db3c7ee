//! Golden-file snapshots of the generated WGSL: one checked-in shader
//! per kernel family at a representative blocking, so
//! any drift in the emitter shows up as a reviewable text diff.
//!
//! On mismatch the test fails with the differing line; to accept an
//! intentional emitter change, regenerate with
//!
//! ```text
//! NM_SPMM_BLESS=1 cargo test --test wgsl_snapshots
//! ```
//!
//! and commit the rewritten files under `tests/snapshots/`.

use nm_spmm::gpu::{emit_wgsl, lower, validate_wgsl, KernelFamily, KernelSpec, ValidateOptions};
use nm_spmm::prelude::*;
use std::path::PathBuf;

/// The representative blocking every snapshot uses: the 2:8:16 paper
/// level (packed band) on a 64×128 layer, prefill tiles for the ladder
/// families and the single-row tile for the decode specialization.
fn spec_for(family: KernelFamily) -> KernelSpec {
    let cfg = NmConfig::new(2, 8, 16).expect("2:8:16");
    let (n, k) = (64usize, 128usize);
    let w = k / cfg.m * cfg.n;
    KernelSpec {
        family,
        cfg,
        n,
        k,
        w,
        mb: if family == KernelFamily::SkinnyDecode {
            1
        } else {
            8
        },
        nb: 32,
        kb: 32,
        // Column blocks of nb = 32 → n / nb groups.
        groups: n / 32,
        packed: family.packs(),
        fma: true,
    }
}

fn snapshot_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
}

#[test]
fn generated_wgsl_matches_the_checked_in_snapshots() {
    let bless = std::env::var("NM_SPMM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let dir = snapshot_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create snapshot dir");
    }

    for family in KernelFamily::all() {
        let spec = spec_for(family);
        let ir = lower(&spec).expect("lower");
        let wgsl = emit_wgsl(&ir);
        validate_wgsl(&wgsl, &ValidateOptions::default())
            .unwrap_or_else(|e| panic!("{}: emitted WGSL failed validation: {e}", spec.name()));

        let path = dir.join(format!("{}.wgsl", spec.name()));
        if bless {
            std::fs::write(&path, &wgsl).expect("bless snapshot");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); run with NM_SPMM_BLESS=1 to generate",
                path.display()
            )
        });
        if wgsl != golden {
            let diff_line = wgsl
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or_else(|| wgsl.lines().count().min(golden.lines().count()) + 1);
            panic!(
                "{}: generated WGSL drifted from its snapshot (first difference at \
                 line {diff_line}); if intentional, regenerate with NM_SPMM_BLESS=1",
                spec.name()
            );
        }
    }
}

#[test]
fn snapshot_names_are_stable_and_collision_free() {
    let mut names = std::collections::BTreeSet::new();
    for family in KernelFamily::all() {
        let name = spec_for(family).name();
        assert!(
            !name.contains([':', '/', ' ']),
            "{name}: snapshot file names must be path-safe"
        );
        assert!(names.insert(name.clone()), "{name}: duplicate snapshot key");
    }
    assert_eq!(names.len(), 4, "one snapshot per family");
}
