//! The command lines of the `sweep`, bench, figure and table binaries:
//! every malformed invocation — a bad flag or a bad `NM_SPMM_ISA` pin
//! — ends in a usage or error line and exit code 2 before any work
//! starts, never a panic.

use std::process::Command;

/// (binary, argv, `VAR=value` set in its environment, what stderr must
/// name: `None` for the binary's usage line, else the rejected value)
type Case<'a> = (&'a str, &'a [&'a str], Option<&'a str>, Option<&'a str>);

#[test]
fn bad_arguments_exit_2_without_a_backtrace() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let measured = env!("CARGO_BIN_EXE_bench_measured");
    let serving = env!("CARGO_BIN_EXE_bench_serving");
    let codegen = env!("CARGO_BIN_EXE_bench_codegen");
    let bogus = Some("`bogus`");
    let isa = Some("NM_SPMM_ISA=bogus");
    let cases: &[Case] = &[
        (sweep, &["--m"], None, None),
        (sweep, &["--m", "abc"], None, None),
        (sweep, &["--seq", "-1"], None, None),
        (sweep, &["--bogus"], None, None),
        (sweep, &["--device", "tpu"], None, None),
        (sweep, &["--llama", "70b"], None, None),
        (sweep, &["--exec"], isa, bogus),
        (measured, &["--threshold", "1.5"], None, None),
        (measured, &["--autotune", "fast"], None, Some("`fast`")),
        (measured, &["--seed", "x"], None, None),
        (measured, &["--out"], None, None),
        (measured, &["--assert-ab"], None, None),
        (measured, &["--quick"], isa, bogus),
        (serving, &["--bogus"], None, None),
        (serving, &["--seed", "x"], None, None),
        (serving, &["--quick"], isa, bogus),
        (codegen, &["--bogus"], None, None),
        (codegen, &["--seed", "x"], None, None),
        (codegen, &["--quick"], isa, bogus),
        (
            env!("CARGO_BIN_EXE_fig7_stepwise"),
            &["--bogus"],
            None,
            None,
        ),
        (
            env!("CARGO_BIN_EXE_fig8_blocking"),
            &["--bogus"],
            None,
            None,
        ),
        (
            env!("CARGO_BIN_EXE_fig9_comparison"),
            &["--ful"],
            None,
            None,
        ),
        (
            env!("CARGO_BIN_EXE_fig10_roofline"),
            &["--full"],
            None,
            None,
        ),
        (env!("CARGO_BIN_EXE_ablations"), &["--bogus"], None, None),
        (env!("CARGO_BIN_EXE_table1_params"), &["x"], None, None),
        (
            env!("CARGO_BIN_EXE_table3_hardware"),
            &["--bogus"],
            None,
            None,
        ),
    ];
    for &(bin, argv, env, line) in cases {
        let mut cmd = Command::new(bin);
        // Only the case's own override reaches the binary.
        cmd.env_clear().args(argv).env("RUST_BACKTRACE", "1");
        if let Some((var, value)) = env.and_then(|e| e.split_once('=')) {
            cmd.env(var, value);
        }
        let out = cmd.output().expect("spawn");
        let case = format!("{bin} {argv:?} {env:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = bin.rsplit(['/', '\\']).next().unwrap();
        let line = line.map_or(format!("usage: {name}"), str::to_string);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains(&line), "{case}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("backtrace"),
            "{case} panicked: {stderr}"
        );
        // Rejected before any work: nothing was benchmarked or reported.
        assert!(
            out.stdout.is_empty(),
            "{case} started work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
