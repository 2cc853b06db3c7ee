//! The `sweep` binary's command line: every malformed invocation ends in
//! a usage message and exit code 2, never a panic.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_a_backtrace() {
    let cases: [&[&str]; 6] = [
        &["--m"],
        &["--m", "abc"],
        &["--seq", "-1"],
        &["--bogus"],
        &["--device", "tpu"],
        &["--llama", "70b"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(argv)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage: sweep"), "{argv:?}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("backtrace"),
            "{argv:?} panicked: {stderr}"
        );
    }
}
