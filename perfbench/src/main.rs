//! Command line of the half-Llama stack benchmark:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run header, the sample summary and, as the last line, the
//! result object. Exits 2 on a malformed command line or when any
//! `NM_SPMM_*` variable is set, since an environment pin would silently
//! change what is measured.

use perfbench::{run, Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <prefill|decode|serve> --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                seconds = Some((1..=600).contains(&s).then_some(s).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok(Config::new(w, s, secs as f64, t)),
        _ => Err("every flag is required".into()),
    }
}

fn main() -> ExitCode {
    let pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NM_SPMM_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset it to measure the defaults",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines = [
        perfbench_line("header", &report.header),
        perfbench_line("samples", &report.samples),
        report.result().dump(),
    ];
    for line in lines {
        match line {
            Ok(l) => println!("{l}"),
            Err(e) => {
                eprintln!("cannot print the report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn perfbench_line(key: &str, v: &nm_core::json::JsonValue) -> nm_core::error::Result<String> {
    nm_core::json::JsonValue::object(vec![(key, v.clone())]).dump()
}
