//! Tiny-size runs of every workload through the benchmark's entry point,
//! checked against the metric names and units in `BENCHMARK.json`.

use nm_core::json::JsonValue;
use perfbench::stats::failure_rate_upper_bound;
use perfbench::trace::{check_nesting, self_times_ns};
use perfbench::{run, Config, Report, Workload};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.str_field("name").expect("name").to_string(),
                m.str_field("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

fn assert_emits_exactly(report: &Report, list: &str) {
    let want = declared(list);
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut sorted_want = want.clone();
    let mut sorted_got = got.clone();
    sorted_want.sort();
    sorted_got.sort();
    assert_eq!(sorted_got, sorted_want, "{list}");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let result = report.result();
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in want {
        let m = metrics.get(&name).expect("printed");
        assert_eq!(m.str_field("unit").expect("unit"), unit);
    }
}

fn assert_clean(report: &Report) {
    assert!(report.correct);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "no operation may fail at tiny size");
}

#[test]
fn every_workload_emits_every_end_to_end_metric_without_failures() {
    for w in Workload::ALL {
        let report = run(&Config::tiny(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_clean(&report);
        assert_emits_exactly(&report, "end_to_end");
        let error_rate = report.metric("error_rate").expect("error_rate").value;
        assert_eq!(error_rate, failure_rate_upper_bound(0, report.attempted));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_from_nested_spans() {
    for w in Workload::ALL {
        let report = run(&Config::tiny(w, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_clean(&report);
        assert_emits_exactly(&report, "per_layer");
        assert!(!report.spans.is_empty());
        check_nesting(&report.spans).expect("spans nest");
        for (id, self_ns) in self_times_ns(&report.spans) {
            assert!(self_ns >= 0, "span {id} has self time {self_ns} ns");
        }
        // The kernels and the glue between them make up the block time.
        let value = |name: &str| report.metric(name).expect(name).value;
        let kernels: f64 = ["q", "k", "v", "o", "gate", "up", "down"]
            .iter()
            .map(|p| value(&format!("kernel.{p}.ms")))
            .sum();
        let block = value("block.ms");
        assert!(block > 0.0);
        assert!(((kernels + value("block.glue_ms")) - block).abs() <= 1e-9 * block.max(1.0));
    }
}
