//! Smoke test of the benchmark itself:
//!
//! * a short run of every workload, untraced and traced, emits exactly
//!   the metrics `BENCHMARK.json` names, each as a finite number, and
//!   checks every reply;
//! * the output checker counts a deliberately wrong expected sum as a
//!   failure.
//!
//! ```text
//! cargo test --release --manifest-path invokebench/Cargo.toml
//! ```

use pardis_invokebench::probe::CountingAlloc;
use pardis_invokebench::workload::{workload, Inputs, WORKLOADS};
use pardis_invokebench::{run, run_with_inputs, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Metric names listed in one section of `BENCHMARK.json`. The file is
/// written one key per line, so this reads it without a JSON parser.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut expected = declared(section);
        expected.sort();
        assert!(!expected.is_empty());
        for w in WORKLOADS {
            let out = run(&Args {
                workload: w,
                seed: 1,
                seconds: 0.5,
                trace,
            });
            assert!(out.attempted > 0, "{}: nothing attempted", w.name);
            assert_eq!(out.failed, 0, "{}: wrong replies", w.name);
            let mut names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            names.sort();
            assert_eq!(names, expected, "{} trace={trace}", w.name);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
            }
            assert!(out.result_json().starts_with("{\"correct\": true,"));
        }
    }
}

#[test]
fn wrong_expected_sum_counts_as_failure() {
    let w = workload("small_in").expect("workload");
    let mut inputs = Inputs::generate(3, w.len);
    for s in &mut inputs.sums {
        *s += 1.0;
    }
    let out = run_with_inputs(
        &Args {
            workload: w,
            seed: 3,
            seconds: 0.2,
            trace: false,
        },
        inputs,
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, out.attempted);
    assert!(out.result_json().starts_with("{\"correct\": false,"));
}
