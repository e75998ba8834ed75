//! Runs every workload in `--smoke` mode and checks the result line
//! against the metric lists in the repository's `BENCHMARK.json`.

use std::process::Command;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The `"name"` values listed between `section` and the next section.
fn names(section: &str, next: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(section).expect("section present");
    let end = BENCHMARK_JSON[start..]
        .find(next)
        .map_or(BENCHMARK_JSON.len(), |i| start + i);
    BENCHMARK_JSON[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_owned())
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serverbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (
        out.status.success(),
        stdout.lines().last().unwrap_or("").to_owned(),
    )
}

#[test]
fn every_workload_is_correct_and_complete_in_smoke_mode() {
    let workloads = names("\"workloads\"", "\"end_to_end\"");
    assert_eq!(workloads, ["point_eval", "wide_stream", "churn_rw"]);
    let sets = [
        ("0", names("\"end_to_end\"", "\"per_layer\"")),
        ("1", names("\"per_layer\"", "\"__end__")),
    ];
    for w in &workloads {
        for (trace, metrics) in &sets {
            let (ok, line) = run(&["--workload", w, "--seed", "5", "--smoke", "--trace", trace]);
            assert!(ok, "{w} trace {trace}: {line}");
            assert!(
                line.starts_with("{\"correct\":true,") && line.contains("\"failed\":0,"),
                "{w} trace {trace}: {line}"
            );
            for m in metrics {
                assert!(
                    line.contains(&format!("\"{m}\":{{\"value\":")),
                    "{w}: {m} missing in {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\":").count(),
                metrics.len(),
                "{w}: exactly the listed metrics"
            );
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result_line() {
    let (ok, line) = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(!line.contains("\"correct\""), "{line}");
}
