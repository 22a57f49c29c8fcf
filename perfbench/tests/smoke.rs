//! Smoke test of the benchmark itself: every workload, at a tiny run
//! length, emits every metric `BENCHMARK.json` names with its unit and
//! passes its output checks, and the negative control fails.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        let (unit, uend) = field(&rest[end..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[end + uend..];
    }
    assert!(!out.is_empty(), "{section} lists metrics");
    out
}

/// Run the benchmark; returns its exit code and its last stdout line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace"])
        .arg(trace.to_string())
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (code, line) = run(workload, trace, &[]);
        assert_eq!(code, 0, "{workload} trace {trace} failed: {line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        let wanted = declared(section);
        for (name, unit) in &wanted {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = line.find(&key).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let tail = &line[at + key.len()..];
            let value: f64 = tail[..tail.find(',').expect("value ends")].parse().expect("number");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(tail.contains(&format!("\"unit\": \"{unit}\"}}")), "{workload}: {name} unit");
        }
        assert_eq!(line.matches("\"value\"").count(), wanted.len(), "{workload}: extra metrics");
    }
}

#[test]
fn rma_emits_every_metric() {
    check_workload("rma");
}

#[test]
fn collectives_emits_every_metric() {
    check_workload("collectives");
}

#[test]
fn host_emits_every_metric() {
    check_workload("host");
}

#[test]
fn negative_control_fails_the_run() {
    let (code, line) = run("host", 0, &["--negative-control"]);
    assert_eq!(code, 1, "{line}");
    assert!(line.starts_with("{\"correct\": false,"), "{line}");
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
