//! Smoke runs of every workload at its tiny size: every gate runs, the
//! result line parses, and it names exactly the metrics `BENCHMARK.json`
//! declares.

use std::path::PathBuf;
use std::process::Command;

use scube::daemon::json::Json;

fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(section).and_then(Json::as_arr).expect("metric list");
    list.iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name").to_string())
        .collect()
}

/// Run one smoke workload with `extra` flags; returns the parsed result
/// line and the full result file.
fn smoke_with(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> (Json, Json) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let run = Command::new(env!("CARGO_BIN_EXE_scube-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    assert!(
        run.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let file = out.join(format!("{workload}-seed{seed}-trace{trace}.json"));
    let full = std::fs::read_to_string(file).expect("the result file is written");
    (result, Json::parse(&full).expect("the result file is JSON"))
}

fn smoke(workload: &str, seed: u64, trace: u8) -> Json {
    smoke_with(workload, seed, trace, &[]).0
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = smoke(workload, 1, trace);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: gates");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("metrics object") };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, declared(section), "{workload} trace {trace}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name} is not a number");
            if trace == 0 {
                assert!(value.unwrap() > 0.0, "{workload}: {name} is never 0");
            }
        }
    }
}

#[test]
fn build_e20_smoke() {
    check("build-e20");
}

#[test]
fn serve_read_smoke() {
    check("serve-read");
}

#[test]
fn update_mix_smoke() {
    check("update-mix");
}

/// The read-mix flags of the sensitivity sweep: the gates still pass, and
/// the result file records the mix it ran.
#[test]
fn mix_flags_pass_the_gates_and_are_recorded() {
    let extra = ["--mix-cold", "0.29", "--mix-zipf", "1.1"];
    let (result, full) = smoke_with("serve-read", 3, 0, &extra);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let note = |n: &str| {
        full.get("notes").and_then(|x| x.get(n)).and_then(|m| m.get("value")).and_then(Json::as_f64)
    };
    assert_eq!(note("mix_cold_share"), Some(0.29));
    assert_eq!(note("mix_zipf"), Some(1.1));
}

#[test]
fn another_seed_gives_other_inputs() {
    let bytes = |seed| {
        let result = smoke("build-e20", seed, 0);
        let metrics = result.get("metrics").expect("metrics");
        metrics.get("snapshot_bytes").and_then(|m| m.get("value")).and_then(Json::as_f64)
    };
    assert_ne!(bytes(11), bytes(12));
}
