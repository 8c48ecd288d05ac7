//! The SCube benchmark: one command that generates seeded inputs, drives
//! the crates' public entry points and a live `scubed` daemon, checks every
//! output, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload build-e20|serve-read|update-mix --seed N --seconds S --trace 0|1 \
//!     [--smoke] [--out DIR] [--mix-cold SHARE] [--mix-zipf S]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer ones traced (`--trace 1`). A human-readable
//! report goes to standard error, and the full result — provenance, every
//! metric, and in traced runs every span — to
//! `DIR/<workload>-seed<N>-trace<T>.json` (default `DIR` is
//! `.perfbench-out`). See `perfbench/README.md`.

mod build;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use scube_common::Result;
use trace::{json_num, Trace};

/// The counting allocator owns the process, so `peak_heap_bytes` sees
/// every allocation the program makes during a timed region.
#[global_allocator]
static ALLOC: scube_bench::alloc::CountingAlloc = scube_bench::alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["build-e20", "serve-read", "update-mix"];

/// End-to-end metrics, reported by every workload (`--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("snapshot_bytes", "bytes"),
    ("peak_heap_bytes", "bytes"),
    ("op_p50_ms", "ms"),
    ("op_rate_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`). Every workload reports every name; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("data.ingest_s", "s"),
    ("cube.builder_s", "s"),
    ("cube.store_s", "s"),
    ("cube.save_s", "s"),
    ("cube.open_s", "s"),
    ("unattributed_s", "s"),
    ("build.span_s", "s"),
    ("fpm.mine_s", "s"),
    ("data.hist_s", "s"),
    ("segindex.fold_s", "s"),
    ("build.probe_sum_s", "s"),
    ("data.rows", "count"),
    ("data.items", "count"),
    ("fpm.itemsets", "count"),
    ("cube.cells", "count"),
    ("cube.contexts", "count"),
    ("data.hist_tids", "count"),
    ("segindex.fold_units", "count"),
    ("segindex.fold_classes", "count"),
    ("segindex.units_per_class", "ratio"),
    ("daemon.request_us.query_hot", "us"),
    ("daemon.request_us.query_cold", "us"),
    ("daemon.request_us.topk", "us"),
    ("daemon.request_us.slice", "us"),
    ("daemon.request_us.breakdown", "us"),
    ("daemon.server_us.query", "us"),
    ("daemon.server_us.topk", "us"),
    ("daemon.server_us.slice", "us"),
    ("daemon.server_us.breakdown", "us"),
    ("daemon.server_us.mean", "us"),
    ("daemon.wire_us", "us"),
    ("cube.serve.query_us", "us"),
    ("daemon.render_us", "us"),
    ("cube.serve.materialized", "count"),
    ("cube.serve.cached", "count"),
    ("cube.serve.explored", "count"),
    ("cube.serve.hit_rate", "ratio"),
    ("cube.explore_us", "us"),
    ("data.tidset_us", "us"),
    ("segindex.fold_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("daemon.update_request_ms", "ms"),
    ("cube.update.apply_ms", "ms"),
    ("cube.snapshot.clone_ms", "ms"),
    ("cube.serve.engine_new_ms", "ms"),
    ("cube.update.dirty_cells", "count"),
    ("cube.update.promoted_cells", "count"),
    ("cube.update.demoted_cells", "count"),
    ("cube.update.clean_cells", "count"),
    ("daemon.swaps", "count"),
    ("trace.op_p50_ms", "ms"),
    ("trace.op_tail_ms", "ms"),
];

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Serving read mix: share of non-materialized `/query` requests and
    /// the Zipf exponent over `/query` targets (defaults in `serve`).
    pub mix_cold: f64,
    pub mix_zipf: f64,
    pub out: PathBuf,
    /// Scratch directory for this run's CSV and snapshot files.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness gates, one line each.
    pub gates: Vec<String>,
    e2e: Vec<(&'static str, f64)>,
    /// The headline operation's tail latency (ms) and its percentile.
    tail: (f64, &'static str),
    /// Further named figures for the report and the result file.
    notes: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn gate(&mut self, msg: String) {
        self.gates.push(msg);
    }

    /// A traced builder probe whose folded values differ from the cube.
    pub fn probe_gate(&mut self, bad: usize) {
        if bad > 0 {
            self.gate(format!("builder probe: {bad} folded cells differ from the built cube"));
        }
    }

    /// The end-to-end figures every workload's set-up and builds give;
    /// `build_s` and `open_ms` go to the report (see the README for why
    /// they are not end-to-end metrics).
    pub fn e2e(&mut self, setup_s: f64, build_s: f64, open_ms: f64, bytes: f64, peak_heap: f64) {
        self.e2e.extend([
            ("setup_s", setup_s),
            ("snapshot_bytes", bytes),
            ("peak_heap_bytes", peak_heap),
        ]);
        self.note("build_s", build_s, "s");
        self.note("open_ms", open_ms, "ms");
    }

    /// The workload's headline operation: median, tail (`label` names the
    /// percentile) and closed-loop rate. The tail is reported but not an
    /// end-to-end metric: its run-to-run spread exceeded every allowed
    /// bound on the reference host (see the README).
    pub fn op(&mut self, p50_ms: f64, tail_ms: f64, label: &'static str, rate: f64) {
        self.e2e.extend([("op_p50_ms", p50_ms), ("op_rate_per_s", rate)]);
        self.tail = (tail_ms, label);
        self.note(&format!("op_tail_ms ({label})"), tail_ms, "ms");
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push((name.to_string(), value, unit.to_string()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.gates.is_empty()
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: --workload {} --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] \
         [--mix-cold SHARE] [--mix-zipf S]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut smoke, mut out) = (false, PathBuf::from(".perfbench-out"));
    let (mut mix_cold, mut mix_zipf) = (serve::DEFAULT_COLD_SHARE, serve::DEFAULT_ZIPF);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                traced = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--out" => out = PathBuf::from(value()),
            "--smoke" => smoke = true,
            "--mix-cold" => {
                mix_cold = value().parse().unwrap_or_else(|_| usage("bad --mix-cold"));
                if !(0.0..=serve::MAX_COLD_SHARE).contains(&mix_cold) {
                    usage(&format!("--mix-cold must be in [0, {}]", serve::MAX_COLD_SHARE));
                }
            }
            "--mix-zipf" => {
                mix_zipf = value().parse().unwrap_or_else(|_| usage("bad --mix-zipf"));
                if !(0.0..=4.0).contains(&mix_zipf) {
                    usage("--mix-zipf must be in [0, 4]");
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let work = out.join(format!("work-{}", std::process::id()));
    RunArgs {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: traced.unwrap_or_else(|| usage("--trace is required")),
        smoke,
        mix_cold,
        mix_zipf,
        out,
        work,
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a repository.
fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &RunArgs, trace: &mut Trace) -> Result<Outcome> {
    std::fs::create_dir_all(&args.work).map_err(|e| build::io_err(&args.work, e))?;
    let out = match args.workload.as_str() {
        "build-e20" => build::run_build_e20(args, trace),
        "serve-read" => serve::run_serve_read(args, trace),
        _ => serve::run_update_mix(args, trace),
    };
    std::fs::remove_dir_all(&args.work).ok();
    out
}

fn main() {
    let args = parse_args();
    let mut trace = Trace::new(args.trace);
    let outcome = match run(&args, &mut trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if let Some(&(_, p50)) = outcome.e2e.iter().find(|(m, _)| *m == "op_p50_ms") {
        trace.set("trace.op_p50_ms", p50);
        trace.set("trace.op_tail_ms", outcome.tail.0);
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, trace.value(n).unwrap_or(0.0), u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| {
                let v = outcome.e2e.iter().find(|(m, _)| *m == n).map(|(_, v)| *v);
                (n, v.expect("every workload reports every end-to-end metric"), u)
            })
            .collect()
    };
    let correct = outcome.correct();
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    // Human-readable report.
    let (cpu, arch) = scube_bench::host_fingerprint();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let commit = git_commit();
    eprintln!(
        "perfbench {} seed {} seconds {} trace {} ({} threads, {cpu}, {arch}, commit {commit})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads,
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    eprintln!("  {:<32} {:>16.6} failed/attempted", "ops_failed_ratio", failed_ratio);
    for (name, value, unit) in &outcome.notes {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    if args.trace {
        eprintln!("  self time by span:");
        for (name, t) in trace.totals() {
            eprintln!(
                "    {name:<30} n={:<7} total {:>10.4} s  self {:>10.4} s",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        if args.workload == "build-e20" {
            eprintln!("{}", roadmap_row(&trace, &outcome));
        }
    }
    for g in &outcome.gates {
        eprintln!("  GATE FAILED: {g}");
    }

    // Full result file.
    let mut doc = String::new();
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let _ = write!(
        doc,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"host_threads\": {host_threads}, \"host_cpu\": \"{}\", \"host_arch\": \"{}\", \
         \"commit\": \"{}\", \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"ops_failed_ratio\": {}, \"tail_percentile\": \"{}\", \"gates_failed\": [{}], \
         \"metrics\": {{{}}}, \"notes\": {{{}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        esc(&cpu),
        esc(&arch),
        esc(&commit),
        outcome.attempted,
        outcome.failed,
        json_num(failed_ratio),
        outcome.tail.1,
        outcome.gates.iter().map(|g| format!("\"{}\"", esc(g))).collect::<Vec<_>>().join(", "),
        metric_json(metrics.iter().map(|&(n, v, u)| (n.to_string(), v, u.to_string()))),
        metric_json(outcome.notes.iter().cloned()),
    );
    if args.trace {
        let _ = write!(doc, ", \"trace\": {}", trace.to_json());
    }
    doc.push_str("}\n");
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, doc) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metric_json(metrics.iter().map(|&(n, v, u)| (n.to_string(), v, u.to_string()))),
    );
    if !correct {
        std::process::exit(1);
    }
}

fn metric_json(metrics: impl Iterator<Item = (String, f64, String)>) -> String {
    metrics
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The ROADMAP "Where the time goes" row, regenerated from a traced
/// `build-e20` run: mining, context + cell evaluation (the builder span
/// minus mining, wall), the maintenance store, and the build end to end,
/// with the serial CPU split of the evaluation beside it.
fn roadmap_row(trace: &Trace, outcome: &Outcome) -> String {
    let v = |n: &str| trace.value(n).unwrap_or(0.0);
    let note = |n: &str| outcome.notes.iter().find(|x| x.0 == n).map_or(0.0, |x| x.1);
    format!(
        "| build-e20: {:.0} rows, {:.0} cells, {:.0} units | mine {:.2} s | ctx+cell eval \
         (wall) {:.2} s [serial CPU: hist {:.2} s, fold {:.2} s] | store {:.2} s | end to end \
         {:.2} s (ingest {:.2} s, save {:.2} s, open {:.3} s, unattributed {:.3} s) |",
        note("rows"),
        note("cells"),
        note("units"),
        v("fpm.mine_s"),
        v("cube.builder_s") - v("fpm.mine_s"),
        v("data.hist_s"),
        v("segindex.fold_s"),
        v("cube.store_s"),
        v("build.span_s"),
        v("data.ingest_s"),
        v("cube.save_s"),
        v("cube.open_s"),
        v("unattributed_s"),
    )
}
