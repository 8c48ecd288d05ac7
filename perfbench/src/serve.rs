//! The serving workloads: `serve-read` (a read mix against an mmap-opened
//! snapshot) and `update-mix` (reads while `POST /update` batches hot-swap
//! a heap-loaded one), both against a live `scubed` daemon on loopback.
//!
//! Every expected response body is rendered in process, before the timed
//! region, by the daemon's own serializers; every timed response is
//! compared with it byte for byte.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use minihttp::{percent_encode, HttpClient};
use scube::daemon::{self, json::Json, Daemon, DaemonConfig};
use scube::prelude::*;
use scube_bench::alloc;
use scube_cube::{CubeLabels, DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS};
use scube_data::UnitScratch;

use crate::build::{self, io_err, same_bits, SETUP_REPEATS, SMOKE_COMPANIES};
use crate::stats::{self, Rng, Zipf};
use crate::trace::Trace;
use crate::{Outcome, RunArgs};

/// Companies in the `serve-read` dataset: ~126k rows, ~45k units.
const SERVE_COMPANIES: usize = 45_000;
/// Companies in the `update-mix` dataset: ~11k rows, ~4k units. One batch
/// re-evaluates every cell of a ⋆ context, so an update costs 0.5–1.8 s at
/// the `serve-read` size; this size keeps it near 0.15 s, enough updates
/// per run (~120) for a stable median and p90.
const UPDATE_COMPANIES: usize = 4_000;
/// Daemon workers and client connections (the host has 2 CPUs).
const CONNECTIONS: usize = 2;
/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop phase.
const OPEN_SHARE: f64 = 0.5;

/// `serve-read`: open-loop request rate over both connections, well below
/// the closed-loop rate so a slow request's queue drains before the next
/// one is due.
const READ_RATE: f64 = 2_000.0;
/// `update-mix`: open-loop reader rate on its one connection.
const MIX_READ_RATE: f64 = 500.0;
/// Windows per phase for the windowed tail and throughput statistics.
const WINDOWS: usize = 8;
/// `update-mix`: rows per appended slice, and distinct slices cycled.
const SLICE_ROWS: usize = 64;
const SLICES: usize = 8;

/// Default share of non-materialized `/query` requests (`--mix-cold`).
pub const DEFAULT_COLD_SHARE: f64 = 0.145;
/// Default Zipf exponent over the targets of each `/query` class
/// (`--mix-zipf`).
pub const DEFAULT_ZIPF: f64 = 0.9;
/// Largest `--mix-cold`: the `/topk`, `/slice` and `/breakdown` shares
/// stay fixed, so the two `/query` classes share the rest.
pub const MAX_COLD_SHARE: f64 = 0.988;

/// Non-materialized `/query` coordinates: several times the daemon's
/// fallback-cache capacity on `serve-read`, so its LRU both hits and
/// evicts. `update-mix` renders every body once per cycle state, so it
/// uses a universe that fits the cache.
const COLD_READ: usize = 4 * DEFAULT_CACHE_CAPACITY;
const COLD_MIX: usize = DEFAULT_CACHE_CAPACITY / 2;

/// Request classes, in report order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    QueryHot,
    QueryCold,
    Topk,
    Slice,
    Breakdown,
}

/// Request classes with their default shares of the mix. `--mix-cold`
/// moves share between the two `/query` classes; README "The read mix"
/// gives the basis of each share.
const CLASSES: [(Class, &str, f64); 5] = [
    (Class::QueryHot, "query_hot", 0.843),
    (Class::QueryCold, "query_cold", 0.145),
    (Class::Topk, "topk", 0.002),
    (Class::Slice, "slice", 0.005),
    (Class::Breakdown, "breakdown", 0.005),
];

/// One request the load generator can send, with its acceptable bodies:
/// one per state the served cube can be in (one state on `serve-read`).
struct Target {
    class: Class,
    path: String,
    coords: Option<CellCoords>,
    bodies: Vec<String>,
}

impl Target {
    fn accepts(&self, body: &[u8]) -> bool {
        self.bodies.iter().any(|b| b.as_bytes() == body)
    }
}

/// One timed request.
#[derive(Clone, Copy)]
struct Record {
    target: u32,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

impl Record {
    fn latency_us(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e6
    }
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        workers: CONNECTIONS,
        update_threads: build::BUILD_THREADS,
        query_threads: build::BUILD_THREADS,
        ..DaemonConfig::default()
    }
}

/// What a serving set-up leaves behind.
struct Setup {
    served: CubeSnapshot,
    daemon: Daemon,
    setup_s: f64,
    build_s: f64,
    open_ms: f64,
    snapshot_bytes: f64,
    /// Highest peak heap growth of the set-up builds (a note; the
    /// serving workloads' `peak_heap_bytes` is their timed phase's).
    build_peak: usize,
    /// Cells the traced builder probe folded differently from the cube.
    probe_bad: usize,
}

/// Generate the CSV, build and save the snapshot, open it (mapped, or
/// heap-loaded as `scubed` does by default) and bind the daemon; repeated,
/// with the medians reported.
fn set_up(args: &RunArgs, trace: &mut Trace, heap: bool) -> Result<Setup> {
    let companies = match (args.smoke, heap) {
        (true, _) => SMOKE_COMPANIES,
        (false, false) => SERVE_COMPANIES,
        (false, true) => UPDATE_COMPANIES,
    };
    let csv = args.work.join("serve.csv");
    let snap = args.work.join("serve.scube");
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut build_peak = 0;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let rows = build::write_csv(companies, args.seed, &csv)?;
        let built = build::build_once(&csv, &snap, rows, trace)?;
        drop(built.heap);
        let served = if heap { CubeSnapshot::load(&snap)? } else { built.opened };
        let daemon =
            Daemon::bind("127.0.0.1:0", vec![("main".into(), served.clone())], daemon_config())?;
        setups.push(t0.elapsed().as_secs_f64());
        builds.push(built.seconds);
        build_peak = build_peak.max(built.peak_heap);
        last = Some((served, daemon));
    }
    let (served, daemon) = last.expect("at least one set-up");
    let mut probe_bad = 0;
    if trace.enabled() {
        build::record_median_build(trace);
        probe_bad = build::probe_builder(&served, trace)?;
    }
    Ok(Setup {
        build_peak,
        probe_bad,
        served,
        daemon,
        setup_s: stats::median(&setups),
        build_s: stats::lower_median(&builds),
        open_ms: build::open_ms(&snap, 51)?,
        snapshot_bytes: std::fs::metadata(&snap).map_err(|e| io_err(&snap, e))?.len() as f64,
    })
}

fn side(labels: &CubeLabels, items: &[u32]) -> String {
    let pairs: Vec<String> =
        items.iter().map(|&i| format!("{}={}", labels.attr_of(i), labels.value_of(i))).collect();
    percent_encode(&pairs.join(","))
}

fn cell_path(verb: &str, labels: &CubeLabels, coords: &CellCoords) -> String {
    format!("/{verb}?sa={}&ca={}", side(labels, &coords.sa), side(labels, &coords.ca))
}

/// Seeded non-materialized coordinates: random sub-itemsets of random
/// rows (so each has support), skipping stored cells and duplicates.
fn cold_coords(snapshot: &CubeSnapshot, rng: &mut Rng, n: usize) -> Vec<CellCoords> {
    let rows = snapshot.vertical().transactions();
    let labels = snapshot.cube().labels();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0;
    while out.len() < n && attempts < 100 * n {
        attempts += 1;
        let (items, _) = &rows[rng.below(rows.len())];
        let (mut sa, mut ca) = (Vec::new(), Vec::new());
        for &item in items {
            if rng.unit() < 0.5 {
                if labels.is_sa_item(item) {
                    sa.push(item);
                } else {
                    ca.push(item);
                }
            }
        }
        let coords = CellCoords::new(sa, ca);
        if !coords.is_empty()
            && snapshot.cube().get(&coords).is_none()
            && seen.insert(coords.clone())
        {
            out.push(coords);
        }
    }
    out
}

/// Every request target, its bodies rendered once per state engine.
fn targets(
    states: &[ConcurrentCubeEngine],
    rng: &mut Rng,
    cold: Vec<CellCoords>,
) -> Result<Vec<Target>> {
    let base = &states[0];
    let cube = base.cube();
    let labels = cube.labels();
    let mut hot: Vec<CellCoords> = cube.cells().map(|(c, _)| c.clone()).collect();
    hot.sort();
    rng.shuffle(&mut hot);

    let mut out = Vec::new();
    let mut add = |class, path: String, coords: Option<CellCoords>| -> Result<()> {
        let bodies = states
            .iter()
            .map(|e| render(e, class, &path, coords.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        out.push(Target { class, path, coords, bodies });
        Ok(())
    };
    for coords in hot.iter().chain(&cold) {
        let class = if cube.get(coords).is_some() { Class::QueryHot } else { Class::QueryCold };
        add(class, cell_path("query", labels, coords), Some(coords.clone()))?;
    }
    for ix in SegIndex::ALL {
        add(Class::Topk, format!("/topk?index={}&k=10", ix.name()), None)?;
    }
    // Slices over one coordinate with a small answer (≤ 40 cells).
    let mut slices: Vec<String> = (0..labels.num_items() as u32)
        .filter_map(|item| {
            let fixed = [(labels.attr_of(item), labels.value_of(item))];
            let n = base.slice(&fixed).len();
            (1..=40).contains(&n).then(|| format!("{}={}", fixed[0].0, fixed[0].1))
        })
        .collect();
    rng.shuffle(&mut slices);
    for fixed in slices.into_iter().take(16) {
        add(Class::Slice, format!("/slice?fixed={}", percent_encode(&fixed)), None)?;
    }
    // Drill-downs of the stored cells with the fewest units.
    let mut small: Vec<(u32, CellCoords)> = cube
        .cells()
        .filter(|(c, _)| !c.is_empty())
        .map(|(c, v)| (v.num_units, c.clone()))
        .collect();
    small.sort();
    for (_, coords) in small.into_iter().take(16) {
        add(Class::Breakdown, cell_path("breakdown", labels, &coords), Some(coords))?;
    }
    Ok(out)
}

/// The body the daemon must answer `path` with, rendered in process.
fn render(
    engine: &ConcurrentCubeEngine,
    class: Class,
    path: &str,
    coords: Option<&CellCoords>,
) -> Result<String> {
    let labels = engine.cube().labels();
    Ok(match class {
        Class::QueryHot | Class::QueryCold => {
            let coords = coords.expect("query targets carry coordinates");
            daemon::cell_json(labels, coords, &engine.query(coords)?)
        }
        Class::Breakdown => {
            let coords = coords.expect("breakdown targets carry coordinates");
            daemon::breakdown_json(labels, coords, &engine.unit_breakdown(coords))
        }
        Class::Topk => {
            let name = path.split("index=").nth(1).and_then(|s| s.split('&').next());
            let ix = name.and_then(SegIndex::parse).expect("topk targets name an index");
            daemon::topk_json(labels, ix, &engine.top_k(ix, 10, 1))
        }
        Class::Slice => {
            let raw = path.split("fixed=").nth(1).expect("slice targets fix a pair");
            let fixed = minihttp::percent_decode(raw).expect("encoded by us");
            let (attr, value) = fixed.split_once('=').expect("attr=value");
            daemon::cells_json(labels, &engine.slice(&[(attr, value)]))
        }
    })
}

/// A seeded request sequence over `targets`: class by the mix weights
/// (the cold `/query` share from `--mix-cold`), then a target within the
/// class, Zipf-skewed by `--mix-zipf` for `/query` and uniform for the
/// small classes.
fn sequence(targets: &[Target], args: &RunArgs, rng: &mut Rng, n: usize) -> Vec<u32> {
    let classes: Vec<(f64, Vec<u32>, Zipf)> = CLASSES
        .iter()
        .filter_map(|&(class, _, weight)| {
            let members: Vec<u32> =
                (0..targets.len() as u32).filter(|&i| targets[i as usize].class == class).collect();
            let (weight, skew) = match class {
                Class::QueryHot => (weight - (args.mix_cold - DEFAULT_COLD_SHARE), args.mix_zipf),
                Class::QueryCold => (args.mix_cold, args.mix_zipf),
                _ => (weight, 0.0),
            };
            let zipf = (!members.is_empty()).then(|| Zipf::new(members.len(), skew))?;
            Some((weight, members, zipf))
        })
        .collect();
    let total: f64 = classes.iter().map(|c| c.0).sum();
    (0..n)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut pick = &classes[classes.len() - 1];
            for c in &classes {
                if u < c.0 {
                    pick = c;
                    break;
                }
                u -= c.0;
            }
            pick.1[pick.2.sample(rng)]
        })
        .collect()
}

fn get(client: &mut HttpClient, target: &Target) -> bool {
    match client.get(&target.path) {
        Ok(resp) => resp.status == 200 && target.accepts(&resp.body),
        Err(_) => false,
    }
}

/// Open loop: request `j` is due at `start + offset + j·interval` and is
/// timed from then, however late the previous answer made it.
fn open_loop(
    client: &mut HttpClient,
    targets: &[Target],
    seq: &[u32],
    start: Instant,
    offset: Duration,
    interval: Duration,
    records: &mut Vec<Record>,
) {
    for (j, &t) in seq.iter().enumerate() {
        let due = start + offset + interval.mul_f64(j as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = get(client, &targets[t as usize]);
        records.push(Record { target: t, due, sent, done: Instant::now(), ok });
    }
}

/// Closed loop: the next request goes out when the previous one is
/// answered, until `deadline`.
fn closed_loop(
    client: &mut HttpClient,
    targets: &[Target],
    seq: &[u32],
    deadline: Instant,
    records: &mut Vec<Record>,
) {
    let mut j = 0;
    while Instant::now() < deadline {
        let t = seq[j % seq.len()];
        j += 1;
        let sent = Instant::now();
        let ok = get(client, &targets[t as usize]);
        records.push(Record { target: t, due: sent, sent, done: Instant::now(), ok });
    }
}

/// Endpoint and tier counters from `GET /stats`.
#[derive(Default, Clone, Copy)]
struct DaemonStats {
    /// `(requests, micros)` for query, topk, slice, breakdown.
    endpoints: [(u64, u64); 4],
    materialized: u64,
    cached: u64,
    explored: u64,
    swaps: u64,
}

const STAT_ENDPOINTS: [&str; 4] = ["query", "topk", "slice", "breakdown"];

fn daemon_stats(client: &mut HttpClient) -> Result<DaemonStats> {
    let bad = |what: &str| ScubeError::Inconsistent(format!("GET /stats: {what}"));
    let resp = client.get("/stats").map_err(|e| bad(&e.to_string()))?;
    let doc = Json::parse(resp.text().ok_or_else(|| bad("not UTF-8"))?).map_err(|e| bad(&e))?;
    let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    let mut out = DaemonStats::default();
    for (slot, name) in out.endpoints.iter_mut().zip(STAT_ENDPOINTS) {
        let ep = doc.get("endpoints").and_then(|e| e.get(name));
        *slot = (num(ep.and_then(|e| e.get("requests"))), num(ep.and_then(|e| e.get("micros"))));
    }
    let cube = doc.get("cubes").and_then(|c| c.get("main")).ok_or_else(|| bad("no cube"))?;
    let tiers = cube.get("tiers");
    out.materialized = num(tiers.and_then(|t| t.get("materialized")));
    out.cached = num(tiers.and_then(|t| t.get("cached")));
    out.explored = num(tiers.and_then(|t| t.get("explored")));
    out.swaps = num(cube.get("swaps"));
    Ok(out)
}

/// Per-layer values from the `/stats` difference over a timed region.
fn record_daemon_layers(trace: &mut Trace, before: &DaemonStats, after: &DaemonStats) {
    let (mut requests, mut micros) = (0u64, 0u64);
    for (i, name) in STAT_ENDPOINTS.iter().enumerate() {
        let n = after.endpoints[i].0 - before.endpoints[i].0;
        let us = after.endpoints[i].1 - before.endpoints[i].1;
        requests += n;
        micros += us;
        trace.set(
            &format!("daemon.server_us.{name}"),
            if n > 0 { us as f64 / n as f64 } else { 0.0 },
        );
    }
    trace.set("daemon.server_us.mean", micros as f64 / requests.max(1) as f64);
    let (m, c, e) = (
        after.materialized - before.materialized,
        after.cached - before.cached,
        after.explored - before.explored,
    );
    trace.set("cube.serve.materialized", m as f64);
    trace.set("cube.serve.cached", c as f64);
    trace.set("cube.serve.explored", e as f64);
    trace.set("cube.serve.hit_rate", c as f64 / (c + e).max(1) as f64);
}

/// Client-side per-layer values over open-loop records: per-class
/// latency from due time, wire time (client service time minus the
/// daemon's own), generator lateness, and one span pair per request.
fn record_client_layers(trace: &mut Trace, targets: &[Target], records: &[Record]) {
    for &(class, name, _) in &CLASSES {
        let lat: Vec<f64> = records
            .iter()
            .filter(|r| targets[r.target as usize].class == class)
            .map(Record::latency_us)
            .collect();
        let v = if lat.is_empty() { 0.0 } else { stats::median(&lat) };
        trace.set(&format!("daemon.request_us.{name}"), v);
    }
    let service: Vec<f64> = records.iter().map(|r| (r.done - r.sent).as_secs_f64() * 1e6).collect();
    let mean_service = service.iter().sum::<f64>() / service.len().max(1) as f64;
    let server = trace.value("daemon.server_us.mean").unwrap_or(0.0);
    trace.set("daemon.wire_us", mean_service - server);
    let late: Vec<f64> = records.iter().map(|r| (r.sent - r.due).as_secs_f64() * 1e6).collect();
    trace.set("loadgen.late_p99_us", stats::quantile(&stats::sorted(&late), 0.99));
    trace.set("loadgen.sent", records.len() as f64);
    for (i, r) in records.iter().enumerate() {
        let class = CLASSES.iter().find(|c| c.0 == targets[r.target as usize].class);
        let name = format!("request.{}", class.expect("every class is listed").1);
        let root = trace.record(&name, r.due, r.done, None, Some(i as u64));
        trace.record("loadgen.late", r.due, r.sent, Some(root), Some(i as u64));
    }
}

/// In-process replay of the query requests through a fresh engine
/// (`cube.serve.query_us`) and the daemon's renderer (`daemon.render_us`),
/// plus cold-path probes over distinct non-materialized targets: the
/// explorer as a whole (`cube.explore_us`), its tidset intersections
/// (`data.tidset_us`) and its index fold (`segindex.fold_us`). Returns
/// the number of probed values that differ from the rendered bodies'.
fn probe_serving(
    trace: &mut Trace,
    served: &CubeSnapshot,
    targets: &[Target],
    seq: &[u32],
) -> Result<usize> {
    let engine =
        ConcurrentCubeEngine::with_config(served.clone(), DEFAULT_SHARDS, DEFAULT_CACHE_CAPACITY);
    let labels = engine.cube().labels();
    let (mut query_us, mut render_us) = (Vec::new(), Vec::new());
    for &t in seq {
        let target = &targets[t as usize];
        if !matches!(target.class, Class::QueryHot | Class::QueryCold) {
            continue;
        }
        let coords = target.coords.as_ref().expect("query targets carry coordinates");
        let t0 = Instant::now();
        let values = engine.query(coords)?;
        let t1 = Instant::now();
        let body = daemon::cell_json(labels, coords, &values);
        let t2 = Instant::now();
        std::hint::black_box(body);
        query_us.push((t1 - t0).as_secs_f64() * 1e6);
        render_us.push((t2 - t1).as_secs_f64() * 1e6);
    }
    trace.set("cube.serve.query_us", stats::median(&query_us));
    trace.set("daemon.render_us", stats::median(&render_us));

    let vertical = served.vertical();
    let mut explorer = CubeExplorer::from_vertical(vertical.clone())
        .with_atkinson_b(served.atkinson_b())
        .with_measures(served.measures());
    let (mut minority, mut total) =
        (UnitScratch::new(vertical.num_units()), UnitScratch::new(vertical.num_units()));
    let (mut explore_us, mut tidset_us, mut fold_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut bad = 0;
    for target in targets.iter().filter(|t| t.class == Class::QueryCold).take(256) {
        let coords = target.coords.as_ref().expect("query targets carry coordinates");
        let t0 = Instant::now();
        let explored = explorer.values_at(coords)?;
        explore_us.push(t0.elapsed().as_secs_f64() * 1e6);

        let t0 = Instant::now();
        let context = vertical.tidset(&coords.ca);
        let cell = vertical.tidset(&coords.union());
        tidset_us.push(t0.elapsed().as_secs_f64() * 1e6);
        vertical.unit_histogram_into(&context, &mut total);
        vertical.unit_histogram_into(&cell, &mut minority);
        let triples: Vec<(u32, u64, u64)> =
            total.sorted_pairs().into_iter().map(|(u, t)| (u, minority.count_of(u), t)).collect();
        let t0 = Instant::now();
        let counts = UnitCounts::from_triples(triples)?;
        let folded = IndexValues::compute_masked(&counts, served.atkinson_b(), served.measures());
        fold_us.push(t0.elapsed().as_secs_f64() * 1e6);

        let expected = engine.query(coords)?;
        if !same_bits(&explored, &expected) || !same_bits(&folded, &expected) {
            bad += 1;
        }
    }
    if !explore_us.is_empty() {
        trace.set("cube.explore_us", stats::median(&explore_us));
        trace.set("data.tidset_us", stats::median(&tidset_us));
        trace.set("segindex.fold_us", stats::median(&fold_us));
    }
    Ok(bad)
}

/// Stop the daemon: signal shutdown, close the client connections, and
/// wait for its serving threads.
fn stop(
    stopper: scube::daemon::DaemonStopper,
    clients: Vec<HttpClient>,
    server: std::thread::JoinHandle<Result<()>>,
) -> Result<()> {
    stopper.shutdown();
    drop(clients);
    server.join().map_err(|_| ScubeError::Inconsistent("daemon thread panicked".into()))?
}

/// Threads that keep the CPUs out of their idle state while a serving
/// phase runs. On a virtual machine, waking an idle CPU for every request
/// adds 100–400 µs of host-dependent latency to each open-loop request,
/// which would swamp the daemon's own cost. The threads run under
/// `SCHED_IDLE`, so the kernel gives them a CPU only when no measured
/// thread wants it; where that policy is unavailable they do not run.
struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start(n: usize) -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cpus = cpu_pair();
        let threads = (0..n)
            .map(|i| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    if let Some(cpus) = cpus {
                        pin(cpus[i % 2]);
                    }
                    if idle_priority() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("keep-awake thread");
        }
    }
}

/// The first two CPUs this process may run on, or `None` with fewer.
/// `serve-read` pins its daemon to the second and its clients to the
/// first, so every run places the threads the same way (left to the
/// scheduler, placement changed closed-loop throughput by 30% between
/// runs on identical inputs).
#[cfg(target_os = "linux")]
fn cpu_pair() -> Option<[usize; 2]> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable 128-byte buffer (a `cpu_set_t`),
    // and its size is passed alongside; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let mut cpus = (0..1024).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0);
    Some([cpus.next()?, cpus.next()?])
}

#[cfg(not(target_os = "linux"))]
fn cpu_pair() -> Option<[usize; 2]> {
    None
}

/// Restrict the calling thread (and the threads it spawns later) to
/// `cpu`; a refusal leaves it unpinned.
#[cfg(target_os = "linux")]
fn pin(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte `cpu_set_t` with its size passed
    // alongside; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin(_: usize) {}

/// Move the calling thread to the `SCHED_IDLE` policy; false if refused.
#[cfg(target_os = "linux")]
fn idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` is the C library function of this
    // signature; pid 0 names the calling thread, and `param` points to a
    // live, properly laid out `struct sched_param` for the whole call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn idle_priority() -> bool {
    false
}

/// Heap growth over a timed phase, sampled per window by a thread of its
/// own: for each window, the peak live heap above the level at the
/// phase's start, and the live heap above it at the window's end.
///
/// A serving phase's heap is the resident cache plus short-lived request
/// buffers; one request whose buffers happen to overlap another's moves
/// the phase's single peak by megabytes between runs. The median of the
/// per-window peaks is the typical high-water mark, and moves when either
/// the resident part or a request's transient part grows.
struct HeapWindows {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// Per window: its start, peak growth and live growth at its end.
    thread: std::thread::JoinHandle<Vec<(Instant, f64, f64)>>,
}

impl HeapWindows {
    fn start(window: Duration) -> HeapWindows {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let base = alloc::live_bytes() as f64;
        let thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            // At least one window, however short the phase.
            loop {
                let (t, at) = (Instant::now(), alloc::live_bytes() as f64);
                let ((), growth) = alloc::measure(|| std::thread::sleep(window));
                out.push((t, at + growth as f64 - base, alloc::live_bytes() as f64 - base));
                if flag.load(Ordering::Relaxed) {
                    return out;
                }
            }
        });
        HeapWindows { stop, thread }
    }

    /// Stop sampling; returns the median peak of the windows that began
    /// at or after `from` (of every window, in a phase too short to have
    /// one), and the live heap growth at the end, both in bytes above the
    /// level at `start`.
    fn stop(self, from: Instant) -> (f64, f64) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let windows = self.thread.join().expect("heap sampler thread");
        let mut peaks: Vec<f64> = windows.iter().filter(|w| w.0 >= from).map(|w| w.1).collect();
        if peaks.is_empty() {
            peaks = windows.iter().map(|w| w.1).collect();
        }
        (stats::median(&peaks), windows.last().map_or(0.0, |w| w.2))
    }
}

/// Heap sampling windows. `serve-read`'s are short, so each window's peak
/// is a typical overlap of requests rather than the run's rarest one;
/// `update-mix`'s hold several updates, so every window holds a clone of
/// the master.
const READ_HEAP_WINDOW: Duration = Duration::from_millis(50);
const MIX_HEAP_WINDOW: Duration = Duration::from_millis(500);

fn connect(addr: &str) -> Result<HttpClient> {
    HttpClient::connect(addr).map_err(|e| ScubeError::Io { path: Some(addr.into()), source: e })
}

fn count_failures(out: &mut Outcome, records: &[Record], what: &str) {
    let failed = records.iter().filter(|r| !r.ok).count();
    out.attempted += records.len() as u64;
    out.failed += failed as u64;
    if failed > 0 {
        out.gate(format!("{what}: {failed} of {} responses wrong or missing", records.len()));
    }
}

/// The query tail latency (µs from due) per window of the open-loop
/// phase, median over the windows.
fn windowed_tail(targets: &[Target], records: &[Record], span: f64) -> (&'static str, f64) {
    let Some(first) = records.iter().map(|r| r.due).min() else { return ("max", 0.0) };
    let samples: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| matches!(targets[r.target as usize].class, Class::QueryHot | Class::QueryCold))
        .map(|r| ((r.due - first).as_secs_f64(), r.latency_us()))
        .collect();
    let per_window =
        stats::sorted(&samples[..samples.len() / WINDOWS].iter().map(|s| s.1).collect::<Vec<_>>());
    let label = stats::tail(&per_window).0;
    let value = stats::window_median(&samples, span, WINDOWS, |v| stats::tail(&stats::sorted(v)).1);
    (label, value)
}

/// Closed-loop answers per second, per window, median over the windows.
fn windowed_rate(records: &[Record], span: f64) -> f64 {
    let Some(first) = records.iter().map(|r| r.sent).min() else { return 0.0 };
    let samples: Vec<(f64, f64)> =
        records.iter().map(|r| ((r.done - first).as_secs_f64(), 1.0)).collect();
    stats::window_median(&samples, span, WINDOWS, |v| v.len() as f64 / (span / WINDOWS as f64))
}

fn query_latencies_us(targets: &[Target], records: &[Record]) -> Vec<f64> {
    let lat: Vec<f64> = records
        .iter()
        .filter(|r| matches!(targets[r.target as usize].class, Class::QueryHot | Class::QueryCold))
        .map(Record::latency_us)
        .collect();
    stats::sorted(&lat)
}

/// `serve-read`: an open-loop read mix over two connections, then a
/// closed-loop phase on the same two for throughput.
pub fn run_serve_read(args: &RunArgs, trace: &mut Trace) -> Result<Outcome> {
    let setup = set_up(args, trace, false)?;
    let mut out = Outcome::default();
    out.probe_gate(setup.probe_bad);
    let mut rng = Rng::new(args.seed, 1);
    let reference = ConcurrentCubeEngine::new(setup.served.clone());
    let cold_n = if args.smoke { 512 } else { COLD_READ };
    let cold = cold_coords(&setup.served, &mut rng, cold_n);
    let targets = targets(std::slice::from_ref(&reference), &mut rng, cold)?;
    drop(reference);

    let open_s = args.seconds * OPEN_SHARE;
    let per_conn = (READ_RATE * open_s / CONNECTIONS as f64).ceil() as usize;
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / READ_RATE);
    let open_seqs: Vec<Vec<u32>> =
        (0..CONNECTIONS).map(|_| sequence(&targets, args, &mut rng, per_conn)).collect();
    let closed_seqs: Vec<Vec<u32>> =
        (0..CONNECTIONS).map(|_| sequence(&targets, args, &mut rng, 1 << 16)).collect();

    let addr = setup.daemon.local_addr()?.to_string();
    let stopper = setup.daemon.stopper();
    let cpus = cpu_pair();
    let server = std::thread::spawn(move || {
        if let Some(cpus) = cpus {
            pin(cpus[1]);
        }
        setup.daemon.run()
    });
    let mut clients: Vec<HttpClient> =
        (0..CONNECTIONS).map(|_| connect(&addr)).collect::<Result<_>>()?;
    let mut open_records: Vec<Vec<Record>> =
        (0..CONNECTIONS).map(|_| Vec::with_capacity(per_conn)).collect();
    let mut closed_records: Vec<Vec<Record>> =
        (0..CONNECTIONS).map(|_| Vec::with_capacity(1 << 18)).collect();

    let before = daemon_stats(&mut clients[0])?;
    let awake = KeepAwake::start(CONNECTIONS);
    // The heap is sampled from the start of the open loop, and its figure
    // taken over the closed-loop phase, by when the fallback cache has
    // filled and the daemon runs at capacity.
    let heap = HeapWindows::start(READ_HEAP_WINDOW);
    let timed = (|| -> Result<(DaemonStats, f64, Instant)> {
        let start = Instant::now() + Duration::from_millis(5);
        std::thread::scope(|s| {
            for (i, (client, records)) in clients.iter_mut().zip(&mut open_records).enumerate() {
                let (targets, seq) = (&targets, &open_seqs[i]);
                let offset = interval.mul_f64(i as f64 / CONNECTIONS as f64);
                s.spawn(move || {
                    if let Some(cpus) = cpus {
                        pin(cpus[0]);
                    }
                    open_loop(client, targets, seq, start, offset, interval, records)
                });
            }
        });
        let after = daemon_stats(&mut clients[0])?;
        let closed_start = Instant::now();
        let deadline = closed_start + Duration::from_secs_f64(args.seconds - open_s);
        std::thread::scope(|s| {
            for (i, (client, records)) in clients.iter_mut().zip(&mut closed_records).enumerate() {
                let (targets, seq) = (&targets, &closed_seqs[i]);
                s.spawn(move || {
                    if let Some(cpus) = cpus {
                        pin(cpus[0]);
                    }
                    closed_loop(client, targets, seq, deadline, records)
                });
            }
        });
        Ok((after, closed_start.elapsed().as_secs_f64(), closed_start))
    })();
    awake.stop();
    let (after, closed_s, closed_start) = timed?;
    let (peak_heap, resident_heap) = heap.stop(closed_start);
    stop(stopper, clients, server)?;

    let open_all: Vec<Record> = open_records.concat();
    let closed_all: Vec<Record> = closed_records.concat();
    count_failures(&mut out, &open_all, "open-loop reads");
    count_failures(&mut out, &closed_all, "closed-loop reads");

    let lat = query_latencies_us(&targets, &open_all);
    let (tail_label, tail) = windowed_tail(&targets, &open_all, open_s);
    let rps = windowed_rate(&closed_all, closed_s);
    // The timed phase's own heap: the set-up builds' far larger peak is a
    // build figure (measured by `build-e20`) and would hide serving's.
    out.e2e(setup.setup_s, setup.build_s, setup.open_ms, setup.snapshot_bytes, peak_heap);
    out.note("resident_heap_bytes", resident_heap, "bytes");
    out.note("setup_build_peak_heap_bytes", setup.build_peak as f64, "bytes");
    out.note("mix_cold_share", args.mix_cold, "share");
    out.note("mix_zipf", args.mix_zipf, "exponent");
    out.op(stats::quantile(&lat, 0.5) / 1e3, tail / 1e3, tail_label, rps);
    out.note("query_p50_us", stats::quantile(&lat, 0.5), "us");
    out.note(&format!("query_{tail_label}_us"), tail, "us");
    out.note("query_samples", lat.len() as f64, "count");
    out.note("query_rps", rps, "1/s");
    out.note("open_loop_rate", READ_RATE, "1/s");

    if trace.enabled() {
        record_daemon_layers(trace, &before, &after);
        record_client_layers(trace, &targets, &open_all);
        let bad = probe_serving(trace, &setup.served, &targets, &open_seqs[0])?;
        if bad > 0 {
            out.gate(format!("cold-path probes: {bad} values differ from the daemon's"));
        }
    }
    Ok(out)
}

/// One `POST /update` step of the writer's cycle.
struct Step {
    body: String,
    /// Cycle state after the step: 0 = base, `k + 1` = slice `k` appended.
    state: usize,
    rows: u64,
}

/// One timed update: POST sent → 2xx → probe GET showing the new state.
#[derive(Clone, Copy)]
struct UpdateRecord {
    sent: Instant,
    posted: Instant,
    done: Instant,
    ok: bool,
    /// dirty, promoted, demoted, clean cells from the POST response.
    cells: [u64; 4],
}

/// The append/retract batches: slice `k` appends `SLICE_ROWS` seeded rows
/// (existing values and units, copied from the data), and the following
/// retraction removes exactly those rows by id, returning the cube to its
/// base state.
fn update_steps(base: &CubeSnapshot, rng: &mut Rng) -> Vec<(Step, UpdateBatch)> {
    let slice_rows = SLICE_ROWS;
    let rows = base.vertical().transactions();
    let labels = base.cube().labels();
    let n = base.vertical().num_transactions();
    let mut steps = Vec::new();
    for k in 0..SLICES {
        let mut batch = UpdateBatch::new();
        let mut json_rows = Vec::with_capacity(slice_rows);
        for _ in 0..slice_rows {
            let (items, unit) = &rows[rng.below(rows.len())];
            let pairs: Vec<(&str, &str)> =
                items.iter().map(|&i| (labels.attr_of(i), labels.value_of(i))).collect();
            let unit = labels.unit_names[*unit as usize].as_str();
            batch.add_row(&pairs, unit);
            let values: Vec<String> = pairs
                .iter()
                .map(|(a, v)| {
                    format!("[\"{}\",\"{}\"]", daemon::json::escape(a), daemon::json::escape(v))
                })
                .collect();
            json_rows.push(format!(
                "{{\"unit\":\"{}\",\"values\":[{}]}}",
                daemon::json::escape(unit),
                values.join(",")
            ));
        }
        let body = format!("{{\"add\":[{}]}}", json_rows.join(","));
        steps.push((Step { body, state: k + 1, rows: slice_rows as u64 }, batch));
        let tids: Vec<u32> = (n..n + slice_rows as u32).collect();
        let mut retract = UpdateBatch::new();
        for &t in &tids {
            retract.remove_tid(t);
        }
        let list: Vec<String> = tids.iter().map(u32::to_string).collect();
        let body = format!("{{\"remove_tids\":[{}]}}", list.join(","));
        steps.push((Step { body, state: 0, rows: slice_rows as u64 }, retract));
    }
    steps
}

fn post_update(client: &mut HttpClient, step: &Step, probe: &Target) -> UpdateRecord {
    let sent = Instant::now();
    let resp = client.post("/update", step.body.as_bytes());
    let posted = Instant::now();
    let mut cells = [0u64; 4];
    let mut ok = false;
    if let Ok(resp) = resp {
        if let Some(doc) = resp.text().and_then(|t| Json::parse(t).ok()) {
            let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
            for (slot, k) in cells.iter_mut().zip([
                "dirty_cells",
                "promoted_cells",
                "demoted_cells",
                "clean_cells",
            ]) {
                *slot = field(k);
            }
            let moved = field("rows_added") + field("rows_removed");
            ok = resp.status == 200 && moved == step.rows;
        }
    }
    let visible = match client.get(&probe.path) {
        Ok(r) => r.status == 200 && r.body == probe.bodies[step.state].as_bytes(),
        Err(_) => false,
    };
    UpdateRecord { sent, posted, done: Instant::now(), ok: ok && visible, cells }
}

/// `update-mix`: one open-loop reader while a writer posts append/retract
/// batches back to back, each followed by a probe that must see it.
pub fn run_update_mix(args: &RunArgs, trace: &mut Trace) -> Result<Outcome> {
    let setup = set_up(args, trace, true)?;
    let mut out = Outcome::default();
    out.probe_gate(setup.probe_bad);
    let mut rng = Rng::new(args.seed, 2);
    let steps = update_steps(&setup.served, &mut rng);

    // Cycle states: base, then base + slice k. Each append/retract pair
    // must close the cycle, byte for byte, in process.
    let base_bytes = setup.served.to_bytes();
    let mut states = vec![ConcurrentCubeEngine::new(setup.served.clone())];
    for pair in steps.chunks(2) {
        let mut snap = setup.served.clone();
        snap.apply_update_threads(&pair[0].1, build::BUILD_THREADS)?;
        states.push(ConcurrentCubeEngine::new(snap.clone()));
        snap.apply_update_threads(&pair[1].1, build::BUILD_THREADS)?;
        if snap.to_bytes() != base_bytes {
            out.failed += 1;
            out.gate(format!(
                "append/retract of slice {} does not restore the base bytes",
                states.len() - 2
            ));
        }
    }
    drop(base_bytes);
    let cold_n = if args.smoke { 256 } else { COLD_MIX };
    let cold = cold_coords(&setup.served, &mut rng, cold_n);
    let targets = targets(&states, &mut rng, cold)?;
    let probe = {
        let apex = CellCoords::apex();
        let path = cell_path("query", states[0].cube().labels(), &apex);
        let bodies = states
            .iter()
            .map(|e| render(e, Class::QueryHot, &path, Some(&apex)))
            .collect::<Result<Vec<_>>>()?;
        Target { class: Class::QueryHot, path, coords: Some(apex), bodies }
    };
    drop(states);
    let (steps, batches): (Vec<Step>, Vec<UpdateBatch>) = steps.into_iter().unzip();

    let reads = (MIX_READ_RATE * args.seconds).ceil() as usize;
    let read_seq = sequence(&targets, args, &mut rng, reads);
    let read_interval = Duration::from_secs_f64(1.0 / MIX_READ_RATE);

    let addr = setup.daemon.local_addr()?.to_string();
    let stopper = setup.daemon.stopper();
    let server = std::thread::spawn(move || setup.daemon.run());
    let mut reader = connect(&addr)?;
    let mut writer = connect(&addr)?;
    let mut reads_done = Vec::with_capacity(reads);
    let mut writes = Vec::with_capacity(1 << 16);

    let before = daemon_stats(&mut writer)?;
    let awake = KeepAwake::start(CONNECTIONS);
    let heap = HeapWindows::start(MIX_HEAP_WINDOW);
    let phase_start = Instant::now();
    let write_s = {
        let start = Instant::now() + Duration::from_millis(5);
        let deadline = start + Duration::from_secs_f64(args.seconds);
        std::thread::scope(|s| {
            let (targets, seq, records, reader) =
                (&targets, &read_seq, &mut reads_done, &mut reader);
            s.spawn(move || {
                open_loop(reader, targets, seq, start, Duration::ZERO, read_interval, records)
            });
            let (writer, steps, probe, writes) = (&mut writer, &steps, &probe, &mut writes);
            s.spawn(move || {
                let now = Instant::now();
                if start > now {
                    std::thread::sleep(start - now);
                }
                let mut j = 0;
                while Instant::now() < deadline {
                    writes.push(post_update(writer, &steps[j % steps.len()], probe));
                    j += 1;
                }
                start.elapsed().as_secs_f64()
            })
            .join()
            .expect("writer thread")
        })
    };
    let (peak_heap, resident_heap) = heap.stop(phase_start);
    awake.stop();
    let after = daemon_stats(&mut writer)?;
    stop(stopper, vec![reader, writer], server)?;

    count_failures(&mut out, &reads_done, "reads under updates");
    let failed = writes.iter().filter(|r| !r.ok).count();
    out.attempted += writes.len() as u64;
    out.failed += failed as u64;
    if failed > 0 {
        out.gate(format!("updates: {failed} of {} not acknowledged or not visible", writes.len()));
    }

    let visible_ms = stats::sorted(
        &writes.iter().map(|r| (r.done - r.sent).as_secs_f64() * 1e3).collect::<Vec<_>>(),
    );
    let (tail_label, tail) = stats::tail(&visible_ms);
    let rate = writes.len() as f64 / write_s;
    let lat = query_latencies_us(&targets, &reads_done);
    let (qtail_label, qtail) = stats::tail(&lat);
    // The timed phase's own heap: the set-up builds' far larger peak is a
    // build figure (measured by `build-e20`) and would hide the clone of
    // the master each update makes.
    out.e2e(setup.setup_s, setup.build_s, setup.open_ms, setup.snapshot_bytes, peak_heap);
    out.note("resident_heap_bytes", resident_heap, "bytes");
    out.note("setup_build_peak_heap_bytes", setup.build_peak as f64, "bytes");
    out.note("mix_cold_share", args.mix_cold, "share");
    out.note("mix_zipf", args.mix_zipf, "exponent");
    out.op(stats::quantile(&visible_ms, 0.5), tail, tail_label, rate);
    out.note("update_visible_p50_ms", stats::quantile(&visible_ms, 0.5), "ms");
    out.note(&format!("update_visible_{tail_label}_ms"), tail, "ms");
    out.note("update_samples", visible_ms.len() as f64, "count");
    out.note("updates_per_s", rate, "1/s");
    out.note("query_p50_us", stats::quantile(&lat, 0.5), "us");
    out.note(&format!("query_{qtail_label}_us"), qtail, "us");

    if trace.enabled() {
        record_daemon_layers(trace, &before, &after);
        record_client_layers(trace, &targets, &reads_done);
        trace.set("daemon.swaps", (after.swaps - before.swaps) as f64);
        let post_ms: Vec<f64> =
            writes.iter().map(|r| (r.posted - r.sent).as_secs_f64() * 1e3).collect();
        trace.set("daemon.update_request_ms", stats::median(&post_ms));
        for (i, name) in ["dirty", "promoted", "demoted", "clean"].iter().enumerate() {
            let sum: u64 = writes.iter().map(|r| r.cells[i]).sum();
            trace
                .set(&format!("cube.update.{name}_cells"), sum as f64 / writes.len().max(1) as f64);
        }
        for (i, r) in writes.iter().enumerate() {
            let request = Some((reads_done.len() + i) as u64);
            let root = trace.record("update.visible", r.sent, r.done, None, request);
            trace.record("update.post", r.sent, r.posted, Some(root), request);
            trace.record("update.probe", r.posted, r.done, Some(root), request);
        }
        probe_updates(trace, &setup.served, &batches)?;
    }
    Ok(out)
}

/// The daemon's per-batch update work, replayed in process on a private
/// master: `apply_update_threads`, the `CubeSnapshot::clone` the daemon
/// hands its fresh engine, and `ConcurrentCubeEngine::with_config`.
fn probe_updates(trace: &mut Trace, base: &CubeSnapshot, batches: &[UpdateBatch]) -> Result<()> {
    let mut master = base.clone();
    let (mut apply, mut clone, mut engine) = (Vec::new(), Vec::new(), Vec::new());
    for batch in batches {
        let t0 = Instant::now();
        master.apply_update_threads(batch, build::BUILD_THREADS)?;
        let t1 = Instant::now();
        let copy = master.clone();
        let t2 = Instant::now();
        let fresh = ConcurrentCubeEngine::with_config(copy, DEFAULT_SHARDS, DEFAULT_CACHE_CAPACITY);
        let t3 = Instant::now();
        drop(fresh);
        apply.push((t1 - t0).as_secs_f64() * 1e3);
        clone.push((t2 - t1).as_secs_f64() * 1e3);
        engine.push((t3 - t2).as_secs_f64() * 1e3);
    }
    trace.set("cube.update.apply_ms", stats::median(&apply));
    trace.set("cube.snapshot.clone_ms", stats::median(&clone));
    trace.set("cube.serve.engine_new_ms", stats::median(&engine));
    Ok(())
}
