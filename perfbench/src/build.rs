//! The build path — CSV → chunked build → snapshot → atomic save →
//! `open_mmap` — shared by every workload's set-up, and the `build-e20`
//! workload that times it in a closed loop.

use std::path::Path;
use std::time::Instant;

use scube::prelude::*;
use scube_bench::alloc;
use scube_bitmap::Posting;
use scube_common::FxHashMap;
use scube_data::{ItemId, UnitScratch, VerticalDb, DEFAULT_CHUNK_ROWS};
use scube_segindex::IndexValues;

use crate::stats::{self, Rng};
use crate::trace::Trace;
use crate::{Outcome, RunArgs};

/// Worker threads for mining and cell evaluation (the host has 2 CPUs).
pub const BUILD_THREADS: usize = 2;

/// The cube configuration every workload builds with.
pub fn builder(rows: usize) -> CubeBuilder {
    CubeBuilder::new()
        .min_support((rows as u64 / 200).max(1))
        .materialize(Materialize::ClosedOnly)
        .parallel(true)
        .threads(BUILD_THREADS)
}

/// Write the seeded final-table CSV for `companies` companies.
pub fn write_csv(companies: usize, seed: u64, path: &Path) -> Result<usize> {
    let config = scube_datagen::BoardsConfig::italy(companies).seed(seed);
    Ok(scube_datagen::write_final_table_csv(config, path)?.n_rows)
}

/// One finished build.
pub struct Built {
    /// The in-memory snapshot that was saved.
    pub heap: CubeSnapshot,
    /// The saved file, opened with `open_mmap`.
    pub opened: CubeSnapshot,
    /// CSV → saved → opened, wall seconds.
    pub seconds: f64,
    /// Peak heap growth during the build.
    pub peak_heap: usize,
}

/// Build `csv` into a snapshot saved at `snap` and reopen it mapped.
///
/// Untraced, this calls `run_final_table_csv_chunked` as one unit. Traced,
/// it calls the two public functions that compose it, so the stage spans
/// `data.ingest_s`, `cube.builder_s`, `cube.store_s`, `cube.save_s` and
/// `cube.open_s` tile the `build` span; its self time is the unattributed
/// remainder.
pub fn build_once(csv: &Path, snap: &Path, rows: usize, trace: &mut Trace) -> Result<Built> {
    let cube_builder = builder(rows);
    let spec = scube_datagen::final_table_spec();
    let start = Instant::now();
    let mut stages: Vec<(&str, Instant, Instant)> = Vec::new();
    let traced = trace.enabled();
    let (built, peak_heap) = alloc::measure(|| -> Result<(CubeSnapshot, CubeSnapshot)> {
        let mut stage = |name: &'static str, t0: Instant| {
            if traced {
                stages.push((name, t0, Instant::now()));
            }
        };
        let (cube, vertical) = if traced {
            let t0 = Instant::now();
            let (vertical, meta, _) =
                spec.load_csv_chunked::<scube_bitmap::EwahBitmap>(csv, DEFAULT_CHUNK_ROWS)?;
            stage("data.ingest_s", t0);
            let t0 = Instant::now();
            let cube = cube_builder.build_streaming(&meta, &vertical)?;
            stage("cube.builder_s", t0);
            (cube, vertical)
        } else {
            let ChunkedBuild { cube, vertical, .. } =
                run_final_table_csv_chunked(csv, &spec, &cube_builder, DEFAULT_CHUNK_ROWS)?;
            (cube, vertical)
        };
        let t0 = Instant::now();
        let config = cube_builder.config();
        let heap = CubeSnapshot::new(cube, vertical)?.with_build_config(
            config.materialize,
            config.atkinson_b,
            config.measures,
        );
        stage("cube.store_s", t0);
        let t0 = Instant::now();
        heap.save(snap)?;
        stage("cube.save_s", t0);
        let t0 = Instant::now();
        let opened = CubeSnapshot::open_mmap(snap)?;
        stage("cube.open_s", t0);
        Ok((heap, opened))
    });
    let end = Instant::now();
    let (heap, opened) = built?;
    if traced {
        let request = trace.durations_s("build").len() as u64 + 1;
        let root = trace.record("build", start, end, None, Some(request));
        for (name, t0, t1) in stages {
            trace.record(name, t0, t1, Some(root), Some(request));
        }
    }
    Ok(Built { heap, opened, seconds: (end - start).as_secs_f64(), peak_heap })
}

/// Median open time of a saved snapshot, over `reps` `open_mmap` calls.
pub fn open_ms(snap: &Path, reps: usize) -> Result<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let opened: CubeSnapshot = CubeSnapshot::open_mmap(snap)?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(opened);
    }
    Ok(stats::median(&times))
}

/// Bit-level equality of two cell values (`==` on `f64` would equate
/// `0.0` with `-0.0`).
pub fn same_bits(a: &IndexValues, b: &IndexValues) -> bool {
    (a.minority, a.total, a.num_units) == (b.minority, b.total, b.num_units)
        && scube_segindex::SegIndex::ALL
            .iter()
            .all(|&ix| a.get(ix).map(f64::to_bits) == b.get(ix).map(f64::to_bits))
}

/// Gate: a seeded sample of `n` stored cells equals, bit for bit, a direct
/// `IndexValues::compute_masked` over per-unit histograms counted from the
/// raw postings. Returns the number of mismatching cells.
pub fn check_cell_sample(snapshot: &CubeSnapshot, rng: &mut Rng, n: usize) -> Result<usize> {
    let mut cells: Vec<&CellCoords> = snapshot.cube().cells().map(|(c, _)| c).collect();
    cells.sort();
    rng.shuffle(&mut cells);
    let vertical = snapshot.vertical();
    let mut bad = 0;
    for coords in cells.into_iter().take(n) {
        let context = vertical.unit_histogram(&vertical.tidset(&coords.ca));
        let minority = vertical.unit_histogram(&vertical.tidset(&coords.union()));
        let counts = UnitCounts::from_triples(
            (0..context.len())
                .filter(|&u| context[u] > 0)
                .map(|u| (u as u32, minority[u], context[u])),
        )?;
        let direct =
            IndexValues::compute_masked(&counts, snapshot.atkinson_b(), snapshot.measures());
        let stored = snapshot.cube().get(coords).expect("sampled from the cube");
        if !same_bits(stored, &direct) {
            bad += 1;
        }
    }
    Ok(bad)
}

/// Re-run, from their public functions, the three sub-steps inside
/// `CubeBuilder::build_streaming` — mining, per-unit histograms, and the
/// index fold — serially timed per step, and record them with their work
/// counts. The folded values must equal the built cube's cells bit for
/// bit; returns the number that do not.
pub fn probe_builder(snapshot: &CubeSnapshot, trace: &mut Trace) -> Result<usize> {
    let vertical: &VerticalDb = snapshot.vertical();
    let cube = snapshot.cube();
    let labels = cube.labels();
    let min_support = cube.min_support();

    let t0 = Instant::now();
    let mined = scube_fpm::eclat::mine_vertical_with_tidsets_parallel(
        vertical,
        min_support,
        BUILD_THREADS,
    )?;
    let mine_s = t0.elapsed().as_secs_f64();

    let splits: Vec<CellCoords> = mined
        .iter()
        .map(|(set, _)| CellCoords::split_sorted(&set.items, |it| labels.is_sa_item(it)))
        .collect();
    let kept = scube_fpm::closed::closed_positions(mined.len(), |i| {
        (mined[i].0.items.as_slice(), mined[i].0.support)
    });
    let mut context_tids: FxHashMap<&[ItemId], _> = FxHashMap::default();
    for ((set, tids), coords) in mined.iter().zip(&splits) {
        if coords.sa.is_empty() && !coords.ca.is_empty() {
            context_tids.insert(set.items.as_slice(), tids);
        }
    }

    let n_units = vertical.num_units();
    let mut scratch = UnitScratch::new(n_units);
    let (mut hist_s, mut fold_s) = (0.0, 0.0);
    let mut hist_tids = 0u64;
    let mut contexts: FxHashMap<&[ItemId], Vec<(u32, u64)>> = FxHashMap::default();
    let mut population = UnitScratch::new(n_units);
    for &u in vertical.units() {
        population.bump(u);
    }
    contexts.insert(&[], population.sorted_pairs());
    for &i in &kept {
        let ca = splits[i].ca.as_slice();
        if contexts.contains_key(ca) {
            continue;
        }
        let tids = context_tids[ca];
        let t0 = Instant::now();
        vertical.unit_histogram_into(tids, &mut scratch);
        let pairs = scratch.sorted_pairs();
        hist_s += t0.elapsed().as_secs_f64();
        hist_tids += tids.cardinality();
        contexts.insert(ca, pairs);
    }

    let (mut fold_units, mut fold_classes, mut bad) = (0u64, 0u64, 0usize);
    let mut triples: Vec<(u32, u64, u64)> = Vec::new();
    let mut classes: Vec<(u64, u64)> = Vec::new();
    for &i in &kept {
        let (coords, tids) = (&splits[i], &mined[i].1);
        let t0 = Instant::now();
        vertical.unit_histogram_into(tids, &mut scratch);
        hist_s += t0.elapsed().as_secs_f64();
        hist_tids += tids.cardinality();
        triples.clear();
        triples.extend(
            contexts[coords.ca.as_slice()].iter().map(|&(u, t)| (u, scratch.count_of(u), t)),
        );
        let t0 = Instant::now();
        let counts = UnitCounts::from_triples(triples.iter().copied())?;
        let values =
            IndexValues::compute_masked(&counts, snapshot.atkinson_b(), snapshot.measures());
        fold_s += t0.elapsed().as_secs_f64();
        fold_units += counts.num_units() as u64;
        classes.clear();
        classes.extend(triples.iter().map(|&(_, m, t)| (m, t)));
        classes.sort_unstable();
        classes.dedup();
        fold_classes += classes.len() as u64;
        if cube.get(coords).is_none_or(|stored| !same_bits(stored, &values)) {
            bad += 1;
        }
    }

    trace.set("fpm.mine_s", mine_s);
    trace.set("data.hist_s", hist_s);
    trace.set("segindex.fold_s", fold_s);
    trace.set("build.probe_sum_s", mine_s + hist_s + fold_s);
    trace.set("data.rows", f64::from(vertical.num_transactions()));
    trace.set("data.items", vertical.num_items() as f64);
    trace.set("fpm.itemsets", mined.len() as f64);
    trace.set("cube.cells", cube.len() as f64);
    trace.set("cube.contexts", (contexts.len() - 1) as f64);
    trace.set("data.hist_tids", hist_tids as f64);
    trace.set("segindex.fold_units", fold_units as f64);
    trace.set("segindex.fold_classes", fold_classes as f64);
    trace.set("segindex.units_per_class", fold_units as f64 / fold_classes.max(1) as f64);
    Ok(bad)
}

/// Record the stage spans of the median build — the one
/// [`stats::lower_median`] picks, as `build_s` does — as per-layer values,
/// with its unattributed remainder (the `build` span's self time), so the
/// stages plus `unattributed_s` add up to `build.span_s` and `build_s`
/// exactly.
pub fn record_median_build(trace: &mut Trace) {
    let builds = trace.durations_s("build");
    if builds.is_empty() {
        return;
    }
    let median = stats::lower_median(&builds);
    let pick = builds.iter().position(|&b| b == median).expect("a sample");
    let mut stage_sum = 0.0;
    for name in STAGES {
        let v = trace.durations_s(name)[pick];
        stage_sum += v;
        trace.set(name, v);
    }
    trace.set("build.span_s", builds[pick]);
    trace.set("unattributed_s", builds[pick] - stage_sum);
}

/// The spans that tile one build, in pipeline order.
const STAGES: [&str; 5] =
    ["data.ingest_s", "cube.builder_s", "cube.store_s", "cube.save_s", "cube.open_s"];

/// Companies in the `build-e20` input: ~502k rows, ~180k units.
const E20_COMPANIES: usize = 180_000;
/// Companies in every workload's `--smoke` input.
pub const SMOKE_COMPANIES: usize = 2_000;
/// Set-up repeats; `setup_s` (and a serving workload's `build_s`) is their
/// median.
pub const SETUP_REPEATS: usize = 3;
/// Cells checked against a direct recomputation after every build.
const SAMPLE_CELLS: usize = 64;

/// `build-e20`: one closed-loop build after another for `--seconds`.
pub fn run_build_e20(args: &RunArgs, trace: &mut Trace) -> Result<Outcome> {
    let companies = if args.smoke { SMOKE_COMPANIES } else { E20_COMPANIES };
    let csv = args.work.join("e20.csv");
    let snap = args.work.join("e20.scube");

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rows = 0;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        rows = write_csv(companies, args.seed, &csv)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed, 3);
    let mut times = Vec::new();
    let mut peaks = Vec::new();
    let mut first_hash = None;
    let mut last = None;
    // Timed builds until they add up to `--seconds`.
    while times.iter().sum::<f64>() < args.seconds {
        out.attempted += 1;
        let built = build_once(&csv, &snap, rows, trace)?;
        times.push(built.seconds);
        peaks.push(built.peak_heap as f64);
        // Gates, outside the timed call: the saved bytes repeat exactly,
        // and sampled cells match a direct recomputation.
        let hash = stats::file_hash(&snap).map_err(|e| io_err(&snap, e))?;
        let same = *first_hash.get_or_insert(hash) == hash;
        let bad = check_cell_sample(&built.opened, &mut rng, SAMPLE_CELLS)?;
        if !same || bad > 0 {
            out.failed += 1;
            out.gate(format!(
                "build {}: bytes repeat {same}, {bad} sampled cells differ",
                out.attempted
            ));
        }
        last = Some(built);
    }
    let built = last.expect("at least one build");
    let snapshot_bytes = std::fs::metadata(&snap).map_err(|e| io_err(&snap, e))?.len() as f64;
    let open = open_ms(&snap, 51)?;

    if trace.enabled() {
        record_median_build(trace);
        out.probe_gate(probe_builder(&built.heap, trace)?);
    }

    let sorted = stats::sorted(&times);
    // The lower-middle build, so it is the build the traced stages tile.
    let build_s = stats::lower_median(&times);
    let (tail_label, tail) = stats::tail(&sorted);
    out.e2e(
        stats::median(&setups),
        build_s,
        open,
        snapshot_bytes,
        peaks.iter().copied().fold(0.0, f64::max),
    );
    out.op(build_s * 1e3, tail * 1e3, tail_label, rows as f64 / build_s);
    out.note("rows", rows as f64, "count");
    out.note("units", f64::from(built.heap.cube().num_units()), "count");
    out.note("cells", built.heap.cube().len() as f64, "count");
    out.note("builds", times.len() as f64, "count");
    for (i, t) in times.iter().enumerate() {
        out.note(&format!("build_s.{i}"), *t, "s");
    }
    Ok(out)
}

pub fn io_err(path: &Path, source: std::io::Error) -> ScubeError {
    ScubeError::Io { path: Some(path.display().to_string()), source }
}
