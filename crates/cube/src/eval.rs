//! Cell evaluation shared by build and update: the histogram routine, the
//! one evaluator every cell value comes from, and the scoped worker fan-out
//! both passes run on.
//!
//! The builder, dirty-cell re-evaluation, promotion, and the apex all fold
//! through [`values_from_hists`], so a cell's floats depend only on its two
//! integer histograms — never on which path computed them. That is what
//! keeps an updated snapshot byte-identical to a rebuilt one.

use std::sync::Mutex;

use scube_bitmap::Posting;
use scube_common::Result;
use scube_data::{UnitScratch, VerticalDb};
use scube_segindex::{IndexValues, MeasureSet, UnitCounts};

/// Ascending `(unit, count)` pairs over the populated units of a tidset.
pub(crate) type Hist = Vec<(u32, u64)>;

/// The per-unit histogram of `tids` as ascending `(unit, count)` pairs,
/// filled through the caller's reusable `scratch`.
pub(crate) fn histogram<P: Posting>(
    vertical: &VerticalDb<P>,
    tids: &P,
    scratch: &mut UnitScratch,
) -> Hist {
    vertical.unit_histogram_into(tids, scratch);
    scratch.sorted_pairs()
}

/// Index values of a cell from its context (population) histogram and its
/// minority histogram: triples over the context's populated units in
/// ascending order, minority counts merged in (absent unit ⇒ 0). A `⋆`-SA
/// cell — the apex included — passes its context as its own minority.
pub(crate) fn values_from_hists(
    context: &[(u32, u64)],
    minority: &[(u32, u64)],
    atkinson_b: f64,
    measures: MeasureSet,
) -> Result<IndexValues> {
    let mut mi = minority.iter().peekable();
    let counts = UnitCounts::from_triples(context.iter().map(|&(u, t)| {
        let m = match mi.peek() {
            Some(&&(mu, mc)) if mu == u => {
                mi.next();
                mc
            }
            _ => 0,
        };
        (u, m, t)
    }))?;
    Ok(IndexValues::compute_masked(&counts, atkinson_b, measures))
}

/// Map `f` over `items` on up to `threads` scoped workers, each with its
/// own [`UnitScratch`] over `n_units` units; results come back in input
/// order, so the parallel pass is bit-identical to the serial one. Runs
/// serially on one worker or when there are fewer than `min_parallel`
/// items. Items move into their worker, so an owned item (a cell's tidset)
/// is freed as soon as `f` has consumed it.
///
/// Workers pull items one at a time off a shared queue rather than taking
/// fixed slices: cell costs are very uneven (a fold over the `⋆` context
/// visits every unit, a narrow context a handful), and miner order
/// clusters the expensive cells, so fixed slices leave one worker idle.
pub(crate) fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    min_parallel: usize,
    n_units: u32,
    f: impl Fn(T, &mut UnitScratch) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let n = items.len();
    if threads <= 1 || n < min_parallel {
        let mut scratch = UnitScratch::new(n_units);
        return items.into_iter().map(|item| f(item, &mut scratch)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let done: Vec<Vec<(usize, Result<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = UnitScratch::new(n_units);
                    let mut out = Vec::new();
                    loop {
                        // The guard drops at the end of this statement, so
                        // `f` never runs under the lock.
                        let next = queue.lock().expect("the queue lock is never poisoned").next();
                        let Some((i, item)) = next else { break };
                        out.push((i, f(item, &mut scratch)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut slots: Vec<Option<Result<R>>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item was mapped")).collect()
}
