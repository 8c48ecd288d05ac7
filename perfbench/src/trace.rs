//! In-memory spans and per-layer metrics for traced runs.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! the crates' public functions and the daemon's endpoints: nothing inside
//! the program is instrumented. They stay in memory and are written out
//! once, when the run ends. A span's *self time* is its duration minus the
//! part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// Spans of one request (or one build, one update cycle) share this.
    pub request: Option<u64>,
}

/// Per-name aggregate of a run's spans.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A run's trace: spans plus named per-layer values. A disabled trace
/// records nothing, so untraced runs pay nothing for it.
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    values: BTreeMap<String, f64>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace { on, epoch: Instant::now(), spans: Vec::new(), values: BTreeMap::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, name: name.to_string(), start_ns, end_ns, parent, request });
        id
    }

    /// Set a per-layer value (ignored when disabled).
    pub fn set(&mut self, name: &str, value: f64) {
        if self.on {
            self.values.insert(name.to_string(), value);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&s.id)
                .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
                .unwrap_or(0);
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered;
        }
        out
    }

    /// The whole trace as JSON: every span, the per-name self-time table,
    /// and the per-layer values.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_time\": {");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        out.push_str("}, \"values\": {");
        for (i, (name, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", json_num(*v));
        }
        out.push_str("}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{sep}[{}, \"{}\", {}, {}, {}, {}]",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        out.push_str("\n]}");
        out
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A finite JSON number with every digit (`null` for NaN/∞).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Trace::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.record("build", at(0), at(100), None, Some(1));
        t.record("a", at(10), at(40), Some(root), Some(1));
        t.record("b", at(30), at(60), Some(root), Some(1));
        let totals = t.totals();
        let build = totals["build"];
        assert_eq!(build.total_ns, 100_000_000);
        assert_eq!(build.self_ns, 50_000_000, "children cover 10..60");
        assert_eq!(totals["a"].self_ns, 30_000_000);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, None), 0);
        t.set("v", 1.0);
        assert!(t.totals().is_empty());
        assert!(t.value("v").is_none());
    }
}
