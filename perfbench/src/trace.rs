//! In-memory spans recorded by the benchmark around every call it makes
//! into a layer's public API, plus the accounting over them: per-layer self
//! time and how much of a phase the layer spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one served query (0 otherwise).
    pub request: u64,
}

/// Span sink. A disabled tracer records nothing, so untraced runs pay only
/// a branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin at which `t` happened.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a finished interval; returns its id (or `None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Start a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = self.now();
        self.record(name, now, now, parent, 0)
    }

    /// End a span started with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Run `f` inside a span named `name`; returns its result and wall time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.at(start), self.at(end));
        self.record(name, s, e, parent, 0);
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

fn children_of(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    children
}

/// Self time per span name: each span's duration minus the part of it that
/// its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let mut ivs: Vec<(f64, f64)> = children[id]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let own = (s.end - s.start).max(0.0) - covered(&mut ivs, s.start, s.end);
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

/// How much of span `root` its direct children cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    pub wall_s: f64,
    pub covered_s: f64,
}

/// Coverage a phase needs before its unattributed time stops being
/// reported as a finding.
pub const MIN_COVERAGE: f64 = 0.95;

impl Coverage {
    pub fn of(spans: &[Span], root: SpanId) -> Self {
        let r = &spans[root];
        let mut ivs: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start, s.end))
            .collect();
        Self {
            wall_s: r.end - r.start,
            covered_s: covered(&mut ivs, r.start, r.end),
        }
    }

    pub fn fraction(&self) -> f64 {
        if self.wall_s <= 0.0 {
            1.0
        } else {
            self.covered_s / self.wall_s
        }
    }

    pub fn unattributed_s(&self) -> f64 {
        (self.wall_s - self.covered_s).max(0.0)
    }

    /// True when the layer spans cover less than [`MIN_COVERAGE`].
    pub fn short(&self) -> bool {
        self.fraction() < MIN_COVERAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut ivs = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5), (9.0, 12.0)];
        assert!((covered(&mut ivs, 0.0, 10.0) - 5.0).abs() < 1e-12);
        assert_eq!(covered(&mut [], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,10] with children [1,4] and [3,6] (overlapping) and a
        // grandchild [1,2] inside the first child
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 1.0, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st["root"] - 5.0).abs() < 1e-12, "{st:?}");
        assert!((st["a"] - 2.0).abs() < 1e-12);
        assert!((st["b"] - 3.0).abs() < 1e-12);
        assert!((st["c"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_times_sum_per_name_and_clip_children() {
        // a child running past its parent only removes the overlapping part
        let spans = vec![
            span("run", 0.0, 2.0, None),
            span("run", 2.0, 3.0, None),
            span("io", 1.5, 2.5, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st["run"] - 2.5).abs() < 1e-12, "{st:?}");
        assert!((st["io"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_flags_phases_below_95_percent() {
        let full = vec![
            span("measure", 0.0, 10.0, None),
            span("run", 0.0, 6.0, Some(0)),
            span("run", 5.0, 9.6, Some(0)),
            // a grandchild outside its parent's siblings does not count
            span("x", 9.7, 9.9, Some(1)),
        ];
        let c = Coverage::of(&full, 0);
        assert!((c.fraction() - 0.96).abs() < 1e-12);
        assert!(!c.short());
        assert!((c.unattributed_s() - 0.4).abs() < 1e-9);

        let gappy = vec![
            span("measure", 0.0, 10.0, None),
            span("run", 0.0, 9.4, Some(0)),
        ];
        let c = Coverage::of(&gappy, 0);
        assert!(c.short());
        assert!((c.unattributed_s() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, wall) = t.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert!(t.record("y", 0.0, 1.0, None, 0).is_none());
        assert!(t.spans().is_empty());
    }
}
