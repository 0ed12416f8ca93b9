//! Spans recorded by the benchmark's own code around each call into a
//! layer. Kept in memory while the workload runs and written out as JSON
//! lines when it ends; a traced run is a separate run, so none of this is
//! on the path of an end-to-end metric.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One timed interval. `parent` is the span that was open when this one
/// started; `op` is shared by all spans of one join, wave or driver call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a span list.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span log on one thread's clock.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans close innermost first: the recorder is single-threaded"
        );
        self.spans[id as usize].end_ns = self.at(Instant::now());
    }

    /// Records a finished interval as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent: self.open.last().copied(),
            op,
        };
        self.spans.push(span);
    }

    /// Times `f` as a leaf span and passes its result through.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(name, op, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (an id or null) and `op`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (one
/// thread, one clock), so the covered part is the sum of their durations,
/// clipped to the parent in case a clock read straddled a boundary.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Shares of the root span (`timed`) taken by groups of spans, picked by
/// name prefix (`settle.` is every settle span, `join` only the joins).
pub struct Shares {
    totals: BTreeMap<&'static str, NameTotals>,
    root_ns: f64,
}

impl Shares {
    /// # Panics
    /// If `spans` holds no `timed` span: every traced pass opens one.
    pub fn of(spans: &[Span]) -> Shares {
        let totals = totals_by_name(spans);
        let root_ns = totals["timed"].total_ns as f64;
        Shares { totals, root_ns }
    }

    fn sum(&self, prefix: &str, pick: fn(&NameTotals) -> u64) -> f64 {
        let picked: u64 = self
            .totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| pick(t))
            .sum();
        picked as f64 / self.root_ns
    }

    /// Share of the timed region inside the named spans.
    pub fn total(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.total_ns)
    }

    /// Share of the timed region inside the named spans but outside
    /// their children.
    pub fn own(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.self_ns)
    }

    /// Mean duration in nanoseconds of the spans called `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
    }
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["a"].total_ns, 30);
        // Self times of a tree sum to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn a_child_straddling_its_parent_is_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut rec = Recorder::default();
        let root = rec.open("root", 1);
        rec.time("leaf", 1, || std::hint::black_box(3 + 4));
        let inner = rec.open("inner", 2);
        rec.close(inner);
        rec.close(root);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(root));
        assert!(s[0].end_ns >= s[2].end_ns);
    }
}
