//! Spans recorded by the benchmark around calls into each layer.
//!
//! Every span is taken from outside the program: the benchmark times a
//! call into a layer's public function. Spans stay in memory during the
//! run and are written once at the end. A span's *self time* is its
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within one [`Tracer`]; 1-based.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Operations the span covers (kernel probes are timed in batches,
    /// because a clock read costs about as much as one probe).
    pub work: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        work: u32,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            work,
        });
        id
    }

    /// Times `f` as a span covering `work` operations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        work: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, start, end, work);
        out
    }

    /// Opens a span that [`Tracer::close`] finishes; use for parents
    /// whose children are recorded while they run.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, now, now, 1)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Appends another thread's spans, keeping ids unique.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Operations those spans cover.
    pub work: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus children, floored at zero).
    pub self_ns: u64,
    /// Nanoseconds by which children overran their parents. Children
    /// replayed beside their parent (not nested in it) can overrun; this
    /// is the error of the decomposition.
    pub overrun_ns: u64,
}

impl NameTotals {
    /// Mean duration per covered operation.
    pub fn mean_ns(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.work as f64
        }
    }
}

/// Per-name totals with self times.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.dur();
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let children = child_ns[s.id as usize];
        t.spans += 1;
        t.work += s.work as u64;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(children);
        t.overrun_ns += children.saturating_sub(s.dur());
    }
    out
}

/// Share of root-span time the self times fail to account for: 0 when
/// every child fits inside its parent.
pub fn self_gap_share(spans: &[Span], totals: &BTreeMap<&'static str, NameTotals>) -> f64 {
    let roots: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum();
    let overrun: u64 = totals.values().map(|t| t.overrun_ns).sum();
    if roots == 0 {
        0.0
    } else {
        overrun as f64 / roots as f64
    }
}

/// Most plain (childless root) client-op spans written to the file; the
/// span trees of sampled ops and every lane span are always written.
const MAX_PLAIN_SPANS: usize = 20_000;

/// Writes `header` fields, the per-name summary and the spans as one JSON
/// document.
pub fn write_file(
    path: &std::path::Path,
    header: &[(String, String)],
    spans: &[Span],
    totals: &BTreeMap<&'static str, NameTotals>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut has_child = vec![false; spans.len() + 1];
    for s in spans {
        has_child[s.parent as usize] = true;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{")?;
    for (k, v) in header {
        writeln!(w, "  {k:?}: {v},")?;
    }
    writeln!(w, "  \"summary\": {{")?;
    for (i, (name, t)) in totals.iter().enumerate() {
        let comma = if i + 1 < totals.len() { "," } else { "" };
        writeln!(
            w,
            "    {name:?}: {{\"spans\": {}, \"work\": {}, \"total_ns\": {}, \"self_ns\": {}, \"mean_ns\": {:.1}}}{comma}",
            t.spans,
            t.work,
            t.total_ns,
            t.self_ns,
            t.mean_ns()
        )?;
    }
    writeln!(w, "  }},")?;
    writeln!(w, "  \"spans\": [")?;
    let mut plain = 0usize;
    let mut first = true;
    for s in spans {
        if s.parent == 0 && !has_child[s.id as usize] {
            plain += 1;
            if plain > MAX_PLAIN_SPANS {
                continue;
            }
        }
        let sep = if first { "" } else { ",\n" };
        first = false;
        write!(
            w,
            "{sep}    {{\"id\": {}, \"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"work\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.work
        )?;
    }
    writeln!(w, "\n  ],")?;
    writeln!(
        w,
        "  \"plain_spans_omitted\": {}",
        plain.saturating_sub(MAX_PLAIN_SPANS)
    )?;
    writeln!(w, "}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("a.root", 0, 0, 100, 1);
        t.record("b.child", root, 10, 40, 1);
        t.record("b.child", root, 50, 70, 1);
        let mut other = Tracer::new(Instant::now());
        let r2 = other.record("a.root", 0, 0, 10, 1);
        other.record("b.child", r2, 0, 25, 1); // replayed child overruns
        t.absorb(other);
        let totals = summarize(t.spans());
        assert_eq!(totals["a.root"].total_ns, 110);
        assert_eq!(totals["a.root"].self_ns, 50);
        assert_eq!(totals["a.root"].overrun_ns, 15);
        assert_eq!(totals["b.child"].self_ns, 75);
        let gap = self_gap_share(t.spans(), &totals);
        assert!((gap - 15.0 / 110.0).abs() < 1e-12);
        // Self times plus overrun account for the roots exactly.
        let selfs: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(selfs - totals["a.root"].overrun_ns, 110);
    }
}
