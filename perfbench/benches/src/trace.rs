//! In-memory spans for the traced run.
//!
//! Each thread (or campaign shard) owns one [`Trace`] buffer; nothing is
//! shared while the run is measured. A span records its name, start, end
//! and the span that was open around it, all on one monotonic origin, and
//! buffers are merged and written out only after the run has ended.
//! A disabled buffer records nothing, so the untraced passes run the same
//! code with every `enter`/`exit` reduced to one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer owned by one thread of execution.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Trace {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A disabled sibling buffer on the same origin (for a worker thread).
    pub fn child(&self) -> Trace {
        Trace::new(self.origin, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span closed before merge");
        self.spans
    }
}

/// Spans of one pass, gathered from every buffer that recorded them.
#[derive(Default)]
pub struct Spans {
    buffers: Vec<Vec<Span>>,
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn add(&mut self, trace: Trace) {
        let spans = trace.into_spans();
        if !spans.is_empty() {
            self.buffers.push(spans);
        }
    }

    pub fn extend(&mut self, other: Spans) {
        self.buffers.extend(other.buffers);
    }

    pub fn len(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.buffers
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the durations of the spans whose parent it is.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for buf in &self.buffers {
            let mut child_ns = vec![0u64; buf.len()];
            for s in buf {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.dur_ns();
                }
            }
            for (s, children) in buf.iter().zip(child_ns) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(children);
            }
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `buffer id parent name start_ns end_ns` (parent -1 for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "buffer\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (b, buf) in self.buffers.iter().enumerate() {
            for (i, s) in buf.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                writeln!(
                    out,
                    "{b}\t{i}\t{parent}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = Trace::new(Instant::now(), true);
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let mut spans = Spans::default();
        spans.add(t);
        let totals = spans.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(Instant::now(), false);
        t.enter("x");
        assert_eq!(t.exit(), 0);
        let mut spans = Spans::default();
        spans.add(t);
        assert_eq!(spans.len(), 0);
    }
}
