//! The benchmark's own in-memory span recorder, used only in traced runs.
//!
//! A span is recorded around every call the benchmark makes into a layer of
//! the program: name, start, end, the span that caused it and the id of the
//! operation it belongs to. Spans stay in memory and are written out when
//! the run ends. No span is added inside the program — that is a later
//! change — so a layer's cost is always observed from outside it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes the same recorder's span list
/// (`u32::MAX` for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Spans kept per recorder: at ~40 bytes each this bounds a traced run's
/// extra memory to about 80 MB however long it measures.
const CAPACITY: usize = 2_000_000;

/// A per-thread span recorder. Disabled recorders cost one branch per call,
/// so workload code is written once and runs traced or untraced.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub dropped: u64,
}

/// Token returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Spans {
    /// `epoch` is shared by all recorders of a run so their spans merge on
    /// one time axis.
    pub fn new(enabled: bool, epoch: Instant) -> Spans {
        Spans {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(index);
        Open(index)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        self.spans[open.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans nest, so the one being closed is the innermost open one.
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0));
    }

    /// Name a span after the fact, when what was done is only known once it
    /// has been done.
    pub fn rename(&mut self, open: Open, name: &'static str) {
        if open.0 != NO_PARENT {
            self.spans[open.0 as usize].name = name;
        }
    }

    /// Time `f` as one span.
    pub fn record<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a span that began at `began` and ends now, for a call whose
    /// caller only learns of it once it is over.
    pub fn closed(&mut self, name: &'static str, op: u64, began: Instant) {
        let open = self.enter(name, op);
        if open.0 != NO_PARENT {
            self.spans[open.0 as usize].start_ns =
                began.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
        self.exit(open);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans (another client thread's), fixing up
    /// parent indexes.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Write every span as one tab-separated line: name, start, end, parent
    /// index (-1 for none), operation id.
    pub fn write_to(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(w, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part child spans cover.
    pub self_ns: u64,
}

impl Rollup {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1000.0
        }
    }
}

/// Roll spans up by name. A span's self time is its duration minus the
/// durations of its direct children (children never overlap each other: a
/// recorder belongs to one thread).
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let r = out.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += dur;
        r.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("unit", 0, 100, NO_PARENT),
            span("move", 10, 40, 0),
            span("check", 50, 90, 0),
            span("edges", 55, 75, 2),
        ];
        let r = rollup(&spans);
        assert_eq!(r["unit"].total_ns, 100);
        assert_eq!(r["unit"].self_ns, 30);
        assert_eq!(r["move"].self_ns, 30);
        assert_eq!(r["check"].total_ns, 40);
        assert_eq!(r["check"].self_ns, 20);
        assert_eq!(r["edges"].self_ns, 20);
        assert_eq!(r["check"].mean_us(), 0.04);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Spans::new(true, epoch);
        let outer = a.enter("outer", 7);
        a.record("inner", 7, || ());
        a.exit(outer);
        assert_eq!(a.spans()[1].parent, 0);
        assert!(a.spans()[0].end_ns >= a.spans()[1].end_ns);

        let mut b = Spans::new(true, epoch);
        let outer = b.enter("outer", 8);
        b.record("inner", 8, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(rollup(a.spans())["outer"].count, 2);

        let mut text = Vec::new();
        a.write_to(&mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let o = s.enter("x", 1);
        s.exit(o);
        assert_eq!(s.record("y", 1, || 5), 5);
        assert!(s.spans().is_empty());
    }
}
