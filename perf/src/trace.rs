//! Harness-side spans around the calls into the public transaction API.
//!
//! One recorder per client thread, every buffer allocated before the window
//! opens. Durations of every span are kept for the percentiles; the spans
//! themselves (name, start, end, parent, transaction id) are kept up to a
//! cap and written to `perf/out/trace-<workload>.jsonl` after the run.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time_ns;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Txn,
    Begin,
    Get,
    Scan,
    Update,
    Insert,
    Delete,
    Commit,
    Rollback,
}

pub const KINDS: usize = 9;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "begin",
            SpanKind::Get => "get",
            SpanKind::Scan => "scan",
            SpanKind::Update => "update",
            SpanKind::Insert => "insert",
            SpanKind::Delete => "delete",
            SpanKind::Commit => "commit",
            SpanKind::Rollback => "rollback",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    txn: u32,
    kind: SpanKind,
    start_ns: u64,
    dur_ns: u32,
}

/// Spans one client keeps for the trace file (~32 B each).
const SPANS_KEPT: usize = 64 * 1024;
/// Durations kept per span kind; enough for the busiest statement (point
/// gets on `ro_local`) over the longest traced window the contract allows.
const DURS_KEPT: usize = 16 * 1024 * 1024;

pub struct Recorder {
    /// Whether the transaction in flight is traced. Set by the client per
    /// transaction from its own clock; never shared.
    pub on: bool,
    client: usize,
    epoch: Instant,
    txn: u32,
    children_ns: u64,
    durs: [Vec<u32>; KINDS],
    self_ns: Vec<u32>,
    spans: Vec<Span>,
}

fn clamp_u32(ns: u128) -> u32 {
    ns.min(u32::MAX as u128) as u32
}

impl Recorder {
    /// `enabled` sizes the buffers; an untraced run allocates nothing.
    pub fn new(client: usize, epoch: Instant, enabled: bool) -> Recorder {
        let cap = |n: usize| if enabled { n } else { 0 };
        Recorder {
            on: false,
            client,
            epoch,
            txn: 0,
            children_ns: 0,
            durs: std::array::from_fn(|k| {
                Vec::with_capacity(cap(if k == SpanKind::Get as usize {
                    DURS_KEPT
                } else {
                    DURS_KEPT / 8
                }))
            }),
            self_ns: Vec::with_capacity(cap(DURS_KEPT / 8)),
            spans: Vec::with_capacity(cap(SPANS_KEPT)),
        }
    }

    fn push(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let dur = clamp_u32(end.duration_since(start).as_nanos());
        let durs = &mut self.durs[kind as usize];
        if durs.len() < durs.capacity() {
            durs.push(dur);
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                txn: self.txn,
                kind,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur,
            });
        }
    }

    /// Run one call into the system, as a child span of the transaction in
    /// flight when it is traced.
    #[inline]
    pub fn child<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.children_ns += end.duration_since(start).as_nanos() as u64;
        self.push(kind, start, end);
        r
    }

    /// Close the transaction span opened at `start` (all attempts).
    pub fn finish_txn(&mut self, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.push(SpanKind::Txn, start, end);
        let total = end.duration_since(start).as_nanos() as u64;
        if self.self_ns.len() < self.self_ns.capacity() {
            self.self_ns
                .push(clamp_u32(self_time_ns(total, self.children_ns) as u128));
        }
        self.children_ns = 0;
        self.txn += 1;
    }
}

/// The clients' recorders after the run.
pub struct Trace<'a> {
    pub recorders: Vec<&'a Recorder>,
}

impl Trace<'_> {
    /// Every duration of `kind`, ascending.
    pub fn sorted_durs(&self, kind: SpanKind) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .recorders
            .iter()
            .flat_map(|r| r.durs[kind as usize].iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    pub fn sorted_self(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .recorders
            .iter()
            .flat_map(|r| r.self_ns.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// One JSON object per span: `id` is shared by the spans of one
    /// transaction, `parent` names the span that caused this one.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut n = 0;
        for r in &self.recorders {
            for s in &r.spans {
                let parent = if s.kind == SpanKind::Txn {
                    "null"
                } else {
                    "\"txn\""
                };
                writeln!(
                    out,
                    "{{\"id\":\"c{}-t{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    r.client,
                    s.txn,
                    s.kind.name(),
                    parent,
                    s.start_ns,
                    s.start_ns + s.dur_ns as u64
                )?;
                n += 1;
            }
        }
        out.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_are_subtracted_from_the_transaction_span() {
        let epoch = Instant::now();
        let mut r = Recorder::new(0, epoch, true);
        r.on = true;
        let start = Instant::now();
        r.child(SpanKind::Get, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        r.child(SpanKind::Commit, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(1));
        r.finish_txn(start, Instant::now());
        let t = Trace {
            recorders: vec![&r],
        };
        let txn = t.sorted_durs(SpanKind::Txn)[0] as u64;
        let kids =
            t.sorted_durs(SpanKind::Get)[0] as u64 + t.sorted_durs(SpanKind::Commit)[0] as u64;
        assert_eq!(t.sorted_self()[0] as u64, txn - kids);
        assert!(t.sorted_self()[0] >= 1_000_000);
    }

    #[test]
    fn untraced_transactions_record_nothing() {
        let mut r = Recorder::new(0, Instant::now(), false);
        let start = Instant::now();
        assert_eq!(r.child(SpanKind::Get, || 7), 7);
        r.finish_txn(start, Instant::now());
        let t = Trace {
            recorders: vec![&r],
        };
        assert!(t.sorted_durs(SpanKind::Get).is_empty());
        assert!(t.sorted_self().is_empty());
    }
}
