//! In-memory spans recorded around the benchmark's calls into the
//! stack, and the self-time arithmetic over them.
//!
//! One [`Tracer`] per client thread: span ids are indices into that
//! thread's span vector and a parent always lives on the same thread,
//! so recording never synchronises. Spans are kept in memory and only
//! written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called (`call.seal`, `msg`, `ledger.wire_v1`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch; `start` until closed.
    pub end: u64,
    /// Index of the enclosing span on the same tracer.
    pub parent: Option<usize>,
    /// Request identifier: the message index, or the wire correlation
    /// id of a pipelined request.
    pub req: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// across threads so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let t = self.now();
        let span = &mut self.spans[id];
        span.end = t;
        t - span.start
    }

    /// Re-tags span `id` with the request id learnt after it opened (a
    /// pipelined request's correlation id).
    pub fn set_req(&mut self, id: usize, req: u64) {
        self.spans[id].req = req;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (pipelined
/// requests) count once; a child's own children do not count against
/// the grandparent; a child running past its parent is clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(s.start, s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Writes every thread's spans as tab-separated lines: thread, id,
/// parent (`-` for a root), name, request id, start, end, self (ns).
pub fn write_tsv<W: Write>(out: &mut W, threads: &[&[Span]]) -> io::Result<()> {
    writeln!(
        out,
        "thread\tid\tparent\tname\treq\tstart_ns\tend_ns\tself_ns"
    )?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.name, s.req, s.start, s.end
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn disjoint_children_subtract_in_full() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Three pipelined requests in flight at once: their union is
        // [10, 80), so the parent's own time is 100 - 70.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(20, 80, Some(0)),
            span(30, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn nested_grandchildren_only_charge_their_own_parent() {
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 40, Some(1)),
            span(50, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(100, 200, None),
            span(50, 120, Some(0)),
            span(180, 260, Some(0)),
            span(300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_given_out_of_order_still_merge() {
        let spans = [
            span(0, 100, None),
            span(60, 90, Some(0)),
            span(10, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parent_and_request_ids() {
        let mut t = Tracer::new(Instant::now());
        let msg = t.open("msg", None, 7);
        let call = t.open("call", Some(msg), 7);
        t.close(call);
        t.close(msg);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].req, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let mut tsv = Vec::new();
        write_tsv(&mut tsv, &[s]).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }
}
