//! In-memory spans around the benchmark's calls into each layer.
//!
//! The recorder is single-threaded (the replay runs on the driver thread):
//! opening a span pushes it on a stack, so the span open at that moment is
//! its parent. Spans stay in memory and are written out once, at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<what>`, times are nanoseconds since
/// the recorder was created, `parent` indexes the span that caused this one,
/// `round` is the identifier every span of one training round shares and
/// `node` is the id of the node whose work the call is (the sender, for a
/// hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u64,
    pub node: u32,
}

impl Span {
    /// Wall time between open and close.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the round identifier stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, node: u32) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
            node,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `call` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, node: u32, call: impl FnOnce() -> T) -> T {
        let id = self.open(name, node);
        let out = call();
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap (one thread, one
/// stack), so their durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_ns();
        }
    }
    own
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"node\":{}}}",
            span.name, span.start_ns, span.end_ns, span.round, span.node
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            node: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // round [0, 100] ─ encode [10, 30]
        //                └ lane [40, 90] ─ gradient [45, 80]
        let tree = [
            span("round", 0, 100, None),
            span("net.encode", 10, 30, Some(0)),
            span("lane", 40, 90, Some(0)),
            span("ml.gradient", 45, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&tree), vec![30, 20, 15, 35]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let tree = [
            span("round", 5, 1_005, None),
            span("a", 10, 400, Some(0)),
            span("b", 20, 300, Some(1)),
            span("c", 30, 100, Some(2)),
            span("d", 500, 900, Some(0)),
        ];
        let own = self_times_ns(&tree);
        assert_eq!(own.iter().sum::<u64>(), tree[0].duration_ns());
    }

    #[test]
    fn the_recorder_nests_by_open_order_and_stamps_rounds() {
        let mut rec = Recorder::new();
        rec.set_round(7);
        let root = rec.open("round", 0);
        let leaf = rec.span("net.encode", 0, || 41 + 1);
        assert_eq!(leaf, 42);
        let lane = rec.open("lane", 3);
        rec.span("ml.gradient", 3, || ());
        rec.close(lane);
        rec.close(root);
        let spans = rec.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns() + spans[2].duration_ns());
    }
}
