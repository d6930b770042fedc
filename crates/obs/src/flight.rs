//! The flight recorder: fixed-capacity, per-thread ring buffers of
//! structured events with monotonic timestamps, dumpable as JSONL.
//!
//! Every thread that records gets its own ring (registered globally on first
//! use), so the hot path takes only that thread's uncontended mutex. Rings
//! overwrite their oldest events when full — a stalled 25-node run always
//! has its *recent* history, which is the half that matters post-mortem.
//!
//! Timestamps are microseconds since a process-wide epoch pinned by
//! [`crate::enable`]; the dump header carries the epoch's wall-clock
//! (`epoch_unix_us`), so `expfig trace` can align dumps from different
//! processes on the same machine into one cross-node timeline.

use std::cell::Cell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// Schema tag written in the first line of every dump.
pub const FLIGHT_SCHEMA: &str = "garfield-obs/flight-v1";

/// Events each per-thread ring holds before overwriting the oldest.
pub const RING_CAPACITY: usize = 4096;

/// What happened. Names are stable — they are the `kind` strings in dumps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A server began a training round (`value` = round latency budget, 0 if none).
    RoundStart,
    /// A server finished a round (`value` = round latency in seconds).
    RoundEnd,
    /// A pull (gradient/model quorum request) was broadcast (`value` = quorum size).
    PullIssued,
    /// One pull reply was accepted (`peer` = who answered).
    PullSatisfied,
    /// A pull was re-sent to a silent peer (`peer` = who stayed silent).
    PullRetried,
    /// The pull quorum completed (`value` = replies gathered).
    QuorumFormed,
    /// The transport dropped an outbound frame (`peer` = destination).
    FrameDropped,
    /// A checkpoint was persisted (`value` = seconds spent writing).
    CheckpointWritten,
    /// A state-transfer chunk was served to a rejoining peer (`peer` = requester).
    StateChunkServed,
    /// A GAR excluded a peer's input from the round's aggregate
    /// (`peer` = who was excluded, `value` = the peer's distance score).
    PeerExcluded,
    /// A trace-stamped wire message reached the wire
    /// (`peer` = destination, `value` = the sender's sequence number).
    WireSend,
    /// A trace-stamped wire message was received
    /// (`peer` = sender, `value` = one-way delay in milliseconds, sender's
    /// clock vs this process's clock).
    WireRecv,
    /// A speculative round's fast path held — the consistency check passed
    /// and the cheap average was kept (`value` = aggregation seconds).
    SpeculationHit,
    /// A speculative round fell back — the check tripped (or the sticky
    /// latch was already set) and the robust rule ran
    /// (`value` = aggregation seconds).
    SpeculationFallback,
}

impl EventKind {
    /// The stable snake_case name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::RoundStart => "round_start",
            EventKind::RoundEnd => "round_end",
            EventKind::PullIssued => "pull_issued",
            EventKind::PullSatisfied => "pull_satisfied",
            EventKind::PullRetried => "pull_retried",
            EventKind::QuorumFormed => "quorum_formed",
            EventKind::FrameDropped => "frame_dropped",
            EventKind::CheckpointWritten => "checkpoint_written",
            EventKind::StateChunkServed => "state_chunk_served",
            EventKind::PeerExcluded => "peer_excluded",
            EventKind::WireSend => "wire_send",
            EventKind::WireRecv => "wire_recv",
            EventKind::SpeculationHit => "speculation_hit",
            EventKind::SpeculationFallback => "speculation_fallback",
        }
    }

    /// Parses a dump `kind` string back into the enum.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "round_start" => EventKind::RoundStart,
            "round_end" => EventKind::RoundEnd,
            "pull_issued" => EventKind::PullIssued,
            "pull_satisfied" => EventKind::PullSatisfied,
            "pull_retried" => EventKind::PullRetried,
            "quorum_formed" => EventKind::QuorumFormed,
            "frame_dropped" => EventKind::FrameDropped,
            "checkpoint_written" => EventKind::CheckpointWritten,
            "state_chunk_served" => EventKind::StateChunkServed,
            "peer_excluded" => EventKind::PeerExcluded,
            "wire_send" => EventKind::WireSend,
            "wire_recv" => EventKind::WireRecv,
            "speculation_hit" => EventKind::SpeculationHit,
            "speculation_fallback" => EventKind::SpeculationFallback,
            _ => return None,
        })
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Microseconds since the process epoch.
    pub t_us: u64,
    /// The node the recording thread speaks for (`u32::MAX` = unattributed).
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// The training round the event belongs to.
    pub round: u64,
    /// The peer involved, if any.
    pub peer: Option<u32>,
    /// Event-specific payload (seconds, counts, …); 0.0 when unused.
    pub value: f64,
}

struct Ring {
    events: Vec<Event>,
    /// Next write position once `events` reaches capacity.
    head: usize,
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.overwritten += 1;
        }
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: OnceLock<Arc<Mutex<Ring>>> = const { OnceLock::new() };
    static THREAD_NODE: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// The node id newly recording threads fall back to when
/// [`set_thread_node`] was never called on them (e.g. transport I/O threads
/// spawned before their owner was known). `u32::MAX` = unset.
static DEFAULT_NODE: AtomicU32 = AtomicU32::new(u32::MAX);

/// Attributes every event recorded by *this thread* to `node`.
pub fn set_thread_node(node: u32) {
    THREAD_NODE.with(|n| n.set(node));
}

/// Attributes events from threads that never called [`set_thread_node`] to
/// `node`. `garfield-node` sets this once — the whole process is one node.
pub fn set_default_node(node: u32) {
    DEFAULT_NODE.store(node, Ordering::Relaxed);
}

fn current_node() -> u32 {
    let n = THREAD_NODE.with(|n| n.get());
    if n != u32::MAX {
        n
    } else {
        DEFAULT_NODE.load(Ordering::Relaxed)
    }
}

fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_us)
    })
}

/// Wall-clock microseconds (UNIX time) of the process epoch all event
/// timestamps are relative to. First call pins the epoch.
pub fn epoch_unix_us() -> u64 {
    epoch().1
}

/// Records one event into this thread's ring. No-op when recording is
/// disabled; otherwise one monotonic clock read plus an uncontended
/// per-thread mutex push.
#[inline]
pub fn record(kind: EventKind, round: u64, peer: Option<u32>, value: f64) {
    if !crate::enabled() {
        return;
    }
    let event = Event {
        t_us: epoch().0.elapsed().as_micros() as u64,
        node: current_node(),
        kind,
        round,
        peer,
        value,
    };
    THREAD_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Mutex::new(Ring {
                events: Vec::with_capacity(RING_CAPACITY.min(64)),
                head: 0,
                overwritten: 0,
            }));
            rings()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ring.clone());
            ring
        });
        ring.lock().unwrap_or_else(|e| e.into_inner()).push(event);
    });
}

/// Copies every thread's ring out, merged and sorted by timestamp. The
/// second field is the total number of events the rings overwrote (lost).
pub fn snapshot() -> (Vec<Event>, u64) {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut overwritten = 0;
    for ring in rings.iter() {
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        // Oldest-first: the segment after `head` predates the one before it.
        events.extend_from_slice(&ring.events[ring.head..]);
        events.extend_from_slice(&ring.events[..ring.head]);
        overwritten += ring.overwritten;
    }
    events.sort_by_key(|e| e.t_us);
    (events, overwritten)
}

fn write_event_jsonl(out: &mut String, e: &Event) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"t_us\":{},\"node\":{},\"kind\":\"{}\",\"round\":{},\"peer\":",
        e.t_us,
        e.node,
        e.kind.as_str(),
        e.round
    );
    match e.peer {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    if e.value.is_finite() {
        let _ = writeln!(out, ",\"value\":{}}}", e.value);
    } else {
        let _ = writeln!(out, ",\"value\":null}}");
    }
}

/// Renders the whole recorder as JSONL: one header object (schema, epoch,
/// pid, events lost to ring overwrites) followed by one object per event,
/// oldest first.
pub fn dump_jsonl() -> String {
    let (events, overwritten) = snapshot();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str(&format!(
        "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"epoch_unix_us\":{},\"pid\":{},\"events\":{},\"overwritten\":{overwritten}}}\n",
        epoch_unix_us(),
        std::process::id(),
        events.len(),
    ));
    for e in &events {
        write_event_jsonl(&mut out, e);
    }
    out
}

/// Writes [`dump_jsonl`] to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_dump(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(dump_jsonl().as_bytes())?;
    f.flush()
}

/// Installs a panic hook (chained in front of the existing one) that writes
/// a flight dump to `path` — the black box survives the crash. Installing
/// again replaces the destination rather than stacking hooks.
pub fn install_panic_hook(path: PathBuf) {
    static DEST: OnceLock<Mutex<PathBuf>> = OnceLock::new();
    let first = DEST.get().is_none();
    *DEST
        .get_or_init(|| Mutex::new(PathBuf::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = path;
    if !first {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(dest) = DEST.get() {
            let dest = dest.lock().unwrap_or_else(|e| e.into_inner()).clone();
            let _ = write_dump(&dest);
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            EventKind::RoundStart,
            EventKind::RoundEnd,
            EventKind::PullIssued,
            EventKind::PullSatisfied,
            EventKind::PullRetried,
            EventKind::QuorumFormed,
            EventKind::FrameDropped,
            EventKind::CheckpointWritten,
            EventKind::StateChunkServed,
            EventKind::PeerExcluded,
            EventKind::WireSend,
            EventKind::WireRecv,
            EventKind::SpeculationHit,
            EventKind::SpeculationFallback,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nonsense"), None);
    }

    #[test]
    fn records_attribute_thread_node_and_sort_by_time() {
        let _g = crate::test_guard();
        crate::enable();
        set_thread_node(7);
        record(EventKind::RoundStart, 1, None, 0.0);
        record(EventKind::PullSatisfied, 1, Some(3), 0.0);
        let (events, _) = snapshot();
        let mine: Vec<&Event> = events.iter().filter(|e| e.node == 7).collect();
        assert!(mine.len() >= 2);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(mine
            .iter()
            .any(|e| e.kind == EventKind::PullSatisfied && e.peer == Some(3)));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _g = crate::test_guard();
        crate::enable();
        let handle = std::thread::spawn(|| {
            set_thread_node(42);
            for i in 0..(RING_CAPACITY as u64 + 10) {
                record(EventKind::RoundEnd, i, None, 0.0);
            }
        });
        handle.join().unwrap();
        let (events, overwritten) = snapshot();
        let mine: Vec<&Event> = events.iter().filter(|e| e.node == 42).collect();
        assert_eq!(mine.len(), RING_CAPACITY);
        assert!(overwritten >= 10);
        // The survivors are the *newest* events.
        assert!(mine.iter().all(|e| e.round >= 10));
    }

    #[test]
    fn dump_is_valid_jsonl_with_header() {
        let _g = crate::test_guard();
        crate::enable();
        set_thread_node(1);
        record(EventKind::CheckpointWritten, 5, None, f64::NAN);
        let dump = dump_jsonl();
        let mut lines = dump.lines();
        let header = lines.next().unwrap();
        assert!(header.contains(FLIGHT_SCHEMA));
        assert!(header.contains("\"epoch_unix_us\":"));
        for line in lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(dump.contains("\"kind\":\"checkpoint_written\""));
        assert!(
            dump.contains("\"value\":null"),
            "NaN must serialize as null"
        );
    }
}
