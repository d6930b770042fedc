//! The compact binary wire format of the live runtime.
//!
//! Every message the threaded actor runtime (`garfield-runtime`) exchanges
//! over the [`Router`](crate::Router) is one [`WireMessage`], encoded as a
//! fixed header followed by a length-prefixed little-endian `f32` payload:
//!
//! ```text
//! offset  size  field
//! 0       1     format version  (= [`WIRE_VERSION`])
//! 1       1     message kind    (see [`MsgKind`])
//! 2       8     round tag       (u64 LE — the training iteration)
//! 10      4     aux scalar      (f32 LE — e.g. the training loss of a reply)
//! 14      2     shard id        (u16 LE — which parameter shard; 0 unsharded)
//! 16      4     coord offset    (u32 LE — first coordinate of the slice)
//! 20      4     coord length    (u32 LE — slice length; 0 = unsharded/full)
//! 24      4     origin node id  (u32 LE — who put the message on the wire)
//! 28      8     sequence number (u64 LE — per-sender send counter)
//! 36      8     send timestamp  (u64 LE — µs since the Unix epoch)
//! 44      4     payload length  (u32 LE — number of f32 values, not bytes)
//! 48      4·n   payload         (f32 LE values: a flat gradient or model)
//! ```
//!
//! The three shard fields (shard id, coordinate offset, coordinate length)
//! route a payload to one contiguous parameter shard: a sharded parameter
//! server sends its model *slice* in requests and receives gradient *slices*
//! in replies, each tagged with the exact coordinate range `[coord_offset,
//! coord_offset + coord_len)` it covers. `coord_len == 0` marks an unsharded
//! (full-vector) message; a non-zero `coord_len` must equal the payload
//! length and the range must fit the u32 coordinate space — both checked
//! strictly at decode (see [`NetError::WireShard`]).
//!
//! The three trace fields (origin, sequence, send timestamp) exist for
//! wire-level causal tracing: `expfig trace` joins a receiver's
//! flight-recorder events against the sender's clock to attribute one-way
//! delay and stragglers per peer. They are *transport metadata*, not part of
//! the logical message: [`WireMessage::encode`] zeroes them and the send path
//! stamps them into the encoded buffer with [`stamp_trace`] at the moment the
//! bytes leave for the wire, so encoding stays pure and replayable.
//!
//! The payload is bit-transparent: NaNs and infinities round-trip exactly
//! (decoding never interprets the values), which matters because a Byzantine
//! node may deliberately send non-finite vectors. Decoding is strict — a
//! wrong version, an unknown kind, a truncated buffer, trailing bytes or an
//! inconsistent shard range are all errors rather than best-effort accepts.
//!
//! # Version-bump / compatibility policy
//!
//! The format is versioned by a single leading byte and is intentionally
//! **not** forward- or backward-compatible: a node speaking version `n`
//! rejects every other version at two independent layers — the TCP hello
//! (`garfield-transport` puts [`WIRE_VERSION`] in its connection preamble, so
//! mismatched peers are refused before any payload flows) and
//! [`WireMessage::peek`]/[`WireMessage::decode`], which fail with
//! [`NetError::WireVersion`] on every frame. A cluster must therefore be
//! upgraded atomically; there is no mixed-version operation. Any change to
//! the header layout (as with the v1→v2 trace-field extension and the v2→v3
//! shard-routing extension) must bump [`WIRE_VERSION`], update
//! [`WIRE_HEADER_BYTES`] and the layout table above, and keep the
//! strict-decode guarantees: `peek` validating exactly like `decode`, the
//! length cap enforced before allocation, and the proptests in
//! `tests/wire_properties.rs` passing unchanged in spirit (truncation,
//! trailing bytes, hostile lengths, bit-exact payload round-trips).

use crate::{NetError, NetResult};
use bytes::Bytes;

/// Current wire-format version byte.
///
/// Version 3 extended the v2 header with the shard-routing fields (shard id,
/// coordinate offset/length); version 2 had extended v1 with the
/// origin/sequence/timestamp trace fields. See the module docs for the
/// layout and the compatibility policy.
pub const WIRE_VERSION: u8 = 3;

/// Size of the fixed message header in bytes.
pub const WIRE_HEADER_BYTES: usize = 48;

/// Byte offset of the shard-id field within the header.
const SHARD_ID_OFFSET: usize = 14;
/// Byte offset of the shard coordinate-offset field within the header.
const COORD_OFFSET_OFFSET: usize = 16;
/// Byte offset of the shard coordinate-length field within the header.
const COORD_LEN_OFFSET: usize = 20;
/// Byte offset of the origin-node-id trace field within the header.
const TRACE_ORIGIN_OFFSET: usize = 24;
/// Byte offset of the sequence-number trace field within the header.
const TRACE_SEQ_OFFSET: usize = 28;
/// Byte offset of the send-timestamp trace field within the header.
const TRACE_SENT_OFFSET: usize = 36;
/// Byte offset of the payload-length field within the header.
const PAYLOAD_LEN_OFFSET: usize = 44;

/// Maximum number of `f32` payload values a message may declare or carry
/// (64 Mi values = 256 MiB — more than an order of magnitude above the
/// largest model in the paper's Table 1).
///
/// The cap is enforced *before* any allocation: a hostile peer controls the
/// length prefix of every frame it sends, and a header must never be able to
/// demand gigabytes of memory on the receiving side.
pub const MAX_WIRE_VALUES: usize = 64 * 1024 * 1024;

/// Declares the [`MsgKind`] enum and its byte codec from one variant list,
/// so [`MsgKind::all`] (decode fuzzing, telemetry enumeration) can never
/// silently fall out of sync with the variants: the array length, the
/// discriminants and the `from_byte` match all derive from the same list.
macro_rules! msg_kinds {
    ($( $(#[$meta:meta])* $name:ident = $byte:literal ),* $(,)?) => {
        /// The message kinds of the live training protocol.
        ///
        /// Servers pull gradients from workers and models from peer replicas
        /// — the paper's `get_gradients()` / `get_models()` RPCs (§3.2) — so
        /// each pull is a request/reply pair; `Shutdown` and `ServerDone` are
        /// control messages used to wind the actors down.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum MsgKind {
            $( $(#[$meta])* $name = $byte, )*
        }

        impl MsgKind {
            /// Number of kinds, derived from the variant list itself.
            pub const COUNT: usize = [$(MsgKind::$name),*].len();

            /// All kinds, in wire-byte order. The length derives from the
            /// variant list: adding a kind grows this array automatically.
            pub fn all() -> [MsgKind; Self::COUNT] {
                [$(MsgKind::$name),*]
            }

            /// The byte this kind encodes to.
            pub fn to_byte(self) -> u8 {
                self as u8
            }

            /// Parses a kind byte.
            pub fn from_byte(byte: u8) -> Option<MsgKind> {
                match byte {
                    $( $byte => Some(MsgKind::$name), )*
                    _ => None,
                }
            }
        }
    };
}

msg_kinds! {
    /// Server → worker: "compute a gradient at these parameters" (payload =
    /// the server's current model, or its shard slice when shard-routed).
    GradientRequest = 0,
    /// Worker → server: the gradient estimate (payload = gradient or the
    /// requested shard slice of it, aux = training loss on the worker's
    /// mini-batch).
    GradientReply = 1,
    /// Server → server: "serve me your model" (empty payload).
    ModelRequest = 2,
    /// Server → server: the served model vector (payload = model).
    ModelReply = 3,
    /// Controller → worker: stop the actor loop (empty payload).
    Shutdown = 4,
    /// Server → server: "I finished my last iteration" (empty payload);
    /// lets peers stop serving model requests without a timeout.
    ServerDone = 5,
    /// Recovering node → live peer: "send me your training state" (empty
    /// payload; the round tag names the lowest round the requester will
    /// accept). The crash-recovery catch-up path polls with this until a
    /// peer has advanced far enough.
    StateRequest = 6,
    /// Live peer → recovering node: a serialized training-state checkpoint
    /// (round, model, optimizer state), bit-cast into the `f32` payload so
    /// it flows through the same pooled zero-copy decode path as gradients.
    /// The round tag names the round the state resumes at; `aux` is the
    /// chunk index (always 0 today — state fits one frame, the field exists
    /// so multi-chunk transfer stays wire-compatible).
    StateChunk = 7,
    /// Shard server → sibling shard servers: "my speculative fast path
    /// tripped at this round" (empty payload; the header's shard id names
    /// the tripping shard). Receivers force their own speculative latch so
    /// the whole shard group falls back together — the cluster-wide sticky
    /// OR over per-shard latches.
    SpeculationTrip = 8,
}

/// The fixed header of a wire message, validated without touching the
/// payload.
///
/// [`WireMessage::peek`] performs the *full* structural validation of
/// [`WireMessage::decode`] — version, kind, length cap, shard-range
/// consistency, exact buffer size — but materialises zero `f32` values. The
/// receive loops use it to route control traffic (requests, done-markers)
/// and reject garbage without allocating, and then
/// [`WireMessage::decode_into`] fills a pooled buffer only for the payloads
/// that are actually aggregated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireHeader {
    /// What the message is (request, reply, control).
    pub kind: MsgKind,
    /// The training iteration the message belongs to.
    pub round: u64,
    /// Kind-specific scalar (gradient replies carry the training loss here).
    pub aux: f32,
    /// Shard routing: which parameter shard the payload belongs to (0 for
    /// unsharded messages).
    pub shard: u16,
    /// Shard routing: first coordinate of the slice within the full
    /// d-dimensional vector.
    pub coord_offset: u32,
    /// Shard routing: slice length in coordinates; 0 marks an unsharded
    /// (full-vector) message, non-zero must equal `payload_len`.
    pub coord_len: u32,
    /// Trace: the node id that put this message on the wire (0 when the
    /// buffer was never stamped — see [`stamp_trace`]).
    pub origin: u32,
    /// Trace: the sender's monotone send counter at stamp time.
    pub seq: u64,
    /// Trace: the sender's clock at stamp time, µs since the Unix epoch
    /// (0 when unstamped).
    pub sent_unix_us: u64,
    /// Number of `f32` payload values that follow the header.
    pub payload_len: usize,
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMessage {
    /// What this message is (request, reply, control).
    pub kind: MsgKind,
    /// The training iteration this message belongs to.
    pub round: u64,
    /// Kind-specific scalar (gradient replies carry the training loss here;
    /// other kinds leave it at 0.0).
    pub aux: f32,
    /// Shard routing: which parameter shard the payload belongs to (0 for
    /// unsharded messages).
    pub shard: u16,
    /// Shard routing: first coordinate of the slice within the full vector.
    pub coord_offset: u32,
    /// Shard routing: slice length; 0 marks an unsharded message.
    pub coord_len: u32,
    /// The flat tensor payload (a gradient or model vector; may be empty).
    pub values: Vec<f32>,
}

/// The current wall clock as µs since the Unix epoch — the timestamp domain
/// of the wire trace fields. Returns 0 if the clock sits before the epoch.
pub fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Stamps the trace fields (origin node id, sequence number, send timestamp)
/// into an already-encoded wire buffer, in place.
///
/// [`WireMessage::encode`] leaves the trace fields zeroed so that encoding
/// stays a pure function of the logical message; the send path calls this on
/// the encoded bytes immediately before handing them to the transport, which
/// is the only point where "who is sending, as which send, at what time" is
/// actually known. Stamping rewrites 20 fixed header bytes and never touches
/// the payload (or the shard fields before it), so it is free compared to
/// the encode itself.
///
/// # Panics
///
/// Panics if `buf` is shorter than a wire header or does not start with
/// [`WIRE_VERSION`] — stamping arbitrary bytes would corrupt them silently.
pub fn stamp_trace(buf: &mut [u8], origin: u32, seq: u64, sent_unix_us: u64) {
    assert!(
        buf.len() >= WIRE_HEADER_BYTES && buf[0] == WIRE_VERSION,
        "stamp_trace requires an encoded v{WIRE_VERSION} wire message"
    );
    buf[TRACE_ORIGIN_OFFSET..TRACE_SEQ_OFFSET].copy_from_slice(&origin.to_le_bytes());
    buf[TRACE_SEQ_OFFSET..TRACE_SENT_OFFSET].copy_from_slice(&seq.to_le_bytes());
    buf[TRACE_SENT_OFFSET..PAYLOAD_LEN_OFFSET].copy_from_slice(&sent_unix_us.to_le_bytes());
}

impl WireMessage {
    /// Creates an unsharded message with a tensor payload.
    pub fn new(kind: MsgKind, round: u64, aux: f32, values: Vec<f32>) -> Self {
        WireMessage {
            kind,
            round,
            aux,
            shard: 0,
            coord_offset: 0,
            coord_len: 0,
            values,
        }
    }

    /// Creates a payload-free message (requests and control messages).
    pub fn control(kind: MsgKind, round: u64) -> Self {
        WireMessage::new(kind, round, 0.0, Vec::new())
    }

    /// Tags the message with a shard id and the coordinate range its payload
    /// covers, builder style.
    ///
    /// # Panics
    ///
    /// Panics when `coord_len` disagrees with the payload length on a
    /// payload-carrying message, or when the range overflows u32 — such a
    /// message would be rejected by every correct decoder.
    pub fn with_shard(mut self, shard: u16, coord_offset: u32, coord_len: u32) -> Self {
        assert!(
            self.values.is_empty() || coord_len as usize == self.values.len(),
            "shard slice of {coord_len} coordinates disagrees with a {}-value payload",
            self.values.len()
        );
        assert!(
            coord_offset.checked_add(coord_len).is_some(),
            "shard range [{coord_offset}, {coord_offset}+{coord_len}) overflows u32"
        );
        self.shard = shard;
        self.coord_offset = coord_offset;
        self.coord_len = coord_len;
        self
    }

    /// The exact number of bytes [`WireMessage::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        WIRE_HEADER_BYTES + 4 * self.values.len()
    }

    /// Encodes the message into an immutable byte buffer.
    ///
    /// The trace fields (origin, sequence, timestamp) are written as zeros;
    /// the send path stamps real values over them with [`stamp_trace`] just
    /// before the bytes hit the wire.
    ///
    /// # Panics
    ///
    /// Panics if the payload holds more than [`MAX_WIRE_VALUES`] values —
    /// such a message could never be decoded by a correct peer.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.encode_vec())
    }

    /// Encodes the message into a mutable byte vector, for send paths that
    /// [`stamp_trace`] the buffer before freezing it into [`Bytes`].
    ///
    /// # Panics
    ///
    /// Same as [`WireMessage::encode`].
    pub fn encode_vec(&self) -> Vec<u8> {
        assert!(
            self.values.len() <= MAX_WIRE_VALUES,
            "wire payload of {} values exceeds the {MAX_WIRE_VALUES}-value cap",
            self.values.len()
        );
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.push(WIRE_VERSION);
        buf.push(self.kind.to_byte());
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.extend_from_slice(&self.aux.to_le_bytes());
        buf.extend_from_slice(&self.shard.to_le_bytes());
        buf.extend_from_slice(&self.coord_offset.to_le_bytes());
        buf.extend_from_slice(&self.coord_len.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // origin (stamped on send)
        buf.extend_from_slice(&0u64.to_le_bytes()); // seq (stamped on send)
        buf.extend_from_slice(&0u64.to_le_bytes()); // sent_unix_us (stamped on send)
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        buf.resize(self.encoded_len(), 0);
        for (dst, v) in buf[WIRE_HEADER_BYTES..]
            .chunks_exact_mut(4)
            .zip(&self.values)
        {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Decodes a message, validating version, kind, shard range and exact
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WireVersion`] for an unsupported version byte,
    /// [`NetError::WireKind`] for an unknown kind byte,
    /// [`NetError::FrameTooLarge`] when the header declares more than
    /// [`MAX_WIRE_VALUES`] payload values (checked before anything is
    /// allocated), [`NetError::WireShard`] for a shard coordinate range that
    /// disagrees with the payload length or overflows, and
    /// [`NetError::WireSize`] for a buffer that is truncated or carries
    /// trailing bytes.
    pub fn decode(buf: &[u8]) -> NetResult<WireMessage> {
        let mut values = Vec::new();
        let header = WireMessage::decode_into(buf, &mut values)?;
        Ok(WireMessage {
            kind: header.kind,
            round: header.round,
            aux: header.aux,
            shard: header.shard,
            coord_offset: header.coord_offset,
            coord_len: header.coord_len,
            values,
        })
    }

    /// Validates the whole message (header *and* exact payload size) without
    /// materialising the payload.
    ///
    /// # Errors
    ///
    /// The same errors as [`WireMessage::decode`] — `peek` accepting a buffer
    /// guarantees `decode`/`decode_into` will too.
    pub fn peek(buf: &[u8]) -> NetResult<WireHeader> {
        if buf.len() < WIRE_HEADER_BYTES {
            return Err(NetError::WireSize {
                expected: WIRE_HEADER_BYTES,
                actual: buf.len(),
            });
        }
        if buf[0] != WIRE_VERSION {
            return Err(NetError::WireVersion(buf[0]));
        }
        let kind = MsgKind::from_byte(buf[1]).ok_or(NetError::WireKind(buf[1]))?;
        let round = u64::from_le_bytes(buf[2..10].try_into().expect("8 header bytes"));
        let aux = f32::from_le_bytes(buf[10..14].try_into().expect("4 header bytes"));
        let shard = u16::from_le_bytes(
            buf[SHARD_ID_OFFSET..COORD_OFFSET_OFFSET]
                .try_into()
                .expect("2 header bytes"),
        );
        let coord_offset = u32::from_le_bytes(
            buf[COORD_OFFSET_OFFSET..COORD_LEN_OFFSET]
                .try_into()
                .expect("4 header bytes"),
        );
        let coord_len = u32::from_le_bytes(
            buf[COORD_LEN_OFFSET..TRACE_ORIGIN_OFFSET]
                .try_into()
                .expect("4 header bytes"),
        );
        let origin = u32::from_le_bytes(
            buf[TRACE_ORIGIN_OFFSET..TRACE_SEQ_OFFSET]
                .try_into()
                .expect("4 header bytes"),
        );
        let seq = u64::from_le_bytes(
            buf[TRACE_SEQ_OFFSET..TRACE_SENT_OFFSET]
                .try_into()
                .expect("8 header bytes"),
        );
        let sent_unix_us = u64::from_le_bytes(
            buf[TRACE_SENT_OFFSET..PAYLOAD_LEN_OFFSET]
                .try_into()
                .expect("8 header bytes"),
        );
        let len = u32::from_le_bytes(
            buf[PAYLOAD_LEN_OFFSET..WIRE_HEADER_BYTES]
                .try_into()
                .expect("4 header bytes"),
        ) as usize;
        // A hostile length prefix is rejected before any allocation or
        // comparison against the buffer: the header alone must never be able
        // to request an unbounded amount of memory.
        if len > MAX_WIRE_VALUES {
            return Err(NetError::FrameTooLarge {
                declared: len.saturating_mul(4),
                max: MAX_WIRE_VALUES * 4,
            });
        }
        // A shard-routed payload is exactly the slice its header declares:
        // coord_len 0 marks an unsharded message, anything else must match
        // the payload length, and the range must fit the coordinate space.
        if (coord_len != 0 && coord_len as usize != len)
            || coord_offset.checked_add(coord_len).is_none()
        {
            return Err(NetError::WireShard {
                coord_offset,
                coord_len,
                payload_len: len,
            });
        }
        // Checked arithmetic: on 32-bit targets an adversarial length prefix
        // could overflow `4 * len`; a malformed size must be an error, never
        // a panic or a wrapped comparison.
        let expected = len
            .checked_mul(4)
            .and_then(|bytes| bytes.checked_add(WIRE_HEADER_BYTES));
        match expected {
            Some(expected) if buf.len() == expected => {}
            _ => {
                return Err(NetError::WireSize {
                    expected: expected.unwrap_or(usize::MAX),
                    actual: buf.len(),
                })
            }
        }
        Ok(WireHeader {
            kind,
            round,
            aux,
            shard,
            coord_offset,
            coord_len,
            origin,
            seq,
            sent_unix_us,
            payload_len: len,
        })
    }

    /// Decodes the payload into a caller-provided buffer (cleared first,
    /// capacity reused), validating exactly like [`WireMessage::decode`].
    ///
    /// This is the zero-garbage receive path: with a [`PayloadPool`] feeding
    /// `values`, a steady-state server decodes every gradient without a
    /// fresh `Vec<f32>` allocation per message.
    ///
    /// # Errors
    ///
    /// Same as [`WireMessage::decode`]; on error `values` is left cleared.
    pub fn decode_into(buf: &[u8], values: &mut Vec<f32>) -> NetResult<WireHeader> {
        values.clear();
        let header = WireMessage::peek(buf)?;
        values.reserve(header.payload_len);
        values.extend(
            buf[WIRE_HEADER_BYTES..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("exact 4-byte chunks"))),
        );
        Ok(header)
    }
}

/// A free-list of reusable `f32` payload buffers.
///
/// Every decoded gradient used to cost one fresh `Vec<f32>` allocation
/// (then dropped after aggregation). A pool checks buffers out for
/// [`WireMessage::decode_into`] and takes them back once the round's
/// aggregation is done; capacity is retained, so a steady-state training
/// loop recycles the same handful of buffers forever. Bounded (`max_idle`)
/// so a burst cannot pin unbounded memory.
#[derive(Debug)]
pub struct PayloadPool {
    free: Vec<Vec<f32>>,
    max_idle: usize,
}

impl PayloadPool {
    /// Creates a pool retaining at most `max_idle` idle buffers.
    pub fn new(max_idle: usize) -> Self {
        PayloadPool {
            free: Vec::new(),
            max_idle,
        }
    }

    /// Checks a cleared buffer out of the pool (fresh if the pool is empty).
    pub fn checkout(&mut self) -> Vec<f32> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; dropped if the pool is full.
    pub fn restore(&mut self, mut buf: Vec<f32>) {
        if self.free.len() < self.max_idle {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

impl Default for PayloadPool {
    fn default() -> Self {
        PayloadPool::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_round_trip_and_unknowns_are_rejected() {
        for kind in MsgKind::all() {
            assert_eq!(MsgKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(MsgKind::from_byte(MsgKind::COUNT as u8), None);
        assert_eq!(MsgKind::from_byte(255), None);
    }

    #[test]
    fn all_is_dense_and_derives_its_length_from_the_variant_list() {
        // all() and the byte codec come from the same macro list, so the
        // wire bytes must be exactly 0..COUNT with no gap: decode fuzzing
        // and telemetry enumeration see every kind.
        let kinds = MsgKind::all();
        assert_eq!(kinds.len(), MsgKind::COUNT);
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(kind.to_byte() as usize, i, "wire bytes must be dense");
        }
        // Exactly the first COUNT bytes parse; everything above is rejected.
        for byte in 0..=255u8 {
            assert_eq!(
                MsgKind::from_byte(byte).is_some(),
                (byte as usize) < MsgKind::COUNT,
                "byte {byte}"
            );
        }
    }

    #[test]
    fn header_layout_is_stable() {
        let msg = WireMessage::new(MsgKind::GradientReply, 0x0102_0304, 1.0, vec![2.0])
            .with_shard(5, 96, 1);
        let buf = msg.encode();
        assert_eq!(buf.len(), msg.encoded_len());
        assert_eq!(buf[0], WIRE_VERSION);
        assert_eq!(buf[1], MsgKind::GradientReply.to_byte());
        assert_eq!(&buf[2..10], &0x0102_0304u64.to_le_bytes());
        assert_eq!(&buf[10..14], &1.0f32.to_le_bytes());
        // Shard routing fields.
        assert_eq!(&buf[14..16], &5u16.to_le_bytes());
        assert_eq!(&buf[16..20], &96u32.to_le_bytes());
        assert_eq!(&buf[20..24], &1u32.to_le_bytes());
        // Trace fields are zero until the send path stamps them.
        assert_eq!(&buf[24..28], &0u32.to_le_bytes());
        assert_eq!(&buf[28..36], &0u64.to_le_bytes());
        assert_eq!(&buf[36..44], &0u64.to_le_bytes());
        assert_eq!(&buf[44..48], &1u32.to_le_bytes());
        assert_eq!(&buf[48..52], &2.0f32.to_le_bytes());
    }

    #[test]
    fn shard_fields_round_trip_and_default_to_unsharded() {
        let plain = WireMessage::new(MsgKind::GradientRequest, 2, 0.0, vec![1.0, 2.0]);
        assert_eq!(
            (plain.shard, plain.coord_offset, plain.coord_len),
            (0, 0, 0)
        );
        let back = WireMessage::decode(&plain.encode()).unwrap();
        assert_eq!(back, plain);

        let sharded = WireMessage::new(MsgKind::GradientReply, 3, 0.5, vec![7.0, 8.0, 9.0])
            .with_shard(2, 1000, 3);
        let header = WireMessage::peek(&sharded.encode()).unwrap();
        assert_eq!(header.shard, 2);
        assert_eq!(header.coord_offset, 1000);
        assert_eq!(header.coord_len, 3);
        let back = WireMessage::decode(&sharded.encode()).unwrap();
        assert_eq!(back, sharded);

        // Empty-payload control messages may carry a shard tag with a zero
        // range (SpeculationTrip names the tripping shard this way).
        let trip = WireMessage::control(MsgKind::SpeculationTrip, 4).with_shard(1, 0, 0);
        let back = WireMessage::decode(&trip.encode()).unwrap();
        assert_eq!(back.shard, 1);
        assert_eq!(back.coord_len, 0);
    }

    #[test]
    fn inconsistent_shard_ranges_are_rejected() {
        // coord_len disagreeing with the payload length must fail strictly.
        let msg = WireMessage::new(MsgKind::GradientReply, 1, 0.0, vec![1.0, 2.0, 3.0]);
        let mut buf = msg.encode().to_vec();
        buf[20..24].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            WireMessage::decode(&buf),
            Err(NetError::WireShard {
                coord_offset: 0,
                coord_len: 7,
                payload_len: 3,
            })
        );
        // An overflowing coordinate range is rejected even when the length
        // matches the payload.
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[20..24].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            WireMessage::decode(&buf),
            Err(NetError::WireShard { .. })
        ));
        // peek agrees with decode on both.
        assert!(matches!(
            WireMessage::peek(&buf),
            Err(NetError::WireShard { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "disagrees with")]
    fn with_shard_rejects_mismatched_slice_lengths() {
        let _ =
            WireMessage::new(MsgKind::GradientReply, 1, 0.0, vec![1.0, 2.0]).with_shard(0, 0, 5);
    }

    #[test]
    fn stamp_trace_round_trips_through_peek_and_leaves_payload_intact() {
        let msg =
            WireMessage::new(MsgKind::GradientReply, 9, 0.25, vec![1.0, -2.0]).with_shard(3, 10, 2);
        let mut buf = msg.encode_vec();
        stamp_trace(&mut buf, 42, 1234, 1_700_000_000_000_000);
        let header = WireMessage::peek(&buf).unwrap();
        assert_eq!(header.origin, 42);
        assert_eq!(header.seq, 1234);
        assert_eq!(header.sent_unix_us, 1_700_000_000_000_000);
        assert_eq!(header.round, 9);
        assert_eq!(header.aux, 0.25);
        // Stamping never touches the shard fields next door.
        assert_eq!(header.shard, 3);
        assert_eq!(header.coord_offset, 10);
        assert_eq!(header.coord_len, 2);
        // The logical message is unchanged by stamping.
        let back = WireMessage::decode(&buf).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    #[should_panic(expected = "stamp_trace requires an encoded")]
    fn stamp_trace_rejects_non_wire_buffers() {
        let mut junk = vec![0u8; WIRE_HEADER_BYTES];
        stamp_trace(&mut junk, 1, 1, 1);
    }

    #[test]
    fn empty_payload_round_trips() {
        let msg = WireMessage::control(MsgKind::Shutdown, 7);
        let back = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(back.values.len(), 0);
        assert_eq!(msg.encoded_len(), WIRE_HEADER_BYTES);
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let msg = WireMessage::new(
            MsgKind::ModelReply,
            u64::MAX,
            f32::NAN,
            vec![1.5, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
        );
        let back = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(back.kind, msg.kind);
        assert_eq!(back.round, msg.round);
        assert_eq!(back.aux.to_bits(), msg.aux.to_bits());
        let bits: Vec<u32> = back.values.iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u32> = msg.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn payload_encodes_like_one_le_word_per_value() {
        let quiet_payload = f32::from_bits(0x7fc0_1234);
        let signalling = f32::from_bits(0xff80_0001);
        let mut values = vec![
            1.5,
            -0.0,
            f32::INFINITY,
            quiet_payload,
            signalling,
            f32::NAN,
        ];
        values.extend((0..37).map(|i| i as f32 * -0.37));
        let msg = WireMessage::new(MsgKind::GradientReply, 4, 0.5, values);
        let mut want = msg.encode_vec()[..WIRE_HEADER_BYTES].to_vec();
        for v in &msg.values {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(msg.encode_vec(), want);
        assert_eq!(want.len(), msg.encoded_len());
    }

    #[test]
    fn bad_version_kind_and_size_are_errors() {
        let buf = WireMessage::new(MsgKind::GradientRequest, 3, 0.0, vec![1.0, 2.0]).encode();
        let mut bad_version = buf.to_vec();
        bad_version[0] = WIRE_VERSION + 1;
        assert_eq!(
            WireMessage::decode(&bad_version),
            Err(NetError::WireVersion(WIRE_VERSION + 1))
        );
        // The previous format version is rejected like any other mismatch:
        // the policy is atomic cluster upgrades, not mixed-version decode.
        let mut old_version = buf.to_vec();
        old_version[0] = WIRE_VERSION - 1;
        assert_eq!(
            WireMessage::decode(&old_version),
            Err(NetError::WireVersion(WIRE_VERSION - 1))
        );
        let mut bad_kind = buf.to_vec();
        bad_kind[1] = MsgKind::COUNT as u8;
        assert_eq!(
            WireMessage::decode(&bad_kind),
            Err(NetError::WireKind(MsgKind::COUNT as u8))
        );
        assert!(matches!(
            WireMessage::decode(&buf[..buf.len() - 1]),
            Err(NetError::WireSize { .. })
        ));
        let mut trailing = buf.to_vec();
        trailing.push(0);
        assert!(matches!(
            WireMessage::decode(&trailing),
            Err(NetError::WireSize { .. })
        ));
        assert!(matches!(
            WireMessage::decode(&[]),
            Err(NetError::WireSize { .. })
        ));
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_before_allocation() {
        // An adversarial header declaring u32::MAX payload values on a
        // header-sized buffer: must fail with FrameTooLarge, not attempt a
        // 16 GiB allocation or fall through to a size mismatch.
        let mut buf = WireMessage::control(MsgKind::GradientRequest, 1)
            .encode()
            .to_vec();
        buf[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            WireMessage::decode(&buf),
            Err(NetError::FrameTooLarge { .. })
        ));

        // One value above the cap is rejected, the cap itself would pass the
        // length check (and then fail only on the buffer-size comparison).
        buf[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 4]
            .copy_from_slice(&((MAX_WIRE_VALUES + 1) as u32).to_le_bytes());
        assert_eq!(
            WireMessage::decode(&buf),
            Err(NetError::FrameTooLarge {
                declared: (MAX_WIRE_VALUES + 1) * 4,
                max: MAX_WIRE_VALUES * 4,
            })
        );
        buf[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 4]
            .copy_from_slice(&(MAX_WIRE_VALUES as u32).to_le_bytes());
        assert!(matches!(
            WireMessage::decode(&buf),
            Err(NetError::WireSize { .. })
        ));
    }

    #[test]
    fn peek_validates_exactly_like_decode() {
        let good = WireMessage::new(MsgKind::GradientReply, 11, 0.5, vec![1.0, 2.0]).encode();
        let header = WireMessage::peek(&good).unwrap();
        assert_eq!(header.kind, MsgKind::GradientReply);
        assert_eq!(header.round, 11);
        assert_eq!(header.aux, 0.5);
        assert_eq!(header.payload_len, 2);
        assert_eq!(header.shard, 0);
        assert_eq!(header.coord_offset, 0);
        assert_eq!(header.coord_len, 0);
        assert_eq!(header.origin, 0);
        assert_eq!(header.seq, 0);
        assert_eq!(header.sent_unix_us, 0);

        // Every malformed buffer peek rejects, decode must reject too (and
        // vice versa).
        let mut cases: Vec<Vec<u8>> = vec![good.to_vec(), vec![], good[..10].to_vec()];
        let mut bad_version = good.to_vec();
        bad_version[0] = 9;
        cases.push(bad_version);
        let mut bad_kind = good.to_vec();
        bad_kind[1] = 77;
        cases.push(bad_kind);
        let mut trailing = good.to_vec();
        trailing.push(0);
        cases.push(trailing);
        let mut bad_shard = good.to_vec();
        bad_shard[COORD_LEN_OFFSET..COORD_LEN_OFFSET + 4].copy_from_slice(&9u32.to_le_bytes());
        cases.push(bad_shard);
        for case in cases {
            assert_eq!(
                WireMessage::peek(&case).is_ok(),
                WireMessage::decode(&case).is_ok()
            );
        }
    }

    #[test]
    fn decode_into_reuses_capacity_and_clears_on_error() {
        let msg = WireMessage::new(MsgKind::ModelReply, 3, 0.0, vec![5.0; 100]);
        let mut buf = Vec::new();
        let header = WireMessage::decode_into(&msg.encode(), &mut buf).unwrap();
        assert_eq!(header.payload_len, 100);
        assert_eq!(buf, vec![5.0; 100]);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();

        // Second decode of an equal-size payload reuses the same storage.
        let again = WireMessage::new(MsgKind::GradientReply, 4, 1.0, vec![7.0; 100]);
        WireMessage::decode_into(&again.encode(), &mut buf).unwrap();
        assert_eq!(buf, vec![7.0; 100]);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);

        // Errors leave the buffer cleared, never with stale values.
        assert!(WireMessage::decode_into(&[1, 2, 3], &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn payload_pool_recycles_buffers_up_to_its_bound() {
        let mut pool = PayloadPool::new(2);
        let mut a = pool.checkout();
        a.extend_from_slice(&[1.0, 2.0, 3.0]);
        let cap = a.capacity();
        let ptr = a.as_ptr();
        pool.restore(a);
        assert_eq!(pool.idle(), 1);

        let b = pool.checkout();
        assert!(b.is_empty(), "restored buffers come back cleared");
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr);
        pool.restore(b);

        pool.restore(Vec::new());
        pool.restore(Vec::new()); // beyond max_idle: dropped
        assert_eq!(pool.idle(), 2);
    }
}
