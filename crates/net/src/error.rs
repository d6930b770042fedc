//! Error types for the network fabric.

use crate::NodeId;
use std::fmt;

/// Result alias for fabric operations.
pub type NetResult<T> = Result<T, NetError>;

/// Errors produced by the message fabric and the pull primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A node id is not registered in the cluster.
    UnknownNode(NodeId),
    /// The destination node has crashed (or is partitioned away).
    Unreachable {
        /// Sender of the message.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// A receive timed out before any message arrived.
    Timeout,
    /// The router has been shut down.
    RouterClosed,
    /// A request asked for more replies than there are live peers.
    NotEnoughReplies {
        /// Number of replies requested.
        requested: usize,
        /// Number of peers that could possibly reply.
        available: usize,
    },
    /// A wire payload declared an unsupported format version.
    WireVersion(u8),
    /// A wire payload used an unknown message-kind byte.
    WireKind(u8),
    /// A wire payload was truncated or carried trailing bytes.
    WireSize {
        /// The byte length the header (or minimum header size) implies.
        expected: usize,
        /// The byte length actually received.
        actual: usize,
    },
    /// A node id was registered twice on the same router.
    DuplicateNode(NodeId),
    /// A frame or wire header declared a payload beyond the accepted cap.
    ///
    /// Hostile peers control the length prefix of every frame; the cap is
    /// checked *before* any allocation so a 4-byte header cannot demand
    /// gigabytes of memory.
    FrameTooLarge {
        /// The payload size the header declared, in bytes.
        declared: usize,
        /// The maximum the decoder accepts, in bytes.
        max: usize,
    },
    /// A wire header declared an inconsistent shard coordinate range.
    ///
    /// A shard-routed message's `coord_len` must equal its payload length
    /// (each payload *is* exactly the declared slice), and the range must not
    /// overflow the u32 coordinate space. `coord_len == 0` marks an
    /// unsharded message and is always accepted.
    WireShard {
        /// First coordinate of the declared slice.
        coord_offset: u32,
        /// Declared slice length in coordinates.
        coord_len: u32,
        /// Number of f32 values the payload actually carries.
        payload_len: usize,
    },
    /// A socket-level I/O failure (connect, read or write).
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node {id}"),
            NetError::Unreachable { from, to } => write!(f, "node {to} is unreachable from {from}"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::RouterClosed => write!(f, "router has been shut down"),
            NetError::NotEnoughReplies {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} replies but only {available} peers are available"
                )
            }
            NetError::WireVersion(v) => write!(f, "unsupported wire format version {v}"),
            NetError::WireKind(k) => write!(f, "unknown wire message kind {k}"),
            NetError::WireSize { expected, actual } => {
                write!(f, "wire payload of {actual} bytes, expected {expected}")
            }
            NetError::DuplicateNode(id) => {
                write!(f, "node {id} is already registered")
            }
            NetError::FrameTooLarge { declared, max } => {
                write!(
                    f,
                    "frame declares a {declared}-byte payload, above the {max}-byte cap"
                )
            }
            NetError::WireShard {
                coord_offset,
                coord_len,
                payload_len,
            } => {
                write!(
                    f,
                    "wire header declares shard slice [{coord_offset}, {coord_offset}+{coord_len}) \
                     but carries {payload_len} payload values"
                )
            }
            NetError::Io(message) => write!(f, "transport i/o error: {message}"),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::NotEnoughReplies {
            requested: 5,
            available: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(!NetError::Timeout.to_string().is_empty());
        assert!(!NetError::RouterClosed.to_string().is_empty());
        assert!(!NetError::UnknownNode(NodeId(3)).to_string().is_empty());
        let u = NetError::Unreachable {
            from: NodeId(1),
            to: NodeId(2),
        };
        assert!(u.to_string().contains('2'));
        assert!(NetError::WireVersion(9).to_string().contains('9'));
        assert!(NetError::WireKind(7).to_string().contains('7'));
        let s = NetError::WireSize {
            expected: 18,
            actual: 4,
        };
        assert!(s.to_string().contains("18") && s.to_string().contains('4'));
        assert!(NetError::DuplicateNode(NodeId(5)).to_string().contains('5'));
        let big = NetError::FrameTooLarge {
            declared: 1024,
            max: 256,
        };
        assert!(big.to_string().contains("1024") && big.to_string().contains("256"));
        let shard = NetError::WireShard {
            coord_offset: 64,
            coord_len: 32,
            payload_len: 7,
        };
        assert!(shard.to_string().contains("64") && shard.to_string().contains('7'));
        assert!(NetError::Io("refused".into())
            .to_string()
            .contains("refused"));
    }

    #[test]
    fn io_errors_convert_with_their_message() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "nope");
        assert_eq!(NetError::from(io), NetError::Io("nope".to_string()));
    }
}
