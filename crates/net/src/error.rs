//! Typed errors for the daemon's framing and request layers.

use std::error::Error;
use std::fmt;
use std::io;

use vcps_sim::SimError;

/// Errors produced by the network layer — framing, limits, transport.
///
/// Every malformed or hostile input a remote peer can produce maps to a
/// variant here; none of them may panic or allocate proportionally to an
/// attacker-chosen length field.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A frame's length prefix exceeded the connection's cap. Detected
    /// *before* any allocation — the claimed size never touches the
    /// heap.
    FrameTooLarge {
        /// The length the prefix claimed.
        claimed: u64,
        /// The connection's `max_frame_bytes` cap.
        limit: u64,
    },
    /// The peer closed the connection mid-frame (or mid-prefix).
    UnexpectedEof,
    /// A started frame failed to make progress within the read timeout
    /// (the slow-loris guard).
    Timeout,
    /// A well-framed payload carried a tag the daemon does not serve.
    UnknownTag(u8),
    /// A frame was structurally invalid below the framing layer.
    Malformed(&'static str),
    /// The server answered a request with its error frame.
    Server(String),
    /// The server refused the connection (connection budget exhausted).
    ConnectionLimit,
    /// A [`crate::ConnectionLimits`] value no connection could be
    /// served under, refused by [`crate::Daemon::bind`].
    InvalidLimit {
        /// The limit's field name.
        field: &'static str,
        /// Why the value is refused.
        reason: &'static str,
    },
    /// A transport-level I/O failure.
    Io(io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::FrameTooLarge { claimed, limit } => {
                write!(
                    f,
                    "frame length prefix {claimed} exceeds the {limit}-byte cap"
                )
            }
            NetError::UnexpectedEof => write!(f, "peer disconnected mid-frame"),
            NetError::Timeout => {
                write!(f, "no progress on a started frame within the read timeout")
            }
            NetError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            NetError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
            NetError::Server(msg) => write!(f, "server error: {msg}"),
            NetError::ConnectionLimit => write!(f, "server connection budget exhausted"),
            NetError::InvalidLimit { field, reason } => {
                write!(f, "invalid connection limit {field}: {reason}")
            }
            NetError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => NetError::UnexpectedEof,
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

impl From<SimError> for NetError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::MalformedMessage { reason } => NetError::Malformed(reason),
            other => NetError::Server(other.to_string()),
        }
    }
}
