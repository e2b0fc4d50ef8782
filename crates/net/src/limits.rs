//! Per-connection DoS budgets.
//!
//! Every limit here bounds a resource a single remote peer could
//! otherwise spend on the daemon's behalf: heap (frame size), CPU and
//! WAL bandwidth (bytes per second), parked connection threads (read
//! timeout on a started frame, write timeout on a response) and threads
//! overall (connections). A connection queues nothing of its own: the
//! frames it has not read yet wait in the kernel's socket buffer, and
//! it holds one read buffer, one write buffer and a bounded number of
//! acks (DESIGN.md §19). The limits compose with the protocol's own
//! caps — `MAX_UPLOAD_BITS` and `MAX_BATCH_FRAMES` still bound what a
//! frame that *fits* may claim once decoded.

use std::time::Duration;

use crate::NetError;

/// Resource budgets enforced on each accepted connection.
#[derive(Debug, Clone)]
pub struct ConnectionLimits {
    /// Hard cap on a frame's length prefix, checked before the payload
    /// buffer is allocated. A prefix over this answers with an error
    /// frame and closes the connection.
    pub max_frame_bytes: u64,
    /// Sustained ingest budget in bytes per second (token bucket,
    /// burst = one second's allowance). `None` disables throttling.
    /// Excess traffic is *delayed*, not rejected — the connection's
    /// thread sleeps until the bucket refills, answering nothing
    /// meanwhile.
    pub max_bytes_per_sec: Option<u64>,
    /// Once a frame has started arriving, every subsequent read must
    /// make progress within this window or the connection is dropped —
    /// the slow-loris guard. Idle time *between* frames is unlimited.
    /// It is also the socket write timeout: a peer that stops reading
    /// is dropped once a response write makes no progress for this long.
    pub read_timeout: Duration,
    /// How many connections the daemon serves at once; further accepts
    /// are answered with an error frame and closed.
    pub max_connections: usize,
}

impl Default for ConnectionLimits {
    fn default() -> Self {
        Self {
            // Generous for batch frames (2^16 uploads of modest arrays)
            // while keeping a hostile prefix's allocation bounded.
            max_frame_bytes: 64 << 20,
            max_bytes_per_sec: None,
            read_timeout: Duration::from_secs(10),
            max_connections: 64,
        }
    }
}

impl ConnectionLimits {
    /// Refuses the values that would break every connection: under a
    /// zero byte rate the token bucket's wait for the first frame is
    /// infinite (`Duration::from_secs_f64` panics the connection on it), and
    /// the OS rejects a zero socket timeout, which would leave writes
    /// unbounded.
    pub(crate) fn validate(&self) -> Result<(), NetError> {
        if self.max_bytes_per_sec == Some(0) {
            return Err(NetError::InvalidLimit {
                field: "max_bytes_per_sec",
                reason: "a zero byte rate admits no frame (use None for no throttling)",
            });
        }
        if self.read_timeout.is_zero() {
            return Err(NetError::InvalidLimit {
                field: "read_timeout",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// A minimal token bucket over a monotonic clock: `take` blocks (by
/// sleeping) until the requested bytes fit the refill rate. Burst
/// capacity is one second's allowance, so a peer can never be owed more
/// than `rate` bytes of instantaneous credit.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate: u64,
    available: f64,
    last: std::time::Instant,
}

impl TokenBucket {
    pub(crate) fn new(rate: u64) -> Self {
        Self {
            rate,
            available: rate as f64,
            last: std::time::Instant::now(),
        }
    }

    /// Debits `bytes`, sleeping until the bucket covers them. Returns
    /// how long it slept (for the throttle counter).
    pub(crate) fn take(&mut self, bytes: u64) -> Duration {
        let now = std::time::Instant::now();
        self.available = (self.available
            + now.duration_since(self.last).as_secs_f64() * self.rate as f64)
            .min(self.rate as f64);
        self.last = now;
        let mut slept = Duration::ZERO;
        if (bytes as f64) > self.available {
            let deficit = bytes as f64 - self.available;
            let wait = Duration::from_secs_f64(deficit / self.rate as f64);
            std::thread::sleep(wait);
            slept = wait;
            self.last = std::time::Instant::now();
        }
        self.available -= bytes as f64;
        slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_finite_and_positive() {
        let l = ConnectionLimits::default();
        assert!(l.max_frame_bytes > 0);
        assert!(l.max_connections > 0);
        assert!(l.read_timeout > Duration::ZERO);
    }

    #[test]
    fn token_bucket_delays_over_budget_traffic() {
        let mut bucket = TokenBucket::new(1_000_000);
        // Within the initial burst: no sleep.
        assert_eq!(bucket.take(1_000), Duration::ZERO);
        // Drain the burst, then ask for more than remains: must sleep.
        bucket.take(999_000);
        let slept = bucket.take(100_000);
        assert!(slept > Duration::ZERO);
    }
}
