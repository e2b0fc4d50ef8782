//! A blocking client for `vcpsd` — request/response calls plus a
//! pipelined ingest path for replay workloads.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use vcps_core::PairEstimate;

use crate::wire::{
    self, AckSummary, Response, WireMatrix, IO_BUFFER_BYTES, REQ_FINISH_PERIOD, REQ_PING,
    REQ_SHUTDOWN,
};
use crate::NetError;

/// A connection to a running daemon.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    max_frame_bytes: u64,
}

impl NetClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        Ok(Self {
            stream,
            max_frame_bytes: u64::from(u32::MAX),
        })
    }

    fn call(&mut self, payload: &[u8]) -> Result<Response, NetError> {
        wire::write_frame(&mut self.stream, payload)?;
        let resp = wire::read_frame(&mut self.stream, self.max_frame_bytes)?;
        match Response::decode(&resp)? {
            Response::Error(msg) => Err(NetError::Server(msg)),
            other => Ok(other),
        }
    }

    /// Sends one upload wire frame (tags 3–6) and waits for its ack.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] if the daemon rejected the frame, transport
    /// errors otherwise.
    pub fn ingest(&mut self, upload_wire: &[u8]) -> Result<AckSummary, NetError> {
        match self.call(upload_wire)? {
            Response::Ack(ack) => Ok(ack),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends every frame without waiting, collecting acks concurrently
    /// on a reader thread — the pipelined replay path. The daemon's
    /// `max_frames_in_flight` budget bounds how far ahead the sends can
    /// run; beyond it this call is flow-controlled by TCP itself.
    ///
    /// Both halves are buffered like the daemon's, at the same 64 KiB
    /// (DESIGN.md §19): the frames go out through one write buffer,
    /// flushed once after the last frame, and the acks come in through
    /// a read buffer, so a burst costs a few large socket calls instead
    /// of two writes and two reads per frame.
    ///
    /// # Errors
    ///
    /// The first transport or server error on either half. A failed
    /// send leaves the connection shut down: the stream may end inside
    /// a frame, so no later request on it could be framed.
    ///
    /// # Panics
    ///
    /// Panics if the ack-reader thread panics.
    pub fn ingest_pipelined<I>(&mut self, frames: I) -> Result<AckSummary, NetError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let read_half = self.stream.try_clone().map_err(NetError::Io)?;
        let max_frame_bytes = self.max_frame_bytes;
        let (count_tx, count_rx) = std::sync::mpsc::channel::<usize>();
        let collector = std::thread::spawn(move || -> Result<AckSummary, NetError> {
            // Reading ahead is safe: until this client's next request the
            // daemon sends nothing on the connection beyond the `sent`
            // acks (one response per frame, or an error frame and close),
            // so the buffer dropped with this thread holds no byte a later
            // call needs.
            let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, read_half);
            let mut total = AckSummary::default();
            let expected = count_rx.recv().unwrap_or(0);
            for _ in 0..expected {
                let payload = wire::read_frame(&mut reader, max_frame_bytes)?;
                match Response::decode(&payload)? {
                    Response::Ack(ack) => total.merge(&ack),
                    Response::Error(msg) => return Err(NetError::Server(msg)),
                    other => return Err(unexpected(&other)),
                }
            }
            Ok(total)
        });
        let mut out = BufWriter::with_capacity(IO_BUFFER_BYTES, &self.stream);
        let mut sent = 0usize;
        let sending = frames
            .into_iter()
            .try_for_each(|frame| {
                wire::write_frame(&mut out, frame.as_ref())?;
                sent += 1;
                Ok(())
            })
            .and_then(|()| out.flush().map_err(NetError::Io));
        // `into_parts` drops whatever a failed flush left buffered,
        // without the retry that dropping a `BufWriter` would make.
        let (stream, _unsent) = out.into_parts();
        if let Err(e) = sending {
            // Frames counted in `sent` may never have left the buffer, so
            // their acks would never come, and the stream may end inside
            // a frame. Shut the socket down, so no later request on it can
            // be misframed, and join the collector without a count, so it
            // reads nothing.
            let _ = stream.shutdown(Shutdown::Both);
            drop(count_tx);
            let _ = collector.join().expect("ack reader panicked");
            return Err(e);
        }
        let _ = count_tx.send(sent);
        collector.join().expect("ack reader panicked")
    }

    /// Queries the point-to-point volume of one RSU pair.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] for unknown RSUs, transport errors
    /// otherwise.
    pub fn pair_query(&mut self, rsu_a: u64, rsu_b: u64) -> Result<PairEstimate, NetError> {
        match self.call(&wire::encode_pair_query(rsu_a, rsu_b))? {
            Response::Estimate(e) => Ok(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the full O–D matrix (`threads == 0` = daemon default).
    ///
    /// # Errors
    ///
    /// As [`pair_query`](Self::pair_query).
    pub fn od_query(&mut self, threads: u64) -> Result<WireMatrix, NetError> {
        match self.call(&wire::encode_od_query(threads))? {
            Response::Matrix(m) => Ok(m),
            other => Err(unexpected(&other)),
        }
    }

    /// Ends the measurement period; returns `(rsu, next_period_bits)`.
    ///
    /// # Errors
    ///
    /// As [`pair_query`](Self::pair_query).
    pub fn finish_period(&mut self) -> Result<Vec<(u64, u64)>, NetError> {
        match self.call(&[REQ_FINISH_PERIOD])? {
            Response::Sizes(sizes) => Ok(sizes),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&[REQ_PING])? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to drain, flush its WAL, and exit.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&[REQ_SHUTDOWN])? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a raw pre-framed payload and returns the decoded response
    /// without interpreting it — the malformed-stream tests' entry
    /// point.
    ///
    /// # Errors
    ///
    /// Transport and codec errors.
    pub fn call_raw(&mut self, payload: &[u8]) -> Result<Response, NetError> {
        wire::write_frame(&mut self.stream, payload)?;
        let resp = wire::read_frame(&mut self.stream, self.max_frame_bytes)?;
        Response::decode(&resp)
    }

    /// The underlying stream, for tests that need byte-level control.
    #[must_use]
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

fn unexpected(resp: &Response) -> NetError {
    NetError::Server(format!("unexpected response: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A peer that reads one frame and closes: a pipelined burst larger
    /// than the socket buffers returns an error within seconds, its
    /// collector joined, instead of waiting on acks that never come.
    #[test]
    fn pipelined_burst_to_a_dead_peer_fails_promptly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            wire::read_frame(&mut conn, u64::MAX).unwrap().len()
        });
        let frames = vec![vec![5u8; 2048]; 4096];
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            let _ = done_tx.send(client.ingest_pipelined(&frames));
        });
        let result = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("ingest_pipelined must return once the peer is gone");
        assert!(result.is_err(), "{result:?}");
        assert_eq!(peer.join().unwrap(), 2048);
    }
}
