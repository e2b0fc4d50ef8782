//! A blocking client for `vcpsd` — request/response calls plus a
//! pipelined ingest path for replay workloads.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc;

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
    /// on a reader thread — the pipelined replay path. The daemon reads
    /// a connection's frames only as it serves them, so how far ahead
    /// the sends can run is bounded by the socket buffers: beyond them
    /// this call is flow-controlled by TCP itself.
    ///
    /// Both halves are buffered like the daemon's, at the same 64 KiB
    /// (DESIGN.md §19): the frames go out in chunks of up to 64 KiB, one
    /// socket write each, and the acks come in through a read buffer, so
    /// a burst costs a few large socket calls instead of two writes and
    /// two reads per frame. After each chunk's write the collector learns
    /// how many more frames are on the wire and reads their acks while
    /// later chunks are sent, so a burst whose acks outgrow the socket
    /// buffers never stalls the daemon. A refused frame does not stop
    /// the collector: it reads every ack and returns the first refusal.
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
        let (on_wire, counts) = mpsc::channel::<usize>();
        let collector = std::thread::spawn(move || {
            // Reading ahead is safe: until this client's next request the
            // daemon sends nothing on the connection beyond the acks of
            // the frames sent (one response per frame, or an error frame
            // and close), so the buffer dropped with this thread holds no
            // byte a later call needs.
            let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, read_half);
            collect_acks(&mut reader, &counts, max_frame_bytes)
        });
        let mut pipe = Pipe {
            stream: &self.stream,
            on_wire,
            chunk: Vec::with_capacity(IO_BUFFER_BYTES),
            staged: 0,
        };
        let sending = frames
            .into_iter()
            .try_for_each(|frame| pipe.send(frame.as_ref()))
            .and_then(|()| pipe.hand_over());
        // Hanging up the count channel lets the collector end once it
        // has read the acks of every frame it was told about.
        drop(pipe);
        if let Err(e) = sending {
            // The failed chunk may have left in part, so the stream may
            // end inside a frame, and its acks will not all come. Shut
            // the socket down, so no later request on it can be
            // misframed and the collector's reads end, and join the
            // collector, which never got a count for that chunk.
            let _ = self.stream.shutdown(Shutdown::Both);
            let _ = collector.join().expect("ack reader panicked");
            return Err(e);
        }
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

/// The sending half of a pipelined burst: frames are staged in one
/// chunk of up to [`IO_BUFFER_BYTES`] and handed to the socket in one
/// write, and only then is the collector told how many more frames are
/// on the wire.
struct Pipe<'a> {
    stream: &'a TcpStream,
    on_wire: mpsc::Sender<usize>,
    chunk: Vec<u8>,
    staged: usize,
}

impl Pipe<'_> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.chunk.len() + 4 + frame.len() > IO_BUFFER_BYTES {
            self.hand_over()?;
        }
        if 4 + frame.len() >= IO_BUFFER_BYTES {
            // A frame that fills a chunk on its own goes out uncopied.
            wire::write_frame(&mut self.stream, frame)?;
            let _ = self.on_wire.send(1);
        } else {
            wire::write_frame(&mut self.chunk, frame)?;
            self.staged += 1;
        }
        Ok(())
    }

    /// Writes the staged chunk and reports its frames to the collector.
    fn hand_over(&mut self) -> Result<(), NetError> {
        if self.staged > 0 {
            self.stream.write_all(&self.chunk).map_err(NetError::Io)?;
            self.chunk.clear();
            let _ = self.on_wire.send(std::mem::take(&mut self.staged));
        }
        Ok(())
    }
}

/// Reads one ack for every frame the sender reports on the wire, as the
/// counts arrive, until the sender hangs up. A refused frame does not
/// stop the reading, so the connection stays framed and the daemon never
/// waits on unread acks; the first refusal is the result.
fn collect_acks(
    reader: &mut impl Read,
    counts: &mpsc::Receiver<usize>,
    max_frame_bytes: u64,
) -> Result<AckSummary, NetError> {
    let mut total = AckSummary::default();
    let mut refused = None;
    let read = counts.iter().try_for_each(|frames| {
        (0..frames).try_for_each(|_| {
            match Response::decode(&wire::read_frame(reader, max_frame_bytes)?)? {
                Response::Ack(ack) => total.merge(&ack),
                Response::Error(msg) => {
                    refused.get_or_insert(NetError::Server(msg));
                }
                other => return Err(unexpected(&other)),
            }
            Ok(())
        })
    });
    match (refused, read) {
        (Some(e), _) | (None, Err(e)) => Err(e),
        (None, Ok(())) => Ok(total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Daemon, DaemonConfig};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};
    use vcps_core::{BitArray, RsuId, Scheme};
    use vcps_sim::{PeriodUpload, SequencedUpload};

    /// The collector reads acks while the burst is still being sent:
    /// 300,000 pipelined uploads, whose 13.5 MB of acks far outgrow the
    /// socket buffers, all come back from a daemon that drops a peer
    /// once a response write stalls for 2 s.
    #[test]
    fn pipelined_burst_reads_acks_while_sending() {
        let mut config = DaemonConfig::new(Scheme::variable(2, 3.0, 41).unwrap());
        config.limits.read_timeout = Duration::from_secs(2);
        let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
        let addr = daemon.local_addr();
        let handle = daemon.spawn();
        let frame = SequencedUpload {
            seq: 0,
            upload: PeriodUpload {
                rsu: RsuId(1),
                counter: 0,
                bits: BitArray::new(64),
            },
        }
        .encode()
        .to_vec();
        assert_eq!(frame.len(), 42);
        let (done_tx, done_rx) = mpsc::channel();
        let started = Instant::now();
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            let ack = client.ingest_pipelined(std::iter::repeat_n(&frame, 300_000));
            let _ = done_tx.send((ack, client));
        });
        let (ack, mut client) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("300,000 pipelined uploads must be acked within 10 s");
        let ack = ack.unwrap_or_else(|e| panic!("after {:?}: {e}", started.elapsed()));
        assert_eq!(
            (ack.frames, ack.fresh, ack.duplicate),
            (300_000, 1, 299_999)
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

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
