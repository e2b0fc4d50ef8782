//! `vcpsd` as a child process on loopback.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

use vcps_net::NetClient;

/// A running `vcpsd`. Dropping it kills and reaps the process; an
/// orderly [`shutdown`](Self::shutdown) is the normal way out.
pub struct Vcpsd {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Vcpsd {
    /// Spawns `vcpsd` with `flags` and blocks until it prints its
    /// `vcpsd listening on` line (recovery, when durable, runs before
    /// that line inside `Daemon::bind`).
    ///
    /// # Errors
    ///
    /// Spawn failures and a daemon that exits before listening.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Self, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut daemon = Self {
            child,
            stderr: BufReader::new(stderr),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("read vcpsd stderr: {e}"))?;
            if n == 0 {
                return Err("vcpsd exited before listening".to_string());
            }
            if let Some(addr) = line.trim_end().strip_prefix("vcpsd listening on ") {
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(daemon);
            }
        }
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(&self) -> Result<NetClient, String> {
        NetClient::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// If `/proc/<pid>/status` is unreadable or lacks the field.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the daemon to drain and exit, waits for it, and returns the
    /// counters its `--obs` exit snapshot printed (empty without
    /// `--obs`). Close every other client connection first, or the
    /// drain waits for them.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-zero exit.
    pub fn shutdown(mut self) -> Result<BTreeMap<String, u64>, String> {
        let mut client = self.connect()?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let mut rest = String::new();
        self.stderr
            .read_to_string(&mut rest)
            .map_err(|e| format!("read vcpsd stderr: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait vcpsd: {e}"))?;
        if !status.success() {
            return Err(format!("vcpsd exited with {status}: {rest}"));
        }
        Ok(parse_counters(&rest))
    }
}

impl Drop for Vcpsd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parses the `  name = value` lines of the daemon's obs exit snapshot.
fn parse_counters(stderr: &str) -> BTreeMap<String, u64> {
    stderr
        .lines()
        .filter_map(|l| {
            let (name, value) = l.trim().split_once(" = ")?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parse_counters;

    #[test]
    fn parses_obs_exit_snapshot() {
        let text = "vcpsd: orderly shutdown complete\n  wal.fsync = 12\n  net.frames.in = 7\n";
        let c = parse_counters(text);
        assert_eq!(c["wal.fsync"], 12);
        assert_eq!(c["net.frames.in"], 7);
        assert_eq!(c.len(), 2);
    }
}
