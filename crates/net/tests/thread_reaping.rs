//! A daemon that serves many short connections in turn releases each
//! ended connection's thread while it runs, not only at shutdown: its
//! memory map stays flat however many connections it has served.

#![cfg(target_os = "linux")]

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vcps_net::NetClient;

/// A running `vcpsd`. Dropping it kills and reaps the process, so a
/// failing test never leaves a daemon behind.
struct Vcpsd(Child);

impl Drop for Vcpsd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The number of mappings in the daemon's address space: each thread
/// whose stack is still held adds its stack and guard page.
fn mappings(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/maps"))
        .expect("read the daemon's memory map")
        .lines()
        .count()
}

#[test]
fn ended_connection_threads_are_released_while_the_daemon_runs() {
    let dir = std::env::temp_dir().join(format!("vcps-thread-reaping-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("vcpsd.port");
    let mut daemon = Vcpsd(
        Command::new(env!("CARGO_BIN_EXE_vcpsd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vcpsd"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ => {
                assert!(Instant::now() < deadline, "vcpsd did not report its port");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let cycle = || NetClient::connect(addr.as_str()).unwrap().ping().unwrap();
    // Warm up the allocator's and the thread library's caches first.
    (0..20).for_each(|_| cycle());
    let before = mappings(daemon.0.id());
    (0..500).for_each(|_| cycle());
    let after = mappings(daemon.0.id());
    // Holding every ended thread adds about two mappings per connection.
    assert!(
        after < before + 200,
        "500 ended connections grew the daemon's map from {before} to {after} lines"
    );
    NetClient::connect(addr.as_str())
        .unwrap()
        .shutdown()
        .unwrap();
    assert!(daemon.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}
