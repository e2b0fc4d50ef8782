//! The binaries' command lines: a mistyped flag or value must stop the
//! program with status 2 and name the flag, and a limit no connection
//! survives must stop `vcpsd` before it listens — never a silent
//! fallback to a default.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and returns its output, killing it (and
/// failing) if it is still running after ten seconds — a daemon that
/// accepted a bad command line would otherwise serve forever.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} kept running instead of refusing its command line");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

fn assert_refused(output: &Output, code: i32, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(code), "stderr: {stderr}");
    assert!(
        stderr.contains(flag),
        "stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn vcpsd_refuses_an_unparsable_value_and_an_unknown_flag() {
    let vcpsd = env!("CARGO_BIN_EXE_vcpsd");
    let out = run(vcpsd, &["--addr", "127.0.0.1:0", "--shards", "four"]);
    assert_refused(&out, 2, "--shards");
    let out = run(vcpsd, &["--addr", "127.0.0.1:0", "--shard", "4"]);
    assert_refused(&out, 2, "--shard");
}

#[test]
fn vcpsd_refuses_limits_no_connection_survives() {
    let vcpsd = env!("CARGO_BIN_EXE_vcpsd");
    for (flag, field) in [
        ("--max-bytes-per-sec", "max_bytes_per_sec"),
        ("--read-timeout-ms", "read_timeout"),
    ] {
        let out = run(vcpsd, &["--addr", "127.0.0.1:0", flag, "0"]);
        assert_refused(&out, 1, field);
    }
}

#[test]
fn vcps_load_refuses_an_unparsable_value() {
    let load = env!("CARGO_BIN_EXE_vcps-load");
    let out = run(load, &["--addr", "127.0.0.1:9", "--connections", "two"]);
    assert_refused(&out, 2, "--connections");
}
