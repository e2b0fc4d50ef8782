//! Where and on what a result was measured.

use std::fmt::Write as _;
use std::path::Path;

use vcps_hash::splitmix64;

/// JSON string literal for `s`.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `target-cpu` the workspace's `.cargo/config.toml` compiles for.
fn target_cpu(root: &Path) -> String {
    std::fs::read_to_string(root.join(".cargo/config.toml"))
        .ok()
        .and_then(|s| {
            s.lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .find_map(|l| l.split("target-cpu=").nth(1))
                .map(|v| v.split('"').next().unwrap_or(v).trim().to_string())
        })
        .unwrap_or_else(|| "default".to_string())
}

/// The git revision, when the tree is a git checkout.
fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            files.push(path);
        }
    }
}

/// A digest of the sources the daemon and benchmark build from
/// (`crates/`, `vendor/`, the lock file and the cargo config), so a
/// result names its code even outside a git checkout.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.push(root.join(".cargo/config.toml"));
    files.sort();
    let mut h = 0u64;
    for f in files {
        h = splitmix64(
            h ^ fnv(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes()),
        );
        h = splitmix64(h ^ fnv(&std::fs::read(&f).unwrap_or_default()));
    }
    format!("{h:016x}")
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The provenance record as a JSON object.
#[must_use]
pub fn record(
    root: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    flags: &[String],
    params: &[(&'static str, String)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let params = params
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(",");
    let flags = flags
        .iter()
        .map(|f| json_str(f))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"nproc\":{nproc},\"cpu_model\":{},\"target_cpu\":{},\"git_rev\":{},\"source_digest\":{},\"vcpsd_flags\":[{flags}],\"network\":\"loopback TCP (127.0.0.1)\",\"workload_params\":{{{params}}}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(&target_cpu(root)),
        json_str(&git_rev(root)),
        json_str(&source_digest(root)),
    )
}

#[cfg(test)]
mod tests {
    use super::json_str;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
