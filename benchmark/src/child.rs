//! Running one `uqsim` invocation as a child process and judging its
//! output: wall time, CPU time and peak RSS from `wait4` (taken by a
//! small reaper process), an FNV-1a fingerprint of stdout, and the
//! request count of the three CLI schemas.

use serde_json::Value;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.tv_sec as f64 + self.tv_usec as f64 * 1e-6
    }
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

// No crates.io, so no `libc` crate: std already links the C library, and
// this is the one symbol the harness needs from it.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost and printed.
#[derive(Debug, PartialEq)]
pub struct ChildRun {
    /// Spawn → exit.
    pub wall_s: f64,
    /// User + system CPU time.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    /// Exited normally with status 0.
    pub success: bool,
}

/// First argument of the harness binary when it runs as the reaper.
pub const REAP_FLAG: &str = "--reap";

/// Runs `bin args…` from `cwd` with `TMPDIR=tmp` and stderr appended to
/// `stderr_log`, through a fresh copy of this binary in reaper mode.
///
/// Linux starts a child's `ru_maxrss` at its parent's resident set, and
/// the harness grows (25 MB after one `gen_dsb` set-up) past what a small
/// child ever reaches (`two_tier_sweep`: 13 MB). The reaper has just been
/// exec'd, holds ~2 MB, and is the parent the child is measured under.
pub fn run(
    bin: &Path,
    args: &[String],
    cwd: &Path,
    tmp: &Path,
    stderr_log: &Path,
) -> std::io::Result<ChildRun> {
    let log = File::options().create(true).append(true).open(stderr_log)?;
    let out = Command::new(std::env::current_exe()?)
        .arg(REAP_FLAG)
        .arg(bin)
        .args(args)
        .current_dir(cwd)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stderr(log)
        .output()?;
    decode(&out.stdout).ok_or_else(|| std::io::Error::other("the reaper returned no header"))
}

/// Reaper mode: runs `command`, reaps it with `wait4` for its resource
/// usage, and prints a one-line header followed by the child's stdout.
pub fn reap(command: &[String]) -> std::io::Result<()> {
    let (bin, args) = command
        .split_first()
        .ok_or_else(|| std::io::Error::other("nothing to run"))?;
    let run = spawn_and_reap(Path::new(bin), args)?;
    std::io::stdout().write_all(&encode(&run))
}

fn spawn_and_reap(bin: &Path, args: &[String]) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable, and laid out as the
    // C library expects on 64-bit Linux; the pid is a child of this
    // process that nothing else has waited on (`child.wait()` is never
    // called, and dropping a `Child` does not reap it).
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(ChildRun {
        wall_s,
        cpu_s: usage.ru_utime.secs() + usage.ru_stime.secs(),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        stdout,
        // WIFEXITED && WEXITSTATUS == 0.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// `wall_s cpu_s peak_rss_mb success\n`, then the child's stdout.
fn encode(run: &ChildRun) -> Vec<u8> {
    let header = format!(
        "{} {} {} {}\n",
        run.wall_s, run.cpu_s, run.peak_rss_mb, run.success
    );
    [header.as_bytes(), &run.stdout].concat()
}

fn decode(bytes: &[u8]) -> Option<ChildRun> {
    let end = bytes.iter().position(|&b| b == b'\n')?;
    let mut fields = std::str::from_utf8(&bytes[..end]).ok()?.split(' ');
    Some(ChildRun {
        wall_s: fields.next()?.parse().ok()?,
        cpu_s: fields.next()?.parse().ok()?,
        peak_rss_mb: fields.next()?.parse().ok()?,
        success: fields.next()?.parse().ok()?,
        stdout: bytes[end + 1..].to_vec(),
    })
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Requests completed inside the measured window, from whichever of the
/// three CLI output schemas `doc` is: `run` (`latency_s.count`), `why`
/// (`requests`), or `sweep` (the sum of `rows[].completed`).
pub fn request_count(doc: &Value) -> Option<u64> {
    if let Some(n) = doc["latency_s"]["count"].as_u64() {
        return Some(n);
    }
    if let Some(n) = doc["requests"].as_u64() {
        return Some(n);
    }
    let rows = doc["rows"].as_array()?;
    rows.iter().map(|r| r["completed"].as_u64()).sum()
}

/// Checks one child's output and returns its request count: the child
/// exited 0, stdout is JSON, it measured at least one request, and it did
/// not complete more requests than it generated.
pub fn check(run: &ChildRun) -> Result<u64, String> {
    if !run.success {
        return Err("child exited non-zero".into());
    }
    let text = std::str::from_utf8(&run.stdout).map_err(|e| format!("stdout not UTF-8: {e}"))?;
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("stdout not JSON: {e}"))?;
    let requests = request_count(&doc).ok_or("no request count in output")?;
    if requests == 0 {
        return Err("measured window is empty".into());
    }
    if let (Some(generated), Some(completed)) =
        (doc["generated"].as_u64(), doc["completed"].as_u64())
    {
        if generated < completed {
            return Err(format!("generated {generated} < completed {completed}"));
        }
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn doc(text: &str) -> Value {
        serde_json::from_str(text).expect("test document parses")
    }

    #[test]
    fn request_count_reads_all_three_cli_schemas() {
        let run = doc(r#"{"generated": 9, "completed": 8, "latency_s": {"count": 7}}"#);
        assert_eq!(request_count(&run), Some(7));
        let why = doc(r#"{"requests": 19922, "rows": [{"site": "x", "kind": "network"}]}"#);
        assert_eq!(request_count(&why), Some(19922));
        let sweep = doc(r#"{"rows": [{"completed": 40}, {"completed": 2}]}"#);
        assert_eq!(request_count(&sweep), Some(42));
        assert_eq!(
            request_count(&doc(r#"{"rows": [{"offered_qps": 1}]}"#)),
            None
        );
        assert_eq!(request_count(&doc("{}")), None);
    }

    fn finished(stdout: &str, success: bool) -> ChildRun {
        ChildRun {
            wall_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            stdout: stdout.as_bytes().to_vec(),
            success,
        }
    }

    #[test]
    fn check_rejects_each_failure_it_names() {
        let good = r#"{"generated": 9, "completed": 8, "latency_s": {"count": 7}}"#;
        assert_eq!(check(&finished(good, true)), Ok(7));
        assert!(check(&finished(good, false)).is_err());
        assert!(check(&finished("not json", true)).is_err());
        assert!(check(&finished(r#"{"requests": 0}"#, true)).is_err());
        let over = r#"{"generated": 1, "completed": 2, "latency_s": {"count": 1}}"#;
        assert!(check(&finished(over, true)).is_err());
    }

    #[test]
    fn a_reaped_child_reports_usage_and_exit_status() {
        let sh = Path::new("/bin/sh");
        let ok = spawn_and_reap(sh, &["-c".into(), "echo hi".into()]).unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout, b"hi\n");
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0);
        let bad = spawn_and_reap(sh, &["-c".into(), "exit 3".into()]).unwrap();
        assert!(!bad.success);
    }

    #[test]
    fn the_reaper_header_round_trips() {
        let run = ChildRun {
            wall_s: 1.467_781_234,
            cpu_s: 0.25,
            peak_rss_mb: 35.42578125,
            stdout: b"{\n  \"a\": 1\n}\n".to_vec(),
            success: true,
        };
        assert_eq!(decode(&encode(&run)), Some(run));
        assert_eq!(decode(b"no header"), None);
    }
}
