//! Driving the real binaries: `crserve` over loopback TCP and `crplan`
//! as a child process, plus the clock, peak-memory and host-drift
//! probes.

use clockroute_service::protocol::{self, JsonValue};
use clockroute_service::RetryPolicy;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// The benchmark's only clock read.
pub fn now() -> Instant {
    // crlint-allow: CR003 benchmark harness; timings are reported as metrics, never byte-compared
    Instant::now()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` with a thread scope; the closure's threads are joined (and
/// their panics propagated) before this returns.
pub fn scope<'env, R>(f: impl for<'s> FnOnce(&'s std::thread::Scope<'s, 'env>) -> R) -> R {
    // crlint-allow: CR004 benchmark client load generator, outside the program under test
    std::thread::scope(f)
}

/// Cache cap, shard and job settings shared by the `crserve` processes
/// and the in-process traced `Service`, so both take the same paths.
pub const CACHE_CAP: usize = 64;
pub const SHARDS: usize = 2;
/// One planner worker per solve. On a shared two-vCPU host a two-worker
/// solve is only as fast as the second vCPU is free: its latency swung
/// by about 30 % between runs, against about 10 % with one worker.
pub const JOBS: usize = 1;

/// A running `crserve --tcp` with a snapshot state directory.
pub struct Server {
    child: Child,
    // Held so the child never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `crserve` on `state` and returns it with one connected
    /// client and the seconds from spawn until that connection was
    /// ready (snapshot recovery included: the listener binds after it).
    pub fn spawn(bin_dir: &Path, state: &Path) -> Result<(Server, Conn, f64), String> {
        let start = now();
        let mut child = Command::new(bin_dir.join("crserve"))
            .args(["--tcp", "127.0.0.1:0", "--quiet"])
            .arg("--state")
            .arg(state)
            .args(["--cache-cap", &CACHE_CAP.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--jobs", &JOBS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn crserve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("crserve stderr: {e}"))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("crserve exited before listening".to_owned());
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                break rest
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad address {rest}: {e}"))?;
            }
        };
        let server = Server {
            child,
            _stderr: stderr,
            addr,
        };
        let conn = server.connect()?;
        Ok((server, conn, secs(start)))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Peak resident memory (VmHWM) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading crserve status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in crserve status".to_owned())
    }

    /// Sends `shutdown` on `conn` and waits for the process to drain
    /// and exit 0.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let reply = conn.call("{\"id\":\"bye\",\"op\":\"shutdown\"}");
        drop(conn);
        let deadline = now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("crserve exited with {status}")),
                Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                Ok(None) | Err(_) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("crserve did not exit after shutdown".to_owned());
                }
            }
        }
        match reply {
            Ok(r) if r.contains("\"bye\":true") => Ok(()),
            Ok(r) => Err(format!("unexpected shutdown reply {r}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: one request line out, one response line in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer
            .write_all(&out)
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 || !response.ends_with('\n') {
            return Err("connection closed mid-response".to_owned());
        }
        response.pop();
        Ok(response)
    }

    /// A route request as a closed-loop caller makes it: `busy` replies
    /// are retried on the deterministic [`RetryPolicy`] schedule. The
    /// latency runs from the first send to the final response line.
    pub fn route(&mut self, line: &str, policy: &RetryPolicy) -> Result<Routed, String> {
        let start = now();
        let mut retries = 0;
        loop {
            let response = self.call(line)?;
            if !response.contains("\"status\":\"busy\"") {
                return Ok(Routed {
                    response,
                    seconds: secs(start),
                    retries,
                });
            }
            let hint = match protocol::parse_flat(&response)
                .ok()
                .and_then(|f| f.get("retry_after_ms").cloned())
            {
                Some(JsonValue::Num(ms)) => Some(ms as u64),
                _ => None,
            };
            match policy.backoff_ms(retries, hint) {
                Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
                None => return Err(format!("busy after {retries} retries: {response}")),
            }
            retries += 1;
        }
    }

    /// The server's `stats` counters and gauges.
    pub fn stats(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let response = self.call("{\"id\":\"stats\",\"op\":\"stats\"}")?;
        let inner = response
            .split_once("\"stats\":")
            .and_then(|(_, rest)| rest.strip_suffix('}'))
            .ok_or_else(|| format!("unexpected stats reply {response}"))?;
        protocol::parse_flat(inner)?
            .into_iter()
            .map(|(k, v)| match v {
                JsonValue::Num(n) => Ok((k, n as u64)),
                other => Err(format!("stats field {k} is {other:?}")),
            })
            .collect()
    }
}

/// One completed route request.
pub struct Routed {
    pub response: String,
    pub seconds: f64,
    pub retries: u32,
}

/// The `route` request line for scenario `text`.
pub fn route_line(id: &str, text: &str) -> String {
    format!(
        "{{\"id\":{},\"op\":\"route\",\"scenario\":{}}}",
        clockroute_core::telemetry::json_string(id),
        clockroute_core::telemetry::json_string(text)
    )
}

/// One finished `crplan` invocation.
pub struct Planned {
    pub stdout: String,
    /// From spawn to exit.
    pub seconds: f64,
    /// This process's own peak resident memory, in MB.
    pub peak_rss_mb: f64,
}

/// Runs `crplan <file> [args] --quiet` to completion. Its stderr goes
/// to `<file>.err`, read back only when it fails.
pub fn crplan(bin_dir: &Path, file: &Path, args: &[&str]) -> Result<Planned, String> {
    let err_path = file.with_extension("err");
    let err_file = std::fs::File::create(&err_path)
        .map_err(|e| format!("creating {}: {e}", err_path.display()))?;
    let start = now();
    let mut child = Command::new(bin_dir.join("crplan"))
        .arg(file)
        .args(args)
        .arg("--quiet")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("cannot spawn crplan: {e}"))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let (status, peak_rss_mb) = wait_with_peak_rss(&child)?;
    let seconds = secs(start);
    read.map_err(|e| format!("reading crplan stdout: {e}"))?;
    if !status.success() {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        return Err(format!(
            "crplan {} exited with {status}: {stderr}",
            file.display()
        ));
    }
    let stdout = String::from_utf8(stdout).map_err(|_| "crplan stdout is not UTF-8")?;
    Ok(Planned {
        stdout,
        seconds,
        peak_rss_mb,
    })
}

/// Reaps `child` with `wait4`, which reports the peak resident memory
/// of that one process. `getrusage(RUSAGE_CHILDREN)` would instead give
/// the largest of every child reaped in this process, including before
/// the `exec` that started it, such as `run.sh`'s `cargo build`.
/// `child` must not be waited for again.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_with_peak_rss(child: &Child) -> Result<(ExitStatus, f64), String> {
    use std::os::unix::process::ExitStatusExt;
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let mut status = 0;
    loop {
        // SAFETY: `status` and `usage` are live and writable, `usage`
        // has the layout of the 64-bit Linux `struct rusage`, and wait4
        // writes only within them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if rc != -1 || err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waiting for crplan: {err}"));
        }
    }
    // ru_maxrss is in kB.
    Ok((ExitStatus::from_raw(status), usage.maxrss as f64 / 1024.0))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_with_peak_rss(_child: &Child) -> Result<(ExitStatus, f64), String> {
    Err("per-process peak memory is only read on 64-bit Linux".to_owned())
}

/// Times a fixed CPU-bound loop, in ms. Printed at the start and end of
/// every run next to the metrics: when it moves, the host moved.
pub fn calibration_ms() -> f64 {
    let start = now();
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        acc = clockroute_core::canon::mix64(acc ^ i);
    }
    std::hint::black_box(acc);
    secs(start) * 1e3
}

/// A fresh, empty directory `name` under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
