//! The daemon in its own process, and the `/proc` readings taken of it.
//!
//! The benchmark binary re-executes itself with `--daemon` to host a
//! `taxilight_serve::Daemon` on the workload's network (the stock
//! `taxilightd` only serves the paper city). The host prints its bound
//! addresses, serves until its stdin closes, then shuts down; the parent
//! kills and reaps it in any case, so no daemon outlives a run.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};

use taxilight_serve::{Daemon, DaemonConfig, FeedFormat};

use crate::feed::{NetKind, GRACE_S, INTERVAL_S};

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// The `--daemon` entry point: serves until stdin reaches EOF.
pub fn host(args: &[String]) -> Result<(), String> {
    let mut net = None;
    let mut format = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--net" => net = NetKind::parse(value()?),
            "--format" => format = FeedFormat::parse(value()?),
            other => return Err(format!("unknown daemon argument {other}")),
        }
    }
    let net = net.ok_or("--daemon needs --net paper|grid10")?.build();
    let daemon = Daemon::bind(DaemonConfig {
        format: format.ok_or("--daemon needs --format csv|ndjson")?,
        interval_s: INTERVAL_S,
        reorder_grace_s: GRACE_S,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = daemon.handle();
    println!("feed {}", handle.feed_addr());
    println!("http {}", handle.http_addr());
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            handle.shutdown();
        });
        daemon.run(&net).map_err(|e| format!("daemon: {e}"))
    })
}

/// A running daemon host process.
pub struct DaemonProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The feed listener.
    pub feed: SocketAddr,
    /// The HTTP listener.
    pub http: SocketAddr,
}

impl DaemonProc {
    /// Starts a daemon host for `net`/`format` and waits for its addresses.
    pub fn spawn(net: NetKind, format: FeedFormat) -> Result<DaemonProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let format = match format {
            FeedFormat::Csv => "csv",
            FeedFormat::NdJson => "ndjson",
        };
        let mut child = Command::new(exe)
            .args(["--daemon", "--net", net.as_str(), "--format", format])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut addr = |want: &str| -> Result<SocketAddr, String> {
            let line = lines
                .next()
                .ok_or("daemon exited before printing its addresses")?
                .map_err(|e| e.to_string())?;
            line.strip_prefix(want)
                .and_then(|a| a.trim().parse().ok())
                .ok_or(format!("unexpected daemon output {line:?}"))
        };
        match (addr("feed"), addr("http")) {
            (Ok(feed), Ok(http)) => Ok(DaemonProc { child, stdin, feed, http }),
            (Err(e), _) | (_, Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// User plus system CPU time so far, seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / USER_HZ)
    }

    /// Stops the daemon and waits until it has exited.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Machine-wide CPU steal so far (all CPUs), seconds; `None` where
/// `/proc/stat` is unavailable.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// This process's peak resident set, MiB.
pub fn self_peak_rss_mb() -> Option<f64> {
    vm_hwm_mb("/proc/self/status")
}

fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
