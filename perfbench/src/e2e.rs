//! The untraced run: the daemon in its own process, driven over real
//! sockets by a load generator of at most two threads and two
//! connections (one feed connection, one HTTP keep-alive connection).
//!
//! 1. **Set-up**, `shape.setups` times: start a daemon process, write the
//!    warm-up connection (first window plus grace), close it, and poll
//!    `/stats` every 2 ms until version 1 is visible. Every daemon but the
//!    last is stopped again.
//! 2. **Measured phase** on the last daemon, over a second feed
//!    connection: `backfill` writes as fast as backpressure allows until
//!    `--seconds` have passed, while probing `/stats` at 100 Hz; `live`
//!    paces `--seconds × 120` feed seconds and sends navigation queries at
//!    500/s.
//! 3. **Drain**: until the daemon has processed every record sent and
//!    published every round the feed makes due.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use taxilight_bench::summary::percentile;
use taxilight_core::ScheduleView;

use crate::client::{json_str, json_u64, Client};
use crate::feed::{feed_start, Feed, Phase, RoundClock, Shape, Workload};
use crate::proc::{steal_s, DaemonProc};

/// Records per write on the closed-loop feed.
pub const WRITE_RECORDS: usize = 256;
/// Longest wait for the daemon to drain after the feed ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Every how many `/schedule` answers one is kept for the replay check.
const ANSWER_SAMPLE: u64 = 25;
/// `/stats` samples during a paced phase, per navigation query (10/s at 500
/// queries/s); after the feed ends every 5th query, to see the drain.
const STATS_EVERY: u64 = 50;

/// One HTTP exchange of the measured phase.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    version: Option<u64>,
}

/// A `/schedule` answer kept for the replay check.
pub struct Answer {
    /// The light asked about.
    pub light: u32,
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Everything the untraced run measured, plus what the oracle checks.
pub struct E2e {
    /// Each daemon start's time to first visible snapshot, seconds.
    pub setup_s: Vec<f64>,
    /// Measured-phase records over their first byte to drained.
    pub ingest_rps: f64,
    /// Time to visibility of each measured-phase round, ms.
    pub ttv_ms: Vec<f64>,
    /// Latency of each query from its due time, ms (failed: infinite).
    pub query_ms: Vec<f64>,
    /// How late each query was sent, ms: the generator's share of
    /// `query_ms`.
    pub query_late_ms: Vec<f64>,
    /// Daemon `VmHWM` at the end, MiB.
    pub peak_rss_mb: f64,
    /// Daemon CPU time over its life, seconds.
    pub daemon_cpu_s: f64,
    /// Machine CPU steal over the run, seconds.
    pub steal_s: f64,
    /// Measured-phase records written.
    pub sent: usize,
    /// The measured-phase connection (the daemon got its first `sent`
    /// records).
    pub phase: Phase,
    /// The daemon's `records_processed`, both connections.
    pub processed: u64,
    /// The daemon's undecodable lines.
    pub bad_lines: u64,
    /// Rounds the feed makes due (warm-up round included).
    pub rounds_expected: u64,
    /// The daemon's published version.
    pub rounds_published: u64,
    /// Queries sent in the measured phase (navigation queries or probes).
    pub queries: u64,
    /// Queries that failed or timed out.
    pub queries_failed: u64,
    /// `live`: the feed-clock ingest lag was still growing at the end.
    pub lag_growing: bool,
    /// How late the generator sent writes and queries, ms.
    pub late_ms: Vec<f64>,
    /// Records offered per second of feed writing.
    pub offered_rps: f64,
    /// The daemon's final `/stats` body.
    pub final_stats: String,
    /// `/schedule` answers: a sample during the phase and a sweep after.
    pub answers: Vec<Answer>,
}

/// Turns an I/O error into a message naming what failed.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// Starts a daemon and feeds it the warm-up; returns it once version 1
/// is visible, with the set-up time.
fn set_up(
    shape: &Shape,
    warm: &Phase,
    warm_view: &ScheduleView,
) -> Result<(DaemonProc, f64), String> {
    let t0 = Instant::now();
    let daemon = DaemonProc::spawn(shape.net, shape.format)?;
    TcpStream::connect(daemon.feed)
        .and_then(|mut c| c.write_all(&warm.bytes))
        .map_err(io("write the warm-up"))?;
    // Connected only now: the daemon reaps HTTP connections idle for 1 s.
    let mut http = Client::connect(daemon.http).map_err(io("connect to the daemon's HTTP port"))?;
    let mut body = String::new();
    loop {
        http.get("/stats", &mut body).map_err(io("poll /stats during set-up"))?;
        if json_u64(&body, "version").unwrap_or(0) >= 1 {
            break;
        }
        if t0.elapsed() > Duration::from_secs(120) {
            return Err(format!("no snapshot 120 s after start: {body}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let digest = format!("{:#018x}", warm_view.digest());
    if json_u64(&body, "version") != Some(1)
        || json_str(&body, "digest") != Some(&digest)
        || json_u64(&body, "records_processed") != Some(warm.len() as u64)
    {
        return Err(format!("first snapshot diverges from the replay ({digest}): {body}"));
    }
    Ok((daemon, setup_s))
}

/// Global index of each round's trigger record over warm-up then phase;
/// entry `v - 1` belongs to version `v`.
fn triggers(warm: &Phase, phase: &Phase) -> Vec<usize> {
    let mut clock = RoundClock::daemon();
    let mut out = Vec::new();
    for (k, &t) in warm.times.iter().chain(&phase.times).enumerate() {
        for _ in 0..clock.observe(t) {
            out.push(k);
        }
    }
    out
}

/// The paced schedule of `phase`: one write per delivery second,
/// `(first record, due instant)`, `compression` feed seconds per wall
/// second from `start`.
pub fn paced_writes(phase: &Phase, start: Instant, compression: f64) -> Vec<(usize, Instant)> {
    let s0 = phase.seconds[0];
    let mut writes = Vec::new();
    for (k, &s) in phase.seconds.iter().enumerate() {
        if k == 0 || phase.seconds[k - 1] != s {
            writes.push((k, start + Duration::from_secs_f64((s - s0) as f64 / compression)));
        }
    }
    writes
}

/// Writes each of `writes` at its due instant; returns how late each
/// write started, ms.
pub fn write_paced(
    conn: &mut TcpStream,
    phase: &Phase,
    writes: &[(usize, Instant)],
) -> std::io::Result<Vec<f64>> {
    let mut late = Vec::with_capacity(writes.len());
    for (w, &(first, due)) in writes.iter().enumerate() {
        let end = writes.get(w + 1).map_or(phase.len(), |x| x.0);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        conn.write_all(&phase.bytes[phase.prefix_len(first)..phase.prefix_len(end)])?;
    }
    Ok(late)
}

/// Writes `phase` in blocks of [`WRITE_RECORDS`] as fast as backpressure
/// allows until `deadline`; returns each write's `(first record, start)`.
/// `sent` follows the records written.
pub fn write_closed(
    conn: &mut TcpStream,
    phase: &Phase,
    deadline: Instant,
    sent: &AtomicUsize,
) -> std::io::Result<Vec<(usize, Instant)>> {
    let mut writes = Vec::new();
    let mut k = 0;
    while k < phase.len() && Instant::now() < deadline {
        let end = (k + WRITE_RECORDS).min(phase.len());
        writes.push((k, Instant::now()));
        conn.write_all(&phase.bytes[phase.prefix_len(k)..phase.prefix_len(end)])?;
        k = end;
        sent.store(k, Ordering::SeqCst);
    }
    Ok(writes)
}

/// Runs set-up and the measured phase; the daemon is stopped on return.
pub fn run(
    workload: Workload,
    seconds: u64,
    feed: &mut Feed,
    warm_view: &ScheduleView,
    lights: &[u32],
    light_count: usize,
) -> Result<E2e, String> {
    let shape = workload.shape();
    let steal0 = steal_s();
    let mut setup_s = Vec::new();
    let mut last = None;
    for k in 0..shape.setups {
        let (daemon, s) = set_up(&shape, &feed.warmup, warm_view)?;
        setup_s.push(s);
        if k + 1 == shape.setups {
            last = Some(daemon);
        } else {
            daemon.stop();
        }
    }
    let daemon = last.ok_or("a workload sets up at least once")?;
    let warm_n = feed.warmup.len();

    let phase = match shape.compression {
        // Enough records for 1.5 times the warm-up's intake rate.
        None => {
            let rate = warm_n as f64 / percentile(&setup_s, 0.5);
            feed.measured((1.5 * rate * seconds as f64) as usize, u32::MAX)
        }
        Some(c) => {
            let last_s = feed.warmup.seconds.last().copied().unwrap_or(0);
            feed.measured(usize::MAX, last_s + (c * seconds as f64) as u32)
        }
    };
    let trig = triggers(&feed.warmup, &phase);
    let mut http = Client::connect(daemon.http).map_err(io("connect to the daemon's HTTP port"))?;
    let mut run =
        Measure { shape, warm_n, phase: &phase, trig: &trig, http: &mut http, daemon: &daemon };
    let out = match shape.compression {
        None => run.closed_loop(seconds)?,
        Some(c) => run.paced(c, lights)?,
    };

    // Final state, a sweep of /schedule answers, then the process figures.
    let mut final_stats = String::new();
    http.get("/stats", &mut final_stats).map_err(io("final /stats"))?;
    let step = (light_count / 16).max(1);
    let mut sweep = Vec::new();
    for light in (0..light_count).step_by(step) {
        let mut body = String::new();
        let status =
            http.get(&format!("/schedule/{light}"), &mut body).map_err(io("/schedule sweep"))?;
        sweep.push(Answer { light: light as u32, status, body });
    }
    let peak_rss_mb = daemon.peak_rss_mb().ok_or("cannot read the daemon's VmHWM")?;
    let daemon_cpu_s = daemon.cpu_s().ok_or("cannot read the daemon's CPU time")?;
    daemon.stop();
    let steal = match (steal0, steal_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };

    let drained = out.drained.ok_or_else(|| {
        format!("daemon did not drain within {DRAIN_LIMIT:?} of the feed's end: {final_stats}")
    })?;
    let expected = trig.iter().filter(|&&g| g < warm_n + out.sent).count() as u64;
    // Time to visibility of every round the measured phase fires: from
    // the scheduled send of its trigger record to the first response
    // carrying its version.
    let mut ttv_ms = Vec::new();
    for (v, &g) in trig.iter().enumerate().take(expected as usize).skip(1) {
        let version = v as u64 + 1;
        let sent_at = out.send_time(g - warm_n);
        let seen = out.versions.iter().filter(|(_, x)| *x >= version).map(|(t, _)| *t).min();
        if let Some(seen) = seen {
            ttv_ms.push(seen.saturating_duration_since(sent_at).as_secs_f64() * 1e3);
        }
    }
    let mut answers = out.answers;
    answers.extend(sweep);
    Ok(E2e {
        setup_s,
        ingest_rps: out.sent as f64 / drained.duration_since(out.first_byte).as_secs_f64(),
        ttv_ms,
        query_ms: out
            .queries
            .iter()
            .map(|x| {
                if x.ok {
                    x.done.duration_since(x.due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
        query_late_ms: out
            .queries
            .iter()
            .map(|x| x.sent.duration_since(x.due).as_secs_f64() * 1e3)
            .collect(),
        peak_rss_mb,
        daemon_cpu_s,
        steal_s: steal,
        sent: out.sent,
        processed: json_u64(&final_stats, "records_processed").unwrap_or(0),
        bad_lines: json_u64(&final_stats, "bad_lines").unwrap_or(0),
        rounds_expected: expected,
        rounds_published: json_u64(&final_stats, "version").unwrap_or(0),
        queries: out.queries.len() as u64,
        queries_failed: out.queries.iter().filter(|x| !x.ok).count() as u64,
        lag_growing: out.lag_growing,
        late_ms: out.late_ms,
        offered_rps: out.sent as f64 / out.write_s.max(1e-9),
        final_stats,
        answers,
        phase,
    })
}

/// The measured phase's raw observations.
struct PhaseOut {
    sent: usize,
    first_byte: Instant,
    drained: Option<Instant>,
    write_s: f64,
    /// `(first record, scheduled send)` of each write, in order.
    writes: Vec<(usize, Instant)>,
    /// The timed queries: navigation queries, or `/stats` probes.
    queries: Vec<Exchange>,
    /// `(arrival, version)` of every response that carried a version.
    versions: Vec<(Instant, u64)>,
    late_ms: Vec<f64>,
    lag_growing: bool,
    answers: Vec<Answer>,
}

impl PhaseOut {
    /// Scheduled send of measured-phase record `m`.
    fn send_time(&self, m: usize) -> Instant {
        let k = self.writes.partition_point(|&(first, _)| first <= m);
        self.writes[k.saturating_sub(1)].1
    }
}

struct Measure<'a> {
    shape: Shape,
    warm_n: usize,
    phase: &'a Phase,
    trig: &'a [usize],
    http: &'a mut Client,
    daemon: &'a DaemonProc,
}

impl Measure<'_> {
    /// Total rounds due once the first `sent` phase records are in.
    fn due_rounds(&self, sent: usize) -> u64 {
        self.trig.iter().filter(|&&g| g < self.warm_n + sent).count() as u64
    }

    /// One timed HTTP exchange; a failure reconnects.
    fn exchange(&mut self, due: Instant, target: &str, body: &mut String) -> Exchange {
        let sent = Instant::now();
        let status = self.http.get(target, body);
        let done = Instant::now();
        let ok = matches!(status, Ok(200));
        if status.is_err() {
            if let Ok(c) = Client::connect(self.daemon.http) {
                *self.http = c;
            }
        }
        Exchange { due, sent, done, ok, version: if ok { json_u64(body, "version") } else { None } }
    }

    /// Whether `/stats` in `body` shows every record of the first `sent`
    /// phase records processed and every round they make due published.
    fn drained(&self, body: &str, sent: usize) -> bool {
        json_u64(body, "records_processed") == Some((self.warm_n + sent) as u64)
            && json_u64(body, "version") == Some(self.due_rounds(sent))
    }

    /// `backfill`: write until `seconds` have passed, probing `/stats`.
    fn closed_loop(&mut self, seconds: u64) -> Result<PhaseOut, String> {
        let phase = self.phase;
        let sent = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let deadline = start + Duration::from_secs(seconds);
        let feed_addr = self.daemon.feed;
        let period = Duration::from_secs_f64(1.0 / self.shape.query_hz);
        std::thread::scope(|s| {
            let writer = s.spawn(|| -> std::io::Result<(Vec<(usize, Instant)>, Instant)> {
                let result = TcpStream::connect(feed_addr)
                    .and_then(|mut conn| write_closed(&mut conn, phase, deadline, &sent));
                done.store(true, Ordering::SeqCst);
                Ok((result?, Instant::now()))
            });
            let mut queries = Vec::new();
            let mut versions = Vec::new();
            let mut late_ms = Vec::new();
            let mut body = String::new();
            let mut drained = None;
            let mut fed_at: Option<Instant> = None;
            for n in 0u32.. {
                let due = start + period * n;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Read before the probe: a drained answer then covers
                // every record the writer had sent.
                let fed = done.load(Ordering::SeqCst);
                let n_sent = sent.load(Ordering::SeqCst);
                let x = self.exchange(due, "/stats", &mut body);
                late_ms.push(x.sent.duration_since(due).as_secs_f64() * 1e3);
                queries.push(x);
                if let Some(v) = x.version {
                    versions.push((x.done, v));
                }
                if fed && x.ok && self.drained(&body, n_sent) {
                    drained = Some(x.done);
                    break;
                }
                if fed && fed_at.is_none() {
                    fed_at = Some(x.done);
                }
                if fed_at.is_some_and(|t| x.done.duration_since(t) > DRAIN_LIMIT) {
                    break;
                }
            }
            let (writes, write_end) =
                writer.join().expect("feed writer panicked").map_err(io("feed writer"))?;
            let first_byte = writes.first().map_or(start, |w| w.1);
            Ok(PhaseOut {
                sent: sent.load(Ordering::SeqCst),
                first_byte,
                drained,
                write_s: write_end.duration_since(first_byte).as_secs_f64(),
                writes,
                queries,
                versions,
                late_ms,
                lag_growing: false,
                answers: Vec::new(),
            })
        })
    }

    /// `live`: pace the feed at `compression` while sending navigation
    /// queries at the shape's rate.
    fn paced(&mut self, compression: f64, lights: &[u32]) -> Result<PhaseOut, String> {
        let phase = self.phase;
        if phase.is_empty() {
            return Err("the paced phase holds no record".into());
        }
        let s0 = phase.seconds[0];
        let done = AtomicBool::new(false);
        let feed_addr = self.daemon.feed;
        let start = Instant::now() + Duration::from_millis(20);
        let writes = paced_writes(phase, start, compression);
        let period = Duration::from_secs_f64(1.0 / self.shape.query_hz);
        let t_feed0 = feed_start().0 + s0 as i64;
        let lights = if lights.is_empty() { &[0u32][..] } else { lights };
        std::thread::scope(|s| {
            let writes = &writes;
            let pacer = s.spawn(|| -> std::io::Result<(Vec<f64>, Instant)> {
                let result = TcpStream::connect(feed_addr)
                    .and_then(|mut conn| write_paced(&mut conn, phase, writes));
                done.store(true, Ordering::SeqCst);
                Ok((result?, Instant::now()))
            });

            let mut queries = Vec::new();
            let mut versions = Vec::new();
            let mut late_ms = Vec::new();
            let mut answers = Vec::new();
            let mut lag = Vec::new(); // (wall offset s, feed-clock lag s)
            let mut body = String::new();
            let mut drained = None;
            let mut fed_at: Option<Instant> = None;
            let mut k = 0u64;
            loop {
                let due = start + period * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let light = lights[k as usize % lights.len()];
                let target = if k.is_multiple_of(2) {
                    format!("/schedule/{light}")
                } else {
                    let feed_now =
                        t_feed0 + (due.duration_since(start).as_secs_f64() * compression) as i64;
                    format!("/green_wait/{light}?t={feed_now}")
                };
                let x = self.exchange(due, &target, &mut body);
                late_ms.push(x.sent.duration_since(due).as_secs_f64() * 1e3);
                queries.push(x);
                if let Some(v) = x.version {
                    versions.push((x.done, v));
                }
                if k.is_multiple_of(2) && (k / 2).is_multiple_of(ANSWER_SAMPLE) {
                    answers.push(Answer {
                        light,
                        status: if x.ok { 200 } else { 0 },
                        body: body.clone(),
                    });
                }
                let fed = done.load(Ordering::SeqCst);
                k += 1;
                // An untimed /stats sample between queries: feed-clock lag
                // while the feed runs, the drain once it has ended.
                if !k.is_multiple_of(if fed { 5 } else { STATS_EVERY }) {
                    continue;
                }
                let st = self.exchange(x.done, "/stats", &mut body);
                if let Some(v) = st.version {
                    versions.push((st.done, v));
                }
                if fed && st.ok && self.drained(&body, phase.len()) {
                    drained = Some(st.done);
                    break;
                }
                if let Some(processed) =
                    json_u64(&body, "records_processed").filter(|_| st.ok && !fed)
                {
                    // The scheduled feed second now, less the delivery
                    // second of the newest record processed.
                    let wall = st.done.duration_since(start).as_secs_f64();
                    if let Some(m) = (processed as usize).checked_sub(self.warm_n + 1) {
                        let newest = phase.seconds[m.min(phase.len() - 1)] - s0;
                        lag.push((wall, (wall * compression) as i64 - newest as i64));
                    }
                }
                if fed && fed_at.is_none() {
                    fed_at = Some(st.done);
                }
                if fed_at.is_some_and(|t| st.done.duration_since(t) > DRAIN_LIMIT) {
                    break;
                }
            }
            let (pace_late, write_end) =
                pacer.join().expect("feed pacer panicked").map_err(io("feed pacer"))?;
            late_ms.extend(pace_late);
            Ok(PhaseOut {
                sent: phase.len(),
                first_byte: start,
                drained,
                write_s: write_end.duration_since(start).as_secs_f64(),
                writes: writes.clone(),
                queries,
                versions,
                late_ms,
                lag_growing: lag_growing(&lag),
                answers,
            })
        })
    }
}

/// Whether a feed-clock lag series `(wall s, lag s)` still grows at its
/// end: the median of its last quarter exceeds that of its second
/// quarter by more than 60 feed seconds (half an interval of slack for
/// chunk fill and round time).
fn lag_growing(lag: &[(f64, i64)]) -> bool {
    let Some(&(end, _)) = lag.last() else { return false };
    let quarter = |a: f64, b: f64| -> Vec<f64> {
        lag.iter().filter(|(t, _)| *t >= a * end && *t < b * end).map(|&(_, l)| l as f64).collect()
    };
    let (q2, q4) = (quarter(0.25, 0.5), quarter(0.75, 1.01));
    !q2.is_empty() && !q4.is_empty() && percentile(&q4, 0.5) - percentile(&q2, 0.5) > 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_lag_is_not_growing_and_a_ramp_is() {
        let steady: Vec<(f64, i64)> =
            (0..100).map(|k| (k as f64 * 0.2, 30 + (k % 7) * 10)).collect();
        assert!(!lag_growing(&steady));
        let ramp: Vec<(f64, i64)> = (0..100).map(|k| (k as f64 * 0.2, 30 + k * 5)).collect();
        assert!(lag_growing(&ramp));
    }
}
