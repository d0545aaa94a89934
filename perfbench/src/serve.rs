//! The serve pass of `portfolio-mix`'s traced run: open-loop Poisson
//! traffic against an in-process `brel-serve` daemon on loopback.
//!
//! The schedule is fixed before the daemon starts: for each rate of
//! [`LADDER`], a run of arrivals with exponential gaps, each naming a pool
//! job, a client id, and whether it carries a deadline or is cancelled
//! after its first incumbent. Deadlines, cancels and client ids follow the
//! mixed-load phase of the repository's `brel_serve` bench binary. A sender
//! thread sends each `submit` when it is due, whether or not earlier
//! jobs have finished, so a slow daemon sees its queue fill
//! and then sheds. The daemon runs its default admission limits. Every
//! latency is measured from the arrival's *scheduled* send time, so a
//! stalled generator shows up as latency too, and the generator's own
//! lateness is reported as `serve.generator_lag_us_p99`.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use brel_engine::{BatchReport, Engine, JobSpec};
use brel_serve::{write_frame, AdmissionConfig, Frame, FrameReader, ServeConfig, Server, Submit};

use crate::batch::nproc;
use crate::metrics::Metrics;
use crate::stats::{median, percentile, ratio, Rng};
use crate::workloads;
use crate::Outcome;

/// Offered rates in jobs per second, lowest first. The top rate is above
/// what a 2-core box serves; `max_ok_rate` is one of these values.
pub const LADDER: [f64; 3] = [60.0, 240.0, 1600.0];
/// The rate at which the `final_*` and `first_incumbent_*` metrics are
/// reported: the first step, which gets most of the window. It is a light
/// load, a fifth or less of what the daemon serves on 2 cores, so the
/// latency is the daemon's own and not a queue that grows whenever other
/// tenants slow the host.
pub const REFERENCE_RATE: f64 = LADDER[0];
/// Arrivals of the middle step, and the fewest of the reference step:
/// enough for a p99 with ten samples beyond it. The top step gets twice
/// as many, so the overloaded daemon sheds for over a second.
pub const STEP_ARRIVALS: usize = 1100;
/// Deadlines cycled over the arrivals in arrival order: the mix of the
/// `brel_serve` bench binary's load phase (none, 400 ms, 40 ms).
pub const DEADLINES_MS: [Option<u64>; 3] = [None, Some(400), Some(40)];
/// Every `CANCEL_EVERY`-th arrival is cancelled after its first
/// incumbent, as in the `brel_serve` load phase.
pub const CANCEL_EVERY: usize = 5;
/// Client ids, assigned to arrivals round-robin: the `brel_serve` bench
/// binary's default client count. With the daemon's default per-client
/// budget they bound each client's outstanding jobs.
pub const CLIENTS: usize = 8;
/// The reference step is cut into this many consecutive windows, and each
/// reported p50 is the median of the windows' p50s: a burst of host noise
/// inside one or two windows cannot move it.
pub const REFERENCE_WINDOWS: usize = 6;
/// Interval of the `stats` requests that sample the queue depth.
pub const STATS_EVERY: Duration = Duration::from_millis(25);
/// A step's backlog grows when its queue depth rises by more than this
/// many jobs from the step's first quarter to its last: a quarter of the
/// daemon's default queue capacity, so a step that gains that much would
/// fill the queue, and shed, within a few more steps like it.
pub fn backlog_growth_limit() -> f64 {
    AdmissionConfig::default().capacity as f64 / 4.0
}
/// How long to wait for the last `final` after the schedule ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled send time, from the start of the schedule.
    pub due: Duration,
    /// Ladder step.
    pub step: usize,
    /// Index of the pool job.
    pub job: usize,
    /// Client id.
    pub client: usize,
    /// The submit's deadline.
    pub deadline_ms: Option<u64>,
    /// Cancelled after its first incumbent.
    pub cancel: bool,
}

/// Arrivals per ladder step for a `seconds` window: [`STEP_ARRIVALS`] for
/// the middle step, twice that for the top one, and the rest of the
/// window at the reference rate (never fewer than [`STEP_ARRIVALS`]).
pub fn step_arrivals(seconds: f64) -> [usize; 3] {
    let (middle, top) = (STEP_ARRIVALS, 2 * STEP_ARRIVALS);
    let upper = middle as f64 / LADDER[1] + top as f64 / LADDER[2];
    let reference = ((seconds - upper) * REFERENCE_RATE).max(STEP_ARRIVALS as f64);
    [reference as usize, middle, top]
}

/// The open-loop schedule: `counts[i]` Poisson arrivals at `LADDER[i]`,
/// step after step. Arrivals walk the pool in seeded random order,
/// reshuffled after each full cycle, so every pool job is offered equally
/// often and only the order varies with the seed. Deadline, cancel and
/// client follow the arrival's index.
pub fn schedule(seed: u64, pool: usize, counts: &[usize]) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x7365_7276);
    let mut t = 0.0f64;
    let mut order: Vec<usize> = (0..pool).collect();
    let mut out = Vec::with_capacity(counts.iter().sum());
    for (step, (rate, &count)) in LADDER.iter().zip(counts).enumerate() {
        for _ in 0..count {
            let k = out.len() % pool;
            if k == 0 {
                for i in (1..pool).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            t += -rng.unit().ln() / rate;
            let index = out.len();
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                step,
                job: order[k],
                client: index % CLIENTS,
                deadline_ms: DEADLINES_MS[index % DEADLINES_MS.len()],
                cancel: index % CANCEL_EVERY == 0,
            });
        }
    }
    out
}

/// Start and end of each step, from the schedule start: a step runs from
/// its first arrival to the next step's first arrival (the last one to
/// its own last arrival).
fn step_bounds(arrivals: &[Arrival]) -> Vec<(Duration, Duration)> {
    let last = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    (0..LADDER.len())
        .map(|step| {
            let start = arrivals
                .iter()
                .find(|a| a.step == step)
                .map_or(last, |a| a.due);
            let end = arrivals
                .iter()
                .find(|a| a.step > step)
                .map_or(last, |a| a.due);
            (start, end)
        })
        .collect()
}

/// What the client saw of one arrival.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Actual send time.
    pub sent: Option<Instant>,
    /// `admitted` or `rejected` received.
    pub decided: Option<Instant>,
    /// Shed with this reason.
    pub shed: Option<String>,
    /// First `incumbent` received.
    pub first_incumbent: Option<Instant>,
    /// `incumbent` frames received.
    pub incumbents: u64,
    /// `final` received.
    pub finished: Option<Instant>,
    /// The final's outcome.
    pub outcome: String,
    /// The final's winner cost.
    pub cost: Option<u64>,
    /// Server-measured queue wait.
    pub queue_wait_us: u64,
    /// Server-measured solve time.
    pub solve_us: u64,
}

/// Latency from the scheduled send to `at`, in ms; `None` stays `None`.
pub fn since_due(epoch: Instant, arrival: &Arrival, at: Option<Instant>) -> Option<f64> {
    at.map(|t| {
        t.saturating_duration_since(epoch + arrival.due)
            .as_secs_f64()
            * 1e3
    })
}

/// One open-loop run's raw observations.
#[derive(Debug)]
pub struct Observed {
    /// The schedule.
    pub arrivals: Vec<Arrival>,
    /// Per-arrival client records.
    pub records: Vec<Record>,
    /// `(time since epoch, queue depth)` samples from `stats` frames.
    pub depth: Vec<(Duration, u64)>,
    /// The schedule's time zero.
    pub epoch: Instant,
    /// The daemon's counters after the drain.
    pub stats: brel_serve::StatsSnapshot,
}

/// The daemon configuration: `nproc` workers and everything else,
/// admission limits included, at the daemon's defaults.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    }
}

struct Conn {
    writer: Mutex<TcpStream>,
    reader: TcpStream,
    /// Arrival indices whose submit is awaiting `admitted`/`rejected`.
    pending: Mutex<VecDeque<usize>>,
    /// Sent `stats` requests awaiting their reply.
    stats_pending: AtomicUsize,
    /// Arrivals that still await a terminal frame.
    open: AtomicUsize,
}

struct Run<'a> {
    pool: &'a [JobSpec],
    arrivals: &'a [Arrival],
    epoch: Instant,
    records: Mutex<Vec<Record>>,
    tickets: Mutex<HashMap<u64, usize>>,
    depth: Mutex<Vec<(Duration, u64)>>,
    io_errors: Mutex<Vec<String>>,
}

/// Drives the schedule against the daemon at `addr` and waits for every
/// arrival's `final` (or shed).
///
/// Everything goes over one connection: `brel-serve` deadlocks when it
/// handles a `stats` request and a `submit` at the same moment on two
/// connections (`Shared::snapshot` holds the in-flight lock while it
/// takes the queue lock; admission takes them in the other order), and
/// the generator samples the queue with `stats` frames throughout.
fn drive<'a>(
    addr: SocketAddr,
    pool: &'a [JobSpec],
    arrivals: &'a [Arrival],
) -> Result<Run<'a>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let conn = Conn {
        writer: Mutex::new(stream.try_clone().map_err(|e| e.to_string())?),
        reader: stream,
        pending: Mutex::new(VecDeque::new()),
        stats_pending: AtomicUsize::new(0),
        open: AtomicUsize::new(arrivals.len()),
    };
    let run = Run {
        pool,
        arrivals,
        epoch: Instant::now() + Duration::from_millis(50),
        records: Mutex::new(vec![Record::default(); arrivals.len()]),
        tickets: Mutex::new(HashMap::new()),
        depth: Mutex::new(Vec::new()),
        io_errors: Mutex::new(Vec::new()),
    };
    let end = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    std::thread::scope(|scope| {
        scope.spawn(|| send_loop(&run, &conn, end));
        scope.spawn(|| recv_loop(&run, &conn, end));
    });
    Ok(run)
}

fn send_frame(run: &Run<'_>, conn: &Conn, frame: &Frame) -> bool {
    let result = write_frame(&mut *conn.writer.lock().expect("writer poisoned"), frame);
    if let Err(e) = &result {
        run.io_errors
            .lock()
            .expect("poisoned")
            .push(format!("send: {e}"));
    }
    result.is_ok()
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Sends the arrivals on schedule, and a `stats` request every
/// [`STATS_EVERY`] until the schedule ends and the backlog is gone.
fn send_loop(run: &Run<'_>, conn: &Conn, end: Duration) {
    let mut next_stats = Duration::ZERO;
    let send_stats = |at: Duration| {
        sleep_until(run.epoch + at);
        conn.stats_pending.fetch_add(1, Ordering::SeqCst);
        send_frame(run, conn, &Frame::StatsRequest);
    };
    for (k, arrival) in run.arrivals.iter().enumerate() {
        while next_stats <= arrival.due {
            send_stats(next_stats);
            next_stats += STATS_EVERY;
        }
        sleep_until(run.epoch + arrival.due);
        let submit = Frame::Submit(Submit {
            client: format!("client{}", arrival.client),
            job: run.pool[arrival.job].clone(),
            deadline_ms: arrival.deadline_ms,
            max_cost: None,
        });
        conn.pending.lock().expect("poisoned").push_back(k);
        run.records.lock().expect("poisoned")[k].sent = Some(Instant::now());
        if !send_frame(run, conn, &submit) {
            return;
        }
    }
    // Keep sampling the queue while the backlog drains.
    while next_stats <= end + Duration::from_secs(2) && conn.open.load(Ordering::SeqCst) > 0 {
        send_stats(next_stats);
        next_stats += STATS_EVERY;
    }
}

/// Reads frames until every arrival is terminal and every stats request
/// is answered, or the drain times out.
fn recv_loop(run: &Run<'_>, conn: &Conn, end: Duration) {
    let mut reader = FrameReader::new(&conn.reader);
    let give_up = run.epoch + end + DRAIN_TIMEOUT;
    loop {
        if conn.open.load(Ordering::SeqCst) == 0 && conn.stats_pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        if Instant::now() > give_up {
            run.io_errors
                .lock()
                .expect("poisoned")
                .push("timed out waiting for final frames".to_string());
            return;
        }
        let frame = match reader.poll() {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(e) => {
                run.io_errors
                    .lock()
                    .expect("poisoned")
                    .push(format!("recv: {e}"));
                return;
            }
        };
        let now = Instant::now();
        match frame {
            Frame::Admitted { job, .. } => {
                let k = conn.pending.lock().expect("poisoned").pop_front();
                if let Some(k) = k {
                    run.tickets.lock().expect("poisoned").insert(job, k);
                    run.records.lock().expect("poisoned")[k].decided = Some(now);
                }
            }
            Frame::Rejected { reason, .. } => {
                let k = conn.pending.lock().expect("poisoned").pop_front();
                if let Some(k) = k {
                    let mut records = run.records.lock().expect("poisoned");
                    records[k].shed = Some(reason);
                    records[k].decided = Some(now);
                    conn.open.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Frame::Incumbent { job, .. } => {
                let Some(k) = run.tickets.lock().expect("poisoned").get(&job).copied() else {
                    continue;
                };
                let first = {
                    let mut records = run.records.lock().expect("poisoned");
                    let record = &mut records[k];
                    record.incumbents += 1;
                    record.first_incumbent.get_or_insert(now);
                    record.incumbents == 1
                };
                if first && run.arrivals[k].cancel {
                    send_frame(run, conn, &Frame::Cancel { job });
                }
            }
            Frame::Final(report) => {
                let Some(k) = run
                    .tickets
                    .lock()
                    .expect("poisoned")
                    .get(&report.job)
                    .copied()
                else {
                    continue;
                };
                let mut records = run.records.lock().expect("poisoned");
                let record = &mut records[k];
                record.finished = Some(now);
                record.outcome = report.outcome;
                record.cost = report.cost;
                record.queue_wait_us = report.queue_wait_us;
                record.solve_us = report.solve_us;
                conn.open.fetch_sub(1, Ordering::SeqCst);
            }
            Frame::Stats(stats) => {
                conn.stats_pending.fetch_sub(1, Ordering::SeqCst);
                run.depth
                    .lock()
                    .expect("poisoned")
                    .push((now.saturating_duration_since(run.epoch), stats.queue_depth));
            }
            other => run
                .io_errors
                .lock()
                .expect("poisoned")
                .push(format!("unexpected frame {other:?}")),
        }
    }
}

/// Generates the pool and schedule and starts the daemon.
fn setup(seed: u64, seconds: f64) -> (Vec<JobSpec>, Vec<Arrival>, Server) {
    let pool = workloads::serve_pool(seed);
    let arrivals = schedule(seed, pool.len(), &step_arrivals(seconds));
    let server = Server::start(serve_config()).expect("bind a loopback port");
    (pool, arrivals, server)
}

/// Runs the whole ladder once. Client I/O errors are failed checks.
fn run_ladder(
    pool: &[JobSpec],
    arrivals: Vec<Arrival>,
    server: Server,
    out: &mut Outcome,
) -> Observed {
    let addr = server.addr();
    let driven = drive(addr, pool, &arrivals);
    let drain = server.shutdown();
    let (records, depth, epoch, io_errors) = match driven {
        Ok(run) => (
            run.records.into_inner().expect("poisoned"),
            run.depth.into_inner().expect("poisoned"),
            run.epoch,
            run.io_errors.into_inner().expect("poisoned"),
        ),
        Err(e) => (
            vec![Record::default(); arrivals.len()],
            Vec::new(),
            Instant::now(),
            vec![e],
        ),
    };
    for e in io_errors {
        out.check(false, e);
    }
    Observed {
        arrivals,
        records,
        depth,
        epoch,
        stats: drain.stats,
    }
}

/// Counts every arrival as attempted, and as failed when it went wrong;
/// checks every solved, uncancelled final's cost against `reference`
/// (the pool solved by the batch engine).
fn check_served(pool: &[JobSpec], obs: &Observed, reference: &BatchReport, out: &mut Outcome) {
    out.attempted += obs.arrivals.len() as u64;
    for (arrival, record) in obs.arrivals.iter().zip(&obs.records) {
        if went_wrong(record) {
            out.failed += 1;
        } else if !arrival.cancel && record.outcome == "solved" {
            let expected = reference.jobs[arrival.job].winning().map(|w| w.cost);
            out.check(
                record.cost == expected,
                format!(
                    "{}: served cost {:?}, batch cost {expected:?}",
                    pool[arrival.job].name, record.cost
                ),
            );
        }
    }
}

/// Outcomes of a final that the daemon's design allows: solved, or cut
/// short by a cancel or a deadline and ended with its best incumbent
/// (`degraded`) or none (`timed-out`).
const DESIGNED_OUTCOMES: [&str; 3] = ["solved", "degraded", "timed-out"];

/// Whether an arrival went wrong: admitted but no `final` came, or the
/// final reports a fault (a panic, a quota abort, a failed job). A shed is
/// the admission policy's designed answer to overload and a deadline cut
/// the deadline's, so neither counts here; both miss the latency limit
/// (see [`served_ok`]) and are counted by `serve.shed` and
/// `serve.degraded`. How many the daemon sheds depends on how fast the
/// host is at that moment, so counting them here would make the failed
/// count differ between two runs of the same code and seed.
fn went_wrong(record: &Record) -> bool {
    record.shed.is_none()
        && (record.finished.is_none() || !DESIGNED_OUTCOMES.contains(&record.outcome.as_str()))
}

/// Whether an arrival ended as it should for the latency limit: admitted
/// and solved, or degraded after its planned cancel (a cancelled job keeps
/// its incumbent, and is solved if it finished before the cancel landed).
/// A shed, a deadline that cut the solve short, or a lost final misses
/// the limit.
fn served_ok(arrival: &Arrival, record: &Record) -> bool {
    record.shed.is_none()
        && record.finished.is_some()
        && (record.outcome == "solved" || (arrival.cancel && record.outcome == "degraded"))
}

/// Final latencies (ms) of one step's arrivals; shed, lost or failed jobs
/// count as infinitely late, so they miss any limit.
fn step_latencies(obs: &Observed, step: usize, first_incumbent: bool) -> Vec<f64> {
    obs.arrivals
        .iter()
        .zip(&obs.records)
        .filter(|(a, _)| a.step == step)
        .map(|(a, r)| {
            let at = if first_incumbent {
                r.first_incumbent
            } else {
                r.finished
            };
            if served_ok(a, r) {
                since_due(obs.epoch, a, at).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Queue-depth growth over each step: mean depth of the step's last
/// quarter of samples minus that of its first quarter.
fn backlog_growth(obs: &Observed) -> Vec<f64> {
    step_bounds(&obs.arrivals)
        .into_iter()
        .map(|(start, end)| {
            let samples: Vec<f64> = obs
                .depth
                .iter()
                .filter(|(t, _)| *t >= start && *t <= end)
                .map(|(_, d)| *d as f64)
                .collect();
            let quarter = (samples.len() / 4).max(1);
            if samples.len() < 2 {
                return 0.0;
            }
            let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
            mean(&samples[samples.len() - quarter..]) - mean(&samples[..quarter])
        })
        .collect()
}

/// Percentile `pct` of each of [`REFERENCE_WINDOWS`] consecutive
/// windows of `samples` (in arrival order); `None` when a window is too
/// small for the percentile.
pub fn window_percentiles(samples: &[f64], pct: f64) -> Option<Vec<f64>> {
    let size = samples.len() / REFERENCE_WINDOWS;
    if size == 0 {
        return None;
    }
    samples
        .chunks(size)
        .take(REFERENCE_WINDOWS)
        .map(|window| percentile(window, pct))
        .collect()
}

fn finite_or_sentinel(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e9
    }
}

/// A percentile (ms) of the server's own share of the reference step's
/// latency, from the `final` frames.
fn server_ms(obs: &Observed, field: fn(&Record) -> u64, pct: f64) -> f64 {
    let samples: Vec<f64> = obs
        .arrivals
        .iter()
        .zip(&obs.records)
        .filter(|(a, r)| a.step == 0 && r.finished.is_some())
        .map(|(_, r)| field(r) as f64 / 1e3)
        .collect();
    percentile(&samples, pct).unwrap_or(f64::NAN)
}

/// The client-side latencies at the reference rate (p50 as the median
/// of the windows' p50s, p99 over the whole step), and
/// `serve.max_ok_rate`, the highest step whose final p99 meets `limit_ms`
/// while its backlog does not grow.
fn put_latencies(m: &mut Metrics, obs: &Observed, limit_ms: f64) {
    for (first, p50, p99) in [
        (false, "serve.final_p50_ms", "serve.final_p99_ms"),
        (
            true,
            "serve.first_incumbent_p50_ms",
            "serve.first_incumbent_p99_ms",
        ),
    ] {
        let samples = step_latencies(obs, 0, first);
        match window_percentiles(&samples, 50.0) {
            Some(windows) => m.put(
                p50,
                finite_or_sentinel(median(&windows).expect("windows")),
                format!(
                    "n={} at {REFERENCE_RATE} jobs/s, median of {REFERENCE_WINDOWS} windows' p50 \
                     {:.2?}; server solve {:.2} ms, queue wait {:.2} ms at the p50",
                    samples.len(),
                    windows,
                    server_ms(obs, |r| r.solve_us, 50.0),
                    server_ms(obs, |r| r.queue_wait_us, 50.0),
                ),
            ),
            None => m.put_pct(p50, &samples, 50.0),
        }
        match percentile(&samples, 99.0) {
            Some(v) => m.put(
                p99,
                finite_or_sentinel(v),
                format!(
                    "n={} at {REFERENCE_RATE} jobs/s; server solve {:.2} ms, queue wait {:.2} ms \
                     at the p99",
                    samples.len(),
                    server_ms(obs, |r| r.solve_us, 99.0),
                    server_ms(obs, |r| r.queue_wait_us, 99.0),
                ),
            ),
            None => m.put_pct(p99, &samples, 99.0),
        }
    }
    let growth = backlog_growth(obs);
    let mut max_ok = 0.0;
    let mut notes = Vec::new();
    for (step, rate) in LADDER.iter().enumerate() {
        let p99 = percentile(&step_latencies(obs, step, false), 99.0).unwrap_or(f64::INFINITY);
        let ok = p99 <= limit_ms && growth[step] <= backlog_growth_limit();
        if ok {
            max_ok = *rate;
        }
        let missed = obs
            .arrivals
            .iter()
            .zip(&obs.records)
            .filter(|(a, r)| a.step == step && !served_ok(a, r))
            .count();
        notes.push(format!(
            "{rate}:p99={:.1}ms,growth={:.0},missed={missed}{}",
            p99,
            growth[step],
            if ok { "" } else { "!" }
        ));
    }
    m.put(
        "serve.max_ok_rate",
        max_ok,
        format!("limit {limit_ms} ms; {}", notes.join(" ")),
    );
}

/// The serve pass: the whole ladder against a fresh daemon, every served
/// final checked against `solve_batch` on the pool, and the `serve`
/// metrics. Shed and deadline-cut arrivals miss the latency limit; only
/// arrivals that went wrong count as failed.
pub fn pass(seed: u64, seconds: f64, limit_ms: f64, out: &mut Outcome) -> Metrics {
    let (pool, arrivals, server) = setup(seed, seconds);
    let obs = run_ladder(&pool, arrivals, server, out);
    let reference = Engine::with_workers(nproc()).solve_batch(&pool);
    check_served(&pool, &obs, &reference, out);
    let mut m = Metrics::default();
    put_latencies(&mut m, &obs, limit_ms);

    let recs = || obs.arrivals.iter().zip(&obs.records);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let admission: Vec<f64> = recs()
        .filter_map(|(_, r)| Some(us(r.decided?.saturating_duration_since(r.sent?))))
        .collect();
    m.put_pct("serve.admission_us_p50", &admission, 50.0);
    m.put_pct("serve.admission_us_p99", &admission, 99.0);
    let finished: Vec<&Record> = recs()
        .map(|(_, r)| r)
        .filter(|r| r.finished.is_some())
        .collect();
    let waits: Vec<f64> = finished.iter().map(|r| r.queue_wait_us as f64).collect();
    let solves: Vec<f64> = finished.iter().map(|r| r.solve_us as f64).collect();
    m.put_pct("serve.queue_wait_us_p50", &waits, 50.0);
    m.put_pct("serve.queue_wait_us_p99", &waits, 99.0);
    m.put_pct("serve.solve_us_p50", &solves, 50.0);
    m.put_pct("serve.solve_us_p99", &solves, 99.0);
    let lag: Vec<f64> = recs()
        .filter_map(|(a, r)| Some(us(r.sent?.saturating_duration_since(obs.epoch + a.due))))
        .collect();
    m.put_pct("serve.generator_lag_us_p99", &lag, 99.0);
    let growth = backlog_growth(&obs);
    m.put(
        "serve.backlog_growth",
        growth[LADDER.len() - 1],
        format!(
            "queue-depth rise over the top step; per step {:?}",
            growth.iter().map(|g| g.round()).collect::<Vec<_>>()
        ),
    );
    m.put("serve.shed", obs.stats.shed as f64, "");
    m.put("serve.cancelled", obs.stats.cancelled as f64, "");
    m.put("serve.degraded", obs.stats.degraded as f64, "");
    let incumbents: u64 = finished.iter().map(|r| r.incumbents).sum();
    m.put(
        "serve.incumbents_per_job",
        ratio(incumbents as f64, finished.len() as f64),
        format!("base {} finals", finished.len()),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_rising_and_fills_the_window() {
        let counts = step_arrivals(30.0);
        assert_eq!(counts, [1442, STEP_ARRIVALS, 2 * STEP_ARRIVALS]);
        assert_eq!(step_arrivals(1.0)[0], STEP_ARRIVALS);
        let a = schedule(5, 64, &counts);
        assert_eq!(a, schedule(5, 64, &counts));
        assert_ne!(a, schedule(6, 64, &counts));
        assert_eq!(a.len(), counts.iter().sum::<usize>());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let total = a.last().unwrap().due.as_secs_f64();
        assert!((total / 30.0 - 1.0).abs() < 0.1, "{total}s");
        // Each step lasts about count / rate seconds.
        for (step, (start, end)) in step_bounds(&a).into_iter().enumerate() {
            let expected = counts[step] as f64 / LADDER[step];
            let got = (end - start).as_secs_f64();
            assert!((got / expected - 1.0).abs() < 0.15, "step {step}: {got}s");
        }
        // Every pool job is offered equally often.
        let mut uses = vec![0usize; 64];
        for arrival in &a[..64 * 10] {
            uses[arrival.job] += 1;
        }
        assert!(uses.iter().all(|&u| u == 10));
    }

    #[test]
    fn latency_counts_from_the_scheduled_send() {
        // The generator stalled: the submit went out 30 ms late and the
        // final came 10 ms after that. The job's latency is 40 ms.
        let epoch = Instant::now();
        let arrival = Arrival {
            due: Duration::from_millis(100),
            step: 0,
            job: 0,
            client: 0,
            deadline_ms: None,
            cancel: false,
        };
        let sent = epoch + Duration::from_millis(130);
        let finished = sent + Duration::from_millis(10);
        let ms = since_due(epoch, &arrival, Some(finished)).unwrap();
        assert!((ms - 40.0).abs() < 1e-6, "{ms}");
        assert_eq!(since_due(epoch, &arrival, None), None);
    }

    #[test]
    fn a_noisy_window_does_not_move_the_windowed_percentile() {
        let quiet: Vec<f64> = (0..1200).map(|i| (i % 100) as f64).collect();
        let mut noisy = quiet.clone();
        // Two of the six windows are slow.
        for v in &mut noisy[..400] {
            *v += 1000.0;
        }
        let windowed = |s: &[f64]| median(&window_percentiles(s, 50.0)?);
        let q = windowed(&quiet).unwrap();
        assert_eq!(windowed(&noisy), Some(q));
        assert!(percentile(&noisy, 50.0).unwrap() > q);
        // A p50 needs 20 samples in every window.
        assert_eq!(window_percentiles(&quiet[..119], 50.0), None);
    }

    #[test]
    fn the_mix_follows_the_brel_serve_load_phase() {
        let a = schedule(3, 64, &[40, 10, 10]);
        let deadlines: Vec<_> = a.iter().take(4).map(|x| x.deadline_ms).collect();
        assert_eq!(deadlines, [None, Some(400), Some(40), None]);
        let cancelled: Vec<usize> = (0..a.len()).filter(|&k| a[k].cancel).collect();
        assert_eq!(cancelled, (0..a.len()).step_by(5).collect::<Vec<_>>());
        assert_eq!(a[9].client, 1);
        assert_eq!(a.iter().map(|x| x.client).max(), Some(CLIENTS - 1));
        assert_eq!(serve_config().admission, AdmissionConfig::default());
    }

    #[test]
    fn the_reference_rate_is_on_the_ladder() {
        assert!(LADDER.contains(&REFERENCE_RATE));
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
    }
}
