//! The closed-loop batch workloads: `portfolio-mix` and `hard-seq`. Each
//! pass hands the whole corpus to `Engine::solve_batch`; passes repeat
//! until the measuring window is spent.

use std::time::Instant;

use brel_engine::{BatchReport, Engine, JobOutcome, JobSpec};

use crate::calls::{self, CallPass};
use crate::metrics::Metrics;
use crate::replay::{self, Replay};
use crate::stats::{median, ratio};
use crate::trace::Track;
use crate::workloads::{self, Workload};
use crate::{layers, Outcome};

/// Fewest set-up repetitions whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 3;
/// Set-ups repeat (up to [`MAX_SETUPS`]) until they have taken this long,
/// so a set-up of a few milliseconds still gives a steady median.
pub const SETUP_SECONDS: f64 = 1.0;
/// Most set-up repetitions.
pub const MAX_SETUPS: usize = 50;

/// Whether another set-up should run after ones that took `times`.
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < MAX_SETUPS)
}
/// Passes measured even when one pass outlasts the window.
pub const MIN_PASSES: usize = 3;

/// Worker count of the machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine a workload runs on: one worker for `hard-seq`, `nproc`
/// job-parallel workers otherwise.
pub fn engine_for(workload: Workload) -> Engine {
    Engine::with_workers(replay_workers(workload))
}

/// Worker threads of the engine, the layer replay and the engine and
/// backend passes.
pub fn replay_workers(workload: Workload) -> usize {
    match workload {
        Workload::HardSeq => 1,
        Workload::PortfolioMix => nproc(),
    }
}

/// Generates the inputs and builds the engine as often as
/// [`more_setups`] asks. Returns the last set-up, every set-up's seconds,
/// and an error if two set-ups of the same seed produced different inputs.
pub fn setup(workload: Workload, seed: u64) -> (Vec<JobSpec>, Engine, Vec<f64>, Option<String>) {
    let mut times = Vec::new();
    let mut prints = Vec::new();
    let mut last = None;
    while more_setups(&times) {
        let start = Instant::now();
        let jobs = workloads::jobs(workload, seed);
        let engine = engine_for(workload);
        times.push(start.elapsed().as_secs_f64());
        prints.push(workloads::fingerprint(&jobs));
        last = Some((jobs, engine));
    }
    let (jobs, engine) = last.expect("at least one set-up");
    let error = prints
        .windows(2)
        .any(|w| w[0] != w[1])
        .then(|| "two set-ups of the same seed generated different jobs".to_string());
    (jobs, engine, times, error)
}

/// Per-job `(backend, cost)` of every attempt: what a replay must
/// reproduce.
fn attempt_costs(report: &BatchReport) -> Vec<Vec<(&'static str, u64)>> {
    report
        .jobs
        .iter()
        .map(|j| {
            j.attempts
                .iter()
                .map(|a| (a.backend.name(), a.cost))
                .collect()
        })
        .collect()
}

fn replay_costs(replay: &Replay) -> Vec<Vec<(&'static str, u64)>> {
    replay
        .jobs
        .iter()
        .map(|j| j.attempts.iter().map(|a| (a.kind.name(), a.cost)).collect())
        .collect()
}

/// Counts jobs that are not cleanly solved.
fn unsolved(report: &BatchReport) -> u64 {
    report
        .jobs
        .iter()
        .filter(|j| j.winner.is_none() || j.outcome != Some(JobOutcome::Solved))
        .count() as u64
}

/// The workload's own output checks on one batch's results.
fn workload_checks(workload: Workload, seed: u64, report: &BatchReport, out: &mut Outcome) {
    match workload {
        Workload::PortfolioMix => {
            let prefix: u64 = report.jobs[..workloads::TABLE2_PREFIX_JOBS]
                .iter()
                .filter_map(|j| j.winning().map(|w| w.cost))
                .sum();
            out.check(
                prefix == workloads::TABLE2_PREFIX_COST,
                format!(
                    "table2+rand5x3 prefix costs {prefix}, expected {}",
                    workloads::TABLE2_PREFIX_COST
                ),
            );
        }
        Workload::HardSeq if seed == workloads::HARD_REFERENCE_SEED => {
            let total = report.total_winner_cost();
            out.check(
                total == workloads::HARD_REFERENCE_COST,
                format!(
                    "hard-rand7x4 costs {total}, expected {}",
                    workloads::HARD_REFERENCE_COST
                ),
            );
        }
        _ => {}
    }
}

/// What the timed run keeps of one pass: its wall, its per-job costs and
/// latencies, not the whole report, so memory does not grow with the
/// number of passes.
struct Pass {
    wall: f64,
    costs: Vec<Vec<(&'static str, u64)>>,
    unsolved: u64,
    /// Per job: its latency, the solve time of every attempt on its
    /// worker, in backend order (ms).
    finals: Vec<f64>,
    /// Per job: its first incumbent, the first attempt's verified
    /// solution (ms).
    firsts: Vec<f64>,
}

impl Pass {
    fn of(wall: f64, report: &BatchReport) -> Self {
        Pass {
            wall,
            costs: attempt_costs(report),
            unsolved: unsolved(report),
            finals: report
                .jobs
                .iter()
                .map(|j| j.attempts.iter().map(|a| a.wall_micros).sum::<u64>() as f64 / 1e3)
                .collect(),
            firsts: report
                .jobs
                .iter()
                .filter_map(|j| j.attempts.first().map(|a| a.wall_micros as f64 / 1e3))
                .collect(),
        }
    }
}

/// The timed run: end-to-end metrics with tracing off.
pub fn timed(workload: Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Metrics {
    let (jobs, engine, setup_times, setup_error) = setup(workload, seed);
    if let Some(e) = setup_error {
        out.check(false, e);
    }
    let rss_from_here = crate::meta::reset_peak_rss();
    let start = Instant::now();
    let mut first: Option<BatchReport> = None;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_start = Instant::now();
        let report = engine.solve_batch(std::hint::black_box(&jobs));
        let wall = pass_start.elapsed().as_secs_f64();
        passes.push(Pass::of(wall, &report));
        first.get_or_insert(report);
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    // Read before the checks, which solve the corpus again.
    let peak_rss = crate::meta::peak_rss_mb().unwrap_or(0.0);

    let first = first.expect("a pass ran");
    for pass in &passes {
        out.attempted += pass.costs.len() as u64;
        out.failed += pass.unsolved;
        out.check(
            pass.costs == passes[0].costs,
            "per-job costs changed between passes".to_string(),
        );
    }
    workload_checks(workload, seed, &first, out);

    let finals: Vec<f64> = passes.iter().flat_map(|p| p.finals.clone()).collect();
    let firsts: Vec<f64> = passes.iter().flat_map(|p| p.firsts.clone()).collect();

    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(&setup_times).expect("set-up ran"),
        format!("median of {} set-ups", setup_times.len()),
    );
    let walls: Vec<f64> = passes
        .iter()
        .map(|p| (p.wall * 1e3).round() / 1e3)
        .collect();
    let (jobs_per_s, how) = if workload == Workload::HardSeq {
        // One worker solves the jobs one after another, so a pass's wall
        // is the sum of its jobs' solve times. Each job's median over the
        // passes drops a burst of host noise that hit one of its solves.
        let per_job_ms: Vec<f64> = (0..jobs.len())
            .map(|j| {
                let solves: Vec<f64> = passes.iter().map(|p| p.finals[j]).collect();
                median(&solves).expect("a pass ran")
            })
            .collect();
        let total_s = per_job_ms.iter().sum::<f64>() / 1e3;
        (
            ratio(jobs.len() as f64, total_s),
            format!(
                "{} jobs over the sum of each job's median solve time ({total_s:.3} s) \
                 over {} passes; pass walls {walls:?} s",
                jobs.len(),
                passes.len()
            ),
        )
    } else {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.costs.len() as f64 / p.wall)
            .collect();
        (
            median(&rates).expect("a pass ran"),
            format!(
                "median of {} passes of {} jobs; pass walls {walls:?} s",
                passes.len(),
                jobs.len()
            ),
        )
    };
    m.put("jobs_per_s", jobs_per_s, how);
    m.put(
        "total_cost",
        first.total_winner_cost() as f64,
        format!("{} jobs", jobs.len()),
    );
    m.put("peak_rss_mb", peak_rss, rss_note(rss_from_here));
    m.put_pct("final_p50_ms", &finals, 50.0);
    m.put_pct("first_incumbent_p50_ms", &firsts, 50.0);
    m
}

/// How `peak_rss_mb` was taken.
pub fn rss_note(reset: bool) -> &'static str {
    if reset {
        "VmHWM of the measured part (high-water mark reset after set-up)"
    } else {
        "VmHWM since process start (this kernel cannot reset it)"
    }
}

/// The traced run: a reference batch, then the layer replay and the
/// passes over the layers' entry points, and on `portfolio-mix` the serve
/// pass, whose ladder fills `seconds` and whose `serve.max_ok_rate` uses
/// `limit_ms`. Returns the per-layer metrics and every traced track.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    limit_ms: f64,
    out: &mut Outcome,
) -> (Metrics, Vec<Track>) {
    let (jobs, engine, _, setup_error) = setup(workload, seed);
    if let Some(e) = setup_error {
        out.check(false, e);
    }
    let reference = engine.solve_batch(&jobs);
    out.attempted += reference.jobs.len() as u64;
    out.failed += unsolved(&reference);
    workload_checks(workload, seed, &reference, out);
    let (mut m, tracks) = measure_layers(workload, &jobs, &reference, out);
    match workload {
        Workload::PortfolioMix => m.append(crate::serve::pass(seed, seconds, limit_ms, out)),
        Workload::HardSeq => layers::serve_not_exercised(&mut m),
    }
    (m, tracks)
}

/// Checks that a pass reproduced the reference's per-job costs and made
/// no failed call.
fn check_pass(
    label: &str,
    pass: &CallPass,
    expected: &[Vec<(&'static str, u64)>],
    out: &mut Outcome,
) {
    let costs: Vec<_> = pass.jobs.iter().map(|j| j.costs.clone()).collect();
    out.check(
        costs == expected,
        format!("the {label} pass did not reproduce the batch's per-job costs"),
    );
    for failure in &pass.failures {
        out.check(false, format!("{label} pass: {failure}"));
    }
}

/// Runs the layer replay (untraced, traced, untraced) and the passes over
/// the layers' entry points on `jobs`, checks each reproduces
/// `reference`'s per-job costs, and derives the per-layer metrics other
/// than the serve ones. The untraced replays bracket the traced one, so
/// warm-up and drift do not pass for tracing overhead.
pub fn measure_layers(
    workload: Workload,
    jobs: &[JobSpec],
    reference: &BatchReport,
    out: &mut Outcome,
) -> (Metrics, Vec<Track>) {
    let expected = attempt_costs(reference);
    let workers = replay_workers(workload);
    let before = replay::replay(jobs, workers, false);
    let traced = replay::replay(jobs, workers, true);
    let after = replay::replay(jobs, workers, false);
    for (label, pass) in [
        ("untraced", &before),
        ("traced", &traced),
        ("untraced", &after),
    ] {
        out.check(
            replay_costs(pass) == expected,
            format!("the {label} replay did not reproduce the batch's per-job costs"),
        );
        for failure in &pass.failures {
            out.check(false, format!("{label} replay: {failure}"));
        }
    }
    let mut m = Metrics::default();
    let untraced_ns = (before.wall_ns + after.wall_ns) as f64 / 2.0;
    m.put(
        "trace.overhead_share",
        ratio(traced.wall_ns as f64, untraced_ns),
        format!(
            "traced {:.3}s / untraced {:.3}s (mean of the passes before and after) replay wall",
            traced.wall_ns as f64 / 1e9,
            untraced_ns / 1e9
        ),
    );
    let engine = calls::engine_pass(jobs, workers);
    let backend = calls::backend_pass(jobs, workers);
    check_pass("engine", &engine, &expected, out);
    check_pass("backend", &backend, &expected, out);
    layers::replay_layers(&mut m, &traced);
    layers::backend_layers(&mut m, &backend, reference);
    layers::engine_layers(&mut m, &engine, reference);
    let mut tracks = traced.tracks;
    tracks.extend(engine.tracks);
    tracks.extend(backend.tracks);
    if workload == Workload::HardSeq {
        // The same relations in wide mode on nproc sessions: every job's
        // cost must equal its sequential cost.
        let wide = calls::wide_pass(jobs, nproc());
        check_pass("wide", &wide, &expected, out);
        layers::wide_layers(&mut m, &wide, nproc());
        tracks.extend(wide.tracks);
    } else {
        layers::wide_not_exercised(&mut m);
    }
    (m, tracks)
}
