//! The layer-by-layer replay behind the traced run.
//!
//! The replay solves a job list the way the engine's pool does — worker
//! threads with warm sessions, a cross-job cache keyed by the canonical
//! relation fingerprint, every backend of a job raced on one rehydrated
//! relation and the cheapest kept — but steps the BREL search itself, so
//! the calls nested inside a job can be timed as spans. It is the source
//! of the step, rehydration and cover metrics only; the engine and
//! backend metrics time the engine's own entry points (see
//! [`crate::calls`]).
//!
//! | span | call |
//! |---|---|
//! | `replay.job` | one job of the replay |
//! | `replay.cache_lookup` | the replay's cross-job cache lookup |
//! | `relation.rehydrate` | `WarmSession::rehydrate` |
//! | `replay.{brel,gyocro,quick}` | one backend attempt |
//! | `brel.step` | one `Explorer::step` |
//! | `replay.verify` | `BooleanRelation::is_compatible` on the attempt |
//! | `sop.cover` | `MultiOutputFunction::to_multicover` on the winner |
//! | `check.certify` | the BDD-free certificate (the benchmark's own check) |
//!
//! Around every BREL step it also takes `BddSession::stats_snapshot`, so
//! kernel counters are attributed to the step that caused them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use brel_bdd::{CacheStats, GcStats};
use brel_core::{BrelConfig, CostFunction, Explorer, StepOutcome};
use brel_engine::{instantiate, BackendKind, JobSpec, WarmSession};
use brel_relation::{BooleanRelation, MultiOutputFunction};
use brel_sop::MultiCover;

use crate::certify::certify;
use crate::trace::Track;

/// One backend attempt of a replayed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The backend.
    pub kind: BackendKind,
    /// Its solution's cost under the job's cost function.
    pub cost: u64,
}

/// A replayed job.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Position in the job list.
    pub id: usize,
    /// Attempts in backend order.
    pub attempts: Vec<Attempt>,
    /// Index of the cheapest attempt (ties go to the earlier backend).
    pub winner: usize,
    /// BREL search counters (zero without a BREL attempt or on a hit).
    pub explored: usize,
    /// Subproblems pruned by the cost bound or by dominance.
    pub pruned: usize,
    /// Incumbent improvements.
    pub improvements: usize,
    /// Frontier high-water mark.
    pub frontier_peak: usize,
}

/// Kernel counters around one BREL step.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Step wall time.
    pub dur_ns: u64,
    /// Cache and unique-table counter deltas.
    pub cache: CacheStats,
    /// Lifecycle counter deltas (peak gauge as of the step's end).
    pub gc: GcStats,
}

/// Everything one replay pass produced.
#[derive(Debug)]
pub struct Replay {
    /// One track per worker thread.
    pub tracks: Vec<Track>,
    /// Replayed jobs, by id.
    pub jobs: Vec<ReplayedJob>,
    /// Per-step kernel records (empty when untraced).
    pub steps: Vec<StepRecord>,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Failed compatibility checks, certificates and solver errors.
    pub failures: Vec<String>,
}

/// A cached job result: the attempts and the winner's cover, which is
/// certified again against every job that hits it.
#[derive(Debug, Clone)]
struct Cached {
    attempts: Vec<Attempt>,
    winner: usize,
    cover: MultiCover,
}

struct Shared<'a> {
    jobs: &'a [JobSpec],
    next: AtomicUsize,
    cache: Mutex<HashMap<String, Cached>>,
}

#[derive(Default)]
struct Output {
    jobs: Vec<ReplayedJob>,
    steps: Vec<StepRecord>,
    failures: Vec<String>,
}

/// Replays `jobs` on `workers` threads. With `traced` off no span or
/// kernel snapshot is taken.
pub fn replay(jobs: &[JobSpec], workers: usize, traced: bool) -> Replay {
    let shared = Shared {
        jobs,
        next: AtomicUsize::new(0),
        cache: Mutex::new(HashMap::new()),
    };
    let epoch = Instant::now();
    let results: Vec<(Track, Output)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| scope.spawn(|| worker(&shared, traced, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let mut out = Replay {
        tracks: Vec::new(),
        jobs: Vec::new(),
        steps: Vec::new(),
        wall_ns,
        failures: Vec::new(),
    };
    for (track, output) in results {
        out.tracks.push(track);
        out.jobs.extend(output.jobs);
        out.steps.extend(output.steps);
        out.failures.extend(output.failures);
    }
    out.jobs.sort_by_key(|j| j.id);
    out
}

fn worker(shared: &Shared<'_>, traced: bool, epoch: Instant) -> (Track, Output) {
    let mut track = Track::new(traced, epoch);
    let mut warm = WarmSession::new();
    let mut out = Output::default();
    loop {
        let id = shared.next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = shared.jobs.get(id) else {
            break;
        };
        replay_job(shared, id, job, &mut warm, &mut track, &mut out);
    }
    track.finish();
    (track, out)
}

/// The cache key: the canonical relation plus every setting that shapes
/// the result, as the engine's cross-job cache keys it.
fn cache_key(job: &JobSpec) -> String {
    format!(
        "{:016x}/{:?}/{:?}/{:?}/{:?}",
        job.relation.fingerprint(),
        job.cost,
        job.budget,
        job.strategy,
        job.backends
    )
}

fn replay_job(
    shared: &Shared<'_>,
    id: usize,
    job: &JobSpec,
    warm: &mut WarmSession,
    track: &mut Track,
    out: &mut Output,
) {
    let job_span = track.enter("replay.job", id);
    let key = cache_key(job);
    let hit = track.time("replay.cache_lookup", id, || {
        shared
            .cache
            .lock()
            .expect("replay cache poisoned")
            .get(&key)
            .cloned()
    });
    let mut record = ReplayedJob {
        id,
        attempts: Vec::new(),
        winner: 0,
        explored: 0,
        pruned: 0,
        improvements: 0,
        frontier_peak: 0,
    };
    let cover = if let Some(cached) = hit {
        record.attempts = cached.attempts;
        record.winner = cached.winner;
        track.exit(job_span);
        cached.cover
    } else {
        let (_space, relation, _warm) =
            track.time("relation.rehydrate", id, || warm.rehydrate(&job.relation));
        let mut functions: Vec<MultiOutputFunction> = Vec::new();
        for &kind in &job.backends {
            relation.space().mgr().reset_peak_live_nodes();
            let span = track.enter(replay_span(kind), id);
            let function = match kind {
                BackendKind::Brel => run_brel(job, id, &relation, track, &mut record, out),
                _ => instantiate(kind, job.cost, &job.budget, job.strategy)
                    .run(&relation)
                    .map(|run| run.function)
                    .map_err(|e| e.to_string()),
            };
            let cost = function
                .as_ref()
                .map(|f| job.cost.to_cost_fn().cost(f))
                .unwrap_or(0);
            track.exit(span);
            match function {
                Ok(function) => {
                    if !track.time("replay.verify", id, || relation.is_compatible(&function)) {
                        out.failures
                            .push(format!("{}: {} is incompatible", job.name, kind.name()));
                    }
                    record.attempts.push(Attempt { kind, cost });
                    functions.push(function);
                }
                Err(e) => out
                    .failures
                    .push(format!("{}: {} failed: {e}", job.name, kind.name())),
            }
        }
        if record.attempts.is_empty() {
            track.exit(job_span);
            return;
        }
        record.winner = (0..record.attempts.len())
            .min_by_key(|&i| (record.attempts[i].cost, i))
            .expect("at least one attempt");
        let cover = track.time("sop.cover", id, || functions[record.winner].to_multicover());
        shared.cache.lock().expect("replay cache poisoned").insert(
            key,
            Cached {
                attempts: record.attempts.clone(),
                winner: record.winner,
                cover: cover.clone(),
            },
        );
        track.exit(job_span);
        cover
    };
    if let Err(e) = track.time("check.certify", id, || certify(&cover, &job.relation)) {
        out.failures
            .push(format!("{}: certificate failed: {e}", job.name));
    }
    out.jobs.push(record);
}

/// Span name of a backend attempt inside the replay.
fn replay_span(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Brel => "replay.brel",
        BackendKind::Gyocro => "replay.gyocro",
        BackendKind::Quick => "replay.quick",
    }
}

/// The BREL attempt as the engine runs it on a clean job: the configured
/// explorer stepped until its budget or frontier runs out, one span and
/// one pair of kernel snapshots per step.
fn run_brel(
    job: &JobSpec,
    id: usize,
    relation: &BooleanRelation,
    track: &mut Track,
    record: &mut ReplayedJob,
    out: &mut Output,
) -> Result<MultiOutputFunction, String> {
    let config = BrelConfig::default()
        .with_cost(job.cost.to_cost_fn())
        .with_strategy(job.strategy)
        .with_max_explored(job.budget.max_explored)
        .with_fifo_capacity(job.budget.fifo_capacity);
    let mut explorer = Explorer::new(config, relation).map_err(|e| e.to_string())?;
    let mgr = relation.space().mgr();
    loop {
        let before = track.enabled().then(|| mgr.stats_snapshot());
        let span = track.enter("brel.step", id);
        let outcome = explorer.step();
        track.exit(span);
        if let Some(before) = before {
            let after = mgr.stats_snapshot();
            let step = track.spans.last().expect("the step span was recorded");
            out.steps.push(StepRecord {
                dur_ns: step.dur_ns(),
                cache: after.cache.delta_since(&before.cache),
                gc: after.gc.delta_since(&before.gc),
            });
        }
        match outcome.map_err(|e| e.to_string())? {
            StepOutcome::Explored { .. } => {}
            StepOutcome::Exhausted
            | StepOutcome::BudgetExhausted
            | StepOutcome::DeadlineExpired => break,
        }
    }
    let solution = explorer.into_solution();
    record.explored += solution.stats.explored;
    record.pruned += solution.stats.pruned_by_cost + solution.stats.pruned_dominated;
    record.improvements += solution.stats.improvements;
    record.frontier_peak = record.frontier_peak.max(solution.stats.frontier_peak);
    Ok(solution.function)
}
