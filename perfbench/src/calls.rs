//! The passes of the traced run that time the layers' own public entry
//! points, one call per span:
//!
//! | span | public call | pass |
//! |---|---|---|
//! | `engine.job` | `run_job_warm` on a worker's `WarmSession` | [`engine_pass`] |
//! | `wide.job` | `solve_wide_with` on `nproc` sessions (`hard-seq`) | [`wide_pass`] |
//! | `backend.rehydrate` | `WarmSession::rehydrate`, before the attempts | [`backend_pass`] |
//! | `backend.{brel,gyocro,quick}` | `execute`, once per backend | [`backend_pass`] |
//!
//! Each pass solves every job afresh (no cross-job cache), and each must
//! reproduce the timed batch's per-job costs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use brel_bdd::{BddSession, CacheStats, GcStats};
use brel_engine::{
    execute, run_job_warm, solve_wide_with, BackendKind, JobOutcome, JobSpec, WarmSession,
    WideOptions,
};

use crate::trace::Track;

/// Span name of a backend attempt timed through `execute`.
pub fn backend_span(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Brel => "backend.brel",
        BackendKind::Gyocro => "backend.gyocro",
        BackendKind::Quick => "backend.quick",
    }
}

/// One job of a pass.
#[derive(Debug, Clone)]
pub struct CallJob {
    /// Position in the job list.
    pub id: usize,
    /// `(backend, cost)` of every attempt, in backend order.
    pub costs: Vec<(&'static str, u64)>,
    /// Wall time of each attempt as the engine measured it (µs).
    pub attempt_us: Vec<u64>,
    /// Expansions of the BREL attempt.
    pub explored: usize,
    /// Frontier high-water mark of the BREL attempt.
    pub frontier_peak: usize,
}

/// Kernel counter deltas summed over steps, sessions or jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTotals {
    /// Cache and unique-table counter deltas.
    pub cache: CacheStats,
    /// Collections and reclaimed nodes (deltas); peak live nodes is the
    /// largest peak seen.
    pub gc: GcStats,
}

impl KernelTotals {
    /// Adds one pair of deltas.
    pub fn add(&mut self, cache: &CacheStats, gc: &GcStats) {
        self.cache.cache_lookups += cache.cache_lookups;
        self.cache.cache_hits += cache.cache_hits;
        self.cache.cache_inserts += cache.cache_inserts;
        self.cache.cache_evictions += cache.cache_evictions;
        self.cache.unique_lookups += cache.unique_lookups;
        self.cache.unique_hits += cache.unique_hits;
        self.gc.collections += gc.collections;
        self.gc.nodes_reclaimed += gc.nodes_reclaimed;
        self.gc.peak_live_nodes = self.gc.peak_live_nodes.max(gc.peak_live_nodes);
    }
}

/// One traced pass.
#[derive(Debug)]
pub struct CallPass {
    /// One track per worker thread.
    pub tracks: Vec<Track>,
    /// The jobs, by id.
    pub jobs: Vec<CallJob>,
    /// Failed calls.
    pub failures: Vec<String>,
    /// Worker-session kernel counters (wide pass only).
    pub kernel: Option<KernelTotals>,
}

/// Runs `per_job` on `workers` threads, each with its own warm session,
/// the jobs claimed in order.
fn on_workers(
    jobs: &[JobSpec],
    workers: usize,
    per_job: impl Fn(usize, &JobSpec, &mut WarmSession, &mut Track) -> Result<CallJob, String> + Sync,
) -> CallPass {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let results: Vec<(Track, Vec<CallJob>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut track = Track::new(true, epoch);
                    let mut warm = WarmSession::new();
                    let (mut done, mut failures) = (Vec::new(), Vec::new());
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(id) else { break };
                        match per_job(id, job, &mut warm, &mut track) {
                            Ok(call) => done.push(call),
                            Err(e) => failures.push(format!("{}: {e}", job.name)),
                        }
                    }
                    track.finish();
                    (track, done, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pass worker panicked"))
            .collect()
    });
    let mut pass = CallPass {
        tracks: Vec::new(),
        jobs: Vec::new(),
        failures: Vec::new(),
        kernel: None,
    };
    for (track, done, failures) in results {
        pass.tracks.push(track);
        pass.jobs.extend(done);
        pass.failures.extend(failures);
    }
    pass.jobs.sort_by_key(|j| j.id);
    pass
}

/// `run_job_warm` per job on `workers` threads, as the job-parallel pool
/// runs it (without the pool's cross-job cache).
pub fn engine_pass(jobs: &[JobSpec], workers: usize) -> CallPass {
    on_workers(jobs, workers, |id, job, warm, track| {
        let report = track.time("engine.job", id, || run_job_warm(id, job, warm));
        if report.outcome != Some(JobOutcome::Solved) {
            return Err(format!(
                "run_job_warm ended {:?}: {:?}",
                report.outcome, report.error
            ));
        }
        Ok(CallJob {
            id,
            costs: report
                .attempts
                .iter()
                .map(|a| (a.backend.name(), a.cost))
                .collect(),
            attempt_us: report.attempts.iter().map(|a| a.wall_micros).collect(),
            explored: report
                .attempts
                .iter()
                .filter(|a| a.backend == BackendKind::Brel)
                .map(|a| a.explored)
                .sum(),
            frontier_peak: report
                .attempts
                .iter()
                .map(|a| a.frontier_peak)
                .max()
                .unwrap_or(0),
        })
    })
}

/// `execute` per backend of each job on one rehydrated relation per job,
/// on `workers` threads.
pub fn backend_pass(jobs: &[JobSpec], workers: usize) -> CallPass {
    on_workers(jobs, workers, |id, job, warm, track| {
        let (_space, relation, _warm) =
            track.time("backend.rehydrate", id, || warm.rehydrate(&job.relation));
        let mut call = CallJob {
            id,
            costs: Vec::new(),
            attempt_us: Vec::new(),
            explored: 0,
            frontier_peak: 0,
        };
        for &kind in &job.backends {
            let start = Instant::now();
            let report = track
                .time(backend_span(kind), id, || {
                    execute(kind, job.cost, &job.budget, job.strategy, &relation)
                })
                .map_err(|e| format!("{} failed: {e}", kind.name()))?;
            call.costs.push((kind.name(), report.cost));
            call.attempt_us.push(start.elapsed().as_micros() as u64);
            if kind == BackendKind::Brel {
                call.explored += report.explored;
                call.frontier_peak = report.frontier_peak;
            }
        }
        Ok(call)
    })
}

/// Every session's manager, as a handle, without disturbing the session:
/// a warm session hands back its manager on `prepare`, and the wide
/// search resets it again before it builds anything.
fn managers(sessions: &mut [WarmSession]) -> Vec<BddSession> {
    sessions.iter_mut().map(|s| s.prepare(1, 0).0).collect()
}

/// `solve_wide_with` per job on `workers` persistent sessions, as the
/// wide engine runs a batch, with every session's kernel counters read
/// before and after each job.
pub fn wide_pass(jobs: &[JobSpec], workers: usize) -> CallPass {
    let epoch = Instant::now();
    let mut track = Track::new(true, epoch);
    let mut sessions: Vec<WarmSession> = (0..workers.max(1)).map(|_| WarmSession::new()).collect();
    let mut kernel = KernelTotals::default();
    let mut pass = CallPass {
        tracks: Vec::new(),
        jobs: Vec::new(),
        failures: Vec::new(),
        kernel: None,
    };
    for (id, job) in jobs.iter().enumerate() {
        let mgrs = managers(&mut sessions);
        let before: Vec<_> = mgrs.iter().map(BddSession::stats_snapshot).collect();
        let result = track.time("wide.job", id, || {
            solve_wide_with(job, WideOptions::default(), &mut sessions)
        });
        for (mgr, before) in mgrs.iter().zip(&before) {
            let after = mgr.stats_snapshot();
            kernel.add(
                &after.cache.delta_since(&before.cache),
                &after.gc.delta_since(&before.gc),
            );
        }
        match result {
            Ok(report) => pass.jobs.push(CallJob {
                id,
                costs: vec![(report.backend.name(), report.cost)],
                attempt_us: vec![report.wall_micros],
                explored: report.explored,
                frontier_peak: report.frontier_peak,
            }),
            Err(e) => pass
                .failures
                .push(format!("{}: solve_wide_with failed: {e}", job.name)),
        }
    }
    track.finish();
    pass.tracks.push(track);
    pass.kernel = Some(kernel);
    pass
}
