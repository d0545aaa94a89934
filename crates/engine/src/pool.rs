//! A std-only worker pool that solves batches of jobs in parallel.
//!
//! Workers share a single job queue behind a mutex (jobs are coarse enough
//! that queue contention is negligible) and hand their finished
//! [`JobReport`]s back when they join. Because each job is a pure function
//! of its spec — every worker rehydrates the relation into its own
//! [`WarmSession`], and a successful warm reset is observationally cold —
//! the collected batch, sorted by job id, is byte-identical (modulo wall
//! clocks and the scheduling-dependent reuse flags) no matter how many
//! workers ran it or how the scheduler interleaved them.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::fault::{FaultInjection, FaultPlan};
use crate::job::{BackendKind, JobSpec};
use crate::portfolio::{run_portfolio, JobReport};
use crate::reuse::{BatchReuse, ReuseState, WarmSession};
use crate::wide::WideOptions;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads. Zero is treated as one.
    pub num_workers: usize,
    /// When set, batches run in *wide* mode: jobs are processed one at a
    /// time and the worker pool parallelizes frontier expansion inside each
    /// BREL solve instead of across jobs (see [`crate::wide`]), with at
    /// most one search worker per core. Use it when one hard relation
    /// would otherwise serialize the batch.
    pub wide: Option<WideOptions>,
    /// Cross-job reuse (the default): workers keep warm BDD sessions
    /// across jobs and share the solved-subrelation cache. Turning it off
    /// restores the pre-redesign cold-manager-per-job behaviour; the
    /// deterministic output is identical either way (see
    /// [`crate::reuse`]), only wall clocks and the [`BatchReuse`] counters
    /// move.
    pub reuse: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: thread::available_parallelism().map_or(1, |n| n.get()),
            wide: None,
            reuse: true,
        }
    }
}

/// The result of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per submitted job, sorted by job id.
    pub jobs: Vec<JobReport>,
    /// Number of workers that actually ran (after clamping).
    pub num_workers: usize,
    /// Wall-clock time of the whole batch in microseconds.
    pub wall_micros: u64,
    /// Warm-vs-cold session counts and solved-subrelation cache traffic
    /// for the whole batch. Scheduling-dependent (which worker lands which
    /// job decides who resets warm), so it is serialized only alongside
    /// timings — never in the deterministic output.
    pub reuse: BatchReuse,
}

impl BatchReport {
    /// Number of jobs whose portfolio produced at least one solution.
    pub fn num_solved(&self) -> usize {
        self.jobs.iter().filter(|j| j.winner.is_some()).count()
    }

    /// Sum of the winning attempts' costs: the batch's determinism
    /// fingerprint. A solver or kernel change may move wall times, but if
    /// this number moves for the default configuration, results changed.
    pub fn total_winner_cost(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.winning().map(|w| w.cost))
            .sum()
    }

    /// How many jobs each backend won, in the deterministic
    /// [`BackendKind::all`] order. Backends that won nothing are included
    /// with a zero count.
    pub fn wins_by_backend(&self) -> Vec<(BackendKind, usize)> {
        BackendKind::all()
            .into_iter()
            .map(|kind| {
                let wins = self
                    .jobs
                    .iter()
                    .filter(|j| j.winning().is_some_and(|w| w.backend == kind))
                    .count();
                (kind, wins)
            })
            .collect()
    }
}

/// The parallel batch-solving engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Deterministic fault-injection plan for chaos runs; `None` (the
    /// default) injects nothing and adds no overhead beyond a slice check.
    plan: Option<Arc<FaultPlan>>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config, plan: None }
    }

    /// Creates an engine with a fixed worker count.
    pub fn with_workers(num_workers: usize) -> Self {
        Engine::new(EngineConfig {
            num_workers,
            ..EngineConfig::default()
        })
    }

    /// Switches the engine into wide mode (parallel frontier expansion
    /// inside each BREL solve instead of job-level parallelism).
    pub fn with_wide(mut self, options: WideOptions) -> Self {
        self.config.wide = Some(options);
        self
    }

    /// Turns cross-job reuse (warm sessions + the solved-subrelation
    /// cache) on or off. Off restores the pre-redesign
    /// cold-manager-per-job behaviour; the deterministic output is
    /// identical either way.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.config.reuse = reuse;
        self
    }

    /// Arms a deterministic fault-injection plan: each injection fires
    /// exactly once, at the Nth BREL expansion of its target job, in both
    /// narrow and wide mode. Jobs the plan does not target are untouched —
    /// their deterministic output is byte-identical to an uninjected run.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The configuration of this engine.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Solves every job of the batch and returns the reports sorted by job
    /// id. The output (modulo wall-clock fields) does not depend on the
    /// worker count.
    pub fn solve_batch(&self, jobs: &[JobSpec]) -> BatchReport {
        if let Some(options) = self.config.wide {
            return self.solve_batch_wide(jobs, options);
        }
        let start = Instant::now();
        // Never spin up more workers than jobs; never fewer than one.
        let num_workers = self.config.num_workers.clamp(1, jobs.len().max(1));
        let queue: Mutex<VecDeque<(usize, &JobSpec)>> =
            Mutex::new(jobs.iter().enumerate().collect());
        let reuse_state = ReuseState::new(self.config.reuse);
        let per_worker: Vec<(Vec<JobReport>, (u64, u64, u64))> = thread::scope(|scope| {
            let workers: Vec<_> = (0..num_workers)
                .map(|worker| {
                    let queue = &queue;
                    let reuse_state = &reuse_state;
                    scope.spawn(move || {
                        let _track = brel_obs::enabled(brel_obs::Category::Engine)
                            .then(|| brel_obs::set_track(&format!("pool-worker-{worker}")));
                        // Each worker owns one session that stays warm
                        // across every job it lands (cold mode never
                        // reuses it).
                        let mut warm = self.session();
                        let mut reports = Vec::new();
                        loop {
                            // Take the lock only to pop; the solve runs
                            // unlocked.
                            let next = queue.lock().expect("job queue poisoned").pop_front();
                            let Some((id, job)) = next else { break };
                            reports.push(self.run(id, job, &mut warm, reuse_state, None));
                        }
                        (reports, warm.counts())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("pool worker panicked"))
                .collect()
        });
        let (reports, session_counts): (Vec<Vec<JobReport>>, Vec<_>) =
            per_worker.into_iter().unzip();
        let reports = reports.into_iter().flatten().collect();
        batch_report(reports, num_workers, start, session_counts, &reuse_state)
    }

    /// Wide mode: jobs run one at a time and the pool parallelizes the
    /// frontier of each BREL solve instead. Output (modulo wall-clock
    /// fields) is independent of the worker count, like the job-parallel
    /// path.
    fn solve_batch_wide(&self, jobs: &[JobSpec], options: WideOptions) -> BatchReport {
        let start = Instant::now();
        let num_workers = self.config.num_workers.max(1);
        // The non-BREL session and the per-worker search sessions persist
        // across jobs (unless reuse is off), so subproblems expand in warm
        // managers. The subrelation cache stays off here: it memoizes
        // finished narrow portfolios.
        let reuse_state = ReuseState::disabled();
        let mut warm = self.session();
        // One search worker per core at most: on fewer cores, surplus
        // workers only add lock traffic and idle polling. Output does not
        // depend on the worker count.
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let mut sessions: Vec<WarmSession> = (0..num_workers.min(cores))
            .map(|_| self.session())
            .collect();
        let reports: Vec<JobReport> = jobs
            .iter()
            .enumerate()
            .map(|(id, job)| {
                let wide = Some((options, sessions.as_mut_slice()));
                self.run(id, job, &mut warm, &reuse_state, wide)
            })
            .collect();
        let session_counts = sessions.iter().chain([&warm]).map(WarmSession::counts);
        batch_report(reports, num_workers, start, session_counts, &reuse_state)
    }

    /// A worker session: kept warm across jobs unless reuse is off.
    fn session(&self) -> WarmSession {
        if self.config.reuse {
            WarmSession::new()
        } else {
            WarmSession::cold()
        }
    }

    /// One job of a batch, under a `job` span and this engine's fault plan.
    fn run(
        &self,
        id: usize,
        job: &JobSpec,
        warm: &mut WarmSession,
        reuse: &ReuseState,
        wide: Option<(WideOptions, &mut [WarmSession])>,
    ) -> JobReport {
        let _job_span = brel_obs::span!(brel_obs::Category::Engine, "job", "job_id" => id);
        let injections: Vec<&FaultInjection> = self
            .plan
            .as_deref()
            .map_or_else(Vec::new, |p| p.for_job(&job.name));
        run_portfolio(id, job, warm, reuse, &injections, None, wide)
    }
}

/// Assembles a [`BatchReport`]: reports sorted by job id, session counts
/// summed over every session the batch used, and the cache traffic.
fn batch_report(
    mut jobs: Vec<JobReport>,
    num_workers: usize,
    start: Instant,
    session_counts: impl IntoIterator<Item = (u64, u64, u64)>,
    reuse_state: &ReuseState,
) -> BatchReport {
    jobs.sort_by_key(|r| r.job_id);
    let (warm_reuses, cold_builds, quarantines) = session_counts
        .into_iter()
        .fold((0, 0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2));
    let (subrel_cache_hits, subrel_cache_misses) = reuse_state.counts();
    BatchReport {
        jobs,
        num_workers,
        wall_micros: brel_obs::wall_micros(start),
        reuse: BatchReuse {
            warm_reuses,
            cold_builds,
            subrel_cache_hits,
            subrel_cache_misses,
            quarantines,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CostSpec, RelationSpec};
    use brel_relation::{BooleanRelation, RelationSpace};

    fn job(name: &str, table: &str, inputs: usize, outputs: usize) -> JobSpec {
        let space = RelationSpace::new(inputs, outputs);
        let r = BooleanRelation::from_table(&space, table).unwrap();
        JobSpec::portfolio(name, RelationSpec::from_relation(&r).unwrap())
    }

    fn sample_batch() -> Vec<JobSpec> {
        vec![
            job("fig1", "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}", 2, 2),
            job("fig10", "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}", 2, 2),
            job("broken", "1 : {1}", 1, 1),
            job("fig5", "00:{01,10}\n01:{11}\n10:{11}\n11:{01,10}", 2, 2)
                .with_cost(CostSpec::LiteralCount),
        ]
    }

    #[test]
    fn reports_come_back_in_job_id_order() {
        let batch = sample_batch();
        let report = Engine::with_workers(3).solve_batch(&batch);
        assert_eq!(report.jobs.len(), batch.len());
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.job_id, i);
            assert_eq!(j.name, batch[i].name);
        }
        assert_eq!(report.num_solved(), 3);
        let total_wins: usize = report.wins_by_backend().iter().map(|(_, w)| w).sum();
        assert_eq!(total_wins, 3);
    }

    #[test]
    fn worker_count_does_not_change_the_results() {
        let batch = sample_batch();
        let one = Engine::with_workers(1).solve_batch(&batch);
        let many = Engine::with_workers(8).solve_batch(&batch);
        assert_eq!(one.jobs.len(), many.jobs.len());
        for (a, b) in one.jobs.iter().zip(&many.jobs) {
            // Wall-clock fields and the scheduling-dependent reuse flags
            // aside, the reports are structurally equal.
            let mask = |j: &JobReport| {
                let mut j = j.clone();
                for attempt in &mut j.attempts {
                    attempt.wall_micros = 0;
                    attempt.reuse = Default::default();
                }
                j
            };
            assert_eq!(mask(a), mask(b));
        }
    }

    #[test]
    fn disabling_reuse_does_not_change_the_results() {
        let batch = sample_batch();
        let warm = Engine::with_workers(2).solve_batch(&batch);
        let cold = Engine::with_workers(2)
            .with_reuse(false)
            .solve_batch(&batch);
        assert_eq!(warm.total_winner_cost(), cold.total_winner_cost());
        // Cold mode never resets a session warm and never consults the
        // subrelation cache.
        assert_eq!(cold.reuse.warm_reuses, 0);
        assert_eq!(
            cold.reuse.subrel_cache_hits + cold.reuse.subrel_cache_misses,
            0
        );
        // Every job rehydrates cold exactly once (even the ill-defined
        // one: rehydration succeeds, solving is what fails).
        assert_eq!(cold.reuse.cold_builds as usize, batch.len());
        for (a, b) in warm.jobs.iter().zip(&cold.jobs) {
            let mask = |j: &JobReport| {
                let mut j = j.clone();
                for attempt in &mut j.attempts {
                    attempt.wall_micros = 0;
                    attempt.reuse = Default::default();
                }
                j
            };
            assert_eq!(mask(a), mask(b));
        }
    }

    #[test]
    fn chaos_batches_terminate_with_structured_outcomes() {
        use crate::fault::{FaultPlan, JobOutcome};
        // Drop the ill-defined job: chaos runs assert that every *solvable*
        // job still yields a winner.
        let batch: Vec<JobSpec> = sample_batch()
            .into_iter()
            .filter(|j| j.name != "broken")
            .collect();
        let names: Vec<&str> = batch.iter().map(|j| j.name.as_str()).collect();
        let mask = |j: &JobReport| {
            let mut j = j.clone();
            for attempt in &mut j.attempts {
                attempt.wall_micros = 0;
                attempt.reuse = Default::default();
            }
            j
        };
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            // Injections are armed-once, so each run arms a fresh plan.
            let plan = Arc::new(FaultPlan::seeded(9, &names));
            assert_eq!(plan.injections().len(), 3);
            let report = Engine::with_workers(workers)
                .with_fault_plan(plan.clone())
                .solve_batch(&batch);
            assert_eq!(plan.num_fired(), 3, "every injection must fire");
            let non_solved = report
                .jobs
                .iter()
                .filter(|j| j.outcome != Some(JobOutcome::Solved))
                .count();
            assert_eq!(non_solved, 3, "exactly the injected jobs degrade");
            assert!(
                report.jobs.iter().all(|j| j.winner.is_some()),
                "every solvable job still returns a row"
            );
            runs.push(report.jobs.iter().map(mask).collect::<Vec<_>>());
        }
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 8 workers");
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let batch = sample_batch();
        let report = Engine::with_workers(0).solve_batch(&batch);
        assert_eq!(report.num_workers, 1);
        assert_eq!(report.jobs.len(), batch.len());
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Engine::default().solve_batch(&[]);
        assert!(report.jobs.is_empty());
        assert_eq!(report.num_solved(), 0);
    }
}
