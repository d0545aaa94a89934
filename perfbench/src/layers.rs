//! Per-layer metrics, each derived from the pass that measured it: the
//! replay (step, kernel, rehydration and cover metrics), the engine and
//! backend passes of [`crate::calls`], and the timed batch's own report.

use brel_engine::{BackendKind, BatchReport};

use crate::calls::{CallPass, KernelTotals};
use crate::metrics::Metrics;
use crate::replay::Replay;
use crate::stats::ratio;
use crate::trace::Track;

/// Durations (µs) of every span called `name`.
pub fn durations_us(tracks: &[Track], name: &str) -> Vec<f64> {
    tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

fn total_us(tracks: &[Track], name: &str) -> f64 {
    durations_us(tracks, name).iter().sum()
}

/// Metrics a pass cannot observe, printed as 0 with the reason.
fn not_observed(m: &mut Metrics, names: &[&'static str], why: &str) {
    for &name in names {
        m.put(name, 0.0, why.to_string());
    }
}

/// The `bdd` counter metrics from summed kernel deltas.
fn kernel_counters(m: &mut Metrics, totals: &KernelTotals, base: &str) {
    let (cache, gc) = (&totals.cache, &totals.gc);
    m.put(
        "bdd.cache_lookups",
        cache.cache_lookups as f64,
        base.to_string(),
    );
    m.put(
        "bdd.cache_hit_rate",
        ratio(cache.cache_hits as f64, cache.cache_lookups as f64),
        format!("base {} lookups", cache.cache_lookups),
    );
    m.put(
        "bdd.cache_eviction_rate",
        ratio(cache.cache_evictions as f64, cache.cache_inserts as f64),
        format!("base {} inserts", cache.cache_inserts),
    );
    m.put(
        "bdd.unique_hit_rate",
        ratio(cache.unique_hits as f64, cache.unique_lookups as f64),
        format!("base {} unique-table lookups", cache.unique_lookups),
    );
    m.put("bdd.gc_collections", gc.collections as f64, "");
    m.put("bdd.nodes_reclaimed", gc.nodes_reclaimed as f64, "");
    m.put(
        "bdd.peak_live_nodes",
        gc.peak_live_nodes as f64,
        "largest per-session peak",
    );
}

/// The `bdd`, `relation`, step-level `brel` and `sop` metrics, from the
/// replay's spans and per-step kernel snapshots.
pub fn replay_layers(m: &mut Metrics, replay: &Replay) {
    let steps = &replay.steps;
    let mut totals = KernelTotals::default();
    for s in steps {
        totals.add(&s.cache, &s.gc);
    }
    kernel_counters(m, &totals, &format!("{} BREL steps", steps.len()));
    let step_ns: u64 = steps.iter().map(|s| s.dur_ns).sum();
    let gc_step_ns: u64 = steps
        .iter()
        .filter(|s| s.gc.collections > 0)
        .map(|s| s.dur_ns)
        .sum();
    m.put(
        "bdd.gc_step_share",
        ratio(gc_step_ns as f64, step_ns as f64),
        "upper bound on GC time: share of step time in steps that collected",
    );

    let tracks = &replay.tracks;
    m.put_pct(
        "relation.rehydrate_us_p50",
        &durations_us(tracks, "relation.rehydrate"),
        50.0,
    );
    m.put(
        "relation.rehydrate_share",
        ratio(
            total_us(tracks, "relation.rehydrate"),
            total_us(tracks, "replay.job"),
        ),
        "of replayed job time",
    );

    let explored: usize = replay.jobs.iter().map(|j| j.explored).sum();
    let pruned: usize = replay.jobs.iter().map(|j| j.pruned).sum();
    let improvements: usize = replay.jobs.iter().map(|j| j.improvements).sum();
    let step_us = durations_us(tracks, "brel.step");
    m.put_pct("brel.step_us_p50", &step_us, 50.0);
    m.put_pct("brel.step_us_p99", &step_us, 99.0);
    m.put(
        "brel.frontier_peak",
        replay
            .jobs
            .iter()
            .map(|j| j.frontier_peak)
            .max()
            .unwrap_or(0) as f64,
        "largest per job",
    );
    m.put(
        "brel.pruned_share",
        ratio(pruned as f64, (explored + pruned) as f64),
        format!("base {} explored + pruned", explored + pruned),
    );
    m.put(
        "brel.improvement_share",
        ratio(improvements as f64, explored as f64),
        format!("base {explored} explored"),
    );
    m.put_pct("sop.cover_us_p50", &durations_us(tracks, "sop.cover"), 50.0);
}

/// `wide.expansions_per_worker_s` from the wide pass: Σ explored over
/// (Σ `solve_wide_with` wall × workers), comparable with
/// `brel.expansions_per_s`. The note gives the kernel counters of every
/// wide worker session across the pass.
pub fn wide_layers(m: &mut Metrics, wide: &CallPass, workers: usize) {
    let explored: usize = wide.jobs.iter().map(|j| j.explored).sum();
    let wall_s = wide.jobs.iter().flat_map(|j| &j.attempt_us).sum::<u64>() as f64 / 1e6;
    let kernel = wide.kernel.unwrap_or_default();
    m.put(
        "wide.expansions_per_worker_s",
        ratio(explored as f64, wall_s * workers as f64),
        format!(
            "Σ explored {explored} / ({wall_s:.3} s wide wall × {workers} workers); \
             wide sessions: {} cache lookups, {} collections, {} nodes reclaimed",
            kernel.cache.cache_lookups, kernel.gc.collections, kernel.gc.nodes_reclaimed
        ),
    );
}

/// The `wide` metric of a workload that runs no wide search.
pub fn wide_not_exercised(m: &mut Metrics) {
    not_observed(
        m,
        &["wide.expansions_per_worker_s"],
        "not exercised by this workload",
    );
}

/// The `backend` metrics and the search rate, from a pass that timed
/// every backend attempt with `execute`.
/// Wins come from the timed batch.
pub fn backend_layers(m: &mut Metrics, pass: &CallPass, reference: &BatchReport) {
    let attempts = || {
        pass.jobs
            .iter()
            .flat_map(|j| j.costs.iter().zip(&j.attempt_us))
    };
    for (kind, name) in [
        (BackendKind::Brel, "backend.brel_us_p50"),
        (BackendKind::Gyocro, "backend.gyocro_us_p50"),
        (BackendKind::Quick, "backend.quick_us_p50"),
    ] {
        let us: Vec<f64> = attempts()
            .filter(|((b, _), _)| *b == kind.name())
            .map(|(_, &us)| us as f64)
            .collect();
        m.put_pct(name, &us, 50.0);
    }
    // Backend time spent on attempts that did not win their job in the
    // timed batch.
    let (mut all_us, mut loser_us) = (0u64, 0u64);
    for job in &pass.jobs {
        let winner = reference.jobs.get(job.id).and_then(|j| j.winner);
        for (i, &us) in job.attempt_us.iter().enumerate() {
            all_us += us;
            if Some(i) != winner {
                loser_us += us;
            }
        }
    }
    m.put(
        "backend.loser_time_share",
        ratio(loser_us as f64, all_us as f64),
        "of backend time",
    );
    for (kind, name) in [
        (BackendKind::Brel, "backend.wins.brel"),
        (BackendKind::Gyocro, "backend.wins.gyocro"),
        (BackendKind::Quick, "backend.wins.quick"),
    ] {
        let wins = reference
            .jobs
            .iter()
            .filter(|j| j.winning().is_some_and(|w| w.backend == kind))
            .count();
        m.put(
            name,
            wins as f64,
            format!("of {} jobs", reference.jobs.len()),
        );
    }
    let explored: usize = pass.jobs.iter().map(|j| j.explored).sum();
    let brel_s: f64 = attempts()
        .filter(|((b, _), _)| *b == BackendKind::Brel.name())
        .map(|(_, &us)| us as f64 / 1e6)
        .sum();
    m.put("brel.explored", explored as f64, "every job's BREL attempt");
    m.put(
        "brel.expansions_per_s",
        ratio(explored as f64, brel_s),
        "per second of BREL backend time",
    );
}

/// The `engine` metrics: job times from the engine pass, pool and reuse
/// counters from the timed batch.
pub fn engine_layers(m: &mut Metrics, pass: &CallPass, reference: &BatchReport) {
    let job_us = durations_us(&pass.tracks, "engine.job");
    m.put_pct("engine.job_us_p50", &job_us, 50.0);
    m.put_pct("engine.job_us_p99", &job_us, 99.0);
    // Job time not spent inside a backend run: rehydration, verification,
    // the fault boundary and the report's statistics.
    let attempt_us: u64 = pass.jobs.iter().flat_map(|j| &j.attempt_us).sum();
    m.put(
        "engine.overhead_us_per_job",
        ratio(
            (job_us.iter().sum::<f64>() - attempt_us as f64).max(0.0),
            job_us.len() as f64,
        ),
        "job wall minus its backends' own wall, per job",
    );
    let batch_attempt_us: u64 = reference
        .jobs
        .iter()
        .flat_map(|j| &j.attempts)
        .map(|a| a.wall_micros)
        .sum();
    let workers = reference.num_workers as f64;
    m.put(
        "engine.worker_utilization",
        ratio(
            batch_attempt_us as f64,
            workers * reference.wall_micros as f64,
        ),
        format!("Σ attempt wall / ({workers} workers × batch wall)"),
    );
    let reuse = &reference.reuse;
    let lookups = reuse.subrel_cache_hits + reuse.subrel_cache_misses;
    m.put(
        "engine.subrel_hit_rate",
        ratio(reuse.subrel_cache_hits as f64, lookups as f64),
        format!("{} hits of {lookups} lookups", reuse.subrel_cache_hits),
    );
    m.put("engine.warm_reuses", reuse.warm_reuses as f64, "");
    m.put("engine.cold_builds", reuse.cold_builds as f64, "");
    m.put("engine.quarantines", reuse.quarantines as f64, "");
}

/// The `serve` metrics of a workload that runs no daemon.
pub fn serve_not_exercised(m: &mut Metrics) {
    for name in [
        "serve.admission_us_p50",
        "serve.admission_us_p99",
        "serve.queue_wait_us_p50",
        "serve.queue_wait_us_p99",
        "serve.solve_us_p50",
        "serve.solve_us_p99",
        "serve.generator_lag_us_p99",
        "serve.final_p50_ms",
        "serve.final_p99_ms",
        "serve.first_incumbent_p50_ms",
        "serve.first_incumbent_p99_ms",
    ] {
        m.put_pct(name, &[], 50.0);
    }
    not_observed(
        m,
        &[
            "serve.backlog_growth",
            "serve.shed",
            "serve.cancelled",
            "serve.degraded",
            "serve.incumbents_per_job",
            "serve.max_ok_rate",
        ],
        "not exercised by this workload",
    );
}
