//! Oracle tests for the serving layer: a mid-stream cancel must come back
//! as a degraded final carrying the best streamed incumbent, a client
//! disconnect must free its worker promptly (counted as a cancellation),
//! and a drain shutdown under chaos must emit a final frame for every
//! admitted job and report every quarantined session in the final stats.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use brel_suite::benchdata::{random_well_defined_relation, table2};
use brel_suite::engine::{
    BackendKind, Engine, FaultPlan, JobBudget, JobSpec, RelationSpec, WideOptions,
};
use brel_suite::serve::{Client, DrainReport, FinalReport, Frame, ServeConfig, Server, Submit};

/// Spawns a server and hands back its address plus the drain handle; the
/// handle resolving proves every server thread was joined.
fn start(config: ServeConfig) -> (SocketAddr, JoinHandle<DrainReport>) {
    let server = Server::start(config).expect("bind");
    let addr = server.addr();
    (
        addr,
        std::thread::spawn(move || server.run_until_shutdown()),
    )
}

/// An unbounded single-backend BREL job on a relation large enough that
/// exploration keeps running until it is cancelled.
fn long_job(seed: u64) -> JobSpec {
    let (_space, relation) = random_well_defined_relation(7, 4, 0.4, seed);
    let mut job = JobSpec::single(
        format!("long{seed}"),
        RelationSpec::from_relation(&relation).unwrap(),
        BackendKind::Brel,
    );
    job.budget = JobBudget {
        max_explored: None,
        fifo_capacity: None,
        ..JobBudget::default()
    };
    job
}

/// A small default-budget portfolio job that finishes quickly.
fn quick_job(name: &str, seed: u64) -> JobSpec {
    let (_space, relation) = random_well_defined_relation(3, 2, 0.3, seed);
    JobSpec::portfolio(name, RelationSpec::from_relation(&relation).unwrap())
}

#[test]
fn cancel_after_first_incumbent_degrades_to_best_incumbent() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let outcome = client
        .solve(&long_job(11), "oracle", None, None, true)
        .unwrap();
    assert!(
        !outcome.incumbents.is_empty(),
        "anytime search must stream at least the quick seed"
    );
    let report = outcome
        .final_report
        .expect("cancelled job still gets a final");
    assert_eq!(report.outcome, "degraded", "cancel truncates, not kills");
    assert!(report.degraded);
    assert!(
        report.fault.as_deref().unwrap_or("").contains("cancelled"),
        "fault should record the cancellation, got {:?}",
        report.fault
    );
    let first_cost = outcome.incumbents[0].0;
    assert!(
        report.cost.expect("degraded final carries the incumbent") <= first_cost,
        "final cost must be no worse than the first streamed incumbent"
    );

    let drain = {
        client.shutdown_and_wait().unwrap();
        handle.join().unwrap()
    };
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

#[test]
fn client_disconnect_frees_the_worker() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // Client A occupies the only worker with an unbounded job, confirms
    // the solve is live (first incumbent), then vanishes mid-stream.
    {
        let mut hog = Client::connect(addr).unwrap();
        hog.send(&Frame::Submit(Submit {
            client: "hog".to_string(),
            job: long_job(23),
            deadline_ms: None,
            max_cost: None,
        }))
        .unwrap();
        assert!(matches!(hog.recv().unwrap(), Frame::Admitted { .. }));
        assert!(matches!(hog.recv().unwrap(), Frame::Incumbent { .. }));
    } // dropped: the TCP connection closes while the job is running

    // A polite client must still get service: the disconnect cancels the
    // hogged job at the next scheduler tick and frees the worker.
    let mut polite = Client::connect(addr).unwrap();
    let outcome = polite
        .solve(
            &quick_job("after-disconnect", 5),
            "polite",
            None,
            None,
            false,
        )
        .unwrap();
    let report = outcome.final_report.expect("final after worker freed");
    assert_eq!(report.outcome, "solved");

    let stats = polite.stats().unwrap();
    assert!(
        stats.cancelled >= 1,
        "the disconnect must be accounted as a cancellation, got {stats:?}"
    );

    polite.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert_eq!(drain.stats.inflight, 0);
    assert_eq!(drain.stats.queue_depth, 0);
}

#[test]
fn drain_under_chaos_reports_every_quarantine() {
    let jobs: Vec<JobSpec> = (0..4u64)
        .map(|i| quick_job(&format!("rand{i}"), 40 + i))
        .collect();
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    let plan = Arc::new(FaultPlan::seeded(9, &names));
    let targets: Vec<String> = plan.targets().iter().map(|t| t.to_string()).collect();

    let config = ServeConfig {
        workers: 2,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    let mut client = Client::connect(addr).unwrap();
    let mut finals = Vec::new();
    for job in &jobs {
        let outcome = client.solve(job, "chaos", None, None, false).unwrap();
        assert!(outcome.rejected.is_none(), "chaos corpus must be admitted");
        finals.push(outcome.final_report.expect("every admitted job finishes"));
    }

    // Faults stay contained: targeted jobs report structured non-solved
    // outcomes but still carry a recovered solution; clean jobs solve.
    assert_eq!(finals.len(), jobs.len());
    for report in &finals {
        if targets.contains(&report.name) {
            assert_ne!(
                report.outcome, "solved",
                "{} should be faulted",
                report.name
            );
            assert!(
                report.cost.is_some(),
                "faulted job {} lost its recovered solution",
                report.name
            );
        } else {
            assert_eq!(
                report.outcome, "solved",
                "fault leaked onto {}",
                report.name
            );
        }
    }
    assert_eq!(plan.num_fired(), 3, "the seeded plan must fire completely");

    // The final stats frame of the drain and the server's own drain
    // report must agree — no quarantined session goes unreported.
    let stats_frame = client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert!(stats_frame.draining);
    assert!(
        drain.stats.quarantines >= 1,
        "the injected panic must quarantine a session, got {:?}",
        drain.stats
    );
    assert_eq!(stats_frame.quarantines, drain.stats.quarantines);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert_eq!(drain.stats.admitted, finals.len() as u64);
}

/// A drained server must still answer a cancel-heavy workload within a
/// bounded time — the oracle for "queued jobs degrade instead of running
/// to completion during a drain".
#[test]
fn drain_degrades_queued_jobs_quickly() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // One unbounded job occupies the worker; three more queue behind it.
    let mut client = Client::connect(addr).unwrap();
    let mut tickets = Vec::new();
    for i in 0..4u64 {
        client
            .send(&Frame::Submit(Submit {
                client: "drainer".to_string(),
                job: long_job(60 + i),
                deadline_ms: None,
                max_cost: None,
            }))
            .unwrap();
        loop {
            match client.recv().unwrap() {
                Frame::Admitted { job, .. } => {
                    tickets.push(job);
                    break;
                }
                // The first job is already running and streaming.
                Frame::Incumbent { .. } => {}
                other => panic!("expected admission, got {other:?}"),
            }
        }
    }

    // Drain: every admitted job must come back (degraded is fine), and
    // the whole shutdown must complete far faster than any of the four
    // unbounded jobs could have run to completion.
    let started = std::time::Instant::now();
    client.send(&Frame::Shutdown).unwrap();
    let mut finals = 0;
    loop {
        match client.recv().unwrap() {
            Frame::Final(report) => {
                assert!(tickets.contains(&report.job));
                finals += 1;
            }
            Frame::Incumbent { .. } => {}
            Frame::Stats(stats) => {
                assert!(stats.draining);
                break;
            }
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    }
    let drain = handle.join().unwrap();
    assert_eq!(finals, tickets.len());
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert!(
        drain.stats.drained >= 3,
        "the queued jobs must finish during the drain, got {:?}",
        drain.stats
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drain must cancel queued work, not run it to completion"
    );
}

/// A wide-mode server must stream the shared incumbent: every cross-worker
/// bound improvement arrives as an `incumbent` frame, and because
/// improvements commit under the search lock, the streamed costs are
/// strictly decreasing and end exactly on the final report's cost.
#[test]
fn wide_server_streams_strictly_decreasing_incumbents() {
    let config = ServeConfig {
        workers: 1,
        wide: Some((4, WideOptions::default())),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = Client::connect(addr).unwrap();

    // A budgeted single-backend BREL job on a relation hard enough that
    // the quick seed is beaten several times before the budget closes
    // the search.
    let (_space, relation) = random_well_defined_relation(7, 4, 0.35, 1001);
    let mut job = JobSpec::single(
        "wide-stream",
        RelationSpec::from_relation(&relation).unwrap(),
        BackendKind::Brel,
    );
    job.budget = JobBudget {
        max_explored: Some(250),
        fifo_capacity: Some(8192),
        ..JobBudget::default()
    };

    let outcome = client.solve(&job, "oracle", None, None, false).unwrap();
    assert!(
        outcome.incumbents.len() >= 2,
        "the workers must improve on the quick seed at least once, got {:?}",
        outcome.incumbents
    );
    for pair in outcome.incumbents.windows(2) {
        assert!(
            pair[1].0 < pair[0].0,
            "incumbent stream must be strictly decreasing, got {:?}",
            outcome.incumbents
        );
    }
    let report = outcome.final_report.expect("budgeted job reaches a final");
    assert_eq!(report.outcome, "solved");
    assert_eq!(
        report.cost,
        Some(outcome.incumbents.last().unwrap().0),
        "the final cost must be the last streamed incumbent"
    );

    client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

/// The `engine_batch --smoke` corpus: four Table-2 instances, then four
/// seeded random 4x3 relations.
fn smoke_corpus() -> Vec<JobSpec> {
    let family = table2::instances().into_iter().take(4).map(|instance| {
        let (_space, relation) = table2::generate(&instance);
        (instance.name.to_string(), relation)
    });
    let random = (0..4u64).map(|seed| {
        let (_space, relation) = random_well_defined_relation(4, 3, 0.2, seed);
        (format!("rand{seed}"), relation)
    });
    family
        .chain(random)
        .map(|(name, relation)| {
            JobSpec::portfolio(name, RelationSpec::from_relation(&relation).unwrap())
        })
        .collect()
}

/// A wide daemon runs each job through the same runner as the wide batch
/// engine, so a serial replay of the smoke corpus through a 1-worker
/// daemon with `k` search sessions must match `Engine::with_wide` at `k`
/// workers, final for final.
#[test]
fn wide_server_replay_matches_the_wide_batch() {
    let search_workers = 2;
    let corpus = smoke_corpus();
    let config = ServeConfig {
        workers: 1,
        wide: Some((search_workers, WideOptions::default())),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = Client::connect(addr).unwrap();
    let served: Vec<FinalReport> = corpus
        .iter()
        .map(|job| {
            let outcome = client.solve(job, "replay", None, None, false).unwrap();
            outcome
                .final_report
                .expect("every replayed job gets a final")
        })
        .collect();
    client.shutdown_and_wait().unwrap();
    handle.join().unwrap();

    let batch = Engine::with_workers(search_workers)
        .with_wide(WideOptions::default())
        .solve_batch(&corpus);
    assert_eq!(served.len(), batch.jobs.len());
    for (ticket, (from_serve, from_batch)) in served.iter().zip(&batch.jobs).enumerate() {
        let reference = FinalReport::from_report(ticket as u64, from_batch, 0, 0);
        assert_eq!(
            from_serve.deterministic_json().render(),
            reference.deterministic_json().render(),
            "job {} differs between the wide daemon and the wide batch",
            from_batch.name
        );
    }
}

/// Regression: `stats` and `submit` take the queue and in-flight locks;
/// if either held one while taking the other, stats loops racing submit
/// loops would deadlock their connections. Each loop pipelines its frames
/// so the daemon handles them back to back; the stats loops run until
/// every submit loop is done, and all must finish within the timeout.
#[test]
fn concurrent_stats_and_submit_never_deadlock() {
    const LOOPS: usize = 2;
    const ROUNDS: usize = 400;
    const BATCH: usize = 8;
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let submitting = Arc::new(AtomicBool::new(true));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut submitters = Vec::new();
    for l in 0..LOOPS {
        let done = done_tx.clone();
        submitters.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let (_space, relation) = random_well_defined_relation(3, 2, 0.3, 5);
            let job = JobSpec::single(
                "tiny",
                RelationSpec::from_relation(&relation).unwrap(),
                BackendKind::Quick,
            );
            for round in 0..ROUNDS {
                // A fresh client name per batch: a batch fits the
                // per-client budget even before the previous batch's
                // slots are released, so every submit is admitted.
                for _ in 0..BATCH {
                    client
                        .send(&Frame::Submit(Submit {
                            client: format!("submitter{l}-{round}"),
                            job: job.clone(),
                            deadline_ms: None,
                            max_cost: None,
                        }))
                        .unwrap();
                }
                let mut finals = 0;
                while finals < BATCH {
                    match client.recv().unwrap() {
                        Frame::Final(_) => finals += 1,
                        Frame::Admitted { .. } | Frame::Incumbent { .. } => {}
                        other => panic!("expected admission or final, got {other:?}"),
                    }
                }
            }
            let _ = done.send(());
        }));
    }
    let mut pollers = Vec::new();
    for _ in 0..LOOPS {
        let done = done_tx.clone();
        let submitting = submitting.clone();
        pollers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            while submitting.load(Ordering::Relaxed) {
                for _ in 0..BATCH {
                    client.send(&Frame::StatsRequest).unwrap();
                }
                for _ in 0..BATCH {
                    match client.recv().unwrap() {
                        Frame::Stats(_) => {}
                        other => panic!("expected stats, got {other:?}"),
                    }
                }
            }
            let _ = done.send(());
        }));
    }
    drop(done_tx);

    let wait = |what: &str| {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| {
                panic!("a {what} connection stopped answering (lock-order deadlock): {e}")
            });
    };
    for _ in 0..LOOPS {
        wait("submit");
    }
    submitting.store(false, Ordering::Relaxed);
    for _ in 0..LOOPS {
        wait("stats");
    }
    for thread in submitters.into_iter().chain(pollers) {
        thread.join().unwrap();
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, (LOOPS * ROUNDS * BATCH) as u64);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}
