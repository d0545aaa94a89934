//! perfbench: the brel-suite benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about `S`
//! seconds, checks every output, prints one line per metric and, last, a
//! JSON result line. `--trace 0` measures the end-to-end metrics with no
//! tracing; `--trace 1` runs the layer replay with spans and prints the
//! per-layer metrics. A failed check exits with code 1; bad arguments
//! exit with code 2. See `perfbench/README.md`.

mod batch;
mod calls;
mod certify;
mod layers;
mod meta;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use brel_engine::Json;

use crate::metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload portfolio-mix|hard-seq \
                     --seed N --seconds S --trace 0|1";

/// Attempt and failure counts plus every failed check of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs solved or submitted).
    pub attempted: u64,
    /// Operations that failed (not solved, shed, or lost).
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records `message` as a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: String) {
        if !ok {
            self.errors.push(message);
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Reads the serve pass's latency limit from `BENCHMARK.json`: the
/// `portfolio-mix` workload's `why` states `final_p99_ms <= N ms`.
fn latency_limit_ms() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = brel_serve::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = json
        .get("workloads")
        .and_then(Json::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some("portfolio-mix"))
        })
        .and_then(|w| w.get("why"))
        .and_then(Json::as_str)
        .ok_or("BENCHMARK.json has no portfolio-mix workload")?;
    parse_limit(why).ok_or_else(|| format!("no `final_p99_ms <= N ms` in {why:?}"))
}

fn parse_limit(why: &str) -> Option<f64> {
    let rest = &why[why.find("final_p99_ms <= ")? + "final_p99_ms <= ".len()..];
    let number = rest.split(" ms").next()?;
    number.trim().parse().ok().filter(|v: &f64| *v > 0.0)
}

/// Where the traced run writes its spans: inside the build directory.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench-trace")
        .join(format!("{}-{seed}.json", workload.name()))
}

/// Puts `m` in declared order and checks it holds exactly the declared
/// metrics.
fn in_declared_order(m: Metrics, declared: &[(&str, &str)]) -> Result<Metrics, String> {
    let mut names = m.names();
    names.sort_unstable();
    let mut expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    if names != expected {
        return Err(format!("measured {names:?}, declared {expected:?}"));
    }
    let mut ordered = Metrics::default();
    for (name, _) in declared {
        let metric = m
            .list()
            .iter()
            .find(|x| x.name == *name)
            .expect("checked above");
        ordered.put(metric.name, metric.value, metric.note.clone());
    }
    Ok(ordered)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let limit_ms = match latency_limit_ms() {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    println!(
        "run-tag {}",
        meta::run_tag(workload.name(), seed, seconds, trace).render()
    );
    brel_engine::quiet_fault_panics();

    let mut out = Outcome::default();
    let window = seconds as f64;
    let (measured, declared) = if trace {
        let (mut m, tracks) = batch::traced(workload, seed, window, limit_ms, &mut out);
        let path = trace_path(workload, seed);
        match trace::write_chrome_trace(&path, &tracks) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => out.check(false, format!("cannot write {}: {e}", path.display())),
        }
        m.put(
            "trace.attributed_share",
            trace::attributed_share(&tracks),
            "Σ span self time / Σ track wall",
        );
        (m, PER_LAYER)
    } else {
        (batch::timed(workload, seed, window, &mut out), END_TO_END)
    };
    let metrics = match in_declared_order(measured, declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: internal error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in metrics.list() {
        println!(
            "metric {:<34} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok = parse_args(
            [
                "--workload",
                "hard-seq",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(ok.workload, Workload::HardSeq);
        assert!(ok.trace);
        for bad in [
            vec![
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "hard-seq",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "hard-seq",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            vec!["--workload", "hard-seq", "--seed"],
        ] {
            assert!(parse_args(bad.into_iter().map(String::from)).is_err());
        }
    }

    #[test]
    fn the_latency_limit_is_read_from_the_why() {
        assert_eq!(
            parse_limit("xx; final_p99_ms <= 250 ms at each rate"),
            Some(250.0)
        );
        assert_eq!(parse_limit("no limit here"), None);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.contains("final_p99_ms <= 250 ms"));
    }
}
