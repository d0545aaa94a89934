//! Input generators. Every workload's jobs are a pure function of the
//! `--seed` argument; the program under test only ever sees the generated
//! `JobSpec`s.

use brel_benchdata::random_relation::random_well_defined_relation;
use brel_benchdata::table2 as family;
use brel_engine::{BackendKind, JobBudget, JobSpec, RelationSpec, SearchStrategy};

use crate::stats::Rng;

/// The two workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop portfolio batch over the Table-2 prefix plus seeded
    /// random relations.
    PortfolioMix,
    /// BREL-only FIFO search on hard 7×4 relations at one worker. Its
    /// traced run also solves them in the engine's wide (work-stealing)
    /// mode.
    HardSeq,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::PortfolioMix, Workload::HardSeq];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PortfolioMix => "portfolio-mix",
            Workload::HardSeq => "hard-seq",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Number of jobs of the `table2+rand5x3` corpus that opens `portfolio-mix`.
pub const TABLE2_PREFIX_JOBS: usize = 23;
/// Winner-cost sum of that prefix: the engine's long-standing fingerprint.
pub const TABLE2_PREFIX_COST: u64 = 687;
/// Seeded random relations appended after the prefix in `portfolio-mix`.
pub const MIX_RANDOM_JOBS: usize = 400;
/// Relations per `hard-seq` corpus.
pub const HARD_JOBS: usize = 4;
/// The seed whose hard corpus is exactly `hard-rand7x4`.
pub const HARD_REFERENCE_SEED: u64 = 1000;
/// `hard-rand7x4`'s winner-cost sum.
pub const HARD_REFERENCE_COST: u64 = 385;
/// Distinct relations the serve traffic draws from.
pub const SERVE_POOL_JOBS: usize = 2048;

/// The `table2+rand5x3` corpus: every Table-2 instance, then eight seeded
/// 5×3 random relations, each a FIFO portfolio job under the default
/// budget.
pub fn table2_prefix() -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(TABLE2_PREFIX_JOBS);
    for instance in family::instances() {
        let (_space, relation) = family::generate(&instance);
        let spec = RelationSpec::from_relation(&relation).expect("family spaces are enumerable");
        jobs.push(JobSpec::portfolio(instance.name, spec).with_strategy(SearchStrategy::Fifo));
    }
    for seed in 0..8u64 {
        let (_space, relation) = random_well_defined_relation(5, 3, 0.25, seed);
        let spec = RelationSpec::from_relation(&relation).expect("random spaces are enumerable");
        jobs.push(
            JobSpec::portfolio(format!("rand{seed}"), spec).with_strategy(SearchStrategy::Fifo),
        );
    }
    jobs
}

/// The seeded random relation stream of `portfolio-mix`: 4–7 inputs ×
/// 2–4 outputs, extra-pair probability 0.25. Every fourth relation
/// repeats a random earlier one with its rows shuffled, so the engine's
/// cross-job subrelation cache has real hits to find; the others cycle
/// through the twelve shapes, so every seed has the same shape mix and
/// only the relations themselves vary.
#[derive(Debug)]
pub struct MixStream {
    rng: Rng,
    /// Every relation so far; `None` for those left out by `max_inputs`.
    made: Vec<Option<RelationSpec>>,
    fresh: usize,
    max_inputs: usize,
}

impl MixStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        MixStream::with_max_inputs(seed, usize::MAX)
    }

    /// The stream of `seed` without the relations of more than
    /// `max_inputs` inputs, which are never built. Each relation takes the
    /// same number of random draws whether it is built or not, so the
    /// relations that remain are exactly those of the full stream.
    pub fn with_max_inputs(seed: u64, max_inputs: usize) -> Self {
        MixStream {
            rng: Rng::new(seed ^ 0x6d69_7800),
            made: Vec::new(),
            fresh: 0,
            max_inputs,
        }
    }

    fn item(&mut self) -> (String, Option<RelationSpec>) {
        let k = self.made.len();
        if k % 4 == 3 {
            let source = self.rng.below(k as u64) as usize;
            let mut shuffle = Rng::new(self.rng.next_u64());
            let repeat = self.made[source].as_ref().map(|spec| {
                let mut rows = spec.rows().to_vec();
                for i in (1..rows.len()).rev() {
                    rows.swap(i, shuffle.below(i as u64 + 1) as usize);
                }
                RelationSpec::new(spec.num_inputs(), spec.num_outputs(), rows)
                    .expect("rows come from a valid spec")
            });
            (format!("mix{k}-rep{source}"), repeat)
        } else {
            let shape = self.fresh % 12;
            self.fresh += 1;
            let (inputs, outputs) = (4 + shape / 3, 2 + shape % 3);
            let seed = self.rng.next_u64();
            let spec = (inputs <= self.max_inputs).then(|| {
                let (_space, relation) = random_well_defined_relation(inputs, outputs, 0.25, seed);
                RelationSpec::from_relation(&relation).expect("random spaces are enumerable")
            });
            (format!("mix{k}"), spec)
        }
    }
}

impl Iterator for MixStream {
    type Item = (String, RelationSpec);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (name, spec) = self.item();
            self.made.push(spec.clone());
            if let Some(spec) = spec {
                return Some((name, spec));
            }
        }
    }
}

/// `portfolio-mix`: the Table-2 prefix, then [`MIX_RANDOM_JOBS`] relations
/// of [`MixStream`], all FIFO portfolio jobs (BREL + gyocro + quick)
/// under the default budget.
pub fn portfolio_mix(seed: u64) -> Vec<JobSpec> {
    let mut jobs = table2_prefix();
    for (name, spec) in MixStream::new(seed).take(MIX_RANDOM_JOBS) {
        jobs.push(JobSpec::portfolio(name, spec).with_strategy(SearchStrategy::Fifo));
    }
    jobs
}

/// `hard-seq`: [`HARD_JOBS`] BREL-only FIFO jobs on 7×4
/// relations with extra-pair probability 0.35, `max_explored` 600 and
/// `fifo_capacity` 8192. Seed `s` takes the relation seeds
/// `4s - 3000 .. 4s - 2996`, so consecutive seeds never share a relation
/// and seed 1000 is exactly `hard-rand7x4` (relation seeds 1000..1003).
pub fn hard(seed: u64) -> Vec<JobSpec> {
    let base = seed
        .wrapping_mul(HARD_JOBS as u64)
        .wrapping_sub(HARD_REFERENCE_SEED * (HARD_JOBS as u64 - 1));
    (0..HARD_JOBS as u64)
        .map(|i| {
            let (_space, relation) = random_well_defined_relation(7, 4, 0.35, base.wrapping_add(i));
            let spec =
                RelationSpec::from_relation(&relation).expect("random spaces are enumerable");
            JobSpec::single(format!("hard{i}"), spec, BackendKind::Brel)
                .with_strategy(SearchStrategy::Fifo)
                .with_budget(JobBudget {
                    max_explored: Some(600),
                    fifo_capacity: Some(8192),
                    ..JobBudget::default()
                })
        })
        .collect()
}

/// The serve pool: the first [`SERVE_POOL_JOBS`] relations of the
/// `portfolio-mix` stream with at most 6 inputs (repeats included), as
/// FIFO portfolio jobs.
pub fn serve_pool(seed: u64) -> Vec<JobSpec> {
    MixStream::with_max_inputs(seed, 6)
        .take(SERVE_POOL_JOBS)
        .map(|(name, spec)| JobSpec::portfolio(name, spec).with_strategy(SearchStrategy::Fifo))
        .collect()
}

/// The jobs a workload solves.
pub fn jobs(workload: Workload, seed: u64) -> Vec<JobSpec> {
    match workload {
        Workload::PortfolioMix => portfolio_mix(seed),
        Workload::HardSeq => hard(seed),
    }
}

/// Order-sensitive fingerprint of a job list: names and canonical relation
/// fingerprints. Equal fingerprints mean the same inputs.
pub fn fingerprint(jobs: &[JobSpec]) -> u64 {
    jobs.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, job| {
        let name = job
            .name
            .bytes()
            .fold(acc, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        (name ^ job.relation.fingerprint()).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs() {
        for workload in Workload::ALL {
            let a = jobs(workload, 7);
            assert_eq!(fingerprint(&a), fingerprint(&jobs(workload, 7)));
            assert_ne!(fingerprint(&a), fingerprint(&jobs(workload, 8)));
        }
        let pool = serve_pool(7);
        assert_eq!(fingerprint(&pool), fingerprint(&serve_pool(7)));
        assert_ne!(fingerprint(&pool), fingerprint(&serve_pool(8)));
    }

    #[test]
    fn hard_seeds_do_not_overlap() {
        let a: Vec<u64> = hard(5).iter().map(|j| j.relation.fingerprint()).collect();
        let b: Vec<u64> = hard(6).iter().map(|j| j.relation.fingerprint()).collect();
        assert!(a.iter().all(|f| !b.contains(f)));
    }

    #[test]
    fn mix_has_repeats_and_serve_pool_is_small() {
        let mix: Vec<(String, RelationSpec)> = MixStream::new(3).take(40).collect();
        let repeats = mix.iter().filter(|(name, _)| name.contains("-rep")).count();
        assert_eq!(repeats, 10);
        for (name, spec) in &mix {
            if let Some(source) = name.split("-rep").nth(1) {
                let source: usize = source.parse().unwrap();
                assert_eq!(spec.fingerprint(), mix[source].1.fingerprint());
            }
        }
        let kept: Vec<(String, u64)> = MixStream::with_max_inputs(3, 6)
            .take(60)
            .map(|(name, spec)| (name, spec.fingerprint()))
            .collect();
        let filtered: Vec<(String, u64)> = MixStream::new(3)
            .filter(|(_, spec)| spec.num_inputs() <= 6)
            .take(60)
            .map(|(name, spec)| (name, spec.fingerprint()))
            .collect();
        assert_eq!(kept, filtered);
        let pool = serve_pool(3);
        assert_eq!(pool.len(), SERVE_POOL_JOBS);
        assert!(pool.iter().all(|j| j.relation.num_inputs() <= 6));
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
