//! The strategy-driven search core of the BREL solver.
//!
//! The paper's recursive paradigm (Section 7) explores a semilattice of
//! subrelations: each explored node minimizes the MISF over-approximation,
//! prunes or accepts the candidate, and otherwise splits the subrelation in
//! two. *How* the pending subproblems are ordered is a policy, not part of
//! the semantics — this module factors that policy out:
//!
//! * a [`Subproblem`] is one pending node: a subrelation, its depth and the
//!   lower bound inherited from its parent's MISF-minimized candidate cost
//!   (constraining a relation further can never beat a candidate obtained
//!   with strictly more flexibility, the invariant the cost pruning of §7.3
//!   already relies on);
//! * a [`Frontier`] stores pending subproblems; [`FifoFrontier`] reproduces
//!   the paper's partial-BFS order (the default — batch fingerprints are
//!   unchanged), and [`BestFirstFrontier`] pops the lowest lower bound
//!   first (ties broken by insertion order) and lets the explorer drop
//!   popped nodes that can no longer beat the incumbent (dominance
//!   pruning);
//! * an [`Explorer`] owns the incumbent, statistics, trace and frontier and
//!   is *incremental*: [`Explorer::step`] explores one subproblem,
//!   [`Explorer::run_budget`] explores up to a per-call step budget and can
//!   be resumed, turning the solver into an anytime optimizer — the best
//!   compatible solution is available after every step;
//! * [`expand`] is the pure per-node transition (minimize → classify →
//!   quick-seed → split) shared by the sequential explorer and the engine's
//!   parallel wide mode, which rehydrates subproblems into per-worker
//!   managers and calls it remotely.

use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use brel_bdd::GcStats;
use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};

use crate::cost::{CostFn, CostFunction};
use crate::minimize_isf::IsfMinimizer;
use crate::quick::QuickSolver;
use crate::solver::{BrelConfig, Solution, SolveStats, TraceEvent};
use crate::symmetry::SymmetryCache;

/// Which frontier discipline drives the exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Partial breadth-first (the paper's §7.2 order and the default; keeps
    /// batch fingerprints identical to the historical solver).
    #[default]
    Fifo,
    /// Best-first: pops the pending subproblem with the lowest lower bound,
    /// with dominance pruning against the incumbent.
    BestFirst,
}

impl SearchStrategy {
    /// Short stable name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Fifo => "fifo",
            SearchStrategy::BestFirst => "best-first",
        }
    }

    /// Parses a CLI-style name (`fifo`, `best-first`).
    pub fn parse(s: &str) -> Option<SearchStrategy> {
        match s {
            "fifo" => Some(SearchStrategy::Fifo),
            "best-first" | "best_first" | "bestfirst" => Some(SearchStrategy::BestFirst),
            _ => None,
        }
    }

    /// Every strategy, in the deterministic comparison order.
    pub fn all() -> [SearchStrategy; 2] {
        [SearchStrategy::Fifo, SearchStrategy::BestFirst]
    }

    /// Instantiates the frontier implementing this strategy.
    pub fn frontier(&self) -> Box<dyn Frontier> {
        match self {
            SearchStrategy::Fifo => Box::new(FifoFrontier::default()),
            SearchStrategy::BestFirst => Box::new(BestFirstFrontier::default()),
        }
    }
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One pending node of the exploration: a subrelation plus where it sits in
/// the search tree.
#[derive(Debug, Clone)]
pub struct Subproblem {
    /// The subrelation still to be explored.
    pub relation: BooleanRelation,
    /// Distance from the root relation (number of splits on the path).
    pub depth: usize,
    /// Lower bound on the cost of any solution in this subtree: the parent's
    /// MISF-minimized candidate cost (0 for the root).
    pub lower_bound: u64,
}

/// Storage policy for pending subproblems. Implementations decide *order*
/// only; budgets, capacity and pruning accounting stay in the [`Explorer`]
/// so every strategy shares the same split/prune semantics.
pub trait Frontier: fmt::Debug {
    /// The strategy this frontier implements (used in reports).
    fn strategy(&self) -> SearchStrategy;

    /// Adds a pending subproblem.
    fn push(&mut self, subproblem: Subproblem);

    /// Removes and returns the next subproblem to explore.
    fn pop(&mut self) -> Option<Subproblem>;

    /// Number of pending subproblems.
    fn len(&self) -> usize;

    /// `true` if no subproblem is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the explorer should discard popped subproblems whose lower
    /// bound can no longer beat the incumbent (dominance pruning). Off for
    /// FIFO to preserve its historical exploration order exactly.
    fn prunes_dominated(&self) -> bool {
        false
    }
}

/// The paper's partial-BFS order: first split, first explored.
#[derive(Debug, Default)]
pub struct FifoFrontier {
    queue: VecDeque<Subproblem>,
}

impl Frontier for FifoFrontier {
    fn strategy(&self) -> SearchStrategy {
        SearchStrategy::Fifo
    }

    fn push(&mut self, subproblem: Subproblem) {
        self.queue.push_back(subproblem);
    }

    fn pop(&mut self) -> Option<Subproblem> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Heap entry ordered by `(lower_bound, seq)` with the comparison reversed,
/// so `BinaryHeap`'s max-pop yields the lowest bound, FIFO among ties.
#[derive(Debug)]
struct Ranked {
    bound: u64,
    seq: u64,
    subproblem: Subproblem,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .bound
            .cmp(&self.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Best-first order: lowest lower bound first, insertion order among equal
/// bounds (so it degrades to FIFO when every bound is equal). Enables
/// dominance pruning in the explorer.
#[derive(Debug, Default)]
pub struct BestFirstFrontier {
    heap: BinaryHeap<Ranked>,
    seq: u64,
}

impl Frontier for BestFirstFrontier {
    fn strategy(&self) -> SearchStrategy {
        SearchStrategy::BestFirst
    }

    fn push(&mut self, subproblem: Subproblem) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Ranked {
            bound: subproblem.lower_bound,
            seq,
            subproblem,
        });
    }

    fn pop(&mut self) -> Option<Subproblem> {
        self.heap.pop().map(|r| r.subproblem)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn prunes_dominated(&self) -> bool {
        true
    }
}

/// The outcome of expanding one subproblem: the per-node transition of
/// Fig. 6, with no frontier or incumbent state attached. Pure with respect
/// to `(relation, prune_bound)`, which is what lets the engine's wide mode
/// compute expansions on worker threads and merge them deterministically.
#[derive(Debug)]
pub struct Expansion {
    /// The MISF-minimized candidate function.
    pub candidate: MultiOutputFunction,
    /// Its cost under the configured cost function.
    pub candidate_cost: u64,
    /// Whether the candidate is compatible with the subrelation.
    pub compatible: bool,
    /// The quick solver's compatible solution and its cost (the partial-BFS
    /// guarantee of §7.2). Only computed when the node splits.
    pub quick: Option<(MultiOutputFunction, u64)>,
    /// The split halves; `None` iff the candidate was compatible or the
    /// candidate cost reached `prune_bound` (the branch would be pruned).
    pub split: Option<SplitExpansion>,
}

/// The split half of an [`Expansion`].
#[derive(Debug)]
pub struct SplitExpansion {
    /// The conflicting input vertex chosen (§7.4).
    pub vertex: Vec<bool>,
    /// The output chosen for the split.
    pub output: usize,
    /// `R_{x ȳᵢ}`: the half forbidding `yᵢ = 1` at the vertex.
    pub negative: BooleanRelation,
    /// `R_{x yᵢ}`: the half forbidding `yᵢ = 0` at the vertex.
    pub positive: BooleanRelation,
}

/// Expands one subrelation: minimizes its MISF, classifies the candidate
/// and — when the candidate is incompatible and `candidate_cost <
/// prune_bound` — quick-solves the subrelation and splits it at a
/// conflicting vertex.
///
/// # Errors
///
/// Returns [`RelationError::NoSplitPoint`] if an incompatible candidate has
/// no vertex/output pair satisfying Theorem 5.2. For a well-defined
/// relation this is provably unreachable: a conflicting vertex `x` has
/// `|R(x)| ≥ 2` (a singleton image fixes every output projection at `x`, so
/// the candidate — which lies inside the projection intervals — could not
/// conflict there), and two distinct related output vertices differ in some
/// output, giving that output `{0, 1}` flexibility at `x`. The error is
/// kept structured rather than silently ignored so a corrupted relation
/// fails loudly instead of degrading the search.
pub fn expand(
    minimizer: &IsfMinimizer,
    cost: &CostFn,
    quick: &QuickSolver,
    relation: &BooleanRelation,
    prune_bound: u64,
) -> Result<Expansion, RelationError> {
    // Step (a)+(b): over-approximate by the MISF and minimize it.
    let misf = relation.to_misf();
    let candidate_outputs: Vec<_> = misf
        .outputs()
        .iter()
        .map(|isf| minimizer.minimize(isf))
        .collect();
    let candidate = MultiOutputFunction::new(relation.space(), candidate_outputs)?;
    let candidate_cost = cost.cost(&candidate);
    let compatible = relation.is_compatible(&candidate);
    if compatible || candidate_cost >= prune_bound {
        return Ok(Expansion {
            candidate,
            candidate_cost,
            compatible,
            quick: None,
            split: None,
        });
    }

    // Incompatible: make sure this subrelation still contributes a
    // compatible incumbent (partial-BFS guarantee of §7.2)…
    let quick_solution = quick
        .solve_from_candidate(relation, minimizer, &candidate)
        .ok()
        .map(|q| {
            let q_cost = cost.cost(&q);
            (q, q_cost)
        });

    // …then split on a conflicting vertex.
    let conflicts = relation.conflicting_inputs(&candidate);
    let Some((vertex, output)) = relation.select_split_point_in(&conflicts, &misf) else {
        return Err(RelationError::NoSplitPoint { candidate_cost });
    };
    let (negative, positive) = relation.split(&vertex, output)?;
    Ok(Expansion {
        candidate,
        candidate_cost,
        compatible,
        quick: quick_solution,
        split: Some(SplitExpansion {
            vertex,
            output,
            negative,
            positive,
        }),
    })
}

/// A cooperative cancellation flag shared between a driver thread and a
/// running exploration. Cloning the token shares the flag; any clone can
/// request cancellation and the [`Explorer`] observes it at the next
/// [`Explorer::run_budget`] step boundary — between subproblems, never
/// inside one, so the incumbent in hand stays a valid, verified anytime
/// solution when the loop returns [`ExploreStatus::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent and never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on any clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A cross-thread best-known incumbent cost: a monotonically decreasing
/// atomic bound shared by several explorations of the *same* relation
/// (the engine's wide mode gives one to every worker). Cloning shares the
/// cell. Attached to an [`Explorer`] via [`Explorer::set_shared_bound`],
/// the bound tightens every prune check — dominance pruning fires the
/// moment *any* participant improves the incumbent, not just this one —
/// and every local improvement is published back.
///
/// Sharing a bound is sound because pruning is conservative: the bound
/// only ever decreases, so a prune decision taken against a stale (higher)
/// value is a decision the tighter bound would also have taken. An
/// explorer with no shared bound behaves exactly as before.
#[derive(Debug, Clone, Default)]
pub struct SharedBound {
    cell: Arc<AtomicU64>,
}

impl SharedBound {
    /// A fresh bound at `u64::MAX` (nothing known yet).
    pub fn new() -> Self {
        SharedBound {
            cell: Arc::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// The current best-known cost (`u64::MAX` until first improved).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }

    /// Lowers the bound to `cost` if it improves on the current value
    /// (compare-and-swap min). Returns whether this call improved it.
    pub fn improve(&self, cost: u64) -> bool {
        let mut current = self.cell.load(Ordering::Acquire);
        while cost < current {
            match self.cell.compare_exchange_weak(
                current,
                cost,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }
}

/// What one [`Explorer::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// One subproblem was expanded (dominance-pruned pops, if any, were
    /// consumed silently on the way).
    Explored {
        /// Cost of the MISF-minimized candidate.
        candidate_cost: u64,
        /// Whether the candidate was compatible.
        compatible: bool,
        /// Whether the incumbent improved during this step.
        improved: bool,
    },
    /// The frontier is empty: the search ran to completion.
    Exhausted,
    /// The configured `max_explored` budget is spent while subproblems are
    /// still pending; the explorer can be resumed after raising the budget.
    BudgetExhausted,
    /// The configured `step_deadline` (a fault-policy truncation, distinct
    /// from the quality budget `max_explored`) expired; the incumbent is
    /// kept, but the result counts as degraded.
    DeadlineExpired,
}

/// Why [`Explorer::run_budget`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStatus {
    /// The frontier is empty; the incumbent is optimal within the explored
    /// space (globally optimal in exact mode).
    Complete,
    /// The configured `max_explored` budget is spent.
    BudgetExhausted,
    /// The per-call step budget is spent; call `run_budget` again to resume.
    Paused,
    /// The configured `step_deadline` expired (fault-policy truncation).
    DeadlineExpired,
    /// A [`CancelToken`] attached via [`Explorer::set_cancel_token`] was
    /// cancelled; the incumbent is kept and the frontier left intact, so
    /// the caller may still resume if it chooses to.
    Cancelled,
}

/// The incremental branch-and-bound exploration: owns the frontier, the
/// incumbent, statistics and trace, and advances one subproblem at a time.
/// A compatible incumbent (seeded by the quick solver) is available after
/// construction and only ever improves — pausing at any point yields a
/// valid anytime solution.
#[derive(Debug)]
pub struct Explorer {
    config: BrelConfig,
    quick: QuickSolver,
    frontier: Box<dyn Frontier>,
    symmetry: SymmetryCache,
    root: BooleanRelation,
    gc_before: GcStats,
    best: MultiOutputFunction,
    best_cost: u64,
    stats: SolveStats,
    trace: Vec<TraceEvent>,
    cancel: Option<CancelToken>,
    shared_bound: Option<SharedBound>,
}

impl Explorer {
    /// Creates an explorer over `relation` with the frontier named by
    /// `config.strategy`, seeded with the quick solver's compatible
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation has no
    /// compatible function.
    pub fn new(config: BrelConfig, relation: &BooleanRelation) -> Result<Self, RelationError> {
        let frontier = config.strategy.frontier();
        Explorer::with_frontier(config, relation, frontier)
    }

    /// Creates an explorer with an explicit (possibly custom) frontier.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation has no
    /// compatible function.
    pub fn with_frontier(
        config: BrelConfig,
        relation: &BooleanRelation,
        mut frontier: Box<dyn Frontier>,
    ) -> Result<Self, RelationError> {
        if !relation.is_well_defined() {
            return Err(RelationError::NotWellDefined);
        }
        relation.space().mgr().reset_peak_live_nodes();
        let gc_before = relation.space().mgr().gc_stats();
        let quick = QuickSolver::new().with_minimizer(config.minimizer);
        let mut stats = SolveStats::default();
        let mut trace = Vec::new();

        // Seed: the quick solver guarantees a compatible incumbent.
        let best = quick.solve(relation)?;
        let best_cost = config.cost.cost(&best);
        stats.improvements += 1;
        if config.trace {
            trace.push(TraceEvent::Improved { cost: best_cost });
        }

        frontier.push(Subproblem {
            relation: relation.clone(),
            depth: 0,
            lower_bound: 0,
        });
        stats.frontier_peak = 1;
        let mut symmetry = SymmetryCache::new();
        if config.use_symmetry {
            symmetry.check_and_insert(relation);
        }
        Ok(Explorer {
            config,
            quick,
            frontier,
            symmetry,
            root: relation.clone(),
            gc_before,
            best,
            best_cost,
            stats,
            trace,
            cancel: None,
            shared_bound: None,
        })
    }

    /// Attaches a cooperative [`CancelToken`]: [`Explorer::run_budget`]
    /// checks it between subproblems and returns
    /// [`ExploreStatus::Cancelled`] once it fires. A single [`step`] call
    /// never observes the token, so the per-node semantics (and batch
    /// fingerprints) are unchanged when no driver ever cancels.
    ///
    /// [`step`]: Explorer::step
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Attaches a [`SharedBound`]: prune checks tighten to
    /// `min(local best, shared)` and every local improvement is published.
    /// The local incumbent *function* still only tracks solutions this
    /// explorer verified itself — a shared cost can prune, but never
    /// replace, the incumbent in hand. Publishes the seed cost immediately
    /// so peers can prune against it.
    pub fn set_shared_bound(&mut self, bound: SharedBound) {
        bound.improve(self.best_cost);
        self.shared_bound = Some(bound);
    }

    /// The bound prune checks compare against: the local incumbent cost,
    /// tightened by the shared cross-thread bound when one is attached.
    fn prune_bound(&self) -> u64 {
        match &self.shared_bound {
            Some(shared) => self.best_cost.min(shared.get()),
            None => self.best_cost,
        }
    }

    /// Explores the next subproblem (consuming any dominance-pruned pops on
    /// the way), or reports exhaustion / budget depletion.
    ///
    /// # Errors
    ///
    /// Propagates [`RelationError::NoSplitPoint`] from [`expand`] (provably
    /// unreachable for well-defined relations).
    pub fn step(&mut self) -> Result<StepOutcome, RelationError> {
        loop {
            if self.frontier.is_empty() {
                self.stats.complete = true;
                return Ok(StepOutcome::Exhausted);
            }
            if let Some(max) = self.config.max_explored {
                if self.stats.explored >= max {
                    // Budget exhausted: stop exploring, keep the incumbent.
                    self.stats.complete = false;
                    return Ok(StepOutcome::BudgetExhausted);
                }
            }
            if let Some(deadline) = self.config.step_deadline {
                if self.stats.explored >= deadline {
                    // Fault-policy truncation: like a blown budget the
                    // incumbent is kept, but reported as a deadline so the
                    // engine can classify the job as degraded.
                    self.stats.complete = false;
                    return Ok(StepOutcome::DeadlineExpired);
                }
            }
            let subproblem = self.frontier.pop().expect("frontier is non-empty");
            brel_obs::event_with(
                brel_obs::Category::Search,
                "frontier_pop",
                "depth",
                subproblem.depth as u64,
            );
            if self.frontier.prunes_dominated() && subproblem.lower_bound >= self.prune_bound() {
                // Dominance: the bound recorded at split time can no longer
                // beat the (since improved) incumbent. Counted and traced
                // separately from candidate-cost prunes — this node was
                // never minimized, so there is no Explored event for it.
                self.stats.pruned_dominated += 1;
                brel_obs::event(brel_obs::Category::Search, "pruned_dominated");
                if self.config.trace {
                    self.trace.push(TraceEvent::PrunedDominated {
                        lower_bound: subproblem.lower_bound,
                        best_cost: self.best_cost,
                    });
                }
                continue;
            }
            return self.explore(subproblem);
        }
    }

    fn explore(&mut self, subproblem: Subproblem) -> Result<StepOutcome, RelationError> {
        let index = self.stats.explored;
        // The per-node span: one `expand` per explored subproblem, tagged
        // with its depth and the bound it carried out of the frontier.
        let _span = brel_obs::span!(
            brel_obs::Category::Search,
            "expand",
            "depth" => subproblem.depth,
            "bound" => subproblem.lower_bound,
            "index" => index,
        );
        self.stats.explored += 1;
        let expansion = expand(
            &self.config.minimizer,
            &self.config.cost,
            &self.quick,
            &subproblem.relation,
            self.prune_bound(),
        )?;
        let candidate_cost = expansion.candidate_cost;
        let compatible = expansion.compatible;
        if self.config.trace {
            self.trace.push(TraceEvent::Explored {
                index,
                candidate_cost,
                compatible,
            });
        }

        // Prune by cost: constraining the relation further cannot beat a
        // candidate obtained with strictly more flexibility.
        if candidate_cost >= self.prune_bound() {
            self.stats.pruned_by_cost += 1;
            brel_obs::event(brel_obs::Category::Search, "pruned_by_cost");
            if self.config.trace {
                self.trace.push(TraceEvent::PrunedByCost {
                    candidate_cost,
                    best_cost: self.best_cost,
                });
            }
            return Ok(StepOutcome::Explored {
                candidate_cost,
                compatible,
                improved: false,
            });
        }

        if compatible {
            self.improve(expansion.candidate, candidate_cost);
            return Ok(StepOutcome::Explored {
                candidate_cost,
                compatible,
                improved: true,
            });
        }

        let mut improved = false;
        if let Some((q, q_cost)) = expansion.quick {
            if q_cost < self.best_cost {
                self.improve(q, q_cost);
                improved = true;
            }
        }

        let split = expansion
            .split
            .expect("expand splits every unpruned incompatible candidate");
        if self.config.trace {
            self.trace.push(TraceEvent::Split {
                vertex: split.vertex.clone(),
                output: split.output,
            });
        }
        self.stats.splits += 1;
        for child in [split.negative, split.positive] {
            debug_assert!(
                child.is_well_defined(),
                "Theorem 5.2 guarantees well-definedness"
            );
            if self.config.use_symmetry
                && subproblem.depth < self.config.symmetry_depth
                && self.symmetry.check_and_insert(&child)
            {
                self.stats.skipped_by_symmetry += 1;
                brel_obs::event(brel_obs::Category::Search, "skipped_by_symmetry");
                if self.config.trace {
                    self.trace.push(TraceEvent::SkippedBySymmetry);
                }
                continue;
            }
            if let Some(cap) = self.config.fifo_capacity {
                if self.frontier.len() >= cap {
                    self.stats.dropped_by_fifo += 1;
                    brel_obs::event(brel_obs::Category::Search, "fifo_drop");
                    continue;
                }
            }
            brel_obs::event_with(
                brel_obs::Category::Search,
                "frontier_push",
                "depth",
                (subproblem.depth + 1) as u64,
            );
            self.frontier.push(Subproblem {
                relation: child,
                depth: subproblem.depth + 1,
                lower_bound: candidate_cost,
            });
            self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len());
        }
        Ok(StepOutcome::Explored {
            candidate_cost,
            compatible,
            improved,
        })
    }

    fn improve(&mut self, function: MultiOutputFunction, cost: u64) {
        self.best = function;
        self.best_cost = cost;
        self.stats.improvements += 1;
        if let Some(shared) = &self.shared_bound {
            shared.improve(cost);
        }
        brel_obs::event_with(brel_obs::Category::Search, "improved", "cost", cost);
        if self.config.trace {
            self.trace.push(TraceEvent::Improved { cost });
        }
    }

    /// Runs until the frontier is exhausted or the configured `max_explored`
    /// budget is spent.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Explorer::step`].
    pub fn run(&mut self) -> Result<ExploreStatus, RelationError> {
        self.run_budget(None)
    }

    /// Runs until exhaustion, the configured `max_explored` budget, or (when
    /// `max_steps` is set) after exploring that many further subproblems —
    /// the anytime knob: pause, inspect [`Explorer::best_cost`], resume.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Explorer::step`].
    pub fn run_budget(&mut self, max_steps: Option<usize>) -> Result<ExploreStatus, RelationError> {
        let mut steps = 0usize;
        loop {
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Ok(ExploreStatus::Cancelled);
            }
            if let Some(max) = max_steps {
                if steps >= max {
                    return Ok(ExploreStatus::Paused);
                }
            }
            match self.step()? {
                StepOutcome::Explored { .. } => steps += 1,
                StepOutcome::Exhausted => return Ok(ExploreStatus::Complete),
                StepOutcome::BudgetExhausted => return Ok(ExploreStatus::BudgetExhausted),
                StepOutcome::DeadlineExpired => return Ok(ExploreStatus::DeadlineExpired),
            }
        }
    }

    /// Like [`Explorer::step`], but additionally catches a kernel resource
    /// abort (the [`brel_bdd::ResourceGovernor`]'s cooperative unwind) at
    /// the step boundary and surfaces it as
    /// [`RelationError::ResourceExhausted`]. The explorer must not be
    /// stepped again after that error — the aborted step's subproblem was
    /// consumed — but the shared manager itself is structurally intact.
    ///
    /// # Errors
    ///
    /// Everything [`Explorer::step`] returns, plus
    /// [`RelationError::ResourceExhausted`] on a governor abort.
    pub fn step_guarded(&mut self) -> Result<StepOutcome, RelationError> {
        brel_bdd::catch_resource_abort(|| self.step())
            .unwrap_or_else(|abort| Err(RelationError::ResourceExhausted(abort)))
    }

    /// The best compatible solution found so far.
    pub fn best(&self) -> &MultiOutputFunction {
        &self.best
    }

    /// Cost of the best compatible solution found so far.
    pub fn best_cost(&self) -> u64 {
        self.best_cost
    }

    /// Number of subproblems explored so far.
    pub fn explored(&self) -> usize {
        self.stats.explored
    }

    /// Number of pending subproblems.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// The strategy of the underlying frontier.
    pub fn strategy(&self) -> SearchStrategy {
        self.frontier.strategy()
    }

    /// The configuration driving this exploration.
    pub fn config(&self) -> &BrelConfig {
        &self.config
    }

    /// Mutable access to the configuration — e.g. raise `max_explored` to
    /// resume a budget-exhausted exploration. Changing `strategy` here has
    /// no effect: the frontier was instantiated at construction.
    pub fn config_mut(&mut self) -> &mut BrelConfig {
        &mut self.config
    }

    /// The exploration statistics so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The trace recorded so far (empty unless `config.trace` is set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Finalizes the exploration into a [`Solution`], filling the memory
    /// accounting from the manager's lifecycle counters.
    pub fn into_solution(mut self) -> Solution {
        let now = self.root.space().mgr().gc_stats();
        self.stats.peak_live_nodes = now.peak_live_nodes;
        self.stats.gc_collections = now.collections.saturating_sub(self.gc_before.collections);
        Solution {
            function: self.best,
            cost: self.best_cost,
            stats: self.stats,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::BrelSolver;
    use brel_relation::RelationSpace;

    fn fig10() -> (RelationSpace, BooleanRelation) {
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(&space, "00:{00,11}\n01:{10}\n10:{01,10}\n11:{11}")
            .unwrap();
        (space, r)
    }

    #[test]
    fn strategy_names_round_trip_through_parse() {
        for strategy in SearchStrategy::all() {
            assert_eq!(SearchStrategy::parse(strategy.name()), Some(strategy));
            assert_eq!(format!("{strategy}"), strategy.name());
        }
        assert_eq!(
            SearchStrategy::parse("best_first"),
            Some(SearchStrategy::BestFirst)
        );
        assert_eq!(SearchStrategy::parse("nope"), None);
        assert_eq!(SearchStrategy::default(), SearchStrategy::Fifo);
    }

    #[test]
    fn frontiers_implement_their_orders() {
        let (_space, r) = fig10();
        let sp = |bound: u64| Subproblem {
            relation: r.clone(),
            depth: 0,
            lower_bound: bound,
        };
        let mut fifo = FifoFrontier::default();
        let mut best = BestFirstFrontier::default();
        for bound in [5u64, 3, 9, 3] {
            fifo.push(sp(bound));
            best.push(sp(bound));
        }
        let drain = |f: &mut dyn Frontier| {
            let mut bounds = Vec::new();
            while let Some(s) = f.pop() {
                bounds.push(s.lower_bound);
            }
            bounds
        };
        assert_eq!(drain(&mut fifo), vec![5, 3, 9, 3]);
        // Lowest bound first, insertion order among the two 3s.
        assert_eq!(drain(&mut best), vec![3, 3, 5, 9]);
        assert!(fifo.is_empty() && best.is_empty());
        assert!(!fifo.prunes_dominated());
        assert!(best.prunes_dominated());
    }

    #[test]
    fn every_strategy_finds_the_fig10_optimum_in_exact_mode() {
        let (_space, r) = fig10();
        for strategy in SearchStrategy::all() {
            let config = BrelConfig::exact().with_strategy(strategy);
            let solution = BrelSolver::new(config).solve(&r).unwrap();
            assert!(r.is_compatible(&solution.function));
            assert_eq!(solution.cost, 2, "{strategy} missed the optimum");
            assert!(solution.stats.complete);
            assert!(solution.stats.frontier_peak >= 1);
        }
    }

    #[test]
    fn best_first_explores_no_more_than_fifo_on_fig10() {
        let (_space, r) = fig10();
        let fifo = BrelSolver::new(BrelConfig::exact()).solve(&r).unwrap();
        let best = BrelSolver::new(BrelConfig::exact().with_strategy(SearchStrategy::BestFirst))
            .solve(&r)
            .unwrap();
        assert_eq!(fifo.cost, best.cost);
        assert!(
            best.stats.explored <= fifo.stats.explored,
            "best-first explored {} > fifo {}",
            best.stats.explored,
            fifo.stats.explored
        );
    }

    #[test]
    fn explorer_is_anytime_pause_and_resume() {
        let (_space, r) = fig10();
        let mut explorer = Explorer::new(
            BrelConfig::exact().with_strategy(SearchStrategy::BestFirst),
            &r,
        )
        .unwrap();
        // The quick seed is available before any step.
        let seeded = explorer.best_cost();
        assert!(r.is_compatible(explorer.best()));
        // One step at a time, the incumbent never regresses.
        let mut last = seeded;
        let mut paused = 0;
        loop {
            match explorer.run_budget(Some(1)).unwrap() {
                ExploreStatus::Paused => {
                    paused += 1;
                    assert!(explorer.best_cost() <= last);
                    last = explorer.best_cost();
                }
                ExploreStatus::Complete => break,
                ExploreStatus::BudgetExhausted
                | ExploreStatus::DeadlineExpired
                | ExploreStatus::Cancelled => {
                    unreachable!("exact mode has no budget, deadline or token")
                }
            }
        }
        assert!(paused >= 1, "fig10 needs more than one exploration");
        assert_eq!(explorer.strategy(), SearchStrategy::BestFirst);
        assert_eq!(explorer.frontier_len(), 0);
        let solution = explorer.into_solution();
        assert_eq!(solution.cost, 2);
        assert!(solution.stats.complete);
    }

    #[test]
    fn budget_exhaustion_is_resumable_by_raising_the_budget() {
        let (_space, r) = fig10();
        let mut explorer = Explorer::new(
            BrelConfig::default()
                .with_max_explored(Some(1))
                .with_fifo_capacity(None),
            &r,
        )
        .unwrap();
        assert_eq!(explorer.run().unwrap(), ExploreStatus::BudgetExhausted);
        assert_eq!(explorer.explored(), 1);
        assert!(!explorer.stats().complete);
        assert!(
            explorer.frontier_len() > 0,
            "pending work survives the pause"
        );
        // The frontier is intact: a fresh solver with a bigger budget would
        // re-explore, but this explorer resumes where it stopped.
        explorer.config_mut().max_explored = None;
        assert_eq!(explorer.run().unwrap(), ExploreStatus::Complete);
        let solution = explorer.into_solution();
        assert_eq!(solution.cost, 2);
        assert!(solution.stats.complete);
    }

    #[test]
    fn expand_is_pure_per_node() {
        let (_space, r) = fig10();
        let minimizer = IsfMinimizer::default();
        let cost = CostFn::SumBddSize;
        let quick = QuickSolver::new();
        let a = expand(&minimizer, &cost, &quick, &r, u64::MAX).unwrap();
        let b = expand(&minimizer, &cost, &quick, &r, u64::MAX).unwrap();
        assert_eq!(a.candidate_cost, b.candidate_cost);
        assert_eq!(a.compatible, b.compatible);
        assert!(!a.compatible, "fig10's first candidate conflicts");
        let (sa, sb) = (a.split.unwrap(), b.split.unwrap());
        assert_eq!(sa.vertex, sb.vertex);
        assert_eq!(sa.output, sb.output);
        assert_eq!(sa.negative, sb.negative);
        assert_eq!(sa.positive, sb.positive);
        // A prune bound at or below the candidate cost suppresses the split.
        let pruned = expand(&minimizer, &cost, &quick, &r, a.candidate_cost).unwrap();
        assert!(pruned.split.is_none() && pruned.quick.is_none());
    }

    #[test]
    fn cancel_token_stops_run_budget_at_the_step_boundary() {
        let (_space, r) = fig10();
        let mut explorer = Explorer::new(BrelConfig::exact(), &r).unwrap();
        let token = CancelToken::new();
        explorer.set_cancel_token(token.clone());
        assert!(!token.is_cancelled());
        // An uncancelled token never perturbs the search.
        assert_eq!(explorer.run_budget(Some(1)).unwrap(), ExploreStatus::Paused);
        assert_eq!(explorer.explored(), 1);
        // Cancel: the next run returns immediately, incumbent and frontier
        // intact.
        token.cancel();
        assert!(token.is_cancelled());
        let before = explorer.explored();
        assert_eq!(explorer.run().unwrap(), ExploreStatus::Cancelled);
        assert_eq!(explorer.explored(), before, "no step after cancellation");
        assert!(r.is_compatible(explorer.best()));
        // The incumbent survives into the final solution.
        let cancelled_cost = explorer.best_cost();
        let solution = explorer.into_solution();
        assert_eq!(solution.cost, cancelled_cost);
        assert!(!solution.stats.complete);
    }

    #[test]
    fn shared_bound_is_a_monotone_atomic_min() {
        let bound = SharedBound::new();
        assert_eq!(bound.get(), u64::MAX);
        assert!(bound.improve(10));
        assert!(!bound.improve(10), "equal cost is not an improvement");
        assert!(!bound.improve(12), "the bound never regresses");
        assert_eq!(bound.get(), 10);
        // Clones share the cell in both directions.
        let peer = bound.clone();
        assert!(peer.improve(7));
        assert_eq!(bound.get(), 7);
    }

    #[test]
    fn shared_bound_tightens_explorer_pruning_and_publishes_improvements() {
        let (_space, r) = fig10();
        // Reference: an unshared exact best-first run.
        let alone = BrelSolver::new(BrelConfig::exact().with_strategy(SearchStrategy::BestFirst))
            .solve(&r)
            .unwrap();
        assert_eq!(alone.cost, 2);

        // A peer holding a cost-1 incumbent prunes this explorer's whole
        // search down to one bound check: no candidate can beat the bound,
        // so the root is cost-pruned and nothing ever splits.
        let bound = SharedBound::new();
        bound.improve(1);
        let mut explorer = Explorer::new(
            BrelConfig::exact().with_strategy(SearchStrategy::BestFirst),
            &r,
        )
        .unwrap();
        explorer.set_shared_bound(bound.clone());
        assert_eq!(explorer.run().unwrap(), ExploreStatus::Complete);
        let bounded = explorer.into_solution();
        assert!(
            bounded.stats.explored < alone.stats.explored,
            "a shared incumbent must prune ({} >= {})",
            bounded.stats.explored,
            alone.stats.explored
        );
        assert_eq!(bounded.stats.splits, 0, "every candidate is bound-pruned");

        // The reverse direction: local improvements are published, so the
        // bound ends at the optimum after an unassisted run.
        let fresh = SharedBound::new();
        let mut explorer = Explorer::new(
            BrelConfig::exact().with_strategy(SearchStrategy::BestFirst),
            &r,
        )
        .unwrap();
        explorer.set_shared_bound(fresh.clone());
        let seed_cost = explorer.best_cost();
        assert_eq!(fresh.get(), seed_cost, "attaching publishes the seed");
        assert_eq!(explorer.run().unwrap(), ExploreStatus::Complete);
        let published = explorer.into_solution();
        assert_eq!(published.cost, 2);
        assert_eq!(fresh.get(), 2);
    }

    #[test]
    fn an_unattached_shared_bound_changes_nothing() {
        let (_space, r) = fig10();
        let config = BrelConfig::exact().with_strategy(SearchStrategy::BestFirst);
        let plain = BrelSolver::new(config.clone()).solve(&r).unwrap();
        let mut explorer = Explorer::new(config, &r).unwrap();
        explorer.set_shared_bound(SharedBound::new());
        explorer.run().unwrap();
        let shared = explorer.into_solution();
        // A bound nobody else feeds is exactly the local incumbent: the
        // exploration is step-for-step identical.
        assert_eq!(shared.cost, plain.cost);
        assert_eq!(shared.stats.explored, plain.stats.explored);
        assert_eq!(shared.stats.splits, plain.stats.splits);
        assert_eq!(shared.stats.pruned_dominated, plain.stats.pruned_dominated);
    }
}
