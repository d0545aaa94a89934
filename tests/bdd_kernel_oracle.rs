//! Oracle tests for the rebuilt BDD kernel: every cached/optimized
//! operation is checked node-for-node against a naive reference on randomly
//! generated functions, and a cache-eviction stress test proves correctness
//! survives a deliberately tiny operation cache.
//!
//! The oracle is a plain truth table maintained *outside* the BDD package:
//! random expressions are built op by op, with each Boolean connective
//! applied both to the BDD and to the table, so a kernel bug cannot hide in
//! a shared code path. Canonicity turns semantic equality into node
//! identity: two constructions of the same function in one manager must
//! return the same `NodeId`.

//! The lifecycle oracles at the bottom of this file additionally pin the
//! node-lifecycle machinery: the solver must produce node-for-node
//! identical solutions under an aggressively collecting kernel, sifting
//! must preserve semantics and canonicity, and a sweep must evict every
//! cached result so no stale hit can resurrect a reclaimed `NodeId`.

use proptest::prelude::*;

use brel_suite::bdd::{
    catch_resource_abort, Bdd, BddConfig, BddError, BddManager, BddSession, NodeId,
    ResourceGovernor, Var,
};
use brel_suite::benchdata::random_relation::random_well_defined_relation_with;
use brel_suite::brel::{BrelConfig, BrelSolver, IsfMinimizer, QuickSolver};
use brel_suite::relation::{BooleanRelation, MultiOutputFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A function built two ways: as a BDD node and as a truth table indexed by
/// assignments (variable `i` is bit `i` of the index).
#[derive(Clone)]
struct Checked {
    node: NodeId,
    table: Vec<bool>,
}

/// Builds `ops` random connectives over `num_vars` variables, keeping the
/// BDD and the truth table in lockstep.
fn random_checked(m: &mut BddManager, num_vars: usize, ops: usize, seed: u64) -> Checked {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 1usize << num_vars;
    let mut pool: Vec<Checked> = (0..num_vars)
        .map(|i| Checked {
            node: m.literal(Var(i as u32), true),
            table: (0..rows).map(|idx| idx & (1 << i) != 0).collect(),
        })
        .collect();
    for _ in 0..ops {
        let a = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let b = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let (node, table): (NodeId, Vec<bool>) = match rng.gen_range(0..4u32) {
            0 => (
                m.and(a.node, b.node),
                a.table
                    .iter()
                    .zip(&b.table)
                    .map(|(&x, &y)| x && y)
                    .collect(),
            ),
            1 => (
                m.or(a.node, b.node),
                a.table
                    .iter()
                    .zip(&b.table)
                    .map(|(&x, &y)| x || y)
                    .collect(),
            ),
            2 => (
                m.xor(a.node, b.node),
                a.table.iter().zip(&b.table).map(|(&x, &y)| x ^ y).collect(),
            ),
            _ => (m.not(a.node), a.table.iter().map(|&x| !x).collect()),
        };
        pool.push(Checked { node, table });
    }
    pool.pop().expect("pool is never empty")
}

/// The naive reference construction: a bottom-up Shannon expansion of a
/// truth table through `mk` only (no `ite`, no operation cache).
fn bdd_from_truth_table(m: &mut BddManager, var: u32, table: &[bool]) -> NodeId {
    if table.len() == 1 {
        return if table[0] { NodeId::ONE } else { NodeId::ZERO };
    }
    // Variable `var` is the LSB of the index: even rows are var=0.
    let lo_rows: Vec<bool> = table.iter().copied().step_by(2).collect();
    let hi_rows: Vec<bool> = table.iter().copied().skip(1).step_by(2).collect();
    let lo = bdd_from_truth_table(m, var + 1, &lo_rows);
    let hi = bdd_from_truth_table(m, var + 1, &hi_rows);
    m.mk(Var(var), lo, hi)
}

fn assignment(num_vars: usize, idx: usize) -> Vec<bool> {
    (0..num_vars).map(|i| idx & (1 << i) != 0).collect()
}

fn params() -> impl Strategy<Value = (usize, usize, u64)> {
    (3usize..=6, 4usize..=24, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ite`-built functions equal the naive truth-table construction
    /// node-for-node (canonicity makes this an identity check).
    #[test]
    fn ite_agrees_with_truth_table_reference((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let reference = bdd_from_truth_table(&mut m, 0, &f.table);
        prop_assert_eq!(f.node, reference);
        for idx in 0..f.table.len() {
            prop_assert_eq!(m.eval(f.node, &assignment(nv, idx)), f.table[idx]);
        }
    }

    /// `exists_many` equals iterated single-variable `exists` node-for-node
    /// and matches the semantic quantification of the truth table.
    #[test]
    fn exists_many_agrees_with_iterated_and_semantics((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let vars: Vec<Var> = (0..nv as u32)
            .filter(|_| rng.gen_bool(0.5))
            .map(Var)
            .collect();
        let via_set = m.exists_many(f.node, &vars);
        let mut via_iter = f.node;
        for &v in &vars {
            via_iter = m.exists(via_iter, v);
        }
        prop_assert_eq!(via_set, via_iter);
        // Semantic oracle on the table: OR over the quantified positions.
        let mask: usize = vars.iter().map(|v| 1usize << v.index()).sum();
        for idx in 0..f.table.len() {
            let mut any = false;
            // Enumerate every override of the quantified bits via submask walk.
            let mut sub = mask;
            loop {
                any |= f.table[(idx & !mask) | sub];
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & mask;
            }
            prop_assert_eq!(m.eval(via_set, &assignment(nv, idx)), any);
        }
    }

    /// `forall_many` (direct dual recursion) equals the double-negation
    /// construction it replaced, node-for-node.
    #[test]
    fn forall_many_agrees_with_double_negation((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11);
        let vars: Vec<Var> = (0..nv as u32)
            .filter(|_| rng.gen_bool(0.5))
            .map(Var)
            .collect();
        let direct = m.forall_many(f.node, &vars);
        let nf = m.not(f.node);
        let e = m.exists_many(nf, &vars);
        let dual = m.not(e);
        prop_assert_eq!(direct, dual);
    }

    /// The single-pass `restrict_assignment` equals the chain of
    /// single-variable cofactors it replaced, node-for-node, and matches
    /// the semantic restriction of the truth table.
    #[test]
    fn restrict_agrees_with_chained_cofactors((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut pairs: Vec<(Var, bool)> = Vec::new();
        for i in 0..nv as u32 {
            if rng.gen_bool(0.6) {
                let value = rng.gen_bool(0.5);
                pairs.push((Var(i), value));
            }
        }
        let single_pass = m.restrict_assignment(f.node, &pairs);
        let mut chained = f.node;
        for &(v, b) in &pairs {
            chained = m.cofactor(chained, v, b);
        }
        prop_assert_eq!(single_pass, chained);
        for idx in 0..f.table.len() {
            let mut forced = idx;
            for &(v, b) in &pairs {
                let bit = 1usize << v.index();
                forced = if b { forced | bit } else { forced & !bit };
            }
            prop_assert_eq!(
                m.eval(single_pass, &assignment(nv, idx)),
                f.table[forced]
            );
        }
    }

    /// Monotone `rename_vars` (persistently cached via interned maps)
    /// matches the semantic variable substitution.
    #[test]
    fn rename_matches_semantics((nv, ops, seed) in params()) {
        let total = nv * 2;
        let mut m = BddManager::new(total);
        let f = random_checked(&mut m, nv, ops, seed);
        let map: std::collections::HashMap<Var, Var> = (0..nv as u32)
            .map(|i| (Var(i), Var(i + nv as u32)))
            .collect();
        let g = m.rename_vars(f.node, &map);
        // Renaming twice through the same interned map must hit the cache
        // and return the identical node.
        prop_assert_eq!(m.rename_vars(f.node, &map), g);
        for idx in 0..f.table.len() {
            let mut asg = vec![false; total];
            for i in 0..nv {
                asg[nv + i] = idx & (1 << i) != 0;
            }
            prop_assert_eq!(m.eval(g, &asg), f.table[idx]);
        }
    }

    /// Eviction stress: a manager pinned to a 2-slot operation cache (every
    /// insert collides almost immediately) builds the same functions as a
    /// default manager, operation for operation.
    #[test]
    fn tiny_cache_survives_eviction_storm((nv, ops, seed) in params()) {
        let mut tiny = BddManager::new(nv);
        tiny.resize_op_cache(2);
        let mut full = BddManager::new(nv);
        let a = random_checked(&mut tiny, nv, ops, seed);
        let b = random_checked(&mut full, nv, ops, seed);
        // Same truth table, same canonical size, in both managers.
        prop_assert_eq!(&a.table, &b.table);
        prop_assert_eq!(tiny.size(a.node), full.size(b.node));
        for idx in 0..a.table.len() {
            let asg = assignment(nv, idx);
            prop_assert_eq!(tiny.eval(a.node, &asg), a.table[idx]);
            prop_assert_eq!(full.eval(b.node, &asg), b.table[idx]);
        }
        // Quantification and restriction also survive the storm.
        let vars: Vec<Var> = (0..nv as u32 / 2).map(Var).collect();
        let e_tiny = tiny.exists_many(a.node, &vars);
        let e_full = full.exists_many(b.node, &vars);
        for idx in 0..a.table.len() {
            let asg = assignment(nv, idx);
            prop_assert_eq!(tiny.eval(e_tiny, &asg), full.eval(e_full, &asg));
        }
        let stats = tiny.cache_stats();
        prop_assert_eq!(stats.cache_slots, 2);
    }

    /// The solver under an aggressive GC threshold produces node-for-node
    /// identical solutions (same truth tables, same cost, same search
    /// trajectory) as the append-only run: collection reclaims memory but
    /// may never change a function or a BDD size.
    #[test]
    fn solver_under_aggressive_gc_matches_append_only_run(
        seed in 0u64..256,
        extra in 0u32..3,
    ) {
        let prob = f64::from(extra) * 0.15;
        let append_only = BddConfig::new().auto_gc(false).auto_reorder(false);
        let aggressive = BddConfig::new()
            .auto_gc(true)
            .gc_min_nodes(8)
            .auto_reorder(false);
        let (space_a, rel_a) =
            random_well_defined_relation_with(3, 2, prob, seed, append_only);
        let (space_b, rel_b) =
            random_well_defined_relation_with(3, 2, prob, seed, aggressive);
        let solver = BrelSolver::new(BrelConfig::default());
        let sol_a = solver.solve(&rel_a).expect("well defined");
        let sol_b = solver.solve(&rel_b).expect("well defined");
        prop_assert_eq!(sol_a.cost, sol_b.cost);
        prop_assert_eq!(sol_a.stats.explored, sol_b.stats.explored);
        prop_assert_eq!(sol_a.stats.splits, sol_b.stats.splits);
        prop_assert!(sol_b.stats.gc_collections > 0,
            "an 8-node threshold must force collections");
        for j in 0..2 {
            for input in space_a.enumerate_inputs() {
                let asg_a = space_a.full_assignment(&input, &[]);
                let asg_b = space_b.full_assignment(&input, &[]);
                prop_assert_eq!(
                    sol_a.function.output(j).eval(&asg_a),
                    sol_b.function.output(j).eval(&asg_b),
                    "output {} differs on {:?}", j, input
                );
            }
        }
    }

    /// The solver under aggressive GC *and* forced auto-reordering stays
    /// sound: the solution is compatible, and on functional relations
    /// (whose compatible function is unique) it is node-for-node identical
    /// to the untouched run even though the variable order moved.
    #[test]
    fn solver_under_forced_sifting_stays_sound(seed in 0u64..256) {
        let pinned = BddConfig::new().auto_gc(false).auto_reorder(false);
        let sifting = BddConfig::new()
            .auto_gc(true)
            .gc_min_nodes(32)
            .auto_reorder(true);
        let (space_ref, rel_ref) =
            random_well_defined_relation_with(4, 2, 0.0, seed, pinned);
        let (space_gc, rel_gc) =
            random_well_defined_relation_with(4, 2, 0.0, seed, sifting);
        let solver = BrelSolver::new(BrelConfig::default());
        let sol_ref = solver.solve(&rel_ref).expect("well defined");
        let sol_gc = solver.solve(&rel_gc).expect("well defined");
        prop_assert!(
            space_gc.gc_stats().reorder_passes > 0,
            "the aggressive threshold must actually force sifting passes"
        );
        prop_assert!(rel_gc.is_compatible(&sol_gc.function));
        for j in 0..2 {
            for input in space_ref.enumerate_inputs() {
                let asg_ref = space_ref.full_assignment(&input, &[]);
                let asg_gc = space_gc.full_assignment(&input, &[]);
                prop_assert_eq!(
                    sol_ref.function.output(j).eval(&asg_ref),
                    sol_gc.function.output(j).eval(&asg_gc),
                    "functional relations have one solution; output {} differs on {:?}",
                    j, input
                );
            }
        }
    }

    /// Sifting preserves the semantics of every rooted function and keeps
    /// the manager canonical: rebuilding a sifted function from its truth
    /// table under the *new* order returns the identical handle.
    #[test]
    fn sifting_preserves_semantics_and_canonicity((nv, ops, seed) in params()) {
        let mgr = BddSession::new(nv);
        let checked = random_checked_handles(&mgr, nv, ops, seed);
        mgr.reorder_sift();
        for (f, table) in &checked {
            for (idx, &expected) in table.iter().enumerate() {
                prop_assert_eq!(f.eval(&assignment(nv, idx)), expected);
            }
            let rebuilt = handle_from_table(&mgr, nv, table);
            prop_assert_eq!(&rebuilt, f, "canonicity under the new order");
            // Counting goes through the level permutation, so it must be
            // unaffected by where sifting parked each variable.
            let expected_count = table.iter().filter(|&&bit| bit).count() as u128;
            prop_assert_eq!(f.sat_count(nv), expected_count);
        }
    }
}

/// Handle-based sibling of `random_checked`: random connectives through
/// rooted `Bdd`s, each paired with its truth table.
fn random_checked_handles(
    mgr: &BddSession,
    num_vars: usize,
    ops: usize,
    seed: u64,
) -> Vec<(Bdd, Vec<bool>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 1usize << num_vars;
    let mut pool: Vec<(Bdd, Vec<bool>)> = (0..num_vars)
        .map(|i| {
            (
                mgr.var(i as u32),
                (0..rows).map(|idx| idx & (1 << i) != 0).collect(),
            )
        })
        .collect();
    for _ in 0..ops {
        let a = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let b = pool[rng.gen_range(0..pool.len() as u32) as usize].clone();
        let entry = match rng.gen_range(0..4u32) {
            0 => (
                a.0.and(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x && y).collect(),
            ),
            1 => (
                a.0.or(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x || y).collect(),
            ),
            2 => (
                a.0.xor(&b.0),
                a.1.iter().zip(&b.1).map(|(&x, &y)| x ^ y).collect(),
            ),
            _ => (a.0.complement(), a.1.iter().map(|&x| !x).collect()),
        };
        pool.push(entry);
    }
    pool
}

/// Rebuilds a function from its truth table through handle operations
/// (valid under any variable order, unlike the `mk`-based reference).
fn handle_from_table(mgr: &BddSession, num_vars: usize, table: &[bool]) -> Bdd {
    let mut acc = mgr.zero();
    for (idx, &bit) in table.iter().enumerate() {
        if bit {
            acc = acc.or(&mgr.minterm(&assignment(num_vars, idx)));
        }
    }
    acc
}

/// The pinned eviction-after-sweep case: before a sweep the repeated
/// operation is a pure cache hit; after dropping the result and sweeping,
/// the same operation must *recompute* (inserts, not a stale hit), reuse
/// the reclaimed arena slots, and still evaluate correctly — no stale
/// cache or unique-table entry can resurrect a reclaimed `NodeId`.
#[test]
fn sweep_evicts_cached_results_and_recycles_slots_safely() {
    let mgr = BddSession::with_config(6, 1024, BddConfig::new().auto_gc(false));
    let a = mgr.var(0);
    let b = mgr.var(1);
    let c = mgr.var(2);
    let d = mgr.var(3);
    let f = a.xor(&b).or(&c);
    let g = b.iff(&d);

    let x = f.and(&g);
    let truth: Vec<bool> = (0..64u32)
        .map(|bits| {
            let asg: Vec<bool> = (0..6).map(|k| bits & (1 << k) != 0).collect();
            x.eval(&asg)
        })
        .collect();
    let before_hit = mgr.cache_stats();
    let x2 = f.and(&g);
    let after_hit = mgr.cache_stats();
    assert_eq!(
        after_hit.cache_hits,
        before_hit.cache_hits + 1,
        "repeating the op before the sweep is a pure cache hit"
    );
    assert_eq!(after_hit.cache_inserts, before_hit.cache_inserts);

    let arena_before = mgr.num_nodes();
    drop(x);
    drop(x2);
    let reclaimed = mgr.collect_garbage();
    assert!(reclaimed > 0, "the conjunction's nodes must be reclaimed");
    assert!(mgr.gc_stats().nodes_reclaimed >= reclaimed as u64);

    let before_redo = mgr.cache_stats();
    let x3 = f.and(&g);
    let after_redo = mgr.cache_stats();
    assert!(
        after_redo.cache_inserts > before_redo.cache_inserts,
        "after the sweep the op must recompute — a stale hit would have \
         resurrected a reclaimed node id"
    );
    assert_eq!(
        mgr.num_nodes(),
        arena_before,
        "the recomputation reuses the reclaimed slots instead of growing"
    );
    for (bits, &expected) in truth.iter().enumerate() {
        let asg: Vec<bool> = (0..6).map(|k| bits & (1 << k) != 0).collect();
        assert_eq!(x3.eval(&asg), expected);
    }
}

/// The governor's quota contract — GC first, then abort — holds under the
/// default trigger, whose next automatic collection is armed at the 64 Ki
/// floor, far above a small quota: crossing the quota buys exactly one
/// sweep, and the abort follows it.
#[test]
fn quota_trip_sweeps_once_then_aborts_under_the_default_trigger() {
    let session = BddSession::with_config(16, 64, BddConfig::new());
    let vars: Vec<Bdd> = (0..16).map(|i| session.var(i)).collect();
    let mut rooted = Vec::new();
    let mut f = vars[0].clone();
    for v in &vars[1..] {
        f = f.xor(v);
        rooted.push(f.clone());
    }
    assert_eq!(
        session.gc_stats().collections,
        0,
        "the default trigger is armed far above this session's size"
    );
    session.collect_garbage();
    let base = session.gc_stats();
    assert_eq!(base.collections, 1);

    // Everything live is rooted: the quota's sweep cannot get back under.
    let quota = base.live_nodes + 16;
    session.set_governor(ResourceGovernor::new().with_max_live_nodes(quota));
    let result = catch_resource_abort(|| {
        for i in 0..10_000usize {
            let h = rooted[i % rooted.len()]
                .or(&vars[(i * 7) % 16])
                .xor(&rooted[(i + 3) % rooted.len()]);
            rooted.push(h);
        }
    });
    assert!(
        matches!(result, Err(BddError::QuotaExceeded { .. })),
        "rooted growth past the quota must abort, got {result:?}"
    );
    assert_eq!(
        session.gc_stats().collections,
        base.collections + 1,
        "exactly one sweep between the quota trip and the abort"
    );
    assert!(session.clear_governor().is_some());
}

// ---------------------------------------------------------------------------
// Per-node kernel work of a BREL expansion: containment without building
// `f → g`, the op-cached function-only ISOP, the one-call variable
// elimination and output substitution, each against the construction it
// replaced.
// ---------------------------------------------------------------------------

/// Truth-table quantification of variable `z`: `∃z` (`any`) or `∀z`.
fn quantify_table(table: &[bool], z: usize, any: bool) -> Vec<bool> {
    (0..table.len())
        .map(|idx| {
            let (lo, hi) = (table[idx & !(1 << z)], table[idx | (1 << z)]);
            if any {
                lo || hi
            } else {
                lo && hi
            }
        })
        .collect()
}

/// The greedy elimination pass on truth tables, independent of the kernel.
fn eliminate_on_tables(
    mut lower: Vec<bool>,
    mut upper: Vec<bool>,
    nv: usize,
) -> (Vec<bool>, Vec<bool>) {
    for z in 0..nv {
        let lower_q = quantify_table(&lower, z, true);
        let upper_q = quantify_table(&upper, z, false);
        if lower_q.iter().zip(&upper_q).all(|(&l, &u)| !l || u) {
            lower = lower_q;
            upper = upper_q;
        }
    }
    (lower, upper)
}

fn table_of(f: &Bdd, nv: usize) -> Vec<bool> {
    (0..1usize << nv)
        .map(|idx| f.eval(&assignment(nv, idx)))
        .collect()
}

/// The quick solver as it was before output substitution: every choice is
/// conjoined into the relation with `constrain_output`.
fn quick_with_constrain_chain(
    relation: &BooleanRelation,
    order: &[usize],
    minimizer: &IsfMinimizer,
) -> Vec<Bdd> {
    let mut current = relation.clone();
    let mut outputs = vec![relation.space().mgr().zero(); order.len()];
    for &i in order {
        let f = minimizer.minimize(&current.projection(i));
        current = current.constrain_output(i, &f);
        outputs[i] = f;
    }
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `leq` decides containment exactly as building `f → g` and testing
    /// it against 1 does, and creates no node doing so.
    #[test]
    fn leq_agrees_with_the_built_implication((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let g = random_checked(&mut m, nv, ops, seed ^ 0x9e37);
        let f_and_g = m.and(f.node, g.node);
        let f_or_g = m.or(f.node, g.node);
        for (a, b) in [(f.node, g.node), (g.node, f.node), (f_and_g, f.node), (f.node, f_or_g), (f_or_g, f_and_g)] {
            let nodes = m.num_nodes();
            let answer = m.leq(a, b);
            prop_assert_eq!(m.num_nodes(), nodes, "leq allocated nodes");
            let implication = m.implies(a, b);
            prop_assert_eq!(answer, implication.is_one());
        }
        let truth = f.table.iter().zip(&g.table).all(|(&x, &y)| !x || y);
        prop_assert_eq!(m.leq(f.node, g.node), truth);
    }

    /// The op-cached, function-only ISOP returns the cover function of the
    /// cube-building ISOP, inside the interval — on a cold cache and again
    /// on a warm one.
    #[test]
    fn cached_isop_function_equals_the_cube_isop((nv, ops, seed) in params()) {
        let mut m = BddManager::new(nv);
        let f = random_checked(&mut m, nv, ops, seed);
        let g = random_checked(&mut m, nv, ops, seed ^ 0x51ed);
        let lower = m.and(f.node, g.node);
        let upper = m.or(f.node, g.node);
        for (l, u) in [(lower, upper), (lower, lower), (f.node, upper), (NodeId::ZERO, upper)] {
            let cold = m.isop_function(l, u);
            prop_assert_eq!(cold, m.isop(l, u).function);
            prop_assert!(m.leq(l, cold) && m.leq(cold, u));
            prop_assert_eq!(m.isop_function(l, u), cold);
        }
    }

    /// The one-call elimination pass equals the per-variable handle loop
    /// it replaced, and the truth-table reference.
    #[test]
    fn fused_elimination_equals_the_per_variable_loop((nv, ops, seed) in params()) {
        let mgr = BddSession::new(nv);
        let pool = random_checked_handles(&mgr, nv, ops, seed);
        let other = random_checked_handles(&mgr, nv, ops, seed ^ 0xe11);
        let (f, g) = (&pool[pool.len() - 1].0, &other[other.len() - 1].0);
        let (lower, upper) = (f.and(g), f.or(g));
        let vars: Vec<Var> = (0..nv as u32).map(Var).collect();

        let (mut ref_lower, mut ref_upper) = (lower.clone(), upper.clone());
        for &z in &vars {
            let lower_q = ref_lower.exists(&[z]);
            let upper_q = ref_upper.forall(&[z]);
            if lower_q.implies(&upper_q).is_one() {
                ref_lower = lower_q;
                ref_upper = upper_q;
            }
        }
        let (fused_lower, fused_upper) = lower.eliminate_non_essential(&upper, &vars);
        prop_assert_eq!(&fused_lower, &ref_lower);
        prop_assert_eq!(&fused_upper, &ref_upper);
        let (table_lower, table_upper) =
            eliminate_on_tables(table_of(&lower, nv), table_of(&upper, nv), nv);
        prop_assert_eq!(table_of(&fused_lower, nv), table_lower);
        prop_assert_eq!(table_of(&fused_upper, nv), table_upper);
    }

    /// After substituting a function for one output, every *other*
    /// output's projection equals its projection after `constrain_output`
    /// — for arbitrary functions, not only compatible ones.
    #[test]
    fn substitution_keeps_every_other_projection(
        seed in 0u64..512,
        outputs in 2usize..=3,
        extra in 0u32..3,
    ) {
        let (space, relation) = random_well_defined_relation_with(
            3, outputs, f64::from(extra) * 0.2, seed, BddConfig::new());
        let mut rng = StdRng::seed_from_u64(seed);
        let minimized = IsfMinimizer::default().minimize(&relation.projection(0));
        let x = |i: u32| space.input(i as usize);
        let arbitrary = x(rng.gen_range(0..3)).xor(&x(rng.gen_range(0..3)).and(&x(2)));
        for i in 0..outputs {
            for f in [&minimized, &arbitrary] {
                let substituted = relation.substitute_output(i, f);
                let constrained = relation.constrain_output(i, f);
                prop_assert!(!substituted.characteristic().support().contains(&space.output_var(i)));
                for j in (0..outputs).filter(|&j| j != i) {
                    let (a, b) = (substituted.projection(j), constrained.projection(j));
                    prop_assert_eq!(a.on(), b.on());
                    prop_assert_eq!(a.dc(), b.dc());
                }
            }
        }
    }

    /// `QuickSolver::solve` — and `solve_from_candidate` seeded with the
    /// MISF candidate — matches, node for node, the `constrain_output`
    /// chain it replaced, in the natural and the reversed output order.
    #[test]
    fn quick_solver_matches_the_constrain_chain(
        seed in 0u64..512,
        outputs in 1usize..=3,
        extra in 0u32..3,
    ) {
        let (space, relation) = random_well_defined_relation_with(
            3, outputs, f64::from(extra) * 0.2, seed, BddConfig::new());
        let minimizer = IsfMinimizer::default();
        let natural: Vec<usize> = (0..outputs).collect();
        let reversed: Vec<usize> = natural.iter().rev().copied().collect();
        let candidate = MultiOutputFunction::new(
            &space,
            relation.to_misf().outputs().iter().map(|isf| minimizer.minimize(isf)).collect(),
        ).unwrap();
        for order in [natural, reversed] {
            let quick = QuickSolver::new().with_order(order.clone());
            let reference = quick_with_constrain_chain(&relation, &order, &minimizer);
            let solved = quick.solve(&relation).unwrap();
            prop_assert_eq!(solved.outputs(), &reference[..]);
            let seeded = quick.solve_from_candidate(&relation, &minimizer, &candidate).unwrap();
            prop_assert_eq!(seeded.outputs(), &reference[..]);
        }
    }
}

/// The two results of the one-call elimination are rooted together before
/// the GC safe point. Rooting them one at a time lets the first safe
/// point's sweep reclaim the second, still-unrooted result; under a tiny
/// trigger (a sweep at nearly every safe point, each followed in debug
/// builds by the stale-reference check) that shows up as a wrong function
/// or a panic on a free-listed node.
#[test]
fn elimination_results_survive_a_sweep_at_every_safe_point() {
    let nv = 6;
    let config = BddConfig::new().gc_min_nodes(4).auto_reorder(false);
    let mgr = BddSession::with_config(nv, 64, config);
    let vars: Vec<Var> = (0..nv as u32).map(Var).collect();
    for seed in 0..200u64 {
        let pool = random_checked_handles(&mgr, nv, 12, seed);
        let other = random_checked_handles(&mgr, nv, 12, seed ^ 0xdead);
        let ((f, ft), (g, gt)) = (&pool[pool.len() - 1], &other[other.len() - 1]);
        let lower_t: Vec<bool> = ft.iter().zip(gt).map(|(&a, &b)| a && b).collect();
        let upper_t: Vec<bool> = ft.iter().zip(gt).map(|(&a, &b)| a || b).collect();
        let (lower, upper) = (f.and(g), f.or(g));
        drop((pool, other));
        let (fused_lower, fused_upper) = lower.eliminate_non_essential(&upper, &vars);
        drop((lower, upper));
        // Churn: enough fresh nodes to re-arm the trigger, then a safe
        // point, while only the two results hold their nodes.
        let churn = random_checked_handles(&mgr, nv, 8, seed ^ 0xc4);
        drop(churn);
        let (want_lower, want_upper) = eliminate_on_tables(lower_t, upper_t, nv);
        assert_eq!(table_of(&fused_lower, nv), want_lower, "seed {seed}");
        assert_eq!(table_of(&fused_upper, nv), want_upper, "seed {seed}");
    }
    assert!(
        mgr.gc_stats().collections > 100,
        "the tiny trigger must sweep constantly"
    );
}
