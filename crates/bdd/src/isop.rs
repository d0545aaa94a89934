//! Minato–Morreale irredundant sum-of-products (ISOP) generation.
//!
//! Given an incompletely specified function as an interval `[lower, upper]`
//! (in the paper's notation `[On, On ∪ Dc]`), the ISOP algorithm produces a
//! prime and irredundant cover whose function lies within the interval.
//! This is the default ISF minimizer of the BREL solver (Section 7.5) and
//! provides the cube/literal counts reported in Tables 1 and 2.
//!
//! Two entry points share the recursion's shape. [`BddManager::isop`]
//! builds the cube list too (covers, reports, literal counts) and memoizes
//! per call. [`BddManager::isop_function`] computes only the cover's BDD —
//! all the ISF minimizer needs — and memoizes in the shared operation
//! cache, so repeated intervals across calls (sibling subrelations of one
//! BREL search share most of their projections) cost one lookup. Both
//! return the same function for the same interval.

use std::collections::HashMap;

use crate::cache::OpTag;
use crate::manager::{BddManager, NodeId, Var};

/// A cube produced by ISOP generation: a conjunction of literals, stored as
/// `(variable, polarity)` pairs sorted by variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IsopCube {
    literals: Vec<(Var, bool)>,
}

impl IsopCube {
    /// The empty cube (the constant-true product).
    pub fn tautology() -> Self {
        IsopCube {
            literals: Vec::new(),
        }
    }

    /// Literals of the cube, sorted by variable.
    pub fn literals(&self) -> &[(Var, bool)] {
        &self.literals
    }

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> usize {
        self.literals.len()
    }

    /// Returns a copy of the cube extended with one more literal.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the variable already appears in the cube.
    fn with_literal(&self, var: Var, positive: bool) -> Self {
        debug_assert!(self.literals.iter().all(|&(v, _)| v != var));
        let mut literals = Vec::with_capacity(self.literals.len() + 1);
        literals.push((var, positive));
        literals.extend_from_slice(&self.literals);
        literals.sort();
        IsopCube { literals }
    }

    /// Evaluates the cube under a complete assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.literals
            .iter()
            .all(|&(v, pos)| assignment[v.index()] == pos)
    }

    /// Builds the BDD of the cube.
    pub fn to_bdd(&self, mgr: &mut BddManager) -> NodeId {
        // The literal list is sorted by variable *index*; `mk` needs the
        // chain built bottom-up in *level* order, and the two disagree
        // once dynamic reordering has moved a variable.
        let mut literals = self.literals.clone();
        literals.sort_by_key(|&(v, _)| mgr.var_level(v));
        let mut acc = NodeId::ONE;
        for &(v, pos) in literals.iter().rev() {
            acc = if pos {
                mgr.mk(v, NodeId::ZERO, acc)
            } else {
                mgr.mk(v, acc, NodeId::ZERO)
            };
        }
        acc
    }
}

/// Result of ISOP generation: the cover and the BDD of the function it
/// realizes (which always lies inside the requested interval).
#[derive(Debug, Clone)]
pub struct IsopResult {
    /// The cubes of the cover.
    pub cubes: Vec<IsopCube>,
    /// BDD of the disjunction of the cubes.
    pub function: NodeId,
}

impl IsopResult {
    /// Number of cubes in the cover.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals of the cover (the paper's `LIT` metric).
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(IsopCube::num_literals).sum()
    }
}

impl BddManager {
    /// Computes a prime irredundant cover for the interval `[lower, upper]`
    /// using the Minato–Morreale algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (`lower ⊄ upper`).
    pub fn isop(&mut self, lower: NodeId, upper: NodeId) -> IsopResult {
        assert!(
            self.leq(lower, upper),
            "isop: lower bound must imply the upper bound"
        );
        let mut memo = HashMap::new();
        let (cubes, function) = self.isop_rec(lower, upper, &mut memo);
        IsopResult { cubes, function }
    }

    fn isop_rec(
        &mut self,
        lower: NodeId,
        upper: NodeId,
        memo: &mut HashMap<(NodeId, NodeId), (Vec<IsopCube>, NodeId)>,
    ) -> (Vec<IsopCube>, NodeId) {
        if lower.is_zero() {
            return (Vec::new(), NodeId::ZERO);
        }
        if upper.is_one() {
            return (vec![IsopCube::tautology()], NodeId::ONE);
        }
        if let Some(r) = memo.get(&(lower, upper)) {
            return r.clone();
        }
        let top = self.level(lower).min(self.level(upper));
        let v = self.level_var(top);
        let (l0, l1) = self.cofactors_at(lower, v);
        let (u0, u1) = self.cofactors_at(upper, v);

        // Minterms that can only be covered with the negative literal of v.
        let not_u1 = self.not(u1);
        let lv0 = self.and(l0, not_u1);
        // Minterms that can only be covered with the positive literal of v.
        let not_u0 = self.not(u0);
        let lv1 = self.and(l1, not_u0);

        let (cubes0, f0) = self.isop_rec(lv0, u0, memo);
        let (cubes1, f1) = self.isop_rec(lv1, u1, memo);

        // Remaining onset not yet covered, which may use cubes without v.
        let nf0 = self.not(f0);
        let rest0 = self.and(l0, nf0);
        let nf1 = self.not(f1);
        let rest1 = self.and(l1, nf1);
        let l_rest = self.or(rest0, rest1);
        let u_rest = self.and(u0, u1);
        let (cubes_d, fd) = self.isop_rec(l_rest, u_rest, memo);

        let mut cubes = Vec::with_capacity(cubes0.len() + cubes1.len() + cubes_d.len());
        cubes.extend(cubes0.iter().map(|c| c.with_literal(v, false)));
        cubes.extend(cubes1.iter().map(|c| c.with_literal(v, true)));
        cubes.extend(cubes_d.iter().cloned());

        let branch = self.mk(v, f0, f1);
        let function = self.or(branch, fd);
        let result = (cubes, function);
        memo.insert((lower, upper), result.clone());
        result
    }

    /// The function of the Minato–Morreale cover of `[lower, upper]`
    /// without its cube list: equal to `self.isop(lower, upper).function`,
    /// memoized in the operation cache under an `(lower, upper)` key.
    ///
    /// Like `constrain` and `restrict`, the result depends on the variable
    /// order; an entry that survives a reorder is still a cover inside its
    /// interval, just not necessarily the one the new order would give.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (`lower ⊄ upper`).
    pub fn isop_function(&mut self, lower: NodeId, upper: NodeId) -> NodeId {
        assert!(
            self.leq(lower, upper),
            "isop: lower bound must imply the upper bound"
        );
        self.isop_function_rec(lower, upper)
    }

    fn isop_function_rec(&mut self, lower: NodeId, upper: NodeId) -> NodeId {
        if lower.is_zero() {
            return NodeId::ZERO;
        }
        if upper.is_one() {
            return NodeId::ONE;
        }
        if lower == upper {
            // The only function in a one-point interval.
            return lower;
        }
        if let Some(r) = self.cache.lookup(OpTag::Isop, lower.0, upper.0, 0) {
            return r;
        }
        let top = self.level(lower).min(self.level(upper));
        let v = self.level_var(top);
        let (l0, l1) = self.cofactors_at(lower, v);
        let (u0, u1) = self.cofactors_at(upper, v);

        // The same three sub-intervals as `isop_rec`.
        let not_u1 = self.not(u1);
        let lv0 = self.and(l0, not_u1);
        let not_u0 = self.not(u0);
        let lv1 = self.and(l1, not_u0);
        let f0 = self.isop_function_rec(lv0, u0);
        let f1 = self.isop_function_rec(lv1, u1);

        let nf0 = self.not(f0);
        let rest0 = self.and(l0, nf0);
        let nf1 = self.not(f1);
        let rest1 = self.and(l1, nf1);
        let l_rest = self.or(rest0, rest1);
        let u_rest = self.and(u0, u1);
        let fd = self.isop_function_rec(l_rest, u_rest);

        let branch = self.mk(v, f0, f1);
        let function = self.or(branch, fd);
        self.cache
            .insert(OpTag::Isop, lower.0, upper.0, 0, function);
        function
    }

    fn cofactors_at(&mut self, f: NodeId, v: Var) -> (NodeId, NodeId) {
        if f.is_terminal() || self.node_var(f) != v {
            (f, f)
        } else {
            self.node_children(f)
        }
    }

    /// Convenience: irredundant cover of a completely specified function.
    pub fn isop_exact(&mut self, f: NodeId) -> IsopResult {
        self.isop(f, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |bits| (0..n).map(|i| bits & (1 << i) != 0).collect())
    }

    fn cover_eval(cubes: &[IsopCube], asg: &[bool]) -> bool {
        cubes.iter().any(|c| c.eval(asg))
    }

    #[test]
    fn isop_exact_covers_the_function() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        let t1 = m.and(a, b);
        let na = m.not(a);
        let t2 = m.and(na, c);
        let f = m.or(t1, t2);
        let res = m.isop_exact(f);
        assert_eq!(res.function, f);
        for asg in all_assignments(3) {
            assert_eq!(cover_eval(&res.cubes, &asg), m.eval(f, &asg));
        }
    }

    #[test]
    fn isop_respects_interval() {
        let mut m = BddManager::new(3);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let c = m.literal(Var(2), true);
        // onset: a·b·c ; dcset: a·(b ⊕ c)
        let ab = m.and(a, b);
        let on = m.and(ab, c);
        let xorbc = m.xor(b, c);
        let dc = m.and(a, xorbc);
        let up = m.or(on, dc);
        let res = m.isop(on, up);
        // on ⊆ result ⊆ up
        let on_implies = m.implies(on, res.function);
        let result_implies = m.implies(res.function, up);
        assert!(on_implies.is_one());
        assert!(result_implies.is_one());
        // Using don't cares should give a cover at most as large as exact.
        let exact = m.isop_exact(on);
        assert!(res.num_literals() <= exact.num_literals());
    }

    #[test]
    fn isop_of_constants() {
        let mut m = BddManager::new(2);
        let res0 = m.isop_exact(NodeId::ZERO);
        assert!(res0.cubes.is_empty());
        assert!(res0.function.is_zero());
        let res1 = m.isop_exact(NodeId::ONE);
        assert_eq!(res1.cubes.len(), 1);
        assert_eq!(res1.cubes[0].num_literals(), 0);
        assert!(res1.function.is_one());
    }

    #[test]
    fn isop_single_literal() {
        let mut m = BddManager::new(2);
        let a = m.literal(Var(0), true);
        let res = m.isop_exact(a);
        assert_eq!(res.num_cubes(), 1);
        assert_eq!(res.num_literals(), 1);
        assert_eq!(res.cubes[0].literals(), &[(Var(0), true)]);
    }

    #[test]
    fn isop_is_irredundant_on_xor() {
        let mut m = BddManager::new(2);
        let a = m.literal(Var(0), true);
        let b = m.literal(Var(1), true);
        let f = m.xor(a, b);
        let res = m.isop_exact(f);
        // XOR of two variables needs exactly two cubes of two literals.
        assert_eq!(res.num_cubes(), 2);
        assert_eq!(res.num_literals(), 4);
        // Removing any cube must lose coverage (irredundancy).
        for skip in 0..res.cubes.len() {
            let reduced: Vec<IsopCube> = res
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            let mut missing = false;
            for asg in all_assignments(2) {
                if m.eval(f, &asg) && !cover_eval(&reduced, &asg) {
                    missing = true;
                }
            }
            assert!(missing, "cover is redundant: cube {skip} can be dropped");
        }
    }

    #[test]
    fn cube_to_bdd_round_trip() {
        let mut m = BddManager::new(4);
        let cube = IsopCube::tautology()
            .with_literal(Var(2), false)
            .with_literal(Var(0), true);
        let f = cube.to_bdd(&mut m);
        for asg in all_assignments(4) {
            assert_eq!(m.eval(f, &asg), cube.eval(&asg));
        }
    }

    #[test]
    fn cube_to_bdd_respects_a_reordered_level_permutation() {
        // After swapping levels, the cube's index-sorted literal list no
        // longer matches the level order; to_bdd must still build a valid
        // ordered chain.
        let mut m = BddManager::new(4);
        let cube = IsopCube::tautology()
            .with_literal(Var(2), false)
            .with_literal(Var(0), true);
        m.swap_adjacent_levels(0); // order is now x1 x0 x2 x3
        m.swap_adjacent_levels(1); // order is now x1 x2 x0 x3
        let f = cube.to_bdd(&mut m);
        for asg in all_assignments(4) {
            assert_eq!(m.eval(f, &asg), cube.eval(&asg));
        }
    }

    #[test]
    #[should_panic]
    fn isop_rejects_empty_interval() {
        let mut m = BddManager::new(1);
        let a = m.literal(Var(0), true);
        let na = m.not(a);
        // lower = a does not imply upper = !a
        m.isop(a, na);
    }
}
