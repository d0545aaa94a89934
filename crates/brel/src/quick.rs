//! The naive quick solver (Fig. 4 of the paper).
//!
//! The quick solver minimizes the outputs one at a time, in order, each time
//! using all the flexibility the relation still offers, and then constrains
//! the relation with the chosen implementation before moving to the next
//! output. It is fast but order-dependent and tends to produce unbalanced
//! solutions (Example 6.1); BREL uses it to guarantee that at least one
//! compatible function is known for every explored subrelation (§7.2),
//! and gyocro uses it to obtain its initial solution.
//!
//! The constraint step is a substitution: the paper's `R ∧ (yᵢ ≡ fᵢ)` is
//! followed only by projections onto the outputs not yet fixed, which
//! quantify `yᵢ` away, so the solver keeps `∃yᵢ (R ∧ (yᵢ ≡ fᵢ))`
//! ([`BooleanRelation::substitute_output`]) — a relation that shrinks by
//! one output per step instead of growing by one conjunct. The solutions
//! are those of the conjunction chain.

use brel_relation::{BooleanRelation, MultiOutputFunction, RelationError};

use crate::minimize_isf::IsfMinimizer;

/// The quick, output-ordered Boolean-relation solver.
#[derive(Debug, Clone, Default)]
pub struct QuickSolver {
    minimizer: IsfMinimizer,
    order: Option<Vec<usize>>,
}

impl QuickSolver {
    /// Creates a quick solver with the default ISF minimizer and the natural
    /// output order.
    pub fn new() -> Self {
        QuickSolver::default()
    }

    /// Uses a specific ISF minimizer.
    pub fn with_minimizer(mut self, minimizer: IsfMinimizer) -> Self {
        self.minimizer = minimizer;
        self
    }

    /// Minimizes the outputs in the given order (a permutation of
    /// `0..num_outputs`). The solution depends on this order — one of the
    /// drawbacks of the quick solver discussed in Section 6.2.
    pub fn with_order(mut self, order: Vec<usize>) -> Self {
        self.order = Some(order);
        self
    }

    /// Solves the relation.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::NotWellDefined`] if the relation is not well
    /// defined (it then has no compatible function), or
    /// [`RelationError::Parse`] if a custom order is not a permutation.
    pub fn solve(&self, relation: &BooleanRelation) -> Result<MultiOutputFunction, RelationError> {
        self.solve_seeded(relation, None)
    }

    /// [`QuickSolver::solve`] for a caller that already minimized the
    /// relation's MISF output by output with `minimizer` (BREL's `expand`).
    /// The solver's first step minimizes the projection of the unchanged
    /// relation onto its first output — exactly that output of `candidate`
    /// when the minimizers agree — so the step is read from `candidate`
    /// instead of being recomputed. With a different minimizer this is
    /// plain `solve`.
    ///
    /// # Errors
    ///
    /// As [`QuickSolver::solve`].
    pub fn solve_from_candidate(
        &self,
        relation: &BooleanRelation,
        minimizer: &IsfMinimizer,
        candidate: &MultiOutputFunction,
    ) -> Result<MultiOutputFunction, RelationError> {
        let seed = (*minimizer == self.minimizer).then_some(candidate);
        self.solve_seeded(relation, seed)
    }

    fn solve_seeded(
        &self,
        relation: &BooleanRelation,
        candidate: Option<&MultiOutputFunction>,
    ) -> Result<MultiOutputFunction, RelationError> {
        if !relation.is_well_defined() {
            return Err(RelationError::NotWellDefined);
        }
        let space = relation.space().clone();
        let m = space.num_outputs();
        let order: Vec<usize> = match &self.order {
            Some(o) => {
                let mut sorted = o.clone();
                sorted.sort_unstable();
                if sorted != (0..m).collect::<Vec<_>>() {
                    return Err(RelationError::Parse(
                        "output order must be a permutation of 0..num_outputs".to_string(),
                    ));
                }
                o.clone()
            }
            None => (0..m).collect(),
        };
        let mut current = relation.clone();
        let mut outputs = vec![space.mgr().zero(); m];
        for (step, &i) in order.iter().enumerate() {
            let f = match candidate {
                Some(c) if step == 0 => c.output(i).clone(),
                _ => self.minimizer.minimize(&current.projection(i)),
            };
            // Later steps only project onto outputs not yet fixed, so the
            // chosen output is substituted away rather than conjoined; the
            // last choice constrains nothing that is read again.
            if step + 1 < order.len() {
                current = current.substitute_output(i, &f);
                debug_assert!(
                    current.is_well_defined(),
                    "substituting a projection-compatible function keeps the relation well defined"
                );
            }
            outputs[i] = f;
        }
        let solution = MultiOutputFunction::new(&space, outputs)?;
        debug_assert!(relation.is_compatible(&solution));
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::RelationSpace;

    fn fig1(space: &RelationSpace) -> BooleanRelation {
        BooleanRelation::from_table(space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}").unwrap()
    }

    #[test]
    fn quick_solution_is_compatible() {
        let space = RelationSpace::new(2, 2);
        let r = fig1(&space);
        let f = QuickSolver::new().solve(&r).unwrap();
        assert!(r.is_compatible(&f));
    }

    #[test]
    fn rejects_ill_defined_relations() {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        assert!(matches!(
            QuickSolver::new().solve(&r),
            Err(RelationError::NotWellDefined)
        ));
    }

    #[test]
    fn order_changes_but_preserves_compatibility() {
        // The Fig. 5 example: R(a, b; x, y) where solving x first steals the
        // flexibility of y.
        let space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {01, 10}\n01 : {11}\n10 : {11}\n11 : {01, 10}",
        )
        .unwrap();
        let f_xy = QuickSolver::new().with_order(vec![0, 1]).solve(&r).unwrap();
        let f_yx = QuickSolver::new().with_order(vec![1, 0]).solve(&r).unwrap();
        assert!(r.is_compatible(&f_xy));
        assert!(r.is_compatible(&f_yx));
    }

    #[test]
    fn invalid_order_is_rejected() {
        let space = RelationSpace::new(1, 2);
        let r = BooleanRelation::full(&space);
        let err = QuickSolver::new().with_order(vec![0, 0]).solve(&r);
        assert!(err.is_err());
    }

    #[test]
    fn functional_relation_is_returned_unchanged() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let target = MultiOutputFunction::new(&space, vec![a.xor(&b)]).unwrap();
        let r = BooleanRelation::from_function(&target);
        let f = QuickSolver::new().solve(&r).unwrap();
        assert_eq!(f.output(0), target.output(0));
    }
}
