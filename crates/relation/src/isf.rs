//! Incompletely specified functions (ISF).

use brel_bdd::Bdd;

use crate::error::RelationError;
use crate::space::RelationSpace;

/// An incompletely specified function over the input variables of a
/// [`RelationSpace`]: a partition of the input space into onset, offset and
/// don't-care set (Definition 4.4 of the paper).
///
/// The ISF is stored as the pair `(on, dc)`; the offset is implicit
/// (`off = ¬(on ∪ dc)`).
#[derive(Debug, Clone)]
pub struct Isf {
    space: RelationSpace,
    on: Bdd,
    dc: Bdd,
}

impl Isf {
    /// Creates an ISF from its onset and don't-care set.
    ///
    /// Overlap between `on` and `dc` is resolved in favour of the onset
    /// (a minterm that must be 1 is not a don't care).
    pub fn new(space: &RelationSpace, on: Bdd, dc: Bdd) -> Self {
        let dc = dc.diff(&on);
        Isf {
            space: space.clone(),
            on,
            dc,
        }
    }

    /// [`Isf::new`] for an onset and don't-care set the caller already
    /// knows to be disjoint, skipping the overlap resolution.
    pub(crate) fn from_disjoint(space: &RelationSpace, on: Bdd, dc: Bdd) -> Self {
        Isf {
            space: space.clone(),
            on,
            dc,
        }
    }

    /// Creates a completely specified ISF (empty don't-care set).
    pub fn completely_specified(space: &RelationSpace, on: Bdd) -> Self {
        let dc = space.mgr().zero();
        Isf {
            space: space.clone(),
            on,
            dc,
        }
    }

    /// The space this ISF belongs to.
    pub fn space(&self) -> &RelationSpace {
        &self.space
    }

    /// The onset: inputs that must map to 1.
    pub fn on(&self) -> &Bdd {
        &self.on
    }

    /// The don't-care set.
    pub fn dc(&self) -> &Bdd {
        &self.dc
    }

    /// The offset: inputs that must map to 0.
    pub fn off(&self) -> Bdd {
        self.on.or(&self.dc).complement()
    }

    /// The upper bound of the interval, `on ∪ dc`.
    pub fn upper(&self) -> Bdd {
        self.on.or(&self.dc)
    }

    /// Returns `true` if the don't-care set is empty.
    pub fn is_completely_specified(&self) -> bool {
        self.dc.is_zero()
    }

    /// Returns `true` if `f` implements the ISF: `on ⊆ f ⊆ on ∪ dc`.
    pub fn admits(&self, f: &Bdd) -> bool {
        self.on.is_subset_of(f) && f.is_subset_of(&self.upper())
    }

    /// The flexibility of the ISF at a given input vertex: the set of values
    /// `{0}`, `{1}` or `{0, 1}` the output may take.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if `input` has the wrong
    /// length.
    pub fn values_at(&self, input: &[bool]) -> Result<(bool, bool), RelationError> {
        if input.len() != self.space.num_inputs() {
            return Err(RelationError::DimensionMismatch {
                expected: self.space.num_inputs(),
                found: input.len(),
            });
        }
        let asg = self
            .space
            .full_assignment(input, &vec![false; self.space.num_outputs()]);
        let in_on = self.on.eval(&asg);
        let in_dc = self.dc.eval(&asg);
        // (may be 0, may be 1)
        Ok((!in_on, in_on || in_dc))
    }

    /// Number of non-essential input variables: variables `z` such that the
    /// interval `[∃z on, ∀z (on ∪ dc)]` is non-empty, meaning an
    /// implementation independent of `z` exists (cf. Section 7.5).
    pub fn non_essential_variables(&self) -> Vec<brel_bdd::Var> {
        let upper = self.upper();
        self.space
            .input_vars()
            .iter()
            .copied()
            .filter(|&z| {
                let lower_q = self.on.exists(&[z]);
                let upper_q = upper.forall(&[z]);
                lower_q.is_subset_of(&upper_q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_membership() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let on = a.and(&b);
        let dc = a.xor(&b);
        let isf = Isf::new(&space, on.clone(), dc);
        // The interval is [a·b, a+b]: a, b and a+b itself are implementations…
        assert!(isf.admits(&on));
        assert!(isf.admits(&a));
        assert!(isf.admits(&b));
        assert!(isf.admits(&a.or(&b)));
        // …but the tautology and ¬a are not.
        assert!(!isf.admits(&space.mgr().one()));
        assert!(!isf.admits(&a.complement()));
    }

    #[test]
    fn off_set_partition() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let isf = Isf::new(&space, a.and(&b), a.xor(&b));
        let on = isf.on().clone();
        let dc = isf.dc().clone();
        let off = isf.off();
        // The three sets partition the input space.
        assert!(on.and(&dc).is_zero());
        assert!(on.and(&off).is_zero());
        assert!(dc.and(&off).is_zero());
        assert!(on.or(&dc).or(&off).is_one());
    }

    #[test]
    fn overlap_resolved_towards_onset() {
        let space = RelationSpace::new(1, 1);
        let a = space.input(0);
        let isf = Isf::new(&space, a.clone(), a.clone());
        assert!(isf.dc().is_zero());
        assert!(!isf.is_completely_specified() || isf.dc().is_zero());
    }

    #[test]
    fn values_at_reports_flexibility() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        let isf = Isf::new(&space, a.and(&b), a.xor(&b));
        // 11 -> must be 1
        assert_eq!(isf.values_at(&[true, true]).unwrap(), (false, true));
        // 10 -> don't care
        assert_eq!(isf.values_at(&[true, false]).unwrap(), (true, true));
        // 00 -> must be 0
        assert_eq!(isf.values_at(&[false, false]).unwrap(), (true, false));
        assert!(isf.values_at(&[true]).is_err());
    }

    #[test]
    fn non_essential_variable_detected() {
        let space = RelationSpace::new(2, 1);
        let a = space.input(0);
        let b = space.input(1);
        // on = a·b, dc = a·b' : output can be implemented as `a`, so b is
        // non-essential; a is essential.
        let on = a.and(&b);
        let dc = a.and(&b.complement());
        let isf = Isf::new(&space, on, dc);
        let non_essential = isf.non_essential_variables();
        assert!(non_essential.contains(&space.input_var(1)));
        assert!(!non_essential.contains(&space.input_var(0)));
    }
}
