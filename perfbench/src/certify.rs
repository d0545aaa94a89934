//! A solution certificate that does not touch the BDD kernel: evaluate the
//! winner's SOP cover on every input row of the job's `RelationSpec` and
//! check the output vector is one the row allows.

use brel_engine::RelationSpec;
use brel_sop::MultiCover;

/// Checks `cover` against every row of `spec`.
///
/// # Errors
///
/// Describes the first arity mismatch or disallowed output vector.
pub fn certify(cover: &MultiCover, spec: &RelationSpec) -> Result<(), String> {
    if cover.num_inputs() != spec.num_inputs() || cover.num_outputs() != spec.num_outputs() {
        return Err(format!(
            "cover is {}x{}, relation is {}x{}",
            cover.num_inputs(),
            cover.num_outputs(),
            spec.num_inputs(),
            spec.num_outputs()
        ));
    }
    for (input, allowed) in spec.rows() {
        let output = cover.eval(input);
        if !allowed.contains(&output) {
            return Err(format!(
                "input {} maps to {}, allowed {}",
                bits(input),
                bits(&output),
                allowed
                    .iter()
                    .map(|o| bits(o))
                    .collect::<Vec<_>>()
                    .join("|")
            ));
        }
    }
    Ok(())
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_core::QuickSolver;
    use brel_relation::{BooleanRelation, RelationSpace};

    #[test]
    fn accepts_a_solution_and_rejects_a_wrong_cover() {
        let space = RelationSpace::new(2, 2);
        let r = BooleanRelation::from_table(
            &space,
            "00 : {00}\n01 : {00}\n10 : {00, 11}\n11 : {10, 11}",
        )
        .unwrap();
        let spec = RelationSpec::from_relation(&r).unwrap();
        let f = QuickSolver::new().solve(&r).unwrap();
        assert_eq!(certify(&f.to_multicover(), &spec), Ok(()));
        // All-zero outputs are not allowed on input 11.
        let zero = MultiCover::new(2, 2);
        assert!(certify(&zero, &spec).unwrap_err().starts_with("input 11"));
        assert!(certify(&MultiCover::new(3, 2), &spec).is_err());
    }
}
