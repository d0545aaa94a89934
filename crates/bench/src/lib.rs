//! # brel-bench
//!
//! The experiment harness of the reproduction: one module per table or
//! prose experiment of the paper's evaluation. Each module exposes a `run`
//! function returning structured rows plus a `render` helper producing the
//! table in the same layout as the paper; the `--bin` targets print the
//! tables, and the `bdd_kernel` and `search_strategies` binaries time the
//! underlying kernels and searches.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (ISF-minimization comparison) | [`table1`] | `table1_isf` |
//! | Table 2 (BREL vs gyocro) | [`table2`] | `table2_gyocro` |
//! | Table 3 (mux-latch decomposition) | [`table3`] | `table3_decomposition` |
//! | §7.7 symmetry experiment | [`symmetry_ablation`] | `symmetry_ablation` |
//! | Parallel portfolio batch run | [`engine_batch`] | `engine_batch` |
//! | BDD-kernel perf trajectory | [`bdd_kernel`] | `bdd_kernel` |
//! | Search-strategy comparison | [`search_strategies`] | `search_strategies` |
//!
//! The table binaries accept `--json` to emit their rows through the shared
//! `brel-engine` serializer (for `BENCH_*.json` perf trajectories); the
//! `engine_batch` binary fans the corpora over a `brel-engine` worker pool.

#![warn(missing_docs)]

use brel_bdd::Var;
use brel_network::{Network, SignalId};
use brel_relation::MultiOutputFunction;
use brel_sop::Cover;

pub mod bdd_kernel;
pub mod engine_batch;
pub mod search_strategies;
pub mod symmetry_ablation;
pub mod table1;
pub mod table2;
pub mod table3;

/// Builds a combinational [`Network`] computing a multiple-output function
/// (one SOP node per output), the bridge between solver output and the
/// technology-mapping flow used by Tables 2 and 3.
pub fn network_from_function(name: &str, f: &MultiOutputFunction) -> Network {
    let space = f.space();
    let mut net = Network::new(name);
    let inputs: Vec<SignalId> = (0..space.num_inputs())
        .map(|i| {
            net.add_input(space.input_name(i))
                .expect("fresh input name")
        })
        .collect();
    let input_vars: Vec<Var> = space.input_vars().to_vec();
    for (i, g) in f.outputs().iter().enumerate() {
        let cover = Cover::from_isop(&g.isop(), &input_vars);
        let node = net
            .add_node(
                &format!("{}_n", space.output_name(i)),
                inputs.clone(),
                cover,
            )
            .expect("fresh node name");
        net.add_output(node);
    }
    net
}

/// Formats a ratio as the normalized percentages used by Table 1
/// (1.00 = the reference strategy).
pub fn normalized(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        1.0
    } else {
        value / reference
    }
}

/// Parses the `[num_instances] [--json]` argument convention shared by the
/// `table1_isf` and `table2_gyocro` binaries.
///
/// # Errors
///
/// Returns a message naming the first argument that is neither a count nor
/// `--json`, so typos fail loudly instead of silently running the default
/// configuration.
pub fn parse_table_args<I: IntoIterator<Item = String>>(args: I) -> Result<(usize, bool), String> {
    let mut num = usize::MAX;
    let mut json = false;
    for arg in args {
        if arg == "--json" {
            json = true;
        } else if let Ok(n) = arg.parse() {
            num = n;
        } else {
            return Err(format!(
                "unknown argument `{arg}` (expected an instance count or --json)"
            ));
        }
    }
    Ok((num, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_args_accept_count_and_json_in_any_order() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_table_args(to_args(&[])), Ok((usize::MAX, false)));
        assert_eq!(parse_table_args(to_args(&["3"])), Ok((3, false)));
        assert_eq!(parse_table_args(to_args(&["--json", "2"])), Ok((2, true)));
        assert_eq!(parse_table_args(to_args(&["2", "--json"])), Ok((2, true)));
        assert!(parse_table_args(to_args(&["--jsonn"]))
            .unwrap_err()
            .contains("--jsonn"));
    }
}
