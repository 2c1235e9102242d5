//! Runs every experiment binary in sequence and summarizes the verdicts.
//!
//! Honours `SYMBREAK_SCALE`; use `SYMBREAK_SCALE=0.25` for a quick smoke
//! sweep. Exits non-zero if any experiment fails, crashes or is missing
//! (build them all with `cargo build --release -p symbreak-bench`); the
//! sweep runs every experiment either way and prints the summary.

use std::path::Path;
use std::process::{Command, ExitStatus};

const EXPERIMENTS: &[&str] = &[
    "exp_e01_three_majority_sublinear",
    "exp_e02_two_choices_lower_bound",
    "exp_e03_separation",
    "exp_e04_voter_dominates_3m",
    "exp_e05_voter_bound",
    "exp_e06_duality",
    "exp_e07_one_step_law",
    "exp_e08_expectation_identity",
    "exp_e09_counterexample",
    "exp_e10_hierarchy",
    "exp_e11_bias_regime",
    "exp_e12_fault_tolerance",
    "exp_e13_voter_linear",
    "exp_e14_nonac_counterexample",
    "exp_e15_phase_decomposition",
    "exp_e16_lazy_voter",
    "exp_e17_distributed_runtime",
    "exp_e18_topologies",
    "exp_e19_graph_bias",
    "exp_e20_cluster_theorem5",
    "exp_e21_multiset_wire",
    "exp_e22_cluster_faults",
    "exp_e23_condensed_shards",
    "exp_e24_transport",
    "exp_e25_grouped_pull",
    "exp_e26_incremental_rounds",
];

/// What to run when an experiment binary is missing.
const BUILD_HINT: &str = "cargo build --release -p symbreak-bench";

/// Runs one experiment binary to completion. `Err` explains why it
/// could not be started at all (typically: not built yet).
fn launch(path: &Path) -> Result<ExitStatus, String> {
    Command::new(path).status().map_err(|e| {
        format!("cannot launch {}: {e} (build the experiments with `{BUILD_HINT}`)", path.display())
    })
}

/// Runs every named experiment from `dir` in order and returns the
/// names of those that failed, crashed or could not be launched; one
/// failure never stops the sweep.
fn run_experiments<'a>(dir: &Path, names: &[&'a str]) -> Vec<&'a str> {
    let mut failures = Vec::new();
    for &name in names {
        println!("\n================ {name} ================");
        match launch(&dir.join(name)) {
            Ok(status) if status.success() => {}
            Ok(status) => {
                println!("{name} exited with {status}");
                failures.push(name);
            }
            Err(msg) => {
                println!("{msg}");
                failures.push(name);
            }
        }
    }
    failures
}

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let failures = run_experiments(&exe_dir, EXPERIMENTS);
    println!("\n================ SUMMARY ================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_binary_fails_with_a_build_hint() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir");
        let err = launch(&dir.join("exp_missing")).expect_err("nothing to launch");
        assert!(err.contains("exp_missing") && err.contains(BUILD_HINT), "{err}");
    }

    #[test]
    fn missing_binaries_count_as_failures_and_the_sweep_goes_on() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir");
        assert_eq!(run_experiments(&dir, &["exp_a", "exp_b"]), vec!["exp_a", "exp_b"]);
    }
}
