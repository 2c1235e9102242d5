//! The repository's end-to-end benchmark: fixed-work workloads over
//! the public APIs of `symbreak_core`, `symbreak_sim` and
//! `symbreak_runtime`, with correctness checks, an untraced end-to-end
//! mode and a traced per-layer mode. `run.py` builds and drives it; see
//! its docstring for the command line.

pub mod ledger;
pub mod report;
pub mod sys;
pub mod trace;
pub mod workload;
