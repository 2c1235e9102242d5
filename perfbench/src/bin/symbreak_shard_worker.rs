//! Socket shard worker for the benchmark's Unix-socket workload: the
//! runtime's worker entry point, plus a peak-memory note on exit so the
//! benchmark's `peak_rss_mb` covers the worker processes too.

fn main() {
    symbreak_runtime::shard_process_main();
    perfbench::sys::write_worker_hwm();
}
