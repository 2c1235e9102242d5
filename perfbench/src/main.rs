//! Benchmark entry point: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` (normally launched by `run.py`, which
//! builds it first). With `--trace 0` it prints the end-to-end metrics,
//! with `--trace 1` the per-layer ledger; the last line of standard
//! output is the JSON result either way.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::ledger;
use perfbench::report::{json_num, json_str, median, metric, result_line, Checks, Metric};
use perfbench::sys;
use perfbench::trace::Tracer;
use perfbench::workload::{check_pass, check_repeat, pass, workloads, Env, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rev: String,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        rev: "unknown".to_string(),
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--rev" => args.rev = value()?,
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The untraced end-to-end run: run passes at one seed, with the set-up
/// passes spread evenly between them so that set-up meets the same mix of
/// process states as the runs do; medians reported.
fn end_to_end(
    w: &Workload,
    args: &Args,
    env: &mut Env,
    checks: &mut Checks,
    samples: &mut Vec<(&'static str, Vec<f64>)>,
) -> Vec<Metric> {
    let mut tr = Tracer::new(false);
    let reps = w.reps(args.seconds).max(2);
    let total_setups = w.setups(args.seconds);
    let mut setups = Vec::with_capacity(total_setups);
    let mut runs = Vec::with_capacity(reps);
    let mut peaks_mb = Vec::with_capacity(reps);
    let mut first = None;
    for rep in 0..reps {
        for _ in 0..(total_setups * (rep + 1) / reps - total_setups * rep / reps) {
            let r = pass(w, w.backend, args.seed, 0, env, &mut tr);
            check_pass(w, 0, &r, checks);
            setups.push(r.secs);
        }
        checks.check(sys::reset_peak_rss().is_ok(), || "resetting the peak RSS".into());
        let r = pass(w, w.backend, args.seed, w.horizon, env, &mut tr);
        check_pass(w, w.horizon, &r, checks);
        runs.push(r.secs);
        peaks_mb.push((sys::peak_rss_kb() + r.worker_peak_kb) as f64 / 1024.0);
        match &first {
            None => first = Some(r),
            Some(f) => check_repeat(w.name, f, &r, checks),
        }
    }
    let setup_s = median(&setups);
    let run_s = median(&runs);
    let peak_mb = median(&peaks_mb);
    samples.push(("setup_s", setups));
    samples.push(("run_s", runs));
    samples.push(("peak_rss_mb", peaks_mb));
    vec![
        metric("setup_s", setup_s, "s"),
        metric("run_s", run_s, "s"),
        metric("rounds_per_s", w.horizon as f64 / (run_s - setup_s), "1/s"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ]
}

fn record_line(w: &Workload, args: &Args, samples: &[(&'static str, Vec<f64>)]) -> String {
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, xs)| {
            let xs: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
            format!("{}: [{}]", json_str(name), xs.join(", "))
        })
        .collect();
    format!(
        "{{\"record\": {{\"rev\": {}, \"nproc\": {}, \"workload\": {}, \"why\": {}, \
         \"trace\": {}, \"size\": {}, \"seed\": {}, \"seconds\": {}, \"n\": {}, \"k\": {}, \
         \"shards\": {}, \"rule\": {}, \"backend\": {}, \"gear\": \"auto\", \
         \"report_mode\": {}, \"horizon\": {}, \"reps\": {}, \"samples\": {{{}}}}}}}",
        json_str(&args.rev),
        sys::nproc(),
        json_str(w.name),
        json_str(w.why),
        args.trace,
        json_str(if args.tiny { "tiny" } else { "full" }),
        args.seed,
        json_num(args.seconds),
        w.n,
        w.k(),
        w.shards(),
        json_str(w.rule.label()),
        json_str(w.backend.label()),
        json_str(&format!("{:?}", w.report).to_lowercase()),
        w.horizon,
        w.reps(args.seconds).max(2),
        samples.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads(args.tiny);
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {:?}; one of {}", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut env = match Env::new(args.work_dir.clone()) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut samples = Vec::new();
    let metrics = if args.trace {
        let trace_path = args.work_dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        let metrics = ledger::traced_run(w, &all, args.seed, &mut env, &mut checks, &trace_path);
        println!("spans written to {}", trace_path.display());
        metrics
    } else {
        end_to_end(w, &args, &mut env, &mut checks, &mut samples)
    };
    for m in &metrics {
        println!("{:<48} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    println!("{}", record_line(w, &args, &samples));
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
