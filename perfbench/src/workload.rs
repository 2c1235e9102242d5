//! The workloads, one fixed-horizon pass over each, and the correctness
//! checks every pass must meet.
//!
//! A pass is fixed work: the workload's start configuration, its rule, a
//! seed passed on the command line, and a fixed round horizon — never a
//! time budget, so a faster program does the same work as its parent.

use std::path::PathBuf;
use std::time::Instant;

use symbreak_core::rules::{ThreeMajority, TwoChoices};
use symbreak_core::theory::theorem5_support_cap;
use symbreak_core::{Configuration, Engine, VectorEngine, VectorStep};
use symbreak_runtime::{
    Cluster, ClusterConfig, ReportMode, SocketConfig, StopReason, TransportAddr, WireRule,
};
use symbreak_sim::trace::RoundStats;

use crate::report::Checks;
use crate::sys;
use crate::trace::{SpanId, Tracer};

/// Shard count of every cluster workload: one shard per core of the
/// 2-core reference box. Shard threads past the core count would time
/// the scheduler.
pub const SHARDS: usize = 2;

/// The `γ` of Theorem 5's support cap `ℓ' = max(2ℓ, γ·ln n)`.
pub const GAMMA: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS process per shard over Unix-domain sockets.
    Unix,
    /// One thread per shard over in-process channels.
    Channel,
    /// The single-process `VectorEngine`.
    Engine,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Unix => "unix",
            Backend::Channel => "channel",
            Backend::Engine => "engine",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    TwoChoices,
    ThreeMajority,
}

impl RuleKind {
    pub fn label(self) -> &'static str {
        match self {
            RuleKind::TwoChoices => "2-choices",
            RuleKind::ThreeMajority => "3-majority",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// `k = n`: every node its own color.
    Singletons,
    /// `k` equal color classes.
    Uniform { k: usize },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rule: RuleKind,
    pub n: u64,
    pub start: Start,
    pub backend: Backend,
    pub report: ReportMode,
    pub horizon: u64,
    /// Wall seconds one run pass takes on the 2-core reference box. It
    /// turns `--seconds` into a repetition count, so the work a run does
    /// depends on its arguments only, never on the speed of the machine.
    pub nominal_run_s: f64,
    /// Wall seconds one set-up pass takes on the reference box; sets the
    /// set-up repetition count the same way.
    pub nominal_setup_s: f64,
}

impl Workload {
    pub fn k(&self) -> u64 {
        match self.start {
            Start::Singletons => self.n,
            Start::Uniform { k } => k as u64,
        }
    }

    pub fn start_config(&self) -> Configuration {
        match self.start {
            Start::Singletons => Configuration::singletons(self.n),
            Start::Uniform { k } => Configuration::uniform(self.n, k),
        }
    }

    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        ClusterConfig::new(SHARDS, seed).with_report_mode(self.report)
    }

    /// Run passes per untraced run: `--seconds` worth at the nominal
    /// pass time, at least one.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_run_s).floor() as usize).max(1)
    }

    /// Set-up passes per untraced run: about a tenth of `--seconds`,
    /// between 8 and 200. Set-up takes milliseconds, so only a median
    /// over many of them is steady.
    pub fn setups(&self, seconds: f64) -> usize {
        ((0.1 * seconds / self.nominal_setup_s) as usize).clamp(8, 200)
    }

    /// Theorem 5's support cap from a maximal start support of 1.
    pub fn support_cap(&self) -> u64 {
        theorem5_support_cap(1, GAMMA, self.n)
    }

    pub fn shards(&self) -> usize {
        if self.backend == Backend::Engine {
            1
        } else {
            SHARDS
        }
    }
}

/// The benchmark's workloads; `tiny` shrinks every size for the smoke
/// test without changing what each workload exercises. The engine
/// workload stays runnable by name and anchors the ledger's engine
/// kernels, but `BENCHMARK.json` leaves it out: on the 2-core reference
/// machine its run and set-up times did not repeat within the bounds.
pub fn workloads(tiny: bool) -> Vec<Workload> {
    let pick = |full: u64, small: u64| if tiny { small } else { full };
    vec![
        Workload {
            name: "stall-2choices-unix",
            why: "Theorem 5 stall: 2-Choices from k = n singletons never breaks symmetry; agent \
                  shards, ordered-window pulls and delta reports over socket processes, the only \
                  workload whose codec serializes bytes",
            rule: RuleKind::TwoChoices,
            n: pick(100_000, 4_096),
            start: Start::Singletons,
            backend: Backend::Unix,
            report: ReportMode::Delta,
            horizon: pick(800, 40),
            nominal_run_s: 3.2,
            nominal_setup_s: 0.008,
        },
        Workload {
            name: "comply-3majority",
            why: "Theorem 4 regime: 3-Majority from k = n singletons at n = 1e6; condensed shards \
                  in the diverse pull gear, then push, with high-churn sparse reports; the largest \
                  memory",
            rule: RuleKind::ThreeMajority,
            n: pick(1_000_000, 20_000),
            start: Start::Singletons,
            backend: Backend::Channel,
            report: ReportMode::Sparse,
            horizon: pick(300, 30),
            nominal_run_s: 2.7,
            nominal_setup_s: 0.05,
        },
        Workload {
            name: "horizon-1e8",
            why: "E23 condensed push gear at n = 1e8 from a uniform k = 65536 start: per-round \
                  cost independent of n, an occupancy where round compute, not barrier wake-ups, \
                  dominates",
            rule: RuleKind::ThreeMajority,
            n: pick(100_000_000, 1_000_000),
            start: Start::Uniform { k: if tiny { 1_024 } else { 65_536 } },
            backend: Backend::Channel,
            report: ReportMode::Sparse,
            horizon: pick(200, 20),
            nominal_run_s: 3.0,
            nominal_setup_s: 0.0015,
        },
        Workload {
            name: "engine-3majority",
            why: "The single-process VectorEngine behind E1-E16: 3-Majority from k = n = 1e6 \
                  singletons; bypasses the runtime, so runtime changes must not move it",
            rule: RuleKind::ThreeMajority,
            n: pick(1_000_000, 20_000),
            start: Start::Singletons,
            backend: Backend::Engine,
            report: ReportMode::Sparse,
            horizon: pick(700, 50),
            nominal_run_s: 1.45,
            nominal_setup_s: 0.005,
        },
    ]
}

/// What the benchmark needs to launch socket fleets and account for
/// their memory.
pub struct Env {
    work_dir: PathBuf,
    hwm_dir: PathBuf,
    worker: PathBuf,
    next_socket: u64,
}

impl Env {
    /// Prepares `work_dir` and finds the socket worker this package
    /// builds next to the benchmark binary.
    pub fn new(work_dir: PathBuf) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let name = format!("symbreak_shard_worker{}", std::env::consts::EXE_SUFFIX);
        let worker = exe.with_file_name(name);
        if !worker.is_file() {
            return Err(format!(
                "socket worker {} not found: build the perfbench package, which produces it \
                 next to the benchmark binary",
                worker.display()
            ));
        }
        let hwm_dir = work_dir.join(format!("hwm-{}", std::process::id()));
        std::fs::create_dir_all(&hwm_dir)
            .map_err(|e| format!("create {}: {e}", hwm_dir.display()))?;
        sys::drain_worker_hwm(&hwm_dir);
        // Set before any fleet (or any other thread) exists; the worker
        // processes inherit it.
        std::env::set_var(sys::WORKER_HWM_DIR_ENV, &hwm_dir);
        Ok(Self { work_dir, hwm_dir, worker, next_socket: 0 })
    }

    fn socket(&mut self) -> SocketConfig {
        self.next_socket += 1;
        // A short relative path: Unix socket paths are limited to ~108 bytes.
        let path = self.work_dir.join(format!("s{}-{}.sock", std::process::id(), self.next_socket));
        SocketConfig {
            addr: Some(TransportAddr::Unix(path)),
            worker: Some(self.worker.clone()),
            kill: None,
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.hwm_dir);
    }
}

/// The bounds every rule driven here satisfies.
pub trait BenchRule: WireRule + VectorStep + Clone + Send + 'static {}
impl<R: WireRule + VectorStep + Clone + Send + 'static> BenchRule for R {}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Wall time from building the start configuration to the return of
    /// the run call.
    pub secs: f64,
    /// The pass's root span (`None` when untraced).
    pub root: SpanId,
    pub rounds_run: u64,
    /// The run stopped because its horizon ran out (not by consensus or
    /// an abort).
    pub horizon_exhausted: bool,
    pub consensus: bool,
    pub digest: u64,
    pub wire_bytes: u64,
    pub total_messages: u64,
    pub report_entries: Vec<u64>,
    pub trace: Vec<RoundStats>,
    pub final_config: Configuration,
    /// Socket passes: how many workers left a peak-memory note.
    pub worker_reports: Option<usize>,
    /// Socket passes: the workers' summed peak RSS in kB.
    pub worker_peak_kb: u64,
}

/// Order-sensitive FNV-1a digest of a configuration's occupied supports.
pub fn digest(c: &Configuration) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(c.n());
    for (&slot, count) in c.occupied().iter().zip(c.occupied_counts()) {
        eat(u64::from(slot));
        eat(count);
    }
    h
}

/// One pass of `w`'s rule on `backend`: build the start configuration,
/// stand the fleet (or engine) up, and run `horizon` rounds. `horizon =
/// 0` is the set-up pass: the fleet is ready for round 1 and stops.
pub fn pass(
    w: &Workload,
    backend: Backend,
    seed: u64,
    horizon: u64,
    env: &mut Env,
    tr: &mut Tracer,
) -> PassResult {
    match w.rule {
        RuleKind::TwoChoices => pass_with(TwoChoices, w, backend, seed, horizon, env, tr),
        RuleKind::ThreeMajority => pass_with(ThreeMajority, w, backend, seed, horizon, env, tr),
    }
}

fn pass_with<R: BenchRule>(
    rule: R,
    w: &Workload,
    backend: Backend,
    seed: u64,
    horizon: u64,
    env: &mut Env,
    tr: &mut Tracer,
) -> PassResult {
    let socket = (backend == Backend::Unix).then(|| env.socket());
    let root = tr.open(if horizon == 0 { "pass.setup" } else { "pass.run" });
    let t = Instant::now();
    let start = tr.time("core.config.build", 1, || w.start_config());
    let mut res = if backend == Backend::Engine {
        let mut engine = tr.time("core.engine.new", 1, || VectorEngine::new(rule, start, seed));
        let mut trace = Vec::with_capacity(horizon as usize);
        for _ in 0..horizon {
            let id = tr.open("core.engine.step");
            engine.step();
            tr.close(id, 1);
            trace.push(RoundStats {
                round: engine.round(),
                num_colors: engine.num_colors(),
                max_support: engine.max_support(),
                bias: engine.bias(),
            });
        }
        let secs = t.elapsed().as_secs_f64();
        let consensus = engine.is_consensus();
        PassResult {
            secs,
            root,
            rounds_run: engine.round(),
            horizon_exhausted: !consensus,
            consensus,
            digest: digest(engine.config_ref()),
            wire_bytes: 0,
            total_messages: 0,
            report_entries: Vec::new(),
            trace,
            final_config: engine.configuration(),
            worker_reports: None,
            worker_peak_kb: 0,
        }
    } else {
        let cluster = tr
            .time("runtime.cluster.new", 1, || Cluster::new(rule, &start, w.cluster_config(seed)));
        let out = match &socket {
            Some(sock) => {
                let name = if horizon == 0 {
                    "runtime.cluster.boot_socket"
                } else {
                    "runtime.cluster.run_socket"
                };
                tr.time(name, horizon, || cluster.run_horizon_socket(horizon, sock))
            }
            None => {
                let name =
                    if horizon == 0 { "runtime.cluster.boot" } else { "runtime.cluster.run" };
                tr.time(name, horizon, || cluster.run_horizon(horizon))
            }
        };
        let secs = t.elapsed().as_secs_f64();
        PassResult {
            secs,
            root,
            rounds_run: out.rounds_run,
            horizon_exhausted: out.stop == StopReason::HorizonExhausted,
            consensus: out.consensus_round.is_some(),
            digest: digest(&out.final_config),
            wire_bytes: out.wire_bytes,
            total_messages: out.total_messages,
            report_entries: out.report_entries,
            trace: out.trace.rounds().to_vec(),
            final_config: out.final_config,
            worker_reports: None,
            worker_peak_kb: 0,
        }
    };
    tr.close(root, horizon);
    if socket.is_some() {
        let (reports, kb) = sys::drain_worker_hwm(&env.hwm_dir);
        res.worker_reports = Some(reports);
        res.worker_peak_kb = kb;
    }
    res
}

/// The checks every pass must meet: mass conserved, exactly `horizon`
/// rounds run and stopped by the horizon, plus the workload's paper
/// claim on its trajectory.
pub fn check_pass(w: &Workload, horizon: u64, res: &PassResult, checks: &mut Checks) {
    let tag = w.name;
    let n = res.final_config.n();
    checks.check(n == w.n, || format!("{tag}: mass {n} != n = {}", w.n));
    checks.check(res.rounds_run == horizon, || {
        format!("{tag}: ran {} rounds, horizon {horizon}", res.rounds_run)
    });
    checks.check(res.horizon_exhausted && !res.consensus, || {
        format!("{tag}: run did not stop by exhausting its horizon")
    });
    if let Some(reports) = res.worker_reports {
        checks.check(reports == SHARDS, || {
            format!("{tag}: {reports} of {SHARDS} socket workers reported their peak memory")
        });
    }
    if horizon == 0 {
        return;
    }
    match w.rule {
        RuleKind::TwoChoices => {
            let cap = w.support_cap();
            let peak = res.trace.iter().map(|r| r.max_support).max().unwrap_or(0);
            checks.check(peak < cap, || {
                format!("{tag}: max support {peak} reached Theorem 5's cap {cap}")
            });
        }
        RuleKind::ThreeMajority => {
            let start_colors = w.k() as usize;
            let monotone = res
                .trace
                .iter()
                .try_fold(start_colors, |prev, r| (r.num_colors <= prev).then_some(r.num_colors))
                .is_some();
            checks.check(monotone, || format!("{tag}: the number of colors increased"));
        }
    }
}

/// Two passes at the same seed must end in the same configuration and
/// move the same wire bytes.
pub fn check_repeat(tag: &str, first: &PassResult, again: &PassResult, checks: &mut Checks) {
    checks.check(first.digest == again.digest && first.wire_bytes == again.wire_bytes, || {
        format!(
            "{tag}: same-seed repeat diverged (digest {:x} vs {:x}, wire {} vs {})",
            first.digest, again.digest, first.wire_bytes, again.wire_bytes
        )
    });
}
