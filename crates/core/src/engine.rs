//! Synchronous round engines.
//!
//! Two implementations of the same semantics:
//!
//! * [`AgentEngine`] — the literal model: every node pulls uniform samples
//!   and applies its [`UpdateRule`]. `O(n·h)` per round; works for *every*
//!   rule, including non-AC processes.
//! * [`VectorEngine`] — the distributional shortcut: one draw from the
//!   exact one-step law, taken in place via
//!   [`VectorStep::vector_step_into`]. `O(#occupied colors)` per round and
//!   allocation-free; this is what makes the large-`n` sweeps — including
//!   the `k = n` singleton starts of Theorem 5 — feasible.
//!
//! Experiment E7 (and the cross-validation tests below) confirm the two
//! agree distributionally, which is exactly the paper's observation that an
//! AC-process's one-step law is `Mult(n, α(c))`.

use rand::{Rng, SeedableRng};

use crate::config::{ChangeLog, Configuration};
use crate::opinion::Opinion;
use crate::process::{SampleAccess, UpdateRule, VectorStep};
use symbreak_sim::dist::{
    expected_window_visits, Categorical, Geometric, UpdatableSampler, WindowMultinomial,
    WALK_CANDIDATE_CAP,
};
use symbreak_sim::rng::{Pcg64, SplitMix64};

/// A synchronous consensus-process engine.
pub trait Engine {
    /// Borrowed view of the current configuration (decided colors only).
    ///
    /// This is the cheap accessor the runners poll every round; cloning
    /// via [`Engine::configuration`] is only needed when the snapshot
    /// must outlive the engine.
    fn config_ref(&self) -> &Configuration;

    /// The current configuration (decided colors only), cloned.
    fn configuration(&self) -> Configuration {
        self.config_ref().clone()
    }

    /// Number of completed rounds.
    fn round(&self) -> u64;

    /// Advances one synchronous round.
    fn step(&mut self);

    /// Number of undecided nodes (0 for processes without an undecided
    /// state).
    fn undecided(&self) -> u64 {
        0
    }

    /// Number of remaining colors — `O(1)` from the configuration cache.
    fn num_colors(&self) -> usize {
        self.config_ref().num_colors()
    }

    /// Largest support — `O(1)` from the configuration cache.
    fn max_support(&self) -> u64 {
        self.config_ref().max_support()
    }

    /// Bias (gap between the two largest supports) — `O(1)` from the
    /// configuration cache.
    fn bias(&self) -> u64 {
        self.config_ref().bias()
    }

    /// Whether the system has reached consensus: all nodes decided on one
    /// color.
    fn is_consensus(&self) -> bool {
        self.undecided() == 0 && self.config_ref().is_consensus()
    }
}

/// How [`AgentEngine`] draws the Uniform-Pull samples of a round.
///
/// Every mode realizes the same law: a pulled sample is the opinion of a
/// uniformly random node, i.i.d. with replacement. Since only opinions
/// are observable, drawing `opinions[uniform node]` is distributionally
/// identical to drawing the opinion *category* from the current count
/// distribution (undecided included) — which one alias table per round
/// answers in `O(1)` per sample, cache-resident, instead of `n·h`
/// random-access reads of `opinions[]`. The default mode additionally
/// dispatches on what the rule *consumes*
/// ([`crate::process::SampleAccess`]): rules reading only their window's
/// multiset get per-node count vectors from a window-splitting sampler
/// (no window buffer at all), and single-peer rules get exactly one
/// categorical draw per node. The modes consume randomness differently,
/// so they realize different (equally lawful) trajectories — pinned
/// distributionally by the E7-style crossval tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingMode {
    /// Dispatch on the rule's [`crate::process::SampleAccess`]: multiset
    /// rules take per-node window splits, single-peer rules one draw per
    /// node, ordered-window rules the alias path. The default.
    #[default]
    Native,
    /// One alias table per round over the opinion counts; `O(k)` build,
    /// `O(1)` per draw, every rule fed an ordered window. The paired
    /// baseline for the native dispatch (and the pre-taxonomy default).
    AliasTable,
    /// The literal model: `gen_range(0..n)` plus a random-access read per
    /// sample. Kept for cross-validation (E7) and as the bench baseline.
    PerNode,
}

/// How [`AgentEngine`] maintains its per-round state (the opinion
/// sampler and the configuration's derived caches) between rounds.
///
/// Both modes realize the identical process law. They consume the
/// generator differently — the incremental sampler arbitrates its draw
/// backend per round where the rebuild path always builds one
/// `RoundSampler` form — so trajectories diverge per seed, exactly
/// like the [`SamplingMode`]s; crossval tests pin the laws against each
/// other, and the default keeps every historical trajectory byte-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundStateMode {
    /// From-scratch per round: dense `O(k)` weight snapshot, fresh
    /// sampler build, dense `O(k)` cache rebuild. The byte-exact
    /// paired baseline (and the pre-incremental default).
    #[default]
    Rebuild,
    /// Persistent round state: a [`UpdatableSampler`] patched from the
    /// round's touched-slot [`ChangeLog`] (`O(#changed·log k)`), cached
    /// observables re-derived by [`Configuration::apply_change_log`]
    /// (`O(#changed)` amortized) — no dense per-round pass at all.
    Incremental,
}

/// Agent-level engine: simulates each node explicitly.
#[derive(Debug, Clone)]
pub struct AgentEngine<R> {
    rule: R,
    opinions: Vec<Opinion>,
    next_opinions: Vec<Opinion>,
    /// Decided-color counts as a full [`Configuration`], kept in sync
    /// incrementally by [`AgentEngine::record`] so the [`Engine`]
    /// observables need no per-round recount or clone.
    config: Configuration,
    undecided: u64,
    round: u64,
    rng: Pcg64,
    /// Fast stream for the alias-table path. SplitMix64's state update is
    /// a single add, so its serial dependency chain is one cycle per
    /// draw — unlike Pcg64's 128-bit multiply, which dominates the
    /// per-node path's round time.
    fast_rng: SplitMix64,
    mode: SamplingMode,
    /// Scratch for the per-round alias-table weights (`k + 1` slots, the
    /// last one for the undecided pseudo-opinion).
    weights: Vec<f64>,
    /// Native-mode scratch: one node's window histogram (≤ `h` entries).
    window: Vec<(Opinion, u32)>,
    /// Native-mode scratch: positive-weight opinions, decreasing weight.
    native_ops: Vec<Opinion>,
    /// Native-mode scratch: the weights of `native_ops`, same order.
    native_weights: Vec<f64>,
    /// Native-mode scratch: `(weight, category)` pairs for the
    /// decreasing-weight qualifying sort.
    native_order: Vec<(f64, u32)>,
    /// How round state is maintained between rounds.
    round_state: RoundStateMode,
    /// Rebuild-mode persistent sampler: taken out for the round, put
    /// back after — the table buffers survive even though the form is
    /// re-derived per round.
    round_sampler: Option<RoundSampler>,
    /// Incremental-mode persistent sampler over `k + 1` slots (the last
    /// one the undecided pseudo-opinion); patched per round from the
    /// change log. Lazily seeded on first use.
    usampler: Option<UpdatableSampler>,
    /// Incremental-mode touched-slot log feeding
    /// [`Configuration::apply_change_log`] and the sampler patch.
    change_log: ChangeLog,
}

impl<R: UpdateRule> AgentEngine<R> {
    /// Creates an engine with all nodes decided per `config`, using the
    /// default alias-table sampling.
    pub fn new(rule: R, config: &Configuration, seed: u64) -> Self {
        Self::with_sampling(rule, config, seed, SamplingMode::default())
    }

    /// Creates an engine with an explicit [`SamplingMode`].
    pub fn with_sampling(rule: R, config: &Configuration, seed: u64, mode: SamplingMode) -> Self {
        let opinions = config.to_opinions();
        let next_opinions = opinions.clone();
        Self {
            rule,
            opinions,
            next_opinions,
            config: config.clone(),
            undecided: 0,
            round: 0,
            rng: Pcg64::seed_from_u64(seed),
            fast_rng: SplitMix64::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C909),
            mode,
            weights: Vec::new(),
            window: Vec::new(),
            native_ops: Vec::new(),
            native_weights: Vec::new(),
            native_order: Vec::new(),
            round_state: RoundStateMode::default(),
            round_sampler: None,
            usampler: None,
            change_log: ChangeLog::new(),
        }
    }

    /// Selects how round state is maintained between rounds (builder
    /// style). The default [`RoundStateMode::Rebuild`] is the byte-exact
    /// baseline; [`RoundStateMode::Incremental`] patches persistent
    /// state in `O(#changed·log k)` per round.
    pub fn with_round_state(mut self, mode: RoundStateMode) -> Self {
        self.round_state = mode;
        if mode == RoundStateMode::Incremental {
            self.change_log.ensure_slots(self.config.num_slots());
        }
        self
    }

    /// The round-state mode in use.
    pub fn round_state(&self) -> RoundStateMode {
        self.round_state
    }

    /// The per-node opinions of the current round.
    pub fn opinions(&self) -> &[Opinion] {
        &self.opinions
    }

    /// The rule driving this engine.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The sampling mode in use.
    pub fn sampling_mode(&self) -> SamplingMode {
        self.mode
    }

    /// Records node `u`'s transition `own → new`, maintaining the
    /// incremental count/undecided bookkeeping (the configuration's
    /// derived caches are refreshed once per round in [`Engine::step`]).
    #[inline]
    fn record(&mut self, u: usize, own: Opinion, new: Opinion) {
        self.next_opinions[u] = new;
        if new != own {
            if self.round_state == RoundStateMode::Incremental {
                // Note round-start counts before the shift (first touch
                // wins inside the log); the undecided pool is not a
                // configuration slot and is tracked separately.
                if !own.is_undecided() {
                    self.change_log.note(own.index(), self.config.support(own.index()));
                }
                if !new.is_undecided() {
                    self.change_log.note(new.index(), self.config.support(new.index()));
                }
            }
            match (own.is_undecided(), new.is_undecided()) {
                (false, false) => {
                    self.config.shift_unit(Some(own.index()), Some(new.index()));
                }
                (false, true) => {
                    self.config.shift_unit(Some(own.index()), None);
                    self.undecided += 1;
                }
                (true, false) => {
                    self.undecided -= 1;
                    self.config.shift_unit(None, Some(new.index()));
                }
                (true, true) => unreachable!("new == own was excluded"),
            }
        }
    }

    /// The literal sampling path: `n·h` uniform node draws with
    /// random-access opinion reads.
    fn step_per_node(&mut self) {
        let n = self.opinions.len();
        let h = self.rule.sample_count();
        let mut samples = vec![Opinion::new(0); h];
        for u in 0..n {
            for s in samples.iter_mut() {
                // Uniform Pull: sample a uniformly random node (with
                // replacement, possibly u itself) and read its opinion.
                *s = self.opinions[self.rng.gen_range(0..n)];
            }
            let own = self.opinions[u];
            let new = self.rule.update(own, &samples, &mut self.rng);
            self.record(u, own, new);
        }
    }

    /// The alias-table path: one `O(k)` sampler build per round, then
    /// each of the `n·h` samples is an `O(1)` draw from the opinion
    /// distribution — no random-access reads of `opinions[]`.
    ///
    /// When one opinion holds at least half the population — true for
    /// the vast majority of any consensus trajectory — the sampler
    /// switches to run-length form: the i.i.d. stream is generated as
    /// geometric runs of the plurality opinion punctuated by draws from
    /// the conditional distribution, which is distributionally identical
    /// and makes concentrated rounds nearly free.
    fn step_alias(&mut self) {
        // Snapshot the round-start distribution (counts mutate as nodes
        // update, but synchronous semantics sample the old round).
        self.snapshot_weights();
        self.step_alias_with_weights();
    }

    /// The alias-path round body, assuming [`AgentEngine::snapshot_weights`]
    /// already ran this round — shared with the multiset path's diverse
    /// fallback so a fallback round snapshots only once.
    fn step_alias_with_weights(&mut self) {
        let n = self.opinions.len();
        let h = self.rule.sample_count();
        let k = self.config.num_slots();
        // The sampler is persistent: the rebuild re-derives the form but
        // reuses every table buffer, and consumes the stream exactly as
        // the historical from-scratch build did.
        let mut sampler = self.round_sampler.take().unwrap_or_default();
        sampler.rebuild(&self.weights, n as u64, &mut self.fast_rng);
        let decode =
            |idx: usize| if idx == k { Opinion::UNDECIDED } else { Opinion::new(idx as u32) };
        if let SamplerKind::Constant(top) = sampler.kind {
            // Absorbed (or all-undecided) rounds: every pull returns the
            // same opinion, so the sample vector is hoisted out of the
            // node loop entirely — the round is pure rule evaluation.
            let samples = vec![decode(top); h];
            for u in 0..n {
                let own = self.opinions[u];
                let new = self.rule.update(own, &samples, &mut self.fast_rng);
                self.record(u, own, new);
            }
        } else {
            let mut samples = vec![Opinion::new(0); h];
            for u in 0..n {
                for s in samples.iter_mut() {
                    *s = decode(sampler.draw(&mut self.fast_rng));
                }
                let own = self.opinions[u];
                // The rule's internal randomness rides the same fast
                // stream: a Pcg64 draw per tie-break would put the
                // 128-bit multiply latency right back on the critical
                // path.
                let new = self.rule.update(own, &samples, &mut self.fast_rng);
                self.record(u, own, new);
            }
        }
        self.round_sampler = Some(sampler);
    }

    /// Snapshots the round-start opinion distribution into
    /// `self.weights`: `k + 1` categories, the last one the undecided
    /// pseudo-opinion.
    fn snapshot_weights(&mut self) {
        self.weights.clear();
        self.weights.extend(self.config.counts().iter().map(|&c| c as f64));
        self.weights.push(self.undecided as f64);
    }

    /// The single-peer path: one categorical draw per node, no window
    /// buffer. [`SampleAccess::SinglePeer`] guarantees
    /// `update(own, [s], _) == s`, but the (statically dispatched,
    /// trivially inlined) rule call is kept so the path needs no trust
    /// beyond the declared window size.
    fn step_single_peer(&mut self) {
        debug_assert_eq!(self.rule.sample_count(), 1, "single-peer rules pull one sample");
        let n = self.opinions.len();
        let k = self.config.num_slots();
        self.snapshot_weights();
        let mut sampler = self.round_sampler.take().unwrap_or_default();
        sampler.rebuild(&self.weights, n as u64, &mut self.fast_rng);
        let decode =
            |idx: usize| if idx == k { Opinion::UNDECIDED } else { Opinion::new(idx as u32) };
        for u in 0..n {
            let s = decode(sampler.draw(&mut self.fast_rng));
            let own = self.opinions[u];
            let new = self.rule.update(own, &[s], &mut self.fast_rng);
            self.record(u, own, new);
        }
        self.round_sampler = Some(sampler);
    }

    /// The multiset path: rules declaring [`SampleAccess::Multiset`] get
    /// per-node window *histograms* instead of dealt sample sequences —
    /// lawful because i.i.d. windows are exchangeable, and per-node
    /// windows under Uniform Pull are independent `Mult(h, p)` draws.
    ///
    /// A [`WindowMultinomial`] walk with all conditional binomials
    /// cached delivers a window in [`expected_window_visits`] draws —
    /// ~one once a category dominates, versus `h` draws plus window
    /// writes on the ordered path — so the walk runs exactly when that
    /// statistic beats `h`; otherwise the round takes the ordered alias
    /// path unchanged (a multiset rule consumes an ordered window just
    /// fine, so the fallback costs nothing over the pre-taxonomy
    /// behaviour).
    fn step_multiset(&mut self) {
        let n = self.opinions.len();
        let h = self.rule.sample_count();
        let k = self.config.num_slots();
        if h <= 1 {
            // A one-draw window walk can never beat one draw: with d ≥ 2
            // live categories the expected visit count exceeds 1, so the
            // walk statistic would reject every round — skip straight to
            // the alias path (h = 1 multiset rules like the undecided
            // dynamics consume an ordered 1-window identically).
            return self.step_alias();
        }
        self.snapshot_weights();

        // Positive categories, by decreasing weight so the window walk's
        // early exit bites.
        let d = self.weights.iter().filter(|&&w| w > 0.0).count();
        if d > WALK_CANDIDATE_CAP {
            return self.step_alias_with_weights();
        }
        self.native_ops.clear();
        self.native_weights.clear();
        self.native_order.clear();
        self.native_order.extend(
            self.weights.iter().enumerate().filter(|&(_, &w)| w > 0.0).map(|(i, &w)| (w, i as u32)),
        );
        self.native_order.sort_by(|a, b| b.0.total_cmp(&a.0));
        let decode =
            |idx: usize| if idx == k { Opinion::UNDECIDED } else { Opinion::new(idx as u32) };
        for &(w, i) in &self.native_order {
            self.native_ops.push(decode(i as usize));
            self.native_weights.push(w);
        }

        if d == 1 {
            // Absorbed round: every window is h copies of the one
            // surviving opinion — pure rule evaluation.
            self.window.clear();
            self.window.push((self.native_ops[0], h as u32));
            for u in 0..n {
                let own = self.opinions[u];
                let new = self
                    .rule
                    .as_multiset()
                    .expect("Multiset access requires a MultisetRule impl")
                    .update_from_counts(own, &self.window, &mut self.fast_rng);
                self.record(u, own, new);
            }
            return;
        }

        if expected_window_visits(&self.native_weights, h) > h as f64 {
            // Too diverse for the walk to pay: the ordered path is the
            // better delivery of the same law.
            return self.step_alias_with_weights();
        }

        let walk = WindowMultinomial::new(&self.native_weights, h);
        for u in 0..n {
            self.window.clear();
            let ops = &self.native_ops;
            let window = &mut self.window;
            walk.sample_window(&mut self.fast_rng, |j, x| window.push((ops[j], x as u32)));
            let own = self.opinions[u];
            let new = self
                .rule
                .as_multiset()
                .expect("Multiset access requires a MultisetRule impl")
                .update_from_counts(own, &self.window, &mut self.fast_rng);
            self.record(u, own, new);
        }
    }

    /// The incremental ordered/single-peer path: draws every sample from
    /// the persistent [`UpdatableSampler`], which was patched to the
    /// round-start counts at the end of the previous round — no dense
    /// weight snapshot, no sampler build. [`UpdatableSampler::prepare`]
    /// arbitrates the draw backend for the round's `n·h` draws.
    fn step_updatable(&mut self) {
        let n = self.opinions.len();
        let h = self.rule.sample_count();
        let k = self.config.num_slots();
        let mut sampler = match self.usampler.take() {
            Some(s) => s,
            None => {
                // First use: seed from the occupied slots, O(#occupied·log k).
                let mut s = UpdatableSampler::with_slots(k + 1);
                for &slot in self.config.occupied() {
                    s.set(slot as usize, self.config.support(slot as usize));
                }
                s.set(k, self.undecided);
                s
            }
        };
        sampler.prepare((n as u64).saturating_mul(h as u64));
        let decode =
            |idx: usize| if idx == k { Opinion::UNDECIDED } else { Opinion::new(idx as u32) };
        if let Some(top) = sampler.constant() {
            // Absorbed (or all-undecided) rounds: pure rule evaluation.
            let samples = vec![decode(top); h];
            for u in 0..n {
                let own = self.opinions[u];
                let new = self.rule.update(own, &samples, &mut self.fast_rng);
                self.record(u, own, new);
            }
        } else {
            let mut samples = vec![Opinion::new(0); h];
            for u in 0..n {
                for s in samples.iter_mut() {
                    *s = decode(sampler.sample(&mut self.fast_rng));
                }
                let own = self.opinions[u];
                let new = self.rule.update(own, &samples, &mut self.fast_rng);
                self.record(u, own, new);
            }
        }
        self.usampler = Some(sampler);
    }

    /// The incremental multiset path: identical window-walk dispatch to
    /// [`AgentEngine::step_multiset`], but the occupancy `d` comes from
    /// the configuration's exact occupied list (`O(1)`) instead of a
    /// dense weight scan, the qualifying sort runs over the occupied
    /// slots only, and the diverse/one-draw fallbacks go through the
    /// persistent sampler instead of a fresh alias build.
    fn step_multiset_incremental(&mut self) {
        let n = self.opinions.len();
        let h = self.rule.sample_count();
        let k = self.config.num_slots();
        let d = self.config.num_colors() + usize::from(self.undecided > 0);
        if h <= 1 || d > WALK_CANDIDATE_CAP {
            // One-draw windows can't beat one draw, and past the cap the
            // qualifying sort costs more than a walk round saves.
            return self.step_updatable();
        }
        // Positive categories by decreasing weight, from the occupied
        // list: same enumeration order as the dense scan (ascending
        // slots, undecided last), so the stable sort ties break alike.
        self.native_ops.clear();
        self.native_weights.clear();
        self.native_order.clear();
        self.native_order.extend(
            self.config.occupied().iter().map(|&i| (self.config.support(i as usize) as f64, i)),
        );
        if self.undecided > 0 {
            self.native_order.push((self.undecided as f64, k as u32));
        }
        self.native_order.sort_by(|a, b| b.0.total_cmp(&a.0));
        let decode =
            |idx: usize| if idx == k { Opinion::UNDECIDED } else { Opinion::new(idx as u32) };
        for &(w, i) in &self.native_order {
            self.native_ops.push(decode(i as usize));
            self.native_weights.push(w);
        }

        if d == 1 {
            // Absorbed round: every window is h copies of the one
            // surviving opinion — pure rule evaluation.
            self.window.clear();
            self.window.push((self.native_ops[0], h as u32));
            for u in 0..n {
                let own = self.opinions[u];
                let new = self
                    .rule
                    .as_multiset()
                    .expect("Multiset access requires a MultisetRule impl")
                    .update_from_counts(own, &self.window, &mut self.fast_rng);
                self.record(u, own, new);
            }
            return;
        }

        if expected_window_visits(&self.native_weights, h) > h as f64 {
            return self.step_updatable();
        }

        let walk = WindowMultinomial::new(&self.native_weights, h);
        for u in 0..n {
            self.window.clear();
            let ops = &self.native_ops;
            let window = &mut self.window;
            walk.sample_window(&mut self.fast_rng, |j, x| window.push((ops[j], x as u32)));
            let own = self.opinions[u];
            let new = self
                .rule
                .as_multiset()
                .expect("Multiset access requires a MultisetRule impl")
                .update_from_counts(own, &self.window, &mut self.fast_rng);
            self.record(u, own, new);
        }
    }
}

impl<R: UpdateRule> Engine for AgentEngine<R> {
    fn config_ref(&self) -> &Configuration {
        &self.config
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn undecided(&self) -> u64 {
        self.undecided
    }

    fn step(&mut self) {
        if !self.opinions.is_empty() {
            let incremental = self.round_state == RoundStateMode::Incremental;
            match self.mode {
                SamplingMode::Native => match (self.rule.sample_access(), incremental) {
                    (SampleAccess::OrderedWindow, false) => self.step_alias(),
                    (SampleAccess::Multiset, false) => self.step_multiset(),
                    (SampleAccess::SinglePeer, false) => self.step_single_peer(),
                    (SampleAccess::Multiset, true) => self.step_multiset_incremental(),
                    (_, true) => self.step_updatable(),
                },
                SamplingMode::AliasTable if incremental => self.step_updatable(),
                SamplingMode::AliasTable => self.step_alias(),
                SamplingMode::PerNode => self.step_per_node(),
            }
            std::mem::swap(&mut self.opinions, &mut self.next_opinions);
            if incremental {
                // Patch the persistent sampler from the touched slots
                // (the log still holds them), then re-derive the cached
                // observables in O(#changed) — no dense pass at all.
                if let Some(s) = self.usampler.as_mut() {
                    for &slot in self.change_log.touched() {
                        s.set(slot as usize, self.config.support(slot as usize));
                    }
                    let k = self.config.num_slots();
                    s.set(k, self.undecided);
                }
                self.config.apply_change_log(&mut self.change_log);
            } else {
                // `record` defers every derived cache (an exact per-shift
                // occupancy list would make many-color rounds quadratic);
                // one O(k) rebuild per round keeps the observables exact
                // and is dominated by the O(n·h) round itself.
                self.config.rebuild_caches();
            }
        }
        self.round += 1;
    }
}

/// Plurality mass above which [`RoundSampler`] uses run-length form.
const RUN_LENGTH_THRESHOLD: f64 = 0.5;

/// Truncation point of the run-length alias table: run lengths `0..L`
/// draw in `O(1)`; the `≥ L` tail (probability `p_top^L`) falls back to
/// the logarithm-based geometric sampler, shifted by `L`.
const RUN_TABLE_LEN: usize = 64;

/// Per-round sampler over the opinion distribution (categories `0..k`
/// are decided colors, category `k` is undecided).
///
/// All three forms realize the same i.i.d. law; the form is chosen from
/// the round-start counts:
///
/// * `Constant` — one opinion holds everything (absorbed state): no
///   randomness needed at all.
/// * `RunLength` — an opinion holds ≥ half the mass: emit geometric
///   runs of it, punctuated by conditional draws. A run of length `G ∼
///   Geom(1−p)` followed by one conditional draw is exactly the
///   run-length encoding of i.i.d. categorical draws with an atom `p`.
///   Run lengths come from an alias table over the truncated geometric
///   pmf (`O(1)` per run) — the logarithm-based [`Geometric`] inversion
///   costs tens of nanoseconds and would otherwise run once per
///   non-plurality sample; it serves only the `≥ RUN_TABLE_LEN` tail,
///   which is exact by memorylessness.
/// * `Alias` — the general case: Vose alias table, `O(1)` per draw.
///
/// The struct persists across rounds in the engine: the per-round
/// [`rebuild`](Self::rebuild) re-derives the *form* from the fresh
/// weights but routes every table through [`Categorical::rebuild`], so
/// no round allocates — and it consumes the generator exactly as the
/// historical from-scratch build did (the only draw is the opening run
/// length, in the same stream position), keeping rebuild-mode
/// trajectories byte-exact.
#[derive(Debug, Clone)]
struct RoundSampler {
    kind: SamplerKind,
    run_table: Categorical,
    tail: Geometric,
    conditional: Categorical,
    alias: Categorical,
    /// Scratch for the truncated-geometric run-length pmf.
    run_weights: Vec<f64>,
    /// Scratch for the conditional (plurality-zeroed) weights.
    conditional_weights: Vec<f64>,
}

/// The form [`RoundSampler::rebuild`] chose for the current round.
#[derive(Debug, Clone, Copy)]
enum SamplerKind {
    Constant(usize),
    RunLength { top: usize, run: u64 },
    Alias,
}

impl Default for RoundSampler {
    fn default() -> Self {
        Self {
            kind: SamplerKind::Constant(0),
            run_table: Categorical::new(&[1.0]),
            tail: Geometric::new(1.0),
            conditional: Categorical::new(&[1.0]),
            alias: Categorical::new(&[1.0]),
            run_weights: Vec::new(),
            conditional_weights: Vec::new(),
        }
    }
}

impl RoundSampler {
    fn rebuild(&mut self, weights: &[f64], total: u64, rng: &mut SplitMix64) {
        let mut top = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            if w > weights[top] {
                top = i;
            }
        }
        let p_top = weights[top] / total as f64;
        if p_top >= 1.0 {
            self.kind = SamplerKind::Constant(top);
            return;
        }
        if p_top >= RUN_LENGTH_THRESHOLD {
            self.conditional_weights.clear();
            self.conditional_weights.extend_from_slice(weights);
            self.conditional_weights[top] = 0.0;
            let q = 1.0 - p_top;
            // P(run = g) = q·p^g for g < L, P(run ≥ L) = p^L.
            self.run_weights.clear();
            let mut pg = 1.0f64;
            for _ in 0..RUN_TABLE_LEN {
                self.run_weights.push(q * pg);
                pg *= p_top;
            }
            self.run_weights.push(pg);
            self.run_table.rebuild(&self.run_weights);
            self.tail = Geometric::new(q);
            let run = Self::draw_run(&self.run_table, &self.tail, rng);
            self.conditional.rebuild(&self.conditional_weights);
            self.kind = SamplerKind::RunLength { top, run };
            return;
        }
        self.alias.rebuild(weights);
        self.kind = SamplerKind::Alias;
    }

    /// Draws one run length: `O(1)` from the truncated table, with the
    /// geometric tail handled exactly via memorylessness.
    #[inline]
    fn draw_run(run_table: &Categorical, tail: &Geometric, rng: &mut SplitMix64) -> u64 {
        let g = run_table.sample(rng);
        if g < RUN_TABLE_LEN {
            g as u64
        } else {
            RUN_TABLE_LEN as u64 + tail.sample(rng)
        }
    }

    #[inline]
    fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        match &mut self.kind {
            SamplerKind::Constant(top) => *top,
            SamplerKind::RunLength { top, run } => {
                if *run > 0 {
                    *run -= 1;
                    *top
                } else {
                    let s = self.conditional.sample(rng);
                    *run = Self::draw_run(&self.run_table, &self.tail, rng);
                    s
                }
            }
            SamplerKind::Alias => self.alias.sample(rng),
        }
    }
}

/// Vectorized engine: one exact draw from the one-step law per round,
/// taken in place via [`VectorStep::vector_step_into`] — allocation-free
/// and `O(#occupied)` for the rules in this crate.
#[derive(Debug, Clone)]
pub struct VectorEngine<R> {
    rule: R,
    config: Configuration,
    round: u64,
    rng: Pcg64,
    compact: bool,
}

impl<R: VectorStep> VectorEngine<R> {
    /// Creates an engine starting from `config`.
    pub fn new(rule: R, config: Configuration, seed: u64) -> Self {
        Self { rule, config, round: 0, rng: Pcg64::seed_from_u64(seed), compact: false }
    }

    /// Enables zero-slot compaction after every round.
    ///
    /// Historically this was what kept long runs at `O(remaining colors)`
    /// per round; the occupancy-aware configuration now does that by
    /// itself, so this is a thin wrapper around the `O(#occupied)`
    /// [`Configuration::compact_in_place`] — kept because it also trims
    /// the dense buffer (memory) and renumbers colors exactly as before.
    /// Renumbering means: use only with permutation-invariant observables
    /// (see [`Configuration::compacted`]).
    pub fn with_compaction(mut self) -> Self {
        self.compact = true;
        self.config.compact_in_place();
        self
    }

    /// The rule driving this engine.
    pub fn rule(&self) -> &R {
        &self.rule
    }
}

impl<R: VectorStep> Engine for VectorEngine<R> {
    fn config_ref(&self) -> &Configuration {
        &self.config
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self) {
        self.rule.vector_step_into(&mut self.config, &mut self.rng);
        if self.compact {
            self.config.compact_in_place();
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{ThreeMajority, TwoChoices, UndecidedDynamics, Voter};

    #[test]
    fn agent_engine_preserves_population() {
        let c = Configuration::uniform(200, 8);
        let mut e = AgentEngine::new(ThreeMajority, &c, 1);
        for _ in 0..20 {
            e.step();
            let cfg = e.configuration();
            assert_eq!(cfg.n() + e.undecided(), 200);
        }
        assert_eq!(e.round(), 20);
    }

    #[test]
    fn vector_engine_preserves_population() {
        let c = Configuration::uniform(500, 10);
        let mut e = VectorEngine::new(Voter, c, 2);
        for _ in 0..20 {
            e.step();
            assert_eq!(e.configuration().n(), 500);
        }
    }

    #[test]
    fn consensus_detected_and_absorbing_agent() {
        let c = Configuration::consensus(50, 3);
        let mut e = AgentEngine::new(TwoChoices, &c, 3);
        assert!(e.is_consensus());
        e.step();
        assert!(e.is_consensus());
        assert_eq!(e.configuration().support(0), 50);
    }

    #[test]
    fn small_voter_run_reaches_consensus_both_engines() {
        let c = Configuration::uniform(40, 4);
        let mut agent = AgentEngine::new(Voter, &c, 4);
        let mut vector = VectorEngine::new(Voter, c, 5);
        for e in [&mut agent as &mut dyn Engine, &mut vector as &mut dyn Engine] {
            let mut rounds = 0;
            while !e.is_consensus() && rounds < 100_000 {
                e.step();
                rounds += 1;
            }
            assert!(e.is_consensus(), "no consensus after {rounds} rounds");
        }
    }

    #[test]
    fn incremental_counts_match_recount() {
        let c = Configuration::uniform(120, 6);
        let mut e = AgentEngine::new(ThreeMajority, &c, 6);
        for _ in 0..10 {
            e.step();
            let from_counts = e.configuration();
            let recounted = Configuration::from_opinions(e.opinions(), 6);
            assert_eq!(from_counts, recounted);
        }
    }

    #[test]
    fn undecided_tracked_by_agent_engine() {
        let c = Configuration::singletons(64);
        let mut e = AgentEngine::new(UndecidedDynamics, &c, 7);
        e.step();
        assert!(e.undecided() > 0, "singleton start must create undecided nodes");
        assert!(!e.is_consensus());
        assert_eq!(e.configuration().n() + e.undecided(), 64);
    }

    #[test]
    fn engines_deterministic_per_seed() {
        let c = Configuration::uniform(100, 5);
        let run = |seed: u64| {
            let mut e = AgentEngine::new(ThreeMajority, &c, seed);
            for _ in 0..5 {
                e.step();
            }
            e.configuration()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn compaction_keeps_slots_equal_to_colors() {
        let c = Configuration::singletons(200);
        let mut e = VectorEngine::new(Voter, c, 9).with_compaction();
        let mut rounds = 0;
        while !e.is_consensus() && rounds < 100_000 {
            e.step();
            rounds += 1;
            let cfg = e.configuration();
            assert_eq!(cfg.num_slots(), cfg.num_colors(), "no dead slots after compaction");
            assert_eq!(cfg.n(), 200, "population preserved");
        }
        assert!(e.is_consensus(), "compacting engine still reaches consensus");
        assert_eq!(e.configuration().num_slots(), 1);
    }

    #[test]
    fn compaction_mean_consensus_time_matches_plain() {
        // Compaction must not change the process law: compare mean
        // consensus times of plain vs compacting engines over trials.
        let c = Configuration::singletons(64);
        let trials = 400u64;
        let mut sum_plain = 0u64;
        let mut sum_compact = 0u64;
        for t in 0..trials {
            let mut plain = VectorEngine::new(ThreeMajority, c.clone(), 50_000 + t);
            let mut compact =
                VectorEngine::new(ThreeMajority, c.clone(), 90_000 + t).with_compaction();
            for e in [&mut plain as &mut dyn Engine, &mut compact as &mut dyn Engine] {
                while !e.is_consensus() {
                    e.step();
                }
            }
            sum_plain += plain.round();
            sum_compact += compact.round();
        }
        let mp = sum_plain as f64 / trials as f64;
        let mc = sum_compact as f64 / trials as f64;
        assert!(
            (mp - mc).abs() < 0.15 * mp,
            "compaction changed the consensus-time law: {mp} vs {mc}"
        );
    }

    #[test]
    fn incremental_round_state_matches_recount_per_rule() {
        // The O(#changed) path must keep counts and caches exact along
        // whole trajectories, for every SampleAccess flavor. (Debug
        // builds additionally recount the caches densely inside every
        // apply_change_log call.)
        let c = Configuration::singletons(150);
        let mut voter =
            AgentEngine::new(Voter, &c, 11).with_round_state(RoundStateMode::Incremental);
        let mut two =
            AgentEngine::new(TwoChoices, &c, 12).with_round_state(RoundStateMode::Incremental);
        let mut three =
            AgentEngine::new(ThreeMajority, &c, 13).with_round_state(RoundStateMode::Incremental);
        for _ in 0..30 {
            voter.step();
            assert_eq!(voter.configuration(), Configuration::from_opinions(voter.opinions(), 150));
            two.step();
            assert_eq!(two.configuration(), Configuration::from_opinions(two.opinions(), 150));
            three.step();
            assert_eq!(three.configuration(), Configuration::from_opinions(three.opinions(), 150));
        }
    }

    #[test]
    fn incremental_undecided_dynamics_conserves_mass() {
        let c = Configuration::singletons(64);
        let mut e = AgentEngine::new(UndecidedDynamics, &c, 17)
            .with_round_state(RoundStateMode::Incremental);
        for _ in 0..40 {
            e.step();
            assert_eq!(e.configuration().n() + e.undecided(), 64);
            assert_eq!(e.configuration(), Configuration::from_opinions(e.opinions(), 64));
        }
    }

    #[test]
    fn incremental_deterministic_per_seed_and_reaches_consensus() {
        let c = Configuration::uniform(80, 4);
        let run = |seed: u64| {
            let mut e =
                AgentEngine::new(Voter, &c, seed).with_round_state(RoundStateMode::Incremental);
            let mut rounds = 0;
            while !e.is_consensus() && rounds < 100_000 {
                e.step();
                rounds += 1;
            }
            assert!(e.is_consensus(), "no consensus after {rounds} rounds");
            (e.round(), e.configuration())
        };
        assert_eq!(run(23), run(23));
    }

    #[test]
    fn incremental_vs_rebuild_one_step_means_agree() {
        // Same law, different randomness consumption: the one-round mean
        // support of color 0 must agree across round-state modes.
        let c = Configuration::from_counts(vec![30, 20, 10]);
        let trials = 4_000;
        let mut sum_rebuild = 0u64;
        let mut sum_incr = 0u64;
        for t in 0..trials {
            let mut r = AgentEngine::new(ThreeMajority, &c, 3000 + t);
            r.step();
            sum_rebuild += r.configuration().support(0);
            let mut i = AgentEngine::new(ThreeMajority, &c, 4000 + t)
                .with_round_state(RoundStateMode::Incremental);
            i.step();
            sum_incr += i.configuration().support(0);
        }
        let mr = sum_rebuild as f64 / trials as f64;
        let mi = sum_incr as f64 / trials as f64;
        assert!((mr - mi).abs() < 0.5, "rebuild {mr} vs incremental {mi}");
    }

    #[test]
    fn agent_vs_vector_one_step_means_agree() {
        // E7 in miniature: the one-round mean support of color 0 must agree
        // between the two engines for an AC process.
        let c = Configuration::from_counts(vec![30, 20, 10]);
        let trials = 4_000;
        let mut sum_agent = 0u64;
        let mut sum_vector = 0u64;
        for t in 0..trials {
            let mut a = AgentEngine::new(ThreeMajority, &c, 1000 + t);
            a.step();
            sum_agent += a.configuration().support(0);
            let mut v = VectorEngine::new(ThreeMajority, c.clone(), 2000 + t);
            v.step();
            sum_vector += v.configuration().support(0);
        }
        let ma = sum_agent as f64 / trials as f64;
        let mv = sum_vector as f64 / trials as f64;
        assert!((ma - mv).abs() < 0.5, "agent {ma} vs vector {mv}");
    }
}
