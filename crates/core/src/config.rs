//! Configurations: the system state `c ∈ N₀^k` with `Σ cᵢ = n`.
//!
//! The paper describes the state of the complete graph purely by the
//! support counts of each color (Section 2.1). [`Configuration`] maintains
//! that vector together with the invariant `Σ cᵢ = n` and exposes the
//! observables the analysis tracks: number of remaining colors, maximum
//! support, bias, and the majorization preorder.
//!
//! # Occupancy-aware representation
//!
//! The many-color regime the paper's separation lives in (`k = n`
//! singleton starts, Theorem 5) makes the dense vector the wrong unit of
//! work: within a few rounds almost every slot is empty, yet a dense scan
//! still pays `O(k)`. The configuration therefore carries, alongside the
//! positional `counts` vector (color identity stays positional):
//!
//! * an **occupied-slot list** — the ascending indices with non-zero
//!   support, so iteration is `O(#occupied)`;
//! * **cached observables** — `n`, the number of colors, the two largest
//!   supports, and `Σ cᵢ²` — refreshed in the same `O(#occupied)` pass
//!   that rewrites a round, so [`Configuration::num_colors`],
//!   [`Configuration::max_support`], [`Configuration::bias`], and
//!   [`Configuration::l2_norm_sq`] are `O(1)`.
//!
//! Every process in this crate has `αᵢ(c) = 0` whenever `cᵢ = 0` (dead
//! colors stay dead), so the occupied list only ever shrinks along a
//! trajectory — which is exactly why sparse stepping via
//! [`Configuration::rewrite_occupied`] makes singleton-start rounds
//! `O(#surviving colors)` instead of `O(k)`.

use std::hash::{Hash, Hasher};

use symbreak_majorization::vector as major;

use crate::opinion::Opinion;

/// A population configuration: `counts[i]` nodes currently support color
/// `i`; the total is the population size `n`.
///
/// Equality and hashing consider only the counts and the population size;
/// the occupancy list and cached observables are derived data.
#[derive(Debug, Clone)]
pub struct Configuration {
    counts: Vec<u64>,
    n: u64,
    /// Ascending slot indices with `counts[i] > 0`.
    occupied: Vec<u32>,
    /// `Σ cᵢ²` — exact, so `‖x‖₂²` is one division.
    sum_sq: u128,
    /// Largest support.
    max_support: u64,
    /// Second-largest support (as a multiset: equals `max_support` when
    /// two slots tie for the lead; 0 when fewer than two colors remain).
    second_support: u64,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.counts == other.counts
    }
}

impl Eq for Configuration {}

impl Hash for Configuration {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.counts.hash(state);
        self.n.hash(state);
    }
}

impl Configuration {
    /// Creates a configuration from explicit per-color counts.
    ///
    /// Trailing zero colors are retained (color identity is positional).
    ///
    /// # Panics
    /// Panics if `counts` is empty or has more than `u32::MAX` slots.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "configuration needs at least one color slot");
        let n = counts.iter().sum();
        let mut cfg =
            Self { counts, n, occupied: Vec::new(), sum_sq: 0, max_support: 0, second_support: 0 };
        cfg.rebuild_caches();
        cfg
    }

    /// Creates a configuration over `num_slots` slots from sparse
    /// `(slot, count)` pairs, in `O(num_slots + #pairs)` without an
    /// intermediate dense vector at the call site. Pairs may repeat a
    /// slot (they accumulate) and zero counts are skipped — the
    /// histogram-backed shard representation seeds its local state
    /// through this from a coordinator snapshot body.
    ///
    /// # Panics
    /// Panics if `num_slots` is zero or a pair names a slot at or
    /// beyond it.
    pub fn from_sparse(num_slots: usize, pairs: &[(u32, u64)]) -> Self {
        assert!(num_slots >= 1, "configuration needs at least one color slot");
        let mut cfg = Self {
            counts: vec![0; num_slots],
            n: 0,
            occupied: Vec::new(),
            sum_sq: 0,
            max_support: 0,
            second_support: 0,
        };
        cfg.rebuild_sparse(std::iter::once(pairs));
        cfg
    }

    /// The consensus configuration: all `n` nodes on one color (slot 0 of
    /// `k` slots).
    pub fn consensus(n: u64, k: usize) -> Self {
        assert!(k >= 1, "need at least one color slot");
        let mut counts = vec![0; k];
        counts[0] = n;
        Self::from_counts(counts)
    }

    /// The balanced configuration on `k` colors: each color has `n/k`
    /// nodes, with the remainder spread over the first `n mod k` colors.
    pub fn uniform(n: u64, k: usize) -> Self {
        assert!(k >= 1, "need at least one color");
        assert!(n >= k as u64, "need at least one node per color");
        let base = n / k as u64;
        let extra = (n % k as u64) as usize;
        let counts = (0..k).map(|i| base + u64::from(i < extra)).collect();
        Self::from_counts(counts)
    }

    /// The leader-election start: `n` nodes with pairwise distinct colors.
    pub fn singletons(n: u64) -> Self {
        assert!(n >= 1, "need at least one node");
        Self::from_counts(vec![1; n as usize])
    }

    /// A biased configuration: color 0 receives `bias` extra nodes, the
    /// rest is split as evenly as possible over all `k` colors.
    ///
    /// # Panics
    /// Panics if `bias > n` or `n − bias < k`.
    pub fn biased(n: u64, k: usize, bias: u64) -> Self {
        assert!(bias <= n, "bias cannot exceed n");
        let rest = n - bias;
        let mut cfg = Self::uniform(rest, k);
        cfg.counts[0] += bias;
        cfg.n = n;
        cfg.rebuild_caches();
        cfg
    }

    /// Recomputes the occupancy list and cached observables from the
    /// counts in `O(k)`. `n` is left untouched (it is the authoritative
    /// mass target that [`Configuration::validate`] checks against).
    pub(crate) fn rebuild_caches(&mut self) {
        assert!(self.counts.len() <= u32::MAX as usize, "too many color slots");
        self.occupied.clear();
        let mut sum_sq = 0u128;
        let mut first = 0u64;
        let mut second = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            self.occupied.push(i as u32);
            sum_sq += (c as u128) * (c as u128);
            if c >= first {
                second = first;
                first = c;
            } else if c > second {
                second = c;
            }
        }
        self.sum_sq = sum_sq;
        self.max_support = first;
        self.second_support = second;
    }

    /// Population size `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of color slots `k` (including empty ones).
    pub fn num_slots(&self) -> usize {
        self.counts.len()
    }

    /// Number of colors with non-zero support ("remaining colors"). `O(1)`.
    pub fn num_colors(&self) -> usize {
        self.occupied.len()
    }

    /// Support of color `i` (0 for out-of-range slots).
    pub fn support(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// The raw count vector.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The ascending slot indices with non-zero support.
    pub fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// The supports of the occupied slots, in ascending slot order.
    pub fn occupied_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.occupied.iter().map(move |&i| self.counts[i as usize])
    }

    /// Mutable access for processes that rewrite supports directly (e.g.
    /// the adversary). The caller must restore `Σ cᵢ = n`; this is checked
    /// in debug builds on the next [`Configuration::validate`] call. The
    /// occupancy list and cached observables are refreshed (`O(k)`) when
    /// the returned guard drops.
    pub fn counts_mut(&mut self) -> CountsMut<'_> {
        CountsMut { cfg: self }
    }

    /// Rewrites the supports of the occupied slots in one pass, then
    /// refreshes the occupancy list and cached observables in
    /// `O(#occupied)`.
    ///
    /// `f` receives the occupied-slot list and the dense counts buffer;
    /// it may write any values at the occupied slots (slots dropping to
    /// zero leave the occupancy list) but must leave every other slot at
    /// zero — this is the "dead colors stay dead" invariant every process
    /// in this crate satisfies. The population size is re-derived from
    /// the written counts, so mass-changing rewrites (e.g. the undecided
    /// dynamics trading decided mass against undecided nodes) are
    /// supported.
    pub fn rewrite_occupied<F>(&mut self, f: F)
    where
        F: FnOnce(&[u32], &mut [u64]),
    {
        let occ = std::mem::take(&mut self.occupied);
        f(&occ, &mut self.counts);
        self.occupied = occ;
        self.refresh_after_rewrite();
    }

    /// Replaces the supports of the occupied slots with the element-wise
    /// sum of the given sparse `(slot, count)` parts (e.g. per-shard
    /// reports of a distributed run), in `O(#occupied + Σ|partᵢ|)` with
    /// no allocation.
    ///
    /// Built on [`Configuration::rewrite_occupied`]: every part may only
    /// name slots that are currently occupied — the "dead colors stay
    /// dead" invariant every process in this crate satisfies (an opinion
    /// with zero global support cannot be sampled, so it cannot
    /// reappear). Pairs within a part may come in any order. Slots named
    /// by no part drop out of the occupancy list. The population size is
    /// re-derived from the merged counts, so parts whose total mass
    /// differs from `n` (e.g. undecided-dynamics shards holding back
    /// undecided nodes) are supported.
    ///
    /// # Panics
    /// Panics if a part names a slot with no current support: debug
    /// builds pinpoint the slot per entry; release builds catch any
    /// violation through an `O(1)`-per-entry mass check (mass written to
    /// a dead slot is invisible to the occupancy rescan, so the folded
    /// total and the re-derived `n` can only disagree — and always do —
    /// when the invariant was broken).
    pub fn merge_sparse<'a, I>(&mut self, parts: I)
    where
        I: IntoIterator<Item = &'a [(u32, u64)]>,
    {
        let mut folded = 0u64;
        self.rewrite_occupied(|occ, counts| {
            for &i in occ {
                counts[i as usize] = 0;
            }
            for part in parts {
                for &(slot, count) in part {
                    debug_assert!(
                        occ.binary_search(&slot).is_ok(),
                        "merge_sparse: slot {slot} has no support (dead colors stay dead)"
                    );
                    counts[slot as usize] += count;
                    folded += count;
                }
            }
        });
        assert_eq!(
            self.n, folded,
            "merge_sparse: a part named a slot with no support (dead colors stay dead)"
        );
    }

    /// Applies sparse signed per-slot deltas (e.g. per-shard *delta*
    /// reports of a distributed run) to the occupied slots in
    /// `O(m log m)` for `m = Σ|partᵢ|` entries (one sort deduplicates
    /// the touched slots), plus one memmove of the occupancy list's tail
    /// when slots die and a rare `O(#occupied)` top-two rescan when a
    /// leading slot was touched.
    ///
    /// This is the delta-control-plane sibling of
    /// [`Configuration::merge_sparse`]: where `merge_sparse` replaces the
    /// occupied supports with a sum of absolute parts, `apply_deltas`
    /// shifts them by `Σ parts` — so a round in which almost nothing
    /// changed costs `O(#changed)` both on the wire and in the fold.
    /// Every part may only name slots that are currently occupied (dead
    /// colors stay dead — an opinion with zero global support cannot be
    /// sampled, so no delta can land on it), deltas for the same slot
    /// accumulate, and slots whose support reaches zero drop out of the
    /// occupancy list. The population size follows the deltas, so
    /// mass-changing delta streams (undecided-dynamics shards trading
    /// decided mass against undecided nodes) are supported.
    ///
    /// Each entry updates its count, `n` and `Σ cᵢ²` exactly in `O(1)`.
    /// The top-two supports stream: when every entry landed on a slot
    /// holding less than the old second support, neither leading slot
    /// was touched, so the old `(max, second)` still bound every
    /// untouched slot and folding in the touched slots' final counts is
    /// exact. Otherwise (or with fewer than two colors left) one
    /// `O(#occupied)` rescan re-derives them.
    ///
    /// ```
    /// use symbreak_core::Configuration;
    ///
    /// let mut c = Configuration::from_counts(vec![4, 0, 3, 3]);
    /// // Two shards report what changed: one unit moves slot 2 -> slot 0.
    /// c.apply_deltas([&[(2u32, -1i64)][..], &[(0, 1)][..]]);
    /// assert_eq!(c.counts(), &[5, 0, 2, 3]);
    /// assert_eq!(c.n(), 10);
    /// ```
    ///
    /// # Panics
    /// Panics if a delta drives a slot's support negative, or if a part
    /// names a slot with no support when the call began (checked per
    /// entry: an entry finding its slot at zero binary-searches the
    /// not-yet-compacted occupancy list).
    pub fn apply_deltas<'a, I>(&mut self, parts: I)
    where
        I: IntoIterator<Item = &'a [(u32, i64)]>,
    {
        let mut touched: Vec<u32> = Vec::new();
        let mut leaders_untouched = true;
        for part in parts {
            for &(slot, delta) in part {
                let old = self.counts[slot as usize];
                if old == 0 {
                    // Zero now: live at the start of the call only if
                    // an earlier entry drained it (it is still listed).
                    assert!(
                        self.occupied.binary_search(&slot).is_ok(),
                        "apply_deltas: slot {slot} has no support (dead colors stay dead)"
                    );
                }
                let c = old as i128 + i128::from(delta);
                assert!(c >= 0, "apply_deltas: slot {slot} support went negative ({c})");
                let new = c as u64;
                self.counts[slot as usize] = new;
                self.n = (self.n as i128 + i128::from(delta)) as u64;
                self.sum_sq =
                    self.sum_sq - (old as u128) * (old as u128) + (new as u128) * (new as u128);
                leaders_untouched &= old < self.second_support;
                touched.push(slot);
            }
        }
        if touched.is_empty() {
            return;
        }
        touched.sort_unstable();
        touched.dedup();
        self.remove_dead(&touched);
        if leaders_untouched && self.occupied.len() >= 2 {
            let (mut first, mut second) = (self.max_support, self.second_support);
            for &slot in &touched {
                let c = self.counts[slot as usize];
                if c >= first {
                    second = first;
                    first = c;
                } else if c > second {
                    second = c;
                }
            }
            self.max_support = first;
            self.second_support = second;
        } else {
            self.refresh_scalars_from_occupied();
        }
        #[cfg(debug_assertions)]
        self.debug_assert_caches_exact();
    }

    /// Drops the slots of `candidates` (ascending, distinct, all listed
    /// in the occupancy list) whose support is now zero from the
    /// occupancy list: binary search per candidate, then one left shift
    /// of each surviving segment — a single memmove pass over the tail
    /// behind the first death, however many slots died.
    fn remove_dead(&mut self, candidates: &[u32]) {
        let counts = &self.counts;
        let occ = &mut self.occupied;
        let mut dead = candidates.iter().filter(|&&s| counts[s as usize] == 0);
        let Some(&first) = dead.next() else { return };
        let mut write = occ.binary_search(&first).expect("occupied slot listed");
        let mut read = write + 1;
        for &slot in dead {
            let pos = read + occ[read..].binary_search(&slot).expect("occupied slot listed");
            occ.copy_within(read..pos, write);
            write += pos - read;
            read = pos + 1;
        }
        let len = occ.len();
        occ.copy_within(read..len, write);
        occ.truncate(write + len - read);
    }

    /// Replaces the whole support structure with the element-wise sum of
    /// the given sparse `(slot, count)` parts, tolerating parts that name
    /// currently *dead* slots.
    ///
    /// This is the degraded-operation sibling of
    /// [`Configuration::merge_sparse`]: a fault-tolerant coordinator
    /// folds per-shard report bodies that may be **stale** (the last
    /// known counts of a crashed or straggling shard), and a stale body
    /// may legitimately name a color that has since died in the merged
    /// view — a revival that `merge_sparse`'s dead-colors-stay-dead
    /// invariant correctly rejects on the lossless path. Cost is
    /// `O(#occupied_before + Σ|partᵢ| + occ·log occ)` for the occupancy
    /// re-sort, with no dense scan. Pairs may repeat a slot (they
    /// accumulate) and zero counts are skipped; the population size is
    /// re-derived from the folded counts.
    ///
    /// ```
    /// use symbreak_core::Configuration;
    ///
    /// let mut c = Configuration::from_counts(vec![4, 0, 0, 6]);
    /// // A stale shard body revives slot 1; slot 3 loses all support.
    /// c.rebuild_sparse([&[(0u32, 2u64), (1, 3)][..], &[(0, 1)][..]]);
    /// assert_eq!(c.counts(), &[3, 3, 0, 0]);
    /// assert_eq!(c.n(), 6);
    /// ```
    ///
    /// # Panics
    /// Panics if a part names a slot at or beyond `num_slots`.
    pub fn rebuild_sparse<'a, I>(&mut self, parts: I)
    where
        I: IntoIterator<Item = &'a [(u32, u64)]>,
    {
        for idx in 0..self.occupied.len() {
            let slot = self.occupied[idx] as usize;
            self.counts[slot] = 0;
        }
        self.occupied.clear();
        for part in parts {
            for &(slot, count) in part {
                assert!(
                    (slot as usize) < self.counts.len(),
                    "rebuild_sparse: slot {slot} out of range"
                );
                if count == 0 {
                    continue;
                }
                if self.counts[slot as usize] == 0 {
                    self.occupied.push(slot);
                }
                self.counts[slot as usize] += count;
            }
        }
        self.occupied.sort_unstable();
        self.refresh_after_rewrite();
    }

    /// Recomputes `n`, `Σ cᵢ²`, the top-two supports, and compacts the
    /// occupancy list, in one `O(#occupied)` pass. Assumes every slot
    /// outside the occupancy list is zero.
    fn refresh_after_rewrite(&mut self) {
        let counts = &self.counts;
        let mut n = 0u64;
        let mut sum_sq = 0u128;
        let mut first = 0u64;
        let mut second = 0u64;
        self.occupied.retain(|&i| {
            let c = counts[i as usize];
            if c == 0 {
                return false;
            }
            n += c;
            sum_sq += (c as u128) * (c as u128);
            if c >= first {
                second = first;
                first = c;
            } else if c > second {
                second = c;
            }
            true
        });
        self.n = n;
        self.sum_sq = sum_sq;
        self.max_support = first;
        self.second_support = second;
    }

    /// Moves one unit of support `from → to` (`None` meaning outside the
    /// configuration, e.g. the undecided pool), keeping counts and `n`
    /// exact.
    ///
    /// Every derived cache (occupancy list, `Σ cᵢ²`, top-two supports) is
    /// left **stale**: keeping the sorted occupancy list exact per unit
    /// shift would cost an `O(#occupied)` `Vec` remove whenever a slot
    /// empties, turning many-color agent rounds quadratic. Callers
    /// batching unit shifts (the agent engine's `record`) instead call
    /// [`Configuration::rebuild_caches`] once per round — `O(k)`, which
    /// an `O(n·h)` agent round dominates — before observables are read.
    #[inline]
    pub(crate) fn shift_unit(&mut self, from: Option<usize>, to: Option<usize>) {
        if let Some(i) = from {
            debug_assert!(self.counts[i] > 0, "cannot remove support from empty slot {i}");
            self.counts[i] -= 1;
            self.n -= 1;
        }
        if let Some(i) = to {
            self.counts[i] += 1;
            self.n += 1;
        }
    }

    /// Moves `amount` units of support `from → to` (`None` meaning
    /// outside the configuration), keeping **every** derived cache exact
    /// in `O(#occupied)` — unlike [`Configuration::counts_mut`], whose
    /// guard rebuilds the caches with a dense `O(k)` scan on drop.
    /// `to` may name a currently dead slot (adversaries revive colors);
    /// `from` must hold at least `amount`.
    ///
    /// This is the occupancy-aware mutation primitive the corruption
    /// strategies route their `shift_unit`-style deltas through: the
    /// occupied list is edited in place (binary-search insert/remove)
    /// and the scalar caches are re-derived from the occupied slots
    /// only, so adversarial sweeps from `k = n` singleton starts scale
    /// with the surviving support, never with `k`.
    ///
    /// # Panics
    /// Panics if `from` holds fewer than `amount` units or `to` is out
    /// of range.
    pub fn shift_support(&mut self, from: Option<usize>, to: Option<usize>, amount: u64) {
        if amount == 0 || from == to {
            return;
        }
        if let Some(i) = from {
            assert!(self.counts[i] >= amount, "slot {i} holds {} < {amount} units", self.counts[i]);
            self.counts[i] -= amount;
            self.n -= amount;
            if self.counts[i] == 0 {
                let pos = self.occupied.binary_search(&(i as u32)).expect("occupied slot listed");
                self.occupied.remove(pos);
            }
        }
        if let Some(i) = to {
            assert!(i < self.counts.len(), "slot {i} out of range");
            if self.counts[i] == 0 {
                let pos =
                    self.occupied.binary_search(&(i as u32)).expect_err("dead slot not listed");
                self.occupied.insert(pos, i as u32);
            }
            self.counts[i] += amount;
            self.n += amount;
        }
        self.refresh_scalars_from_occupied();
    }

    /// Re-derives every cached observable from a round's [`ChangeLog`]
    /// in `O(#changed)` (amortized), then clears the log for the next
    /// round — the incremental sibling of the dense
    /// `Configuration::rebuild_caches` scan.
    ///
    /// The caller has already applied the count mutations themselves
    /// (the engine's `shift_unit` batch keeps `counts` and `n` exact)
    /// and noted each touched slot's round-start count into the log.
    /// This pass then:
    ///
    /// * shifts `Σ cᵢ²` by the per-slot `new² − old²` deltas;
    /// * binary-search inserts/removes born and dead slots in the
    ///   ascending occupied list (births and deaths are the only
    ///   `O(#occupied)`-worst-case edits, and they are rare in the
    ///   stalled regime this path exists for);
    /// * maintains the top-two supports *with slot identities* kept in
    ///   the log: while neither current leader slot shrank, every
    ///   unchanged slot is still bounded by the old second support, so
    ///   streaming the changed slots over the two leaders is exact.
    ///   When a leader shrank (or the leaders are unknown), it falls
    ///   back to one `O(#occupied)` rescan.
    ///
    /// Debug builds recount everything densely afterwards and assert
    /// the caches match.
    pub fn apply_change_log(&mut self, log: &mut ChangeLog) {
        let mut add = 0u128;
        let mut sub = 0u128;
        let mut leader_shrank = !log.synced;
        for j in 0..log.touched.len() {
            let slot = log.touched[j];
            let old = log.old[j];
            let new = self.counts[slot as usize];
            log.marked[slot as usize] = false;
            if new == old {
                continue;
            }
            sub += (old as u128) * (old as u128);
            add += (new as u128) * (new as u128);
            if old == 0 {
                let pos = self.occupied.binary_search(&slot).expect_err("dead slot not listed");
                self.occupied.insert(pos, slot);
            } else if new == 0 {
                let pos = self.occupied.binary_search(&slot).expect("occupied slot listed");
                self.occupied.remove(pos);
            }
            if new < old && (slot == log.max_slot || slot == log.second_slot) {
                leader_shrank = true;
            }
        }
        self.sum_sq = self.sum_sq + add - sub;
        if leader_shrank || self.occupied.len() < 2 {
            // A leader lost support (or is unknown): anything may have
            // overtaken it — re-derive the top two from the occupied
            // slots and re-seed the log's leader identities.
            let mut first = 0u64;
            let mut first_slot = ChangeLog::NO_SLOT;
            let mut second = 0u64;
            let mut second_slot = ChangeLog::NO_SLOT;
            for &i in &self.occupied {
                let c = self.counts[i as usize];
                if c >= first {
                    second = first;
                    second_slot = first_slot;
                    first = c;
                    first_slot = i;
                } else if c > second {
                    second = c;
                    second_slot = i;
                }
            }
            self.max_support = first;
            self.second_support = second;
            log.max_slot = first_slot;
            log.second_slot = second_slot;
            log.synced = first_slot != ChangeLog::NO_SLOT && second_slot != ChangeLog::NO_SLOT;
        } else {
            // Both leaders held or grew: their final counts still
            // dominate every unchanged slot, so streaming the changed
            // slots over them reproduces the dense top-two exactly.
            let mut max_slot = log.max_slot;
            let mut max = self.counts[max_slot as usize];
            let mut second_slot = log.second_slot;
            let mut second = self.counts[second_slot as usize];
            if second > max {
                std::mem::swap(&mut max, &mut second);
                std::mem::swap(&mut max_slot, &mut second_slot);
            }
            for &slot in &log.touched {
                if slot == log.max_slot || slot == log.second_slot {
                    continue;
                }
                let v = self.counts[slot as usize];
                if v > max {
                    second = max;
                    second_slot = max_slot;
                    max = v;
                    max_slot = slot;
                } else if v > second {
                    second = v;
                    second_slot = slot;
                }
            }
            self.max_support = max;
            self.second_support = second;
            log.max_slot = max_slot;
            log.second_slot = second_slot;
        }
        log.touched.clear();
        log.old.clear();
        #[cfg(debug_assertions)]
        self.debug_assert_caches_exact();
    }

    /// Dense recount of every cached observable, asserted against the
    /// incremental state. Debug builds only — this is the paired check
    /// the `O(#changed)` path keeps honest.
    #[cfg(debug_assertions)]
    fn debug_assert_caches_exact(&self) {
        let mut occupied = Vec::new();
        let mut sum_sq = 0u128;
        let mut first = 0u64;
        let mut second = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            occupied.push(i as u32);
            sum_sq += (c as u128) * (c as u128);
            if c >= first {
                second = first;
                first = c;
            } else if c > second {
                second = c;
            }
        }
        assert_eq!(self.occupied, occupied, "incremental occupied list diverged");
        assert_eq!(self.sum_sq, sum_sq, "incremental sum of squares diverged");
        assert_eq!(
            (self.max_support, self.second_support),
            (first, second),
            "incremental top-two supports diverged"
        );
    }

    /// Re-derives `Σ cᵢ²` and the top-two supports from the occupied
    /// list in `O(#occupied)`. The list itself must already be exact.
    fn refresh_scalars_from_occupied(&mut self) {
        let mut sum_sq = 0u128;
        let mut first = 0u64;
        let mut second = 0u64;
        for &i in &self.occupied {
            let c = self.counts[i as usize];
            sum_sq += (c as u128) * (c as u128);
            if c >= first {
                second = first;
                first = c;
            } else if c > second {
                second = c;
            }
        }
        self.sum_sq = sum_sq;
        self.max_support = first;
        self.second_support = second;
    }

    /// Recomputes and checks the population invariant after raw mutation.
    ///
    /// # Panics
    /// Panics if the counts no longer sum to `n`.
    pub fn validate(&self) {
        let total: u64 = self.counts.iter().sum();
        assert_eq!(total, self.n, "configuration mass changed: {total} != {}", self.n);
    }

    /// Re-synchronizes `n` with the counts after deliberate mass change.
    pub fn resync_total(&mut self) {
        self.n = self.counts.iter().sum();
    }

    /// Largest support `maxᵢ cᵢ`. `O(1)`.
    pub fn max_support(&self) -> u64 {
        self.max_support
    }

    /// The color with the largest support (smallest index wins ties).
    pub fn plurality(&self) -> Opinion {
        for &i in &self.occupied {
            if self.counts[i as usize] == self.max_support {
                return Opinion::new(i);
            }
        }
        // All-zero configuration: keep the historical "slot 0" answer.
        Opinion::new(0)
    }

    /// The bias: difference between the largest and second-largest support
    /// (footnote 3 of the paper). `O(1)`.
    pub fn bias(&self) -> u64 {
        self.max_support - self.second_support
    }

    /// Whether all nodes support a single color. `O(1)`.
    pub fn is_consensus(&self) -> bool {
        self.occupied.len() <= 1
    }

    /// Fractions `x = c / n`.
    pub fn fractions(&self) -> Vec<f64> {
        let n = self.n as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// `‖x‖₂² = Σ (cᵢ/n)²` — the collision probability appearing in the
    /// 3-Majority process function (Equation (2)). `O(1)` from the cached
    /// integer sum of squares.
    pub fn l2_norm_sq(&self) -> f64 {
        self.sum_sq as f64 / (self.n as f64 * self.n as f64)
    }

    /// Whether `self ⪰ other` in the majorization preorder (requires equal
    /// population sizes).
    pub fn majorizes(&self, other: &Configuration) -> bool {
        if self.n != other.n {
            return false;
        }
        let a: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let b: Vec<f64> = other.counts.iter().map(|&c| c as f64).collect();
        major::majorizes_eps(&a, &b, 0.5) // counts are integers; 0.5 is exact
    }

    /// Returns a copy with zero-support slots removed.
    ///
    /// Color *identity* is positional, so compaction renumbers the
    /// surviving colors; use it only for observables that are
    /// permutation-invariant (consensus time, number of colors, max
    /// support, bias, majorization) — which is everything the paper's
    /// analysis tracks.
    pub fn compacted(&self) -> Configuration {
        if self.occupied.is_empty() {
            // Preserve a slot so the invariant "at least one slot" holds.
            return Configuration::from_counts(vec![0]);
        }
        let counts: Vec<u64> = self.occupied_counts().collect();
        Configuration::from_counts(counts)
    }

    /// Removes zero-support slots in place (no allocation), renumbering
    /// the surviving colors to `0..num_colors`. Same caveats as
    /// [`Configuration::compacted`]; `O(#occupied)`.
    pub fn compact_in_place(&mut self) {
        let m = self.occupied.len();
        if m == 0 {
            self.counts.clear();
            self.counts.push(0);
            return;
        }
        if self.occupied[m - 1] as usize != m - 1 {
            // occupied[j] >= j always (ascending, distinct), so the
            // left-compaction below never overwrites an unread slot.
            for j in 0..m {
                self.counts[j] = self.counts[self.occupied[j] as usize];
            }
            for (j, o) in self.occupied.iter_mut().enumerate() {
                *o = j as u32;
            }
        }
        self.counts.truncate(m);
    }

    /// Counts sorted in non-increasing order.
    pub fn sorted_counts(&self) -> Vec<u64> {
        let mut v = self.counts.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Expands a per-node opinion assignment from the counts: nodes
    /// `0..c₀` get color 0, the next `c₁` color 1, and so on.
    pub fn to_opinions(&self) -> Vec<Opinion> {
        let mut out = Vec::with_capacity(self.n as usize);
        for (i, &c) in self.counts.iter().enumerate() {
            out.extend(std::iter::repeat_n(Opinion::new(i as u32), c as usize));
        }
        out
    }

    /// Rebuilds a configuration from per-node opinions, ignoring undecided
    /// nodes (their mass is dropped — callers tracking undecided counts
    /// must do so separately).
    pub fn from_opinions(opinions: &[Opinion], k: usize) -> Self {
        let mut counts = vec![0u64; k];
        for &o in opinions {
            if !o.is_undecided() {
                counts[o.index()] += 1;
            }
        }
        Self::from_counts(counts)
    }
}

/// A round's worth of touched-slot bookkeeping for
/// [`Configuration::apply_change_log`]: which slots an engine's unit
/// shifts touched, and what each held when the round began.
///
/// The engine's `record` path calls [`note`](Self::note) *before* every
/// shift — `O(1)` per call, first touch wins — and the end-of-round
/// [`Configuration::apply_change_log`] re-derives every cached
/// observable from exactly those entries, in `O(#changed)` instead of
/// the dense `O(k)` rebuild. The log also carries the identities of the
/// two leading slots between rounds (that is what makes the top-two
/// maintenance streaming); they belong to the round-state bookkeeping,
/// not to the configuration, so forced-rebuild engines pay nothing for
/// them.
///
/// Every count mutation between two `apply_change_log` calls must be
/// noted; a caller that mutates the configuration through any other
/// path must call [`desync`](Self::desync) (the next apply then rescans
/// the leaders instead of trusting stale identities).
///
/// # Example
/// ```
/// use symbreak_core::ChangeLog;
///
/// let mut log = ChangeLog::new();
/// log.ensure_slots(8);
/// log.note(3, 5);
/// log.note(0, 1);
/// log.note(3, 99); // repeat: first-touch old count wins
/// assert_eq!(log.touched(), &[3, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct ChangeLog {
    /// Slots touched this round, in first-touch order.
    touched: Vec<u32>,
    /// `old[j]` = count slot `touched[j]` held when the round began.
    old: Vec<u64>,
    /// Dense membership mirror of `touched`.
    marked: Vec<bool>,
    /// Slot attaining `max_support` (`NO_SLOT` = unknown).
    max_slot: u32,
    /// A *different* slot attaining `second_support`.
    second_slot: u32,
    /// Whether the leader identities reflect the configuration.
    synced: bool,
}

impl Default for ChangeLog {
    fn default() -> Self {
        Self::new()
    }
}

impl ChangeLog {
    const NO_SLOT: u32 = u32::MAX;

    /// An empty log with unknown leaders (the first apply rescans).
    pub fn new() -> Self {
        Self {
            touched: Vec::new(),
            old: Vec::new(),
            marked: Vec::new(),
            max_slot: Self::NO_SLOT,
            second_slot: Self::NO_SLOT,
            synced: false,
        }
    }

    /// Grows the dense membership mirror to cover `k` slots.
    pub fn ensure_slots(&mut self, k: usize) {
        if self.marked.len() < k {
            self.marked.resize(k, false);
        }
    }

    /// Records that `slot` is about to change, with the count it
    /// currently holds. First touch wins; repeats are `O(1)` no-ops.
    #[inline]
    pub fn note(&mut self, slot: usize, current_count: u64) {
        if !self.marked[slot] {
            self.marked[slot] = true;
            self.touched.push(slot as u32);
            self.old.push(current_count);
        }
    }

    /// The slots touched since the last apply, in first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Whether no slot has been touched since the last apply.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Forgets the cached leader identities; the next
    /// [`Configuration::apply_change_log`] re-derives them with an
    /// `O(#occupied)` rescan. Call after any un-noted mutation.
    pub fn desync(&mut self) {
        self.synced = false;
    }
}

/// Guard for raw count mutation: dereferences to the count vector and
/// refreshes the configuration's occupancy list and cached observables
/// when dropped. Obtained from [`Configuration::counts_mut`].
pub struct CountsMut<'a> {
    cfg: &'a mut Configuration,
}

impl std::ops::Deref for CountsMut<'_> {
    type Target = Vec<u64>;

    fn deref(&self) -> &Vec<u64> {
        &self.cfg.counts
    }
}

impl std::ops::DerefMut for CountsMut<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u64> {
        &mut self.cfg.counts
    }
}

impl Drop for CountsMut<'_> {
    fn drop(&mut self) {
        self.cfg.rebuild_caches();
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Configuration(n={}, colors={}, max={}, bias={})",
            self.n,
            self.num_colors(),
            self.max_support(),
            self.bias()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From-scratch recount of every cached observable.
    fn assert_caches_match_recount(c: &Configuration) {
        let fresh = Configuration::from_counts(c.counts().to_vec());
        assert_eq!(c.num_colors(), fresh.counts().iter().filter(|&&v| v > 0).count());
        assert_eq!(c.max_support(), fresh.counts().iter().copied().max().unwrap_or(0));
        assert_eq!(c.bias(), fresh.bias());
        assert_eq!(c.occupied(), fresh.occupied());
        if fresh.n() > 0 {
            let l2: f64 = {
                let n = fresh.n() as f64;
                fresh.counts().iter().map(|&v| (v as f64 / n).powi(2)).sum()
            };
            assert!((c.l2_norm_sq() - l2).abs() < 1e-12);
        }
    }

    #[test]
    fn constructors_have_right_mass() {
        assert_eq!(Configuration::consensus(10, 3).n(), 10);
        assert_eq!(Configuration::uniform(10, 3).n(), 10);
        assert_eq!(Configuration::singletons(7).n(), 7);
        assert_eq!(Configuration::biased(20, 4, 8).n(), 20);
    }

    #[test]
    fn uniform_spreads_remainder() {
        let c = Configuration::uniform(11, 4);
        assert_eq!(c.counts(), &[3, 3, 3, 2]);
        assert_eq!(c.num_colors(), 4);
    }

    #[test]
    fn singletons_is_leader_election_start() {
        let c = Configuration::singletons(5);
        assert_eq!(c.num_colors(), 5);
        assert_eq!(c.max_support(), 1);
        assert_eq!(c.bias(), 0);
    }

    #[test]
    fn biased_config_shape() {
        let c = Configuration::biased(100, 4, 40);
        assert_eq!(c.support(0), 55); // 15 + 40
        assert_eq!(c.support(1), 15);
        assert_eq!(c.bias(), 40);
        assert_eq!(c.n(), 100);
    }

    #[test]
    fn consensus_flags() {
        let c = Configuration::consensus(9, 4);
        assert!(c.is_consensus());
        assert_eq!(c.num_colors(), 1);
        assert_eq!(c.plurality(), Opinion::new(0));
        assert!(!Configuration::uniform(9, 3).is_consensus());
    }

    #[test]
    fn bias_of_tied_leaders_is_zero() {
        let c = Configuration::from_counts(vec![5, 5, 2]);
        assert_eq!(c.bias(), 0);
        let d = Configuration::from_counts(vec![7, 4, 1]);
        assert_eq!(d.bias(), 3);
    }

    #[test]
    fn single_color_bias_is_full_support() {
        // With one color the second-largest support is 0.
        let c = Configuration::from_counts(vec![6]);
        assert_eq!(c.bias(), 6);
    }

    #[test]
    fn majorization_of_configurations() {
        let consensus = Configuration::consensus(12, 4);
        let uniform = Configuration::uniform(12, 4);
        let mid = Configuration::from_counts(vec![6, 3, 2, 1]);
        assert!(consensus.majorizes(&uniform));
        assert!(consensus.majorizes(&mid));
        assert!(mid.majorizes(&uniform));
        assert!(!uniform.majorizes(&mid));
        // Different n: incomparable.
        assert!(!consensus.majorizes(&Configuration::consensus(13, 4)));
    }

    #[test]
    fn l2_norm_sq_examples() {
        let c = Configuration::uniform(4, 2); // (1/2)^2 * 2 = 1/2
        assert!((c.l2_norm_sq() - 0.5).abs() < 1e-12);
        let d = Configuration::consensus(4, 2);
        assert!((d.l2_norm_sq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opinions_round_trip() {
        let c = Configuration::from_counts(vec![2, 0, 3]);
        let ops = c.to_opinions();
        assert_eq!(ops.len(), 5);
        let back = Configuration::from_opinions(&ops, 3);
        assert_eq!(back, c);
    }

    #[test]
    fn from_opinions_ignores_undecided() {
        let ops = vec![Opinion::new(0), Opinion::UNDECIDED, Opinion::new(0)];
        let c = Configuration::from_opinions(&ops, 1);
        assert_eq!(c.counts(), &[2]);
        assert_eq!(c.n(), 2);
    }

    #[test]
    fn plurality_prefers_smallest_index_on_tie() {
        let c = Configuration::from_counts(vec![3, 5, 5]);
        assert_eq!(c.plurality(), Opinion::new(1));
    }

    #[test]
    fn mutation_and_validate() {
        let mut c = Configuration::uniform(6, 3);
        c.counts_mut()[0] += 1;
        c.counts_mut()[1] -= 1;
        c.validate(); // mass preserved
        c.counts_mut()[2] += 5;
        c.resync_total();
        assert_eq!(c.n(), 11);
    }

    #[test]
    #[should_panic(expected = "mass changed")]
    fn validate_catches_mass_change() {
        let mut c = Configuration::uniform(6, 3);
        c.counts_mut()[0] += 1;
        c.validate();
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = Configuration::from_counts(vec![1, 2, 3, 4]);
        let s: f64 = c.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_counts_desc() {
        let c = Configuration::from_counts(vec![1, 5, 3]);
        assert_eq!(c.sorted_counts(), vec![5, 3, 1]);
    }

    #[test]
    fn display_contains_observables() {
        let c = Configuration::uniform(10, 2);
        let s = format!("{c}");
        assert!(s.contains("n=10"));
        assert!(s.contains("colors=2"));
    }

    #[test]
    fn occupied_list_tracks_support() {
        let c = Configuration::from_counts(vec![0, 4, 0, 2, 0]);
        assert_eq!(c.occupied(), &[1, 3]);
        assert_eq!(c.occupied_counts().collect::<Vec<_>>(), vec![4, 2]);
        assert_eq!(c.num_colors(), 2);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn counts_mut_guard_refreshes_caches() {
        let mut c = Configuration::from_counts(vec![3, 3, 0]);
        {
            let mut counts = c.counts_mut();
            counts[0] -= 3;
            counts[2] += 3;
        }
        assert_eq!(c.occupied(), &[1, 2]);
        assert_eq!(c.max_support(), 3);
        assert_eq!(c.bias(), 0);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn rewrite_occupied_drops_emptied_slots() {
        let mut c = Configuration::from_counts(vec![5, 0, 3, 2]);
        c.rewrite_occupied(|occ, counts| {
            assert_eq!(occ, &[0, 2, 3]);
            counts[0] = 8;
            counts[2] = 0;
            counts[3] = 2;
        });
        assert_eq!(c.occupied(), &[0, 3]);
        assert_eq!(c.n(), 10);
        assert_eq!(c.max_support(), 8);
        assert_eq!(c.bias(), 6);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn rewrite_occupied_rederives_population() {
        // Mass-changing rewrites (the undecided dynamics) are supported.
        let mut c = Configuration::from_counts(vec![6, 4]);
        c.rewrite_occupied(|_, counts| {
            counts[0] = 3;
            counts[1] = 2;
        });
        assert_eq!(c.n(), 5);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn merge_sparse_folds_parts_and_drops_dead_slots() {
        let mut c = Configuration::from_counts(vec![4, 0, 3, 3]);
        // Two "shards" report their local occupied counts; slot 2 dies.
        c.merge_sparse([&[(0u32, 2u64), (3, 1)][..], &[(0, 3), (3, 1)][..]]);
        assert_eq!(c.counts(), &[5, 0, 0, 2]);
        assert_eq!(c.occupied(), &[0, 3]);
        assert_eq!(c.n(), 7);
        assert_eq!(c.max_support(), 5);
        assert_eq!(c.bias(), 3);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn merge_sparse_rederives_population() {
        // Undecided-dynamics shards report less mass than n.
        let mut c = Configuration::from_counts(vec![6, 4]);
        c.merge_sparse([&[(0u32, 2u64)][..], &[(1, 3)][..]]);
        assert_eq!(c.counts(), &[2, 3]);
        assert_eq!(c.n(), 5);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn rebuild_sparse_revives_dead_slots_and_rederives_everything() {
        let mut c = Configuration::from_counts(vec![4, 0, 0, 6]);
        // A stale body revives slot 1, slot 3 empties, slot 0 accumulates
        // across parts (including a repeated slot within one part).
        c.rebuild_sparse([&[(0u32, 2u64), (1, 3), (0, 1)][..], &[(0, 1), (2, 0)][..]]);
        assert_eq!(c.counts(), &[4, 3, 0, 0]);
        assert_eq!(c.occupied(), &[0, 1]);
        assert_eq!(c.n(), 7);
        assert_eq!(c.max_support(), 4);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn from_sparse_matches_dense_construction() {
        let c = Configuration::from_sparse(5, &[(1, 3), (4, 2), (1, 1), (2, 0)]);
        assert_eq!(c, Configuration::from_counts(vec![0, 4, 0, 0, 2]));
        assert_eq!(c.occupied(), &[1, 4]);
        assert_eq!(c.n(), 6);
        assert_caches_match_recount(&c);
        // Empty pair list: a valid all-zero configuration.
        let empty = Configuration::from_sparse(3, &[]);
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.num_colors(), 0);
    }

    #[test]
    fn rebuild_sparse_with_no_parts_empties_the_configuration() {
        let mut c = Configuration::from_counts(vec![4, 0, 3]);
        c.rebuild_sparse(std::iter::empty::<&[(u32, u64)]>());
        assert_eq!(c.counts(), &[0, 0, 0]);
        assert_eq!(c.n(), 0);
        assert_eq!(c.num_colors(), 0);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn rebuild_sparse_matches_merge_sparse_on_live_parts() {
        // On parts that respect dead-colors-stay-dead, the tolerant
        // rebuild and the lossless merge agree exactly.
        let mut a = Configuration::from_counts(vec![4, 0, 3, 3]);
        let mut b = a.clone();
        let parts = [&[(0u32, 2u64), (3, 1)][..], &[(0, 3), (3, 1)][..]];
        a.merge_sparse(parts);
        b.rebuild_sparse(parts);
        assert_eq!(a, b);
        assert_caches_match_recount(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rebuild_sparse_rejects_out_of_range_slots() {
        let mut c = Configuration::from_counts(vec![4, 0]);
        c.rebuild_sparse([&[(5u32, 1u64)][..]]);
    }

    #[test]
    fn apply_deltas_shifts_occupied_slots() {
        let mut c = Configuration::from_counts(vec![4, 0, 3, 3]);
        // Shard A: one unit 2 -> 0; shard B: two units 3 -> 0.
        c.apply_deltas([&[(2u32, -1i64), (0, 1)][..], &[(3, -2), (0, 2)][..]]);
        assert_eq!(c.counts(), &[7, 0, 2, 1]);
        assert_eq!(c.n(), 10);
        assert_eq!(c.max_support(), 7);
        assert_eq!(c.bias(), 5);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_drops_emptied_slots_and_rederives_mass() {
        let mut c = Configuration::from_counts(vec![4, 0, 3]);
        // Slot 2 dies; one unit of slot 0 leaves the decided pool
        // entirely (undecided dynamics), so n shrinks.
        c.apply_deltas([&[(2u32, -3i64)][..], &[(0, -1)][..]]);
        assert_eq!(c.counts(), &[3, 0, 0]);
        assert_eq!(c.occupied(), &[0]);
        assert_eq!(c.n(), 3);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_accumulates_same_slot_across_parts() {
        let mut c = Configuration::from_counts(vec![2, 5]);
        c.apply_deltas([&[(1u32, -2i64)][..], &[(1, -1), (0, 3)][..]]);
        assert_eq!(c.counts(), &[5, 2]);
        assert_eq!(c.n(), 7);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_with_no_parts_is_identity() {
        let mut c = Configuration::from_counts(vec![2, 1]);
        c.apply_deltas(std::iter::empty::<&[(u32, i64)]>());
        assert_eq!(c.counts(), &[2, 1]);
        assert_eq!(c.n(), 3);
    }

    #[test]
    fn apply_deltas_streams_top_two_over_tied_leaders() {
        // max == second, both leaders untouched: small slots move
        // without reaching them, then overtake them, then tie them.
        let mut c = Configuration::from_counts(vec![5, 5, 1, 1, 2]);
        c.apply_deltas([&[(2u32, 1i64), (3, -1)][..], &[(4, -1)][..]]);
        assert_eq!(c.counts(), &[5, 5, 2, 0, 1]);
        assert_eq!((c.max_support(), c.bias()), (5, 0));
        assert_caches_match_recount(&c);
        c.apply_deltas([&[(4u32, 5i64)][..]]);
        assert_eq!((c.max_support(), c.bias()), (6, 1));
        assert_caches_match_recount(&c);
        c.apply_deltas([&[(2u32, 4i64)][..], &[(1, 1)][..]]);
        assert_eq!(c.counts(), &[5, 6, 6, 0, 6]);
        assert_eq!((c.max_support(), c.bias()), (6, 0));
        assert_caches_match_recount(&c);
        // A tied leader grows: the touched leader forces the rescan.
        c.apply_deltas([&[(4u32, 1i64), (0, -2)][..]]);
        assert_eq!(c.counts(), &[3, 6, 6, 0, 7]);
        assert_eq!((c.max_support(), c.bias()), (7, 1));
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_rescans_when_a_leader_shrinks() {
        // The leader loses support: the runner-up and a non-leader both
        // overtake it, which no streaming over the touched slots alone
        // could see.
        let mut c = Configuration::from_counts(vec![9, 6, 2, 5]);
        c.apply_deltas([&[(0u32, -7i64), (2, 3)][..]]);
        assert_eq!(c.counts(), &[2, 6, 5, 5]);
        assert_eq!((c.max_support(), c.bias()), (6, 1));
        assert_caches_match_recount(&c);
        // The second leader shrinks while the first holds.
        c.apply_deltas([&[(2u32, -4i64)][..], &[(3, -1)][..]]);
        assert_eq!(c.counts(), &[2, 6, 1, 4]);
        assert_eq!((c.max_support(), c.bias()), (6, 2));
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_removes_several_deaths_in_one_call() {
        let mut c = Configuration::from_counts(vec![1, 4, 1, 0, 1, 1, 7, 1, 1]);
        c.apply_deltas([&[(0u32, -1i64), (4, -1), (1, 2)][..], &[(8, -1), (5, -1), (7, 2)][..]]);
        assert_eq!(c.counts(), &[0, 6, 1, 0, 0, 0, 7, 3, 0]);
        assert_eq!(c.occupied(), &[1, 2, 6, 7]);
        assert_caches_match_recount(&c);
        // Deaths at the very ends of the list, and every slot but one.
        c.apply_deltas([&[(1u32, -6i64), (7, -3), (2, -1), (6, 10)][..]]);
        assert_eq!(c.occupied(), &[6]);
        assert_eq!(c.n(), 17);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_nets_the_same_slot_across_parts() {
        // Slot 1 drains to zero in one part and refills in the next:
        // it was live when the call began, so it stays listed.
        let mut c = Configuration::from_counts(vec![3, 1, 1, 2]);
        c.apply_deltas([&[(1u32, -1i64), (0, 1)][..], &[(1, 2), (3, -2)][..]]);
        assert_eq!(c.counts(), &[4, 2, 1, 0]);
        assert_eq!(c.occupied(), &[0, 1, 2]);
        assert_caches_match_recount(&c);
        // Opposite deltas that cancel exactly leave the caches intact.
        c.apply_deltas([&[(2u32, 5i64)][..], &[(2, -5)][..]]);
        assert_eq!(c.counts(), &[4, 2, 1, 0]);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_handles_mass_changing_folds() {
        // Undecided-dynamics shards: mass leaves and returns.
        let mut c = Configuration::from_counts(vec![1; 64]);
        let leave: Vec<(u32, i64)> = (0..64).filter(|i| i % 3 == 0).map(|i| (i, -1)).collect();
        let grow: Vec<(u32, i64)> = (0..64).filter(|i| i % 3 == 1).map(|i| (i, 2)).collect();
        c.apply_deltas([leave.as_slice(), grow.as_slice()]);
        assert_eq!(c.n(), 64 - 22 + 2 * 21);
        assert_eq!(c.num_colors(), 42);
        assert_eq!((c.max_support(), c.bias()), (3, 0));
        assert_caches_match_recount(&c);
    }

    #[test]
    fn apply_deltas_collapses_two_colors_to_one() {
        let mut c = Configuration::from_counts(vec![0, 3, 0, 2]);
        c.apply_deltas([&[(3u32, -2i64)][..], &[(1, 2)][..]]);
        assert_eq!(c.counts(), &[0, 5, 0, 0]);
        assert_eq!(c.occupied(), &[1]);
        assert!(c.is_consensus());
        assert_eq!((c.max_support(), c.bias()), (5, 5));
        assert_caches_match_recount(&c);
    }

    #[test]
    #[should_panic(expected = "dead colors stay dead")]
    fn apply_deltas_rejects_resurrected_slots() {
        let mut c = Configuration::from_counts(vec![2, 0, 1]);
        c.apply_deltas([&[(1u32, 1i64), (0, -1)][..]]);
    }

    #[test]
    #[should_panic(expected = "went negative")]
    fn apply_deltas_rejects_negative_support() {
        let mut c = Configuration::from_counts(vec![2, 3]);
        c.apply_deltas([&[(0u32, -3i64)][..]]);
    }

    #[test]
    fn merge_sparse_with_no_parts_empties_the_configuration() {
        let mut c = Configuration::from_counts(vec![2, 1]);
        c.merge_sparse(std::iter::empty::<&[(u32, u64)]>());
        assert_eq!(c.num_colors(), 0);
        assert_eq!(c.n(), 0);
    }

    #[test]
    #[should_panic(expected = "dead colors stay dead")]
    fn merge_sparse_rejects_resurrected_slots() {
        let mut c = Configuration::from_counts(vec![2, 0, 1]);
        c.merge_sparse([&[(1u32, 1u64)][..]]);
    }

    #[test]
    fn shift_unit_plus_rebuild_keeps_caches_exact() {
        let mut c = Configuration::from_counts(vec![2, 1, 0]);
        c.shift_unit(Some(1), Some(2)); // last unit of color 1 moves to 2
        c.shift_unit(Some(0), None); // one unit leaves (goes undecided)
        c.shift_unit(None, Some(1)); // and one returns on a dead color
        c.rebuild_caches(); // batch of shifts, one refresh — the record pattern
        assert_eq!(c.counts(), &[1, 1, 1]);
        assert_eq!(c.occupied(), &[0, 1, 2]);
        assert_eq!(c.n(), 3);
        assert_caches_match_recount(&c);
    }

    #[test]
    fn shift_support_keeps_caches_exact_through_revive_and_death() {
        let mut c = Configuration::from_counts(vec![5, 3, 0, 2]);
        // Revive a dead slot with bulk mass.
        c.shift_support(Some(0), Some(2), 4);
        assert_eq!(c.counts(), &[1, 3, 4, 2]);
        assert_eq!(c.occupied(), &[0, 1, 2, 3]);
        assert_caches_match_recount(&c);
        // Kill a slot.
        c.shift_support(Some(0), Some(1), 1);
        assert_eq!(c.counts(), &[0, 4, 4, 2]);
        assert_eq!(c.occupied(), &[1, 2, 3]);
        assert_eq!(c.max_support(), 4);
        assert_eq!(c.bias(), 0);
        assert_caches_match_recount(&c);
        // Mass-changing shifts (units entering/leaving the configuration).
        c.shift_support(Some(3), None, 2);
        assert_eq!(c.n(), 8);
        assert_eq!(c.occupied(), &[1, 2]);
        assert_caches_match_recount(&c);
        c.shift_support(None, Some(0), 3);
        assert_eq!(c.n(), 11);
        assert_eq!(c.occupied(), &[0, 1, 2]);
        assert_caches_match_recount(&c);
        // No-ops.
        c.shift_support(Some(1), Some(1), 2);
        c.shift_support(Some(1), Some(0), 0);
        assert_caches_match_recount(&c);
        c.validate();
    }

    #[test]
    fn change_log_apply_matches_dense_rebuild() {
        // Pseudo-random unit-shift storms across many rounds: births,
        // deaths, leader growth and leader kills must all leave the
        // incrementally-maintained caches identical to a dense recount.
        let mut c = Configuration::from_counts(vec![0, 7, 1, 1, 0, 3]);
        let mut log = ChangeLog::new();
        log.ensure_slots(c.num_slots());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        for round in 0..300 {
            let shifts = next(5);
            for _ in 0..shifts {
                let occ = c.occupied().to_vec();
                if occ.is_empty() {
                    break;
                }
                let from = occ[next(occ.len() as u64) as usize] as usize;
                if c.support(from) == 0 {
                    // Drained earlier in this same round (the occupied
                    // list is intentionally stale between applies).
                    continue;
                }
                match next(10) {
                    // Occasionally trade mass against the outside
                    // (the undecided pool): n changes, counts stay exact.
                    0 => {
                        log.note(from, c.support(from));
                        c.shift_unit(Some(from), None);
                    }
                    1 => {
                        let to = next(c.num_slots() as u64) as usize;
                        log.note(to, c.support(to));
                        c.shift_unit(None, Some(to));
                    }
                    _ => {
                        let to = next(c.num_slots() as u64) as usize;
                        if to == from {
                            continue;
                        }
                        log.note(from, c.support(from));
                        log.note(to, c.support(to));
                        c.shift_unit(Some(from), Some(to));
                    }
                }
            }
            c.apply_change_log(&mut log);
            assert!(log.is_empty(), "apply must clear the log");
            assert_caches_match_recount(&c);
            // Every few rounds, exercise the empty-log fast path too.
            if round % 7 == 0 {
                c.apply_change_log(&mut log);
                assert_caches_match_recount(&c);
            }
        }
    }

    #[test]
    fn change_log_handles_leader_kill_and_overtake() {
        let mut c = Configuration::from_counts(vec![9, 6, 2]);
        let mut log = ChangeLog::new();
        log.ensure_slots(3);
        // Sync the leader identities with a no-op apply.
        c.apply_change_log(&mut log);
        // Kill the leader outright: the rescan path must find (6, 2).
        for _ in 0..9 {
            log.note(0, c.support(0));
            log.note(2, c.support(2));
            c.shift_unit(Some(0), Some(2));
        }
        c.apply_change_log(&mut log);
        assert_eq!((c.max_support(), c.bias()), (11, 5));
        assert_caches_match_recount(&c);
        // Shrink the leader (slot 2) while growing the runner-up past
        // it: a shrinking leader forces the rescan path again.
        for _ in 0..6 {
            log.note(2, c.support(2));
            log.note(1, c.support(1));
            c.shift_unit(Some(2), Some(1));
        }
        c.apply_change_log(&mut log);
        assert_eq!(c.counts(), &[0, 12, 5]);
        assert_eq!((c.max_support(), c.bias()), (12, 7));
        assert_caches_match_recount(&c);
        // Pure growth of a non-leader from outside mass: streaming
        // overtake with no leader shrink.
        for _ in 0..8 {
            log.note(0, c.support(0));
            c.shift_unit(None, Some(0));
        }
        c.apply_change_log(&mut log);
        assert_eq!(c.counts(), &[8, 12, 5]);
        assert_eq!((c.max_support(), c.bias()), (12, 4));
        assert_caches_match_recount(&c);
    }

    #[test]
    #[should_panic(expected = "holds")]
    fn shift_support_rejects_overdraw() {
        let mut c = Configuration::from_counts(vec![2, 1]);
        c.shift_support(Some(1), Some(0), 5);
    }

    #[test]
    fn compact_in_place_matches_compacted() {
        let mut c = Configuration::from_counts(vec![0, 4, 0, 2, 0, 1]);
        let expect = c.compacted();
        c.compact_in_place();
        assert_eq!(c, expect);
        assert_eq!(c.num_slots(), 3);
        assert_eq!(c.occupied(), &[0, 1, 2]);
        assert_caches_match_recount(&c);
        // Idempotent on already-compact configurations.
        c.compact_in_place();
        assert_eq!(c, expect);
    }

    #[test]
    fn compact_in_place_on_empty_keeps_one_slot() {
        let mut c = Configuration::from_counts(vec![0, 0, 0]);
        c.compact_in_place();
        assert_eq!(c.counts(), &[0]);
        assert_eq!(c.num_colors(), 0);
        assert_eq!(c.n(), 0);
    }
}
