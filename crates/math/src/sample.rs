//! Sampling primitives.
//!
//! Three samplers matter for the paper:
//!
//! * uniform sampling of `N2` distinct entities when refreshing the cache
//!   (Algorithm 3, step 2) — [`sample_distinct_uniform`];
//! * importance sampling *without replacement* of `N1` entries proportionally
//!   to `exp(score)` (Algorithm 3, steps 5–9) —
//!   [`sample_without_replacement_weighted`]. Its `_into` kernel makes the
//!   exact draws of the sequential loop (kept as
//!   [`sample_without_replacement_weighted_reference`]) in O(n + k·log n)
//!   per call instead of O(n·k): a [`FenwickTree`] answers each pick, and a
//!   rounding-error guard band sends the rare draw that lands next to a
//!   prefix boundary back to the sequential body;
//! * single weighted draws for the KBGAN generator and for the "IS sampling
//!   from cache" ablation — [`sample_one_weighted`] / [`WeightedIndex`].
//!
//! An [`AliasTable`] is provided for the Zipf-like entity popularity used by
//! the synthetic dataset generator (O(1) draws from a fixed discrete
//! distribution), and a [`ReservoirSampler`] for streaming sub-sampling in the
//! instrumentation code.

use rand::Rng;

/// Sample `k` distinct indices uniformly from `0..n`.
///
/// Uses Floyd's algorithm, which performs exactly `k` RNG draws and needs
/// `O(k)` memory. Panics if `k > n`.
pub fn sample_distinct_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(k);
    sample_distinct_uniform_into(rng, n, k, &mut chosen);
    chosen
}

/// In-place variant of [`sample_distinct_uniform`]: clears `out` and fills it
/// with `k` distinct indices from `0..n`, allocating nothing once `out` has
/// grown to capacity `k`. Panics if `k > n`.
pub fn sample_distinct_uniform_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    out: &mut Vec<usize>,
) {
    assert!(
        k <= n,
        "cannot sample {k} distinct values from a pool of {n}"
    );
    out.clear();
    // Floyd's algorithm produces a set; we then shuffle lightly by insertion
    // order which is already random enough for our callers (order does not
    // matter for cache candidates).
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if out.contains(&t) {
            out.push(j);
        } else {
            out.push(t);
        }
    }
}

/// Draw one index from `0..weights.len()` with probability proportional to
/// `weights[i]`. All weights must be non-negative and at least one must be
/// positive; otherwise the draw falls back to uniform.
pub fn sample_one_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "cannot sample from empty weights");
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if *w > 0.0 && w.is_finite() {
            if u < *w {
                return i;
            }
            u -= *w;
        }
    }
    // Floating-point slack: return the last positive-weight index.
    weights
        .iter()
        .rposition(|w| *w > 0.0 && w.is_finite())
        .unwrap_or(weights.len() - 1)
}

/// Sample `k` *distinct* indices without replacement with probability
/// proportional to `weights`, following Algorithm 3 of the paper: repeatedly
/// draw from the renormalised remaining weights and remove the winner.
///
/// If fewer than `k` strictly positive weights exist, the remaining slots are
/// filled uniformly from the not-yet-chosen indices, so the result always has
/// exactly `min(k, weights.len())` entries.
pub fn sample_without_replacement_weighted<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    k: usize,
) -> Vec<usize> {
    let mut scratch = weights.to_vec();
    let mut out = Vec::with_capacity(k.min(weights.len()));
    sample_without_replacement_weighted_into(
        rng,
        &mut scratch,
        k,
        &mut out,
        &mut FenwickTree::default(),
    );
    out
}

/// Picked entries are flagged with -1 so "remaining" = non-negative.
const PICKED: f64 = -1.0;

/// The tree is rebuilt once the remaining mass falls below this multiple of
/// the error bound, so the guard band stays a sliver of every pick's range.
const REBUILD_FACTOR: f64 = (1u64 << 20) as f64;

/// Zero non-finite and negative weights; returns how many are positive.
fn sanitize_weights(weights: &mut [f64]) -> usize {
    let mut positive = 0;
    for w in weights.iter_mut() {
        if !w.is_finite() || *w <= 0.0 {
            *w = 0.0;
        } else {
            positive += 1;
        }
    }
    positive
}

/// The sequential kernel's per-pick total: the index-order sum of the
/// remaining positive weights.
fn remaining_total(weights: &[f64]) -> f64 {
    weights.iter().filter(|w| **w > 0.0).sum()
}

/// The sequential kernel's per-pick scan: the first remaining index `j` with
/// `u_{j-1} < w_j`, where `u` is reduced by every weight it passes.
fn sequential_pick(weights: &[f64], mut u: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            if u < w {
                return i;
            }
            u -= w;
        }
    }
    // Floating-point slack: fall back to the last positive weight.
    weights
        .iter()
        .rposition(|w| *w > 0.0)
        .expect("a positive weight remains")
}

/// Uniform among the not-yet-picked indices (all remaining weights are 0).
fn uniform_unpicked<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let remaining = weights.iter().filter(|w| **w >= 0.0).count();
    let target = rng.gen_range(0..remaining);
    weights
        .iter()
        .enumerate()
        .filter(|(_, w)| **w >= 0.0)
        .nth(target)
        .map(|(i, _)| i)
        .expect("remaining count matches filter")
}

/// The reference kernel for [`sample_without_replacement_weighted_into`]:
/// the literal sequential loop of Algorithm 3, which re-sums and re-scans
/// all `n` weights for each of its `k` picks — O(n·k) per call.
///
/// It defines the draws the fast kernel must reproduce (same picks, same
/// RNG consumption) and is kept as its test and bench oracle. Same working
/// storage contract as the fast kernel; allocation-free once `out` has
/// grown to capacity `k`.
pub fn sample_without_replacement_weighted_reference<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &mut [f64],
    k: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let k = k.min(weights.len());
    sanitize_weights(weights);
    for _ in 0..k {
        let total = remaining_total(weights);
        let idx = if total > 0.0 {
            sequential_pick(weights, rng.gen_range(0.0..total))
        } else {
            uniform_unpicked(rng, weights)
        };
        weights[idx] = PICKED;
        out.push(idx);
    }
}

/// Working storage for [`sample_without_replacement_weighted_into`]: a
/// Fenwick (binary indexed) tree over the remaining weights.
///
/// Keep one per hot loop and pass it to every call; it grows to the largest
/// `n` seen and is reused afterwards, so a steady-state call allocates
/// nothing. It also counts how often the kernel built the tree and how many
/// picks it handed to the sequential fallback.
#[derive(Debug, Clone, Default)]
pub struct FenwickTree {
    /// 1-based node sums over the weights padded with zeros to a power of
    /// two; `nodes[i]` covers the weights `i - lowbit(i) .. i` (0-based,
    /// half-open). `nodes[0]` is unused.
    nodes: Vec<f64>,
    builds: u64,
    fallbacks: u64,
}

impl FenwickTree {
    /// Tree (re)builds so far: one at the first weighted pick of every call,
    /// plus one per mid-call rebuild.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Picks so far that the guard band handed to the sequential body.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Build over the positive entries of `weights` (others count as 0) in
    /// O(n), padded with zeros to a power-of-two size so the descent needs
    /// no bounds checks. Returns the index-order sum of the positive
    /// entries — bit for bit the sequential kernel's total.
    fn build(&mut self, weights: &[f64]) -> f64 {
        let size = weights.len().next_power_of_two();
        let mut total = 0.0;
        self.nodes.clear();
        self.nodes.push(0.0);
        self.nodes.extend(weights.iter().map(|&w| {
            if w > 0.0 {
                total += w;
                w
            } else {
                0.0
            }
        }));
        self.nodes.resize(size + 1, 0.0);
        for i in 1..size {
            let parent = i + (i & i.wrapping_neg());
            self.nodes[parent] += self.nodes[i];
        }
        self.builds += 1;
        total
    }

    /// Lift to `target`: the 0-based index `j` of the first entry whose
    /// prefix sum exceeds `target`, together with the prefix sum of the
    /// entries before `j`. The root is skipped, so a `target` at or past the
    /// total yields the last slot, whose upper boundary the guard rejects.
    fn descend(&self, target: f64) -> (usize, f64) {
        let size = self.nodes.len() - 1;
        let mut pos = 0;
        let mut before = 0.0;
        let mut step = size / 2;
        while step > 0 {
            let lifted = before + self.nodes[pos + step];
            // Branch-free: the comparison is a coin flip on every level.
            let take = lifted <= target;
            pos = if take { pos + step } else { pos };
            before = if take { lifted } else { before };
            step >>= 1;
        }
        (pos, before)
    }

    /// Subtract `w` from every node covering entry `idx`.
    fn remove(&mut self, idx: usize, w: f64) {
        let size = self.nodes.len() - 1;
        let mut i = idx + 1;
        while i <= size {
            self.nodes[i] -= w;
            i += i & i.wrapping_neg();
        }
    }

    /// The tree's pick for `target`, if it clears both of its prefix
    /// boundaries by more than `delta`; `None` hands the pick to the
    /// sequential body.
    fn guarded_pick(&self, weights: &[f64], target: f64, delta: f64) -> Option<usize> {
        let (j, before) = self.descend(target);
        let w = *weights.get(j)?;
        (w > 0.0 && target - before > delta && (before + w) - target > delta).then_some(j)
    }
}

/// In-place variant of [`sample_without_replacement_weighted`], making
/// exactly the draws of the sequential reference kernel
/// ([`sample_without_replacement_weighted_reference`]) in O(n + k·log n)
/// instead of O(n·k).
///
/// `weights` is consumed as working storage: non-finite and negative entries
/// are zeroed up front and picked entries are marked with a negative
/// sentinel. With `tree` reused across calls, the call performs no heap
/// allocation once `out` has grown to capacity `k`. This is what the
/// NSCaching cache refresh uses on its hot path.
///
/// **Exactness.** Each weighted pick draws one `unit ∈ [0, 1)` — the draw
/// behind `gen_range(0.0..total)`, which computes `0.0 + unit·(total − 0.0)`,
/// i.e. `unit·total` bit for bit. The sequential kernel then picks the first
/// `j` with `u_{j−1} < w_j` on the chain `u_0 = unit·T`, `u_j = u_{j−1} − w_j`,
/// where `T` is the index-order sum of the remaining weights. Here a Fenwick
/// tree built in O(n) answers the same question in O(log n): lift to the
/// prefix containing `unit·R`, where `R` is the running total (the total at
/// the last build minus the weights picked since), then subtract the picked
/// weight from the tree. `T`, `R`, the chain and the tree's prefixes all
/// differ from their exact real values by rounding errors bounded by
///
/// `δ = 4·(n + (k+8)·(⌈log2 n⌉+1))·ε·T0`,
///
/// where `T0` is the total at the last (re)build and `ε` is machine epsilon:
/// `n` covers the sums over all entries (`T`, `T0`, the chain), `k` the
/// subtractions since the build (from `R` and from each of the ≤ ⌈log2 n⌉+1
/// nodes a prefix reads), and the constants the few roundings of each draw
/// and comparison. So when the tree's pick clears both of its prefix
/// boundaries by more than `δ`, every comparison of the sequential chain
/// comes out the same way and the pick is the sequential pick. Otherwise
/// (the draw lands within `δ` of a boundary) the pick falls back to the
/// sequential body — exact total, then the chain — with the same `unit`.
/// When the remaining mass falls below `2^20·δ` the tree is rebuilt over
/// the remaining weights, which resets `T0` and with it `δ`; a total that
/// overflows or is subnormal (where rounding is no longer relative) sends
/// every pick of the call to the sequential body. Once no positive weight
/// remains, slots are filled uniformly exactly as the reference does.
pub fn sample_without_replacement_weighted_into<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &mut [f64],
    k: usize,
    out: &mut Vec<usize>,
    tree: &mut FenwickTree,
) {
    out.clear();
    let n = weights.len();
    let k = k.min(n);
    let mut positive = sanitize_weights(weights);
    let levels = f64::from(n.next_power_of_two().ilog2() + 1);
    // δ = bound·T0; the tree only pays off while 2^20·δ < T0.
    let bound = 4.0 * (n as f64 + (k as f64 + 8.0) * levels) * f64::EPSILON;
    let mut sequential_only = REBUILD_FACTOR * bound >= 1.0;
    let mut built = false;
    let mut mass = 0.0;
    let mut delta = 0.0;
    for _ in 0..k {
        if positive == 0 {
            let idx = uniform_unpicked(rng, weights);
            weights[idx] = PICKED;
            out.push(idx);
            continue;
        }
        if !sequential_only && (!built || mass < REBUILD_FACTOR * delta) {
            mass = tree.build(weights);
            built = true;
            delta = bound * mass;
            sequential_only = !(mass.is_finite() && mass >= f64::MIN_POSITIVE);
        }
        let unit: f64 = rng.gen();
        let fast = if sequential_only {
            None
        } else {
            tree.guarded_pick(weights, unit * mass, delta)
        };
        let idx = fast.unwrap_or_else(|| {
            tree.fallbacks += u64::from(!sequential_only);
            sequential_pick(weights, unit * remaining_total(weights))
        });
        if !sequential_only {
            tree.remove(idx, weights[idx]);
            mass -= weights[idx];
        }
        positive -= 1;
        weights[idx] = PICKED;
        out.push(idx);
    }
}

/// A cumulative-sum weighted index for repeated draws from a *fixed*
/// distribution (the distribution cannot be mutated after construction).
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build from non-negative weights. Returns `None` if the weights are
    /// empty or sum to a non-positive / non-finite value.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            let w = if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 || !acc.is_finite() {
            return None;
        }
        Some(Self {
            cumulative,
            total: acc,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when there are no categories.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen_range(0.0..self.total);
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("non-NaN cumulative"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Walker alias table for O(1) draws from a fixed discrete distribution.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build an alias table from non-negative weights. Returns `None` when the
    /// weights are empty or sum to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 {
            return None;
        }
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let scaled: Vec<f64> = weights
            .iter()
            .map(|w| {
                let w = if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
                w * n as f64 / total
            })
            .collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut scaled = scaled;
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in large.iter().chain(small.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Some(Self { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when there are no categories.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Reservoir sampler keeping a uniform sample of up to `capacity` items from a
/// stream of unknown length (used to sub-sample negative-score observations
/// for the CCDF plots without storing every score).
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    capacity: usize,
    seen: usize,
    items: Vec<T>,
}

impl<T> ReservoirSampler<T> {
    /// Create a reservoir with the given capacity (must be positive).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offer one item from the stream.
    pub fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if j < self.capacity {
                self.items[j] = item;
            }
        }
    }

    /// Items currently held.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Total number of items offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Consume the sampler and return its items.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use std::collections::HashSet;

    #[test]
    fn distinct_uniform_returns_distinct_in_range() {
        let mut rng = seeded_rng(10);
        for _ in 0..50 {
            let v = sample_distinct_uniform(&mut rng, 100, 20);
            assert_eq!(v.len(), 20);
            let set: HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 20);
            assert!(v.iter().all(|x| *x < 100));
        }
    }

    #[test]
    fn distinct_uniform_full_draw_is_permutation() {
        let mut rng = seeded_rng(11);
        let mut v = sample_distinct_uniform(&mut rng, 10, 10);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn distinct_uniform_rejects_oversized_request() {
        let mut rng = seeded_rng(12);
        let _ = sample_distinct_uniform(&mut rng, 3, 4);
    }

    #[test]
    fn weighted_draw_respects_proportions() {
        let mut rng = seeded_rng(13);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..40_000 {
            counts[sample_one_weighted(&mut rng, &weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_draw_with_zero_total_is_uniform_and_in_range() {
        let mut rng = seeded_rng(14);
        for _ in 0..100 {
            let i = sample_one_weighted(&mut rng, &[0.0, 0.0, 0.0]);
            assert!(i < 3);
        }
    }

    #[test]
    fn weighted_draw_ignores_nan_and_negative() {
        let mut rng = seeded_rng(15);
        for _ in 0..200 {
            let i = sample_one_weighted(&mut rng, &[f64::NAN, -1.0, 2.0]);
            assert_eq!(i, 2);
        }
    }

    #[test]
    fn without_replacement_returns_distinct_and_prefers_heavy() {
        let mut rng = seeded_rng(16);
        let mut first_counts = [0usize; 4];
        for _ in 0..20_000 {
            let picks = sample_without_replacement_weighted(&mut rng, &[1.0, 1.0, 1.0, 10.0], 2);
            assert_eq!(picks.len(), 2);
            assert_ne!(picks[0], picks[1]);
            first_counts[picks[0]] += 1;
        }
        assert!(first_counts[3] > first_counts[0] * 5);
    }

    #[test]
    fn without_replacement_handles_more_requested_than_available() {
        let mut rng = seeded_rng(17);
        let mut picks = sample_without_replacement_weighted(&mut rng, &[1.0, 2.0], 5);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn without_replacement_fills_from_zero_weights_when_needed() {
        let mut rng = seeded_rng(18);
        let picks = sample_without_replacement_weighted(&mut rng, &[0.0, 0.0, 5.0], 3);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 3);
        assert_eq!(picks[0], 2, "the only positive weight must be drawn first");
    }

    #[test]
    fn weighted_index_matches_expected_frequencies() {
        let wi = WeightedIndex::new(&[2.0, 0.0, 6.0]).unwrap();
        let mut rng = seeded_rng(19);
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[wi.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_rejects_degenerate_inputs() {
        assert!(WeightedIndex::new(&[]).is_none());
        assert!(WeightedIndex::new(&[0.0, 0.0]).is_none());
        assert!(WeightedIndex::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn alias_table_matches_expected_frequencies() {
        let at = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut rng = seeded_rng(20);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[at.sample(&mut rng)] += 1;
        }
        let p: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        assert!((p[0] - 0.1).abs() < 0.01);
        assert!((p[1] - 0.2).abs() < 0.015);
        assert!((p[2] - 0.7).abs() < 0.015);
    }

    #[test]
    fn alias_table_rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0]).is_none());
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let mut rng = seeded_rng(21);
        let mut r = ReservoirSampler::new(10);
        for i in 0..5 {
            r.offer(&mut rng, i);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn reservoir_is_approximately_uniform() {
        let mut rng = seeded_rng(22);
        let mut hits = vec![0usize; 100];
        for _ in 0..2000 {
            let mut r = ReservoirSampler::new(10);
            for i in 0..100 {
                r.offer(&mut rng, i);
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        // Each item should be kept ~10% of the time (200 of 2000 trials).
        let min = *hits.iter().min().unwrap() as f64;
        let max = *hits.iter().max().unwrap() as f64;
        assert!(min > 120.0 && max < 300.0, "min {min} max {max}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn reservoir_rejects_zero_capacity() {
        let _ = ReservoirSampler::<u32>::new(0);
    }
}
