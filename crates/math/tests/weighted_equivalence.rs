//! Equivalence proptests for the Fenwick-tree weighted-sampling kernel.
//!
//! [`sample_without_replacement_weighted_into`] must make **exactly** the
//! draws of the retained sequential kernel
//! [`sample_without_replacement_weighted_reference`]: the same picks in the
//! same order, the same working-buffer contents afterwards, and the same
//! RNG consumption — the next `u64` drawn from the generator after the call
//! must agree. Inputs cover the regimes where a prefix-sum shortcut could
//! drift from the sequential subtraction chain:
//!
//! * softmax weights with score spreads up to 700 (masses from near-uniform
//!   to a handful of entries holding all but ~1e-300 of the total);
//! * tie storms (a tiny discrete set of weights);
//! * zeros, and `k` past the positive count (the uniform fill);
//! * NaN, ±inf and negative entries (sanitised to zero);
//! * ragged `k` from 0 to `n + 4`.
//!
//! Two deterministic cases pin the two escape hatches: a stub generator that
//! lands the draw exactly on a prefix boundary (guard-band fallback), and a
//! weight vector whose mass collapses after the first pick (tree rebuild).

use nscaching_math::{
    sample_without_replacement_weighted_into, sample_without_replacement_weighted_reference,
    seeded_rng, softmax_in_place, FenwickTree,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Run both kernels on copies of `weights` and the same generator state;
/// require identical picks, working buffers and RNG positions.
fn assert_identical<R: RngCore + Clone>(
    rng: &R,
    weights: &[f64],
    k: usize,
    tree: &mut FenwickTree,
    next: impl Fn(&mut R) -> u64,
) -> Result<(), TestCaseError> {
    let (mut rng_fast, mut rng_ref) = (rng.clone(), rng.clone());
    let (mut w_fast, mut w_ref) = (weights.to_vec(), weights.to_vec());
    let (mut fast, mut oracle) = (Vec::new(), Vec::new());
    sample_without_replacement_weighted_into(&mut rng_fast, &mut w_fast, k, &mut fast, tree);
    sample_without_replacement_weighted_reference(&mut rng_ref, &mut w_ref, k, &mut oracle);
    prop_assert_eq!(&fast, &oracle);
    let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&w_fast), bits(&w_ref));
    prop_assert_eq!(next(&mut rng_fast), next(&mut rng_ref));
    Ok(())
}

fn check(seed: u64, weights: &[f64], k: usize) -> Result<(), TestCaseError> {
    assert_identical(
        &seeded_rng(seed),
        weights,
        k,
        &mut FenwickTree::default(),
        StdRng::next_u64,
    )
}

/// `k` in `0..n + 5` from an unconstrained draw.
fn ragged_k(raw: usize, n: usize) -> usize {
    raw % (n + 5)
}

fn softmax_weights(unit_scores: &[f64], spread: f64) -> Vec<f64> {
    let mut w: Vec<f64> = unit_scores.iter().map(|u| u * spread).collect();
    softmax_in_place(&mut w);
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fenwick_kernel_equals_the_sequential_oracle_on_softmax_weights(
        seed in any::<u64>(),
        unit_scores in prop::collection::vec(0.0f64..1.0, 1..300),
        spread in 0.0f64..700.0,
        k_raw in 0usize..400,
    ) {
        let w = softmax_weights(&unit_scores, spread);
        check(seed, &w, ragged_k(k_raw, w.len()))?;
    }

    #[test]
    fn fenwick_kernel_equals_the_sequential_oracle_under_tie_storms(
        seed in any::<u64>(),
        raw in prop::collection::vec(0u32..4, 1..300),
        k_raw in 0usize..400,
    ) {
        // Weights 0, 1, 2, 3: zeros, and every prefix sum is an exact
        // integer, so draws sit on or next to prefix boundaries often.
        let w: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
        check(seed, &w, ragged_k(k_raw, w.len()))?;
    }

    #[test]
    fn fenwick_kernel_equals_the_sequential_oracle_with_hostile_entries(
        seed in any::<u64>(),
        base in prop::collection::vec(0.0f64..10.0, 1..300),
        kinds in prop::collection::vec(0u32..8, 300),
        k_raw in 0usize..400,
    ) {
        let w: Vec<f64> = base
            .iter()
            .zip(&kinds)
            .map(|(&v, &kind)| match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -v,
                4 => 0.0,
                _ => v,
            })
            .collect();
        check(seed, &w, ragged_k(k_raw, w.len()))?;
    }

    #[test]
    fn fenwick_kernel_equals_the_sequential_oracle_across_magnitudes(
        seed in any::<u64>(),
        mantissas in prop::collection::vec(1.0f64..2.0, 1..200),
        exponents in prop::collection::vec(-1000i32..1000, 200),
        k_raw in 0usize..300,
    ) {
        // Weights from 1e-301 to 1e301: overflowing totals, subnormal
        // remainders and mass collapses that force rebuilds.
        let w: Vec<f64> = mantissas
            .iter()
            .zip(&exponents)
            .map(|(&m, &e)| m * 2f64.powi(e))
            .collect();
        check(seed, &w, ragged_k(k_raw, w.len()))?;
    }

    #[test]
    fn a_reused_tree_gives_the_same_draws(
        seed in any::<u64>(),
        calls in prop::collection::vec((prop::collection::vec(0.0f64..1.0, 1..120), 0.0f64..60.0), 1..6),
    ) {
        // One tree across calls of varying length, as the cache refresh
        // reuses its scratch.
        let mut tree = FenwickTree::default();
        let mut rng = seeded_rng(seed);
        for (unit_scores, spread) in &calls {
            let w = softmax_weights(unit_scores, *spread);
            let k = w.len() / 2;
            assert_identical(&rng, &w, k, &mut tree, StdRng::next_u64)?;
            let mut picks = Vec::new();
            sample_without_replacement_weighted_into(&mut rng, &mut w.clone(), k, &mut picks, &mut tree);
        }
    }
}

/// A generator returning one fixed word, counting its calls.
#[derive(Clone)]
struct FixedWord {
    word: u64,
    calls: u64,
}

impl RngCore for FixedWord {
    fn next_u64(&mut self) -> u64 {
        self.calls += 1;
        self.word
    }
}

#[test]
fn a_draw_on_a_prefix_boundary_falls_back_to_the_sequential_body() {
    // unit = (2^62 >> 11)·2^-53 = 0.25 exactly, so every weighted draw is
    // 0.25 of the remaining total: with equal weights it lands exactly on a
    // prefix boundary, where the chain's strict `u < w` must decide.
    let rng = FixedWord {
        word: 1 << 62,
        calls: 0,
    };
    let mut tree = FenwickTree::default();
    for n in [4usize, 8, 12, 100] {
        let w = vec![1.0; n];
        assert_identical(&rng, &w, n, &mut tree, |r| {
            r.next_u64();
            r.calls
        })
        .unwrap();
    }
    assert!(
        tree.fallbacks() > 0,
        "boundary draws must take the sequential fallback"
    );
}

#[test]
fn a_collapsed_mass_rebuilds_the_tree() {
    // After the first pick takes the 1.0, the running total is 0 while 99
    // entries of 1e-300 remain: far below 2^20·δ of the first build.
    let mut w = vec![1e-300; 100];
    w[37] = 1.0;
    let mut tree = FenwickTree::default();
    for seed in 0..20 {
        assert_identical(&seeded_rng(seed), &w, 50, &mut tree, StdRng::next_u64).unwrap();
    }
    // Two builds per call of the fast kernel (initial + rebuild), and the
    // rebuilt tree decides the remaining picks itself.
    assert_eq!(tree.builds(), 40, "every call must rebuild once");
    assert_eq!(tree.fallbacks(), 0, "the rebuilt tree must carry the picks");
}

#[test]
fn the_tree_decides_nearly_every_realistic_pick() {
    // The refresh design point: N1 = 50 of N1 + N2 = 100 softmax weights
    // over scores with a TransE-like spread. The guard band must be a
    // sliver, not a second sequential kernel.
    let mut rng = seeded_rng(99);
    let mut tree = FenwickTree::default();
    let mut picks = Vec::new();
    let calls = 2_000;
    for _ in 0..calls {
        let scores: Vec<f64> = (0..100).map(|_| rng.gen::<f64>()).collect();
        let mut w = softmax_weights(&scores, 12.0);
        sample_without_replacement_weighted_into(&mut rng, &mut w, 50, &mut picks, &mut tree);
    }
    assert_eq!(tree.builds(), calls, "no rebuilds on realistic weights");
    assert!(
        tree.fallbacks() * 1000 < (calls * 50),
        "fallbacks {} of {} picks",
        tree.fallbacks(),
        calls * 50
    );
}
