//! Exactness of the last-seen-epoch `RepeatTracker` against the retired
//! per-epoch-map tracker.
//!
//! The oracle below is the tracker the trainer used before: one `HashMap`
//! of draw counts per epoch, a draw being a repeat when the current map or
//! any of the `window` closed maps in the history holds it. The production
//! tracker keeps one table of last-seen epochs instead, and must report
//! bit-identical `ratio()` values after every epoch — on streams with heavy
//! repeats (within one epoch and across epochs), on streams where every
//! draw is distinct, over runs long enough (3× the window) that eviction
//! runs many times, and with empty epochs in between.

use nscaching_kg::Triple;
use nscaching_math::seeded_rng;
use nscaching_train::RepeatTracker;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// The retired tracker, verbatim apart from naming: per-epoch count maps,
/// probed one by one.
struct PerEpochMapTracker {
    window: usize,
    current: HashMap<Triple, u64>,
    history: VecDeque<HashMap<Triple, u64>>,
    draws_in_window: u64,
    repeats_in_window: u64,
}

impl PerEpochMapTracker {
    fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
            current: HashMap::new(),
            history: VecDeque::new(),
            draws_in_window: 0,
            repeats_in_window: 0,
        }
    }

    fn record(&mut self, negative: Triple) {
        self.draws_in_window += 1;
        let seen_before = self.current.contains_key(&negative)
            || self.history.iter().any(|m| m.contains_key(&negative));
        if seen_before {
            self.repeats_in_window += 1;
        }
        *self.current.entry(negative).or_insert(0) += 1;
    }

    fn ratio(&self) -> f64 {
        if self.draws_in_window == 0 {
            return 0.0;
        }
        self.repeats_in_window as f64 / self.draws_in_window as f64
    }

    fn end_epoch(&mut self) {
        self.history.push_back(std::mem::take(&mut self.current));
        while self.history.len() > self.window {
            if let Some(evicted) = self.history.pop_front() {
                let evicted_draws: u64 = evicted.values().sum();
                self.draws_in_window = self.draws_in_window.saturating_sub(evicted_draws);
                self.repeats_in_window = self.repeats_in_window.min(self.draws_in_window);
            }
        }
    }
}

/// How a stream picks its draws.
#[derive(Debug, Clone, Copy)]
enum Stream {
    /// Uniform over a pool of `n` distinct triples: small pools repeat
    /// heavily, within an epoch and across epochs.
    Pool(u32),
    /// A fresh triple on every draw.
    Distinct,
    /// Mostly fresh triples, with a hot pool of 16 drawn one time in four.
    HotAndFresh,
}

fn pool_triple(i: u32) -> Triple {
    Triple::new(i % 13, (i / 13) % 3, i / 39)
}

fn draw(stream: Stream, rng: &mut StdRng, fresh: &mut u32) -> Triple {
    match stream {
        Stream::Pool(n) => pool_triple(rng.gen_range(0..n)),
        Stream::Distinct => {
            *fresh += 1;
            Triple::new(*fresh, 7, *fresh ^ 0x55)
        }
        Stream::HotAndFresh => {
            if rng.gen_range(0..4u32) == 0 {
                pool_triple(rng.gen_range(0..16u32))
            } else {
                *fresh += 1;
                Triple::new(1_000_000 + *fresh, 1, *fresh)
            }
        }
    }
}

/// Drive both trackers through `epochs` epochs of the same stream and
/// require identical ratio bits mid-epoch, at every epoch end and after
/// every eviction.
fn assert_equivalent(window: usize, epochs: usize, stream: Stream, seed: u64) {
    let mut rng = seeded_rng(seed);
    let mut fresh = 0u32;
    let mut oracle = PerEpochMapTracker::new(window);
    let mut tracker = RepeatTracker::new(window);
    for epoch in 0..epochs {
        // Epoch sizes vary, and one epoch in seven is empty.
        let draws = if epoch % 7 == 3 {
            0
        } else {
            rng.gen_range(1..300usize)
        };
        for i in 0..draws {
            let negative = draw(stream, &mut rng, &mut fresh);
            oracle.record(negative);
            tracker.record(negative);
            if i % 37 == 0 {
                assert_eq!(
                    tracker.ratio().to_bits(),
                    oracle.ratio().to_bits(),
                    "window {window}, {stream:?}, seed {seed}: mid-epoch {epoch}, draw {i}"
                );
            }
        }
        assert_eq!(
            tracker.ratio().to_bits(),
            oracle.ratio().to_bits(),
            "window {window}, {stream:?}, seed {seed}: end of epoch {epoch}"
        );
        oracle.end_epoch();
        tracker.end_epoch();
        assert_eq!(
            tracker.ratio().to_bits(),
            oracle.ratio().to_bits(),
            "window {window}, {stream:?}, seed {seed}: after closing epoch {epoch}"
        );
    }
}

const WINDOWS: [usize; 7] = [0, 1, 2, 3, 4, 5, 20];

#[test]
fn heavy_repeat_streams_match_the_per_epoch_map_oracle() {
    for window in WINDOWS {
        for (k, pool) in [4u32, 40, 400].into_iter().enumerate() {
            for seed in 0..3u64 {
                assert_equivalent(
                    window,
                    3 * window.max(1),
                    Stream::Pool(pool),
                    seed * 31 + k as u64,
                );
            }
        }
    }
}

#[test]
fn all_distinct_streams_match_the_per_epoch_map_oracle() {
    for window in WINDOWS {
        for seed in 0..3u64 {
            assert_equivalent(window, 3 * window.max(1), Stream::Distinct, 100 + seed);
        }
    }
}

#[test]
fn mixed_streams_match_the_per_epoch_map_oracle() {
    for window in WINDOWS {
        for seed in 0..3u64 {
            assert_equivalent(window, 3 * window.max(1), Stream::HotAndFresh, 200 + seed);
        }
    }
}

#[test]
fn a_triple_last_drawn_exactly_window_epochs_ago_still_repeats() {
    // Boundary of the window: drawn in epoch 0, redrawn in epoch `window`
    // (still covered: the history holds `window` closed epochs), then in
    // epoch `2·window + 1` (one epoch too late).
    for window in [1usize, 2, 5, 20] {
        let mut oracle = PerEpochMapTracker::new(window);
        let mut tracker = RepeatTracker::new(window);
        let a = Triple::new(3, 1, 4);
        for epoch in 0..=(2 * window + 1) {
            if epoch == 0 || epoch == window || epoch == 2 * window + 1 {
                oracle.record(a);
                tracker.record(a);
            }
            tracker.record(Triple::new(10 + epoch as u32, 0, 0));
            oracle.record(Triple::new(10 + epoch as u32, 0, 0));
            assert_eq!(tracker.ratio().to_bits(), oracle.ratio().to_bits());
            oracle.end_epoch();
            tracker.end_epoch();
        }
    }
}
