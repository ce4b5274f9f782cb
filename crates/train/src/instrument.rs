//! Per-epoch instrumentation: the quantities behind Figures 7, 8 and 10.

use nscaching_kg::Triple;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Summary statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean per-example training loss.
    pub mean_loss: f64,
    /// Fraction of examples whose loss produced a non-zero gradient — the
    /// "NZL" ratio of Figures 7(b) and 8(b).
    pub nonzero_loss_ratio: f64,
    /// Mean L2 norm of the mini-batch gradients — Figure 10.
    pub mean_gradient_norm: f64,
    /// Negative-sample repeat ratio over the configured window — Figure 7(a).
    pub repeat_ratio: f64,
    /// Cache elements changed during the epoch (0 for cache-less samplers) —
    /// Figure 8(a).
    pub changed_cache_elements: u64,
    /// Wall-clock seconds spent in this epoch (training only, no snapshots).
    pub seconds: f64,
    /// Number of training examples processed.
    pub examples: usize,
}

impl EpochStats {
    /// TSV row used by the experiment binaries.
    pub fn tsv_row(&self) -> String {
        format!(
            "{}\t{:.6}\t{:.4}\t{:.6}\t{:.4}\t{}\t{:.3}\t{}",
            self.epoch,
            self.mean_loss,
            self.nonzero_loss_ratio,
            self.mean_gradient_norm,
            self.repeat_ratio,
            self.changed_cache_elements,
            self.seconds,
            self.examples
        )
    }

    /// Header matching [`tsv_row`](Self::tsv_row).
    pub fn tsv_header() -> &'static str {
        "epoch\tmean_loss\tnzl_ratio\tgrad_norm\trepeat_ratio\tcache_changes\tseconds\texamples"
    }
}

/// Fixed multiplicative hasher for the repeat tracker's table (FxHash's
/// rotate-xor-multiply round per `u32` id, with a final rotation that moves
/// the best-mixed high product bits into the bucket index).
///
/// The keys are the trainer's own entity and relation ids, not outside
/// input, so std's randomised SipHash buys nothing here and costs most of
/// a probe.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.add(u64::from(id));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Tracks how often the same negative triple is drawn within a sliding window
/// of epochs (the "RR" measure of Figure 7(a)).
///
/// A draw counts as a *repeat* when the same negative triple was already
/// drawn earlier within the window: in the current epoch or in one of the
/// `window` epochs closed before it. The ratio is the repeats over the draws
/// of those `window + 1` epochs; when an epoch leaves the window its draws
/// leave the denominator and the repeat count is clamped to it.
///
/// One table maps every triple drawn in the window to the last epoch it was
/// drawn in, so a draw is one probe: it repeats iff that epoch is at least
/// `current − window`. Because the last sighting is the latest one, this
/// is exactly "some epoch of the window drew it". Entries older than the
/// window are dropped at each epoch boundary, so the table never holds more
/// triples than the `window + 1` epochs drew — `(window + 1)` × the draws of
/// an epoch. That much room is reserved once, after the first epoch, so the
/// table does not grow mid-run.
#[derive(Debug, Clone)]
pub struct RepeatTracker {
    window: u32,
    /// The current epoch, 0-based.
    epoch: u32,
    /// Last epoch in which each triple of the window was drawn.
    last_seen: HashMap<Triple, u32, BuildHasherDefault<IdHasher>>,
    /// Draws of the closed epochs still in the window, oldest first.
    closed_draws: VecDeque<u64>,
    current_draws: u64,
    draws_in_window: u64,
    repeats_in_window: u64,
}

impl RepeatTracker {
    /// Track repeats over a window of `window` epochs (≥ 1).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.clamp(1, u32::MAX as usize) as u32,
            epoch: 0,
            last_seen: HashMap::default(),
            closed_draws: VecDeque::new(),
            current_draws: 0,
            draws_in_window: 0,
            repeats_in_window: 0,
        }
    }

    /// Record one sampled negative triple.
    #[inline]
    pub fn record(&mut self, negative: Triple) {
        self.draws_in_window += 1;
        self.current_draws += 1;
        let horizon = self.epoch.saturating_sub(self.window);
        if let Some(last) = self.last_seen.insert(negative, self.epoch) {
            if last >= horizon {
                self.repeats_in_window += 1;
            }
        }
    }

    /// The repeat ratio over the current window, in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.draws_in_window == 0 {
            return 0.0;
        }
        self.repeats_in_window as f64 / self.draws_in_window as f64
    }

    /// Close the current epoch; evicts the epoch that falls out of the window.
    pub fn end_epoch(&mut self) {
        if self.epoch == 0 {
            // Size the table once for a full window of epochs like this one.
            // Only a room hint: a window too large to reserve grows on demand.
            let room = (self.window as usize + 1).saturating_mul(self.current_draws as usize);
            let _ = self
                .last_seen
                .try_reserve(room.saturating_sub(self.last_seen.len()));
        }
        self.closed_draws
            .push_back(std::mem::take(&mut self.current_draws));
        if self.closed_draws.len() > self.window as usize {
            if let Some(evicted) = self.closed_draws.pop_front() {
                // The evicted epoch's draws leave the window. Which of the
                // counted repeats they were is not tracked, so the repeat
                // count is only clamped; the trend (Bernoulli ≈ 0, NSCaching
                // ≫ 0) is what Figure 7 reads off, and that is preserved.
                self.draws_in_window = self.draws_in_window.saturating_sub(evicted);
                self.repeats_in_window = self.repeats_in_window.min(self.draws_in_window);
            }
        }
        self.epoch += 1;
        if self.epoch > self.window {
            let horizon = self.epoch - self.window;
            self.last_seen.retain(|_, last| *last >= horizon);
        }
    }
}

/// Accumulates the per-epoch statistics while an epoch runs.
#[derive(Debug, Clone, Default)]
pub struct EpochAccumulator {
    loss_sum: f64,
    examples: usize,
    nonzero: usize,
    grad_norm_sum: f64,
    grad_batches: usize,
}

impl EpochAccumulator {
    /// Start a fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one training example's loss.
    pub fn record_example(&mut self, loss: f64, nonzero: bool) {
        self.loss_sum += loss;
        self.examples += 1;
        if nonzero {
            self.nonzero += 1;
        }
    }

    /// Record one mini-batch gradient norm.
    pub fn record_batch_gradient(&mut self, norm: f64) {
        self.grad_norm_sum += norm;
        self.grad_batches += 1;
    }

    /// Number of examples recorded so far.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Finalise into an [`EpochStats`].
    pub fn finish(
        self,
        epoch: usize,
        repeat_ratio: f64,
        changed_cache_elements: u64,
        seconds: f64,
    ) -> EpochStats {
        EpochStats {
            epoch,
            mean_loss: if self.examples == 0 {
                0.0
            } else {
                self.loss_sum / self.examples as f64
            },
            nonzero_loss_ratio: if self.examples == 0 {
                0.0
            } else {
                self.nonzero as f64 / self.examples as f64
            },
            mean_gradient_norm: if self.grad_batches == 0 {
                0.0
            } else {
                self.grad_norm_sum / self.grad_batches as f64
            },
            repeat_ratio,
            changed_cache_elements,
            seconds,
            examples: self.examples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_tracker_counts_repeats_within_the_window() {
        let mut t = RepeatTracker::new(2);
        let a = Triple::new(0, 0, 1);
        let b = Triple::new(0, 0, 2);
        t.record(a);
        t.record(b);
        assert_eq!(t.ratio(), 0.0);
        t.record(a); // repeat
        assert!((t.ratio() - 1.0 / 3.0).abs() < 1e-12);
        t.end_epoch();
        // next epoch: a is still within the window, so drawing it repeats
        t.record(a);
        assert!(t.ratio() > 0.0);
    }

    #[test]
    fn repeat_tracker_evicts_old_epochs() {
        let mut t = RepeatTracker::new(1);
        let a = Triple::new(1, 0, 2);
        t.record(a);
        t.end_epoch();
        t.record(a); // within window of 1 epoch back -> repeat
        assert!(t.ratio() > 0.0);
        t.end_epoch();
        t.end_epoch(); // pushes the old epoch out of the window
        assert_eq!(t.ratio(), 0.0, "empty window has no repeats");
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = RepeatTracker::new(5);
        assert_eq!(t.ratio(), 0.0);
    }

    #[test]
    fn accumulator_averages_losses_and_gradients() {
        let mut acc = EpochAccumulator::new();
        acc.record_example(1.0, true);
        acc.record_example(0.0, false);
        acc.record_example(2.0, true);
        acc.record_batch_gradient(3.0);
        acc.record_batch_gradient(5.0);
        assert_eq!(acc.examples(), 3);
        let stats = acc.finish(7, 0.25, 42, 1.5);
        assert_eq!(stats.epoch, 7);
        assert!((stats.mean_loss - 1.0).abs() < 1e-12);
        assert!((stats.nonzero_loss_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.mean_gradient_norm - 4.0).abs() < 1e-12);
        assert_eq!(stats.changed_cache_elements, 42);
        assert_eq!(stats.examples, 3);
        assert!((stats.repeat_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_finishes_with_zeros() {
        let stats = EpochAccumulator::new().finish(0, 0.0, 0, 0.0);
        assert_eq!(stats.mean_loss, 0.0);
        assert_eq!(stats.nonzero_loss_ratio, 0.0);
        assert_eq!(stats.mean_gradient_norm, 0.0);
    }

    #[test]
    fn tsv_row_has_the_documented_columns() {
        let stats = EpochAccumulator::new().finish(3, 0.5, 7, 0.25);
        let row = stats.tsv_row();
        assert_eq!(
            row.split('\t').count(),
            EpochStats::tsv_header().split('\t').count()
        );
        assert!(row.starts_with("3\t"));
    }
}
