//! Timing decorators around the workspace's public traits.
//!
//! [`TimedModel`] wraps a [`KgeModel`], [`TimedSampler`] a
//! [`NegativeSampler`] and [`TimedShard`] each [`ShardSampler`] the sampler
//! hands out. Every trait method — the defaulted ones included — forwards to
//! the inner object, so outputs are bit-identical to the bare object; the
//! wrappers only add call counts and duration sums to shared atomic
//! counters. Per-call timings are kept as sums, never as individual spans,
//! so memory stays bounded however long the run. In batch-clock mode
//! ([`TimedModel::batch_clock`]) the model wrapper times nothing per call
//! and only marks the end of each optimizer step; untraced runs use it to
//! time mini-batches.
//!
//! Nested time: while a sampler `update` (Algorithm 3's refresh) runs on a
//! thread, model time spent on that thread is also added to
//! [`SamplerCounters::update_model_ns`], so `update − nested model time` is
//! the sampler's own work (pool build, softmax, weighted select).

use nscaching::{NegativeSampler, SampledNegative, SamplerState, ShardSampler};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_models::{EmbeddingTable, GradientSink, KgeModel, LossType, ModelKind, TableId};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A call count and a duration sum. Relaxed atomics: the values publish no
/// other data and are read after the workers are joined.
#[derive(Debug, Default)]
pub struct CallCounter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallCounter {
    fn add(&self, nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the calls.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

thread_local! {
    /// Set while a sampler `update` runs on this thread.
    static IN_UPDATE: Cell<bool> = const { Cell::new(false) };
    /// Model nanoseconds spent on this thread inside the current update.
    static UPDATE_MODEL_NS: Cell<u64> = const { Cell::new(0) };
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Adds a finished model call's duration to the enclosing update, if any.
fn note_model_time(nanos: u64) {
    if IN_UPDATE.with(Cell::get) {
        UPDATE_MODEL_NS.with(|c| c.set(c.get() + nanos));
    }
}

/// Counters of one [`TimedModel`] (shared by its clones).
#[derive(Debug, Default)]
pub struct ModelCounters {
    /// `score`.
    pub score: CallCounter,
    /// `score_candidates`.
    pub score_candidates: CallCounter,
    /// Candidates passed to `score_candidates`.
    pub candidates: AtomicU64,
    /// `score_all_into` and `score_all`.
    pub score_all: CallCounter,
    /// `accumulate_score_gradient`.
    pub grad_emit: CallCounter,
}

impl ModelCounters {
    /// Candidates scored through `score_candidates`.
    pub fn candidates_scored(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }
}

/// When each `apply_constraints` call ended — one per optimizer step, i.e.
/// one per mini-batch in every engine.
pub type BatchMarks = Arc<Mutex<Vec<Instant>>>;

/// A [`KgeModel`] that times every scoring and gradient call of `inner`
/// (with counters) and/or marks the end of every optimizer step (with a
/// batch clock).
pub struct TimedModel {
    inner: Box<dyn KgeModel>,
    counters: Option<Arc<ModelCounters>>,
    marks: Option<BatchMarks>,
}

impl TimedModel {
    /// Wrap `inner`, recording every call into `counters`.
    pub fn new(inner: Box<dyn KgeModel>, counters: Arc<ModelCounters>) -> Self {
        Self {
            inner,
            counters: Some(counters),
            marks: None,
        }
    }

    /// Wrap `inner`, recording only the end of each optimizer step: one
    /// clock read per mini-batch, nothing per example.
    pub fn batch_clock(inner: Box<dyn KgeModel>, marks: BatchMarks) -> Self {
        Self {
            inner,
            counters: None,
            marks: Some(marks),
        }
    }

    fn timed<T>(
        &self,
        counter: impl Fn(&ModelCounters) -> &CallCounter,
        call: impl FnOnce(&dyn KgeModel) -> T,
    ) -> T {
        let Some(counters) = &self.counters else {
            return call(self.inner.as_ref());
        };
        let started = Instant::now();
        let out = call(self.inner.as_ref());
        let nanos = elapsed_ns(started);
        counter(counters).add(nanos);
        note_model_time(nanos);
        out
    }
}

impl KgeModel for TimedModel {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }

    fn num_entities(&self) -> usize {
        self.inner.num_entities()
    }

    fn num_relations(&self) -> usize {
        self.inner.num_relations()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn score(&self, triple: &Triple) -> f64 {
        self.timed(|c| &c.score, |m| m.score(triple))
    }

    fn accumulate_score_gradient(&self, triple: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        self.timed(
            |c| &c.grad_emit,
            |m| m.accumulate_score_gradient(triple, coeff, grads),
        )
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        self.inner.tables()
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        self.inner.tables_mut()
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        self.inner.table_mut(table)
    }

    fn parameter_rows(&self, triple: &Triple) -> Vec<(TableId, usize)> {
        self.inner.parameter_rows(triple)
    }

    fn apply_constraints(&mut self, touched: &[(TableId, usize)]) {
        self.inner.apply_constraints(touched);
        if let Some(marks) = &self.marks {
            marks
                .lock()
                .expect("batch marks poisoned by a panic")
                .push(Instant::now());
        }
    }

    /// Clones keep the counters (the pipelined engine scores against a
    /// clone) but not the batch clock, which follows the live model only.
    fn clone_box(&self) -> Box<dyn KgeModel> {
        Box::new(TimedModel {
            inner: self.inner.clone_box(),
            counters: self.counters.clone(),
            marks: None,
        })
    }

    fn loss_type(&self) -> LossType {
        self.inner.loss_type()
    }

    fn score_candidates(
        &self,
        triple: &Triple,
        side: CorruptionSide,
        candidates: &[EntityId],
        out: &mut Vec<f64>,
    ) {
        if let Some(counters) = &self.counters {
            counters
                .candidates
                .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        }
        self.timed(
            |c| &c.score_candidates,
            |m| m.score_candidates(triple, side, candidates, out),
        )
    }

    fn score_all_into(&self, triple: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        self.timed(|c| &c.score_all, |m| m.score_all_into(triple, side, out))
    }

    fn score_all(&self, triple: &Triple, side: CorruptionSide) -> Vec<f64> {
        self.timed(|c| &c.score_all, |m| m.score_all(triple, side))
    }

    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }
}

/// Counters of one [`TimedSampler`] and the shard workers it hands out.
#[derive(Debug, Default)]
pub struct SamplerCounters {
    /// `sample`, through the sampler or a shard worker.
    pub sample: CallCounter,
    /// `update`, through the sampler or a shard worker.
    pub update: CallCounter,
    /// Model nanoseconds nested inside `update` calls.
    pub update_model_ns: AtomicU64,
    /// `feedback`, through the sampler or a shard worker.
    pub feedback: CallCounter,
    /// Cache bytes, read by the probe at the last epoch end.
    pub cache_bytes: AtomicU64,
    /// Cache refreshes so far, read by the probe at the last epoch end.
    pub refreshes: AtomicU64,
}

impl SamplerCounters {
    /// Update seconds minus the model time nested inside them.
    pub fn update_self_seconds(&self) -> f64 {
        (self.update.seconds() - self.update_model_ns.load(Ordering::Relaxed) as f64 * 1e-9)
            .max(0.0)
    }
}

/// Runs `call` as a timed sampler update, attributing nested model time.
fn timed_update(counters: &SamplerCounters, call: impl FnOnce()) {
    let outer = IN_UPDATE.with(|f| f.replace(true));
    let nested_before = UPDATE_MODEL_NS.with(|c| c.replace(0));
    let started = Instant::now();
    call();
    counters.update.add(elapsed_ns(started));
    let nested = UPDATE_MODEL_NS.with(|c| c.replace(nested_before));
    counters
        .update_model_ns
        .fetch_add(nested, Ordering::Relaxed);
    IN_UPDATE.with(|f| f.set(outer));
}

fn timed_call<T>(counter: &CallCounter, call: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = call();
    counter.add(elapsed_ns(started));
    out
}

/// Reads sampler-specific state the trait does not expose; called at every
/// epoch end.
pub type SamplerProbe<S> = fn(&S) -> ProbeReading;

/// What a [`SamplerProbe`] reads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeReading {
    /// Bytes held by the negative caches.
    pub cache_bytes: u64,
    /// Cache refreshes performed so far.
    pub refreshes: u64,
}

/// A [`NegativeSampler`] that times `inner`'s per-positive calls.
pub struct TimedSampler<S> {
    inner: S,
    counters: Arc<SamplerCounters>,
    probe: SamplerProbe<S>,
}

impl<S: NegativeSampler> TimedSampler<S> {
    /// Wrap `inner`, recording into `counters`; `probe` reads the state the
    /// trait does not expose.
    pub fn new(inner: S, counters: Arc<SamplerCounters>, probe: SamplerProbe<S>) -> Self {
        Self {
            inner,
            counters,
            probe,
        }
    }
}

impl<S: NegativeSampler> NegativeSampler for TimedSampler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        let counters = Arc::clone(&self.counters);
        timed_call(&counters.sample, || self.inner.sample(positive, model, rng))
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        rng: &mut StdRng,
    ) {
        let counters = Arc::clone(&self.counters);
        timed_call(&counters.feedback, || {
            self.inner.feedback(positive, negative, reward, rng)
        })
    }

    fn update(&mut self, positive: &Triple, model: &dyn KgeModel, rng: &mut StdRng) {
        let counters = Arc::clone(&self.counters);
        timed_update(&counters, || self.inner.update(positive, model, rng))
    }

    fn prepare_shards(&mut self, shards: usize) {
        self.inner.prepare_shards(shards)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        self.inner.shard_of(positive, shards)
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let counters = &self.counters;
        self.inner
            .shard_workers()
            .into_iter()
            .map(|inner| {
                Box::new(TimedShard {
                    inner,
                    counters: Arc::clone(counters),
                }) as Box<dyn ShardSampler + '_>
            })
            .collect()
    }

    fn merge_batch(&mut self) {
        self.inner.merge_batch()
    }

    fn epoch_finished(&mut self, epoch: usize) {
        self.inner.epoch_finished(epoch);
        let reading = (self.probe)(&self.inner);
        self.counters
            .cache_bytes
            .store(reading.cache_bytes, Ordering::Relaxed);
        self.counters
            .refreshes
            .store(reading.refreshes, Ordering::Relaxed);
    }

    fn extra_parameters(&self) -> usize {
        self.inner.extra_parameters()
    }

    fn take_changed_elements(&mut self) -> u64 {
        self.inner.take_changed_elements()
    }

    fn tail_cache_contents(&self, positive: &Triple) -> Option<Vec<u32>> {
        self.inner.tail_cache_contents(positive)
    }

    fn head_cache_contents(&self, positive: &Triple) -> Option<Vec<u32>> {
        self.inner.head_cache_contents(positive)
    }

    fn export_state(&self) -> SamplerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// A [`ShardSampler`] that times `inner`'s calls into its sampler's counters.
pub struct TimedShard<'a> {
    inner: Box<dyn ShardSampler + 'a>,
    counters: Arc<SamplerCounters>,
}

impl ShardSampler for TimedShard<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        timed_call(&self.counters.sample, || {
            self.inner.sample(positive, model, rng)
        })
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        rng: &mut StdRng,
    ) {
        timed_call(&self.counters.feedback, || {
            self.inner.feedback(positive, negative, reward, rng)
        })
    }

    fn update(&mut self, positive: &Triple, model: &dyn KgeModel, rng: &mut StdRng) {
        timed_update(&self.counters, || self.inner.update(positive, model, rng))
    }
}
