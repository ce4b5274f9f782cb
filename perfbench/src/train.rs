//! Set-up and the training phase: data generation, trainer assembly,
//! epochs with a filtered snapshot evaluation after each, and the two
//! snapshots the serving phase reloads between.

use crate::timing::{
    BatchMarks, ModelCounters, ProbeReading, SamplerCounters, TimedModel, TimedSampler,
};
use crate::trace::{SpanId, Tracer};
use nscaching::{
    BernoulliSampler, CorruptionPolicy, NegativeSampler, NsCachingConfig, NsCachingSampler,
};
use nscaching_datagen::BenchmarkFamily;
use nscaching_eval::EvalProtocol;
use nscaching_kg::{Dataset, Triple};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_obs::MetricsRegistry;
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, TrainData, TrainMetrics, Trainer};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which negative sampler a workload trains with.
#[derive(Debug, Clone, Copy)]
pub enum SamplerSpec {
    /// The paper's NSCaching with cache size `N1` and candidate size `N2`.
    NsCaching { n1: usize, n2: usize },
    /// The Bernoulli baseline.
    Bernoulli,
}

/// The training half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub family: BenchmarkFamily,
    pub scale: f64,
    /// TransE embedding dimension.
    pub dim: usize,
    pub sampler: SamplerSpec,
    pub epochs: usize,
    /// A set-up repetition runs after every `setup_every`-th epoch.
    pub setup_every: usize,
    /// Cap on the test triples each snapshot evaluation ranks.
    pub eval_max: Option<usize>,
    pub eval_threads: usize,
    /// Filtered MRR the run must reach; `time_to_target_s` is measured to it.
    pub target_mrr: f64,
}

/// Instrumentation installed on a traced trainer.
pub struct Instruments {
    pub model: Arc<ModelCounters>,
    pub sampler: Arc<SamplerCounters>,
    pub registry: Arc<MetricsRegistry>,
}

impl Instruments {
    pub fn new() -> Self {
        Self {
            model: Arc::default(),
            sampler: Arc::default(),
            registry: Arc::new(MetricsRegistry::new()),
        }
    }
}

impl Default for Instruments {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything set-up produces.
pub struct Setup {
    pub dataset: Dataset,
    pub trainer: Trainer,
    /// Total, dataset generation and `TrainData` times, seconds.
    pub setup_s: f64,
    pub generate_s: f64,
    pub train_data_s: f64,
}

/// Standard configuration: Adam 0.02, margin 3, batch 256 (the experiment
/// binaries' translational-model settings), one shard, the default engine.
fn train_config(spec: &TrainSpec, seed: u64) -> TrainConfig {
    TrainConfig::new(spec.epochs)
        .with_batch_size(crate::workload::BATCH_SIZE)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(3.0)
        .with_lambda(0.001)
        .with_seed(seed.wrapping_add(1))
        .with_shards(1)
}

fn nscaching_probe(sampler: &NsCachingSampler) -> ProbeReading {
    ProbeReading {
        cache_bytes: sampler.cache_memory_bytes() as u64,
        refreshes: sampler.refresh_count(),
    }
}

fn bernoulli_probe(_: &BernoulliSampler) -> ProbeReading {
    ProbeReading::default()
}

fn build_sampler(
    spec: &TrainSpec,
    dataset: &Dataset,
    counters: Option<&Arc<SamplerCounters>>,
) -> Box<dyn NegativeSampler> {
    let (entities, relations) = (dataset.num_entities(), dataset.num_relations());
    match spec.sampler {
        SamplerSpec::NsCaching { n1, n2 } => {
            let policy = CorruptionPolicy::bernoulli_from_train(&dataset.train, relations);
            let sampler = NsCachingSampler::new(NsCachingConfig::new(n1, n2), entities, policy)
                .with_observed_keys(&dataset.train);
            match counters {
                Some(c) => Box::new(TimedSampler::new(sampler, Arc::clone(c), nscaching_probe)),
                None => Box::new(sampler),
            }
        }
        SamplerSpec::Bernoulli => {
            let sampler = BernoulliSampler::new(&dataset.train, entities, relations)
                .with_false_negative_filter(Arc::new(dataset.train_graph()));
            match counters {
                Some(c) => Box::new(TimedSampler::new(sampler, Arc::clone(c), bernoulli_probe)),
                None => Box::new(sampler),
            }
        }
    }
}

/// Generate the dataset and assemble the trainer. With `instruments` the
/// model and sampler are wrapped in the timing decorators and `TrainMetrics`
/// is attached. With `clock` the model marks the end of every optimizer step.
pub fn setup(
    spec: &TrainSpec,
    seed: u64,
    clock: Option<&BatchMarks>,
    instruments: Option<&Instruments>,
    tracer: Option<(&Tracer, SpanId)>,
) -> Setup {
    let started = Instant::now();
    let dataset = spec
        .family
        .generate(spec.scale, seed)
        .expect("benchmark generator accepts the workload's scale");
    let generated = Instant::now();
    let data = TrainData::from_dataset(&dataset);
    let data_built = Instant::now();
    let mut model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(spec.dim)
            .with_seed(seed ^ 0x5eed),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    if let Some(inst) = instruments {
        model = Box::new(TimedModel::new(model, Arc::clone(&inst.model)));
    }
    if let Some(marks) = clock {
        marks
            .lock()
            .expect("batch marks poisoned by a panic")
            .clear();
        model = Box::new(TimedModel::batch_clock(model, Arc::clone(marks)));
    }
    let sampler = build_sampler(spec, &dataset, instruments.map(|i| &i.sampler));
    let mut trainer = Trainer::new(model, sampler, &data, train_config(spec, seed));
    if let Some(inst) = instruments {
        trainer.attach_metrics(TrainMetrics::register(&inst.registry));
    }
    let finished = Instant::now();
    if let Some((tracer, parent)) = tracer {
        let span = tracer.record("setup", Some(parent), started, finished);
        tracer.record("datagen.generate", Some(span), started, generated);
        tracer.record("kg.train_data", Some(span), generated, data_built);
    }
    Setup {
        dataset,
        trainer,
        setup_s: (finished - started).as_secs_f64(),
        generate_s: (generated - started).as_secs_f64(),
        train_data_s: (data_built - generated).as_secs_f64(),
    }
}

/// What the training phase measured.
#[derive(Debug, Default, Clone)]
pub struct TrainOutcome {
    /// Σ wall time of `Trainer::train_epoch`, seconds.
    pub train_s: f64,
    /// Training examples processed.
    pub examples: u64,
    /// Per-epoch `train_epoch` wall times, seconds.
    pub epoch_s: Vec<f64>,
    /// Wall time of every full mini-batch after the first of its epoch (from
    /// the batch clock; empty without one), seconds.
    pub batch_s: Vec<f64>,
    /// Per-epoch `Trainer::evaluate` wall times, seconds.
    pub eval_s: Vec<f64>,
    /// Ranking queries per evaluation (two per test triple).
    pub eval_queries: u64,
    /// Filtered MRR after each epoch.
    pub mrr: Vec<f64>,
    /// Filtered Hits@10 after the last epoch, percent.
    pub final_hits_at_10: f64,
    /// Mean loss of each epoch (bit-compared between traced and untraced).
    pub loss: Vec<f64>,
    /// Wall time of epochs plus evaluations until the target MRR was
    /// first reached; `None` if it never was.
    pub time_to_target_s: Option<f64>,
    /// Σ sampler cache elements changed.
    pub changed_cache_elements: u64,
    /// Last epoch's non-zero-loss ratio and negative repeat ratio.
    pub nonzero_loss_ratio: f64,
    pub repeat_ratio: f64,
    /// Snapshot save times, seconds.
    pub save_s: Vec<f64>,
}

impl TrainOutcome {
    pub fn final_mrr(&self) -> f64 {
        self.mrr.last().copied().unwrap_or(0.0)
    }
}

/// Run the epochs, evaluating after each. The model after the next-to-last
/// epoch is saved to `snapshot_a`, the final one to `snapshot_b`.
/// `after_epoch` is called with each finished epoch's index, outside every
/// timed interval.
pub fn run_epochs(
    spec: &TrainSpec,
    trainer: &mut Trainer,
    clock: Option<&BatchMarks>,
    snapshot_a: &Path,
    snapshot_b: &Path,
    tracer: Option<(&Tracer, SpanId)>,
    after_epoch: &mut dyn FnMut(usize),
) -> TrainOutcome {
    let mut protocol = EvalProtocol::filtered().with_threads(spec.eval_threads);
    if let Some(max) = spec.eval_max {
        protocol = protocol.with_max_triples(max);
    }
    let mut out = TrainOutcome::default();
    let mut elapsed = 0.0;
    for epoch in 0..spec.epochs {
        let started = Instant::now();
        let stats = trainer.train_epoch();
        let trained = Instant::now();
        if let Some(marks) = clock {
            // The last batch of an epoch is partial; the first interval
            // needs the previous batch's mark.
            let mut marks = marks.lock().expect("batch marks poisoned by a panic");
            let ends = &marks[..marks.len().saturating_sub(1)];
            out.batch_s
                .extend(ends.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()));
            marks.clear();
        }
        let report = trainer.evaluate(&protocol);
        let evaluated = Instant::now();
        if let Some((tracer, parent)) = tracer {
            tracer.record("train.epoch", Some(parent), started, trained);
            tracer.record("eval", Some(parent), trained, evaluated);
        }
        let (train_s, eval_s) = (
            (trained - started).as_secs_f64(),
            (evaluated - trained).as_secs_f64(),
        );
        elapsed += train_s + eval_s;
        out.train_s += train_s;
        out.examples += stats.examples as u64;
        out.epoch_s.push(train_s);
        out.eval_s.push(eval_s);
        out.eval_queries = report.combined.count as u64;
        out.mrr.push(report.combined.mrr);
        out.loss.push(stats.mean_loss);
        out.final_hits_at_10 = report.combined.hits_at_10 * 100.0;
        out.changed_cache_elements += stats.changed_cache_elements;
        out.nonzero_loss_ratio = stats.nonzero_loss_ratio;
        out.repeat_ratio = stats.repeat_ratio;
        if out.time_to_target_s.is_none() && report.combined.mrr >= spec.target_mrr {
            out.time_to_target_s = Some(elapsed);
        }
        let snapshot = if epoch + 2 == spec.epochs {
            Some(snapshot_a)
        } else if epoch + 1 == spec.epochs {
            Some(snapshot_b)
        } else {
            None
        };
        if let Some(path) = snapshot {
            let started = Instant::now();
            nscaching_serve::save_model(path, trainer.model())
                .expect("snapshot directory inside the checkout is writable");
            let saved = Instant::now();
            if let Some((tracer, parent)) = tracer {
                tracer.record("serve.snapshot_save", Some(parent), started, saved);
            }
            out.save_s.push((saved - started).as_secs_f64());
        }
        after_epoch(epoch);
    }
    out
}

/// The evaluation split's triples the serving phase draws its keys from.
pub fn query_triples(dataset: &Dataset) -> Vec<Triple> {
    dataset
        .test
        .iter()
        .chain(dataset.valid.iter())
        .copied()
        .collect()
}
