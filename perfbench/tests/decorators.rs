//! The timing decorators must be invisible: every trait method, defaulted
//! ones included, forwards to the inner object, and outputs are
//! bit-identical to the bare object on fixed inputs.

use nscaching::{
    BernoulliSampler, CorruptionPolicy, NegativeSampler, NsCachingConfig, NsCachingSampler,
    SampledNegative,
};
use nscaching_datagen::BenchmarkFamily;
use nscaching_eval::EvalProtocol;
use nscaching_kg::{CorruptionSide, Dataset, Triple};
use nscaching_models::{build_model, GradientBuffer, KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_perfbench::timing::{
    BatchMarks, ModelCounters, ProbeReading, SamplerCounters, TimedModel, TimedSampler,
};
use nscaching_train::{TrainConfig, TrainData, TrainRuntime, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const ENTITIES: usize = 60;
const RELATIONS: usize = 4;

fn model(kind: ModelKind) -> Box<dyn KgeModel> {
    build_model(
        &ModelConfig::new(kind).with_dim(8).with_seed(7),
        ENTITIES,
        RELATIONS,
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn gradient_rows(buffer: &GradientBuffer) -> Vec<((usize, usize), Vec<u64>)> {
    let mut rows: Vec<_> = buffer.iter().map(|(k, v)| (*k, bits(v))).collect();
    rows.sort();
    rows
}

fn table_bits(model: &dyn KgeModel) -> Vec<Vec<u64>> {
    model
        .tables()
        .iter()
        .map(|t| (0..t.rows()).flat_map(|r| bits(t.row(r))).collect())
        .collect()
}

/// Every scoring and gradient method of `a` and `b` agrees bit for bit.
fn assert_same_model(a: &dyn KgeModel, b: &dyn KgeModel) {
    assert_eq!(a.kind(), b.kind());
    assert_eq!(a.num_entities(), b.num_entities());
    assert_eq!(a.num_relations(), b.num_relations());
    assert_eq!(a.dim(), b.dim());
    assert_eq!(a.loss_type(), b.loss_type());
    assert_eq!(a.num_parameters(), b.num_parameters());
    assert_eq!(table_bits(a), table_bits(b));
    let candidates: Vec<u32> = (0..ENTITIES as u32).step_by(3).collect();
    for (i, triple) in [
        Triple::new(1, 0, 2),
        Triple::new(5, 3, 40),
        Triple::new(59, 2, 0),
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(a.score(triple).to_bits(), b.score(triple).to_bits());
        assert_eq!(a.parameter_rows(triple), b.parameter_rows(triple));
        for side in [CorruptionSide::Head, CorruptionSide::Tail] {
            let (mut x, mut y) = (Vec::new(), Vec::new());
            a.score_candidates(triple, side, &candidates, &mut x);
            b.score_candidates(triple, side, &candidates, &mut y);
            assert_eq!(bits(&x), bits(&y));
            a.score_all_into(triple, side, &mut x);
            b.score_all_into(triple, side, &mut y);
            assert_eq!(bits(&x), bits(&y));
            assert_eq!(
                bits(&a.score_all(triple, side)),
                bits(&b.score_all(triple, side))
            );
        }
        let coeff = 0.5 - i as f64;
        let (mut ga, mut gb) = (GradientBuffer::new(), GradientBuffer::new());
        a.accumulate_score_gradient(triple, coeff, &mut ga);
        b.accumulate_score_gradient(triple, coeff, &mut gb);
        assert_eq!(gradient_rows(&ga), gradient_rows(&gb));
    }
}

#[test]
fn timed_model_is_bit_identical_for_every_model_kind() {
    for kind in ModelKind::ALL {
        let bare = model(kind);
        let counters = Arc::new(ModelCounters::default());
        let mut timed = TimedModel::new(model(kind), Arc::clone(&counters));
        assert_same_model(bare.as_ref(), &timed);

        // clone_box keeps the decoration and the shared counters.
        let before = counters.score.calls();
        let clone = timed.clone_box();
        assert_same_model(bare.as_ref(), clone.as_ref());
        assert!(
            counters.score.calls() > before,
            "{kind:?}: clone is still timed"
        );

        // Mutation through table_mut / tables_mut / apply_constraints reaches
        // the inner model exactly as it reaches a bare one.
        let mut bare = bare;
        for m in [bare.as_mut(), &mut timed as &mut dyn KgeModel] {
            m.table_mut(0).row_mut(3)[0] += 0.25;
            let last = m.tables_mut().len() - 1;
            m.tables_mut()[last].row_mut(1)[0] -= 0.5;
            m.apply_constraints(&[(0, 3), (last, 1)]);
        }
        assert_same_model(bare.as_ref(), &timed);
    }
}

#[test]
fn timed_model_counts_each_call_once() {
    let counters = Arc::new(ModelCounters::default());
    let timed = TimedModel::new(model(ModelKind::TransE), Arc::clone(&counters));
    let t = Triple::new(1, 0, 2);
    let mut out = Vec::new();
    timed.score(&t);
    timed.score_candidates(&t, CorruptionSide::Tail, &[1, 2, 3], &mut out);
    timed.score_all_into(&t, CorruptionSide::Head, &mut out);
    timed.score_all(&t, CorruptionSide::Head);
    timed.accumulate_score_gradient(&t, 1.0, &mut GradientBuffer::new());
    assert_eq!(counters.score.calls(), 1);
    assert_eq!(counters.score_candidates.calls(), 1);
    assert_eq!(counters.candidates_scored(), 3);
    assert_eq!(counters.score_all.calls(), 2);
    assert_eq!(counters.grad_emit.calls(), 1);
}

fn dataset() -> Dataset {
    BenchmarkFamily::Wn18rr
        .generate(0.02, 3)
        .expect("small benchmark generates")
}

fn nscaching(ds: &Dataset) -> NsCachingSampler {
    let policy = CorruptionPolicy::bernoulli_from_train(&ds.train, ds.num_relations());
    NsCachingSampler::new(NsCachingConfig::new(8, 8), ds.num_entities(), policy)
        .with_observed_keys(&ds.train)
}

fn probe(s: &NsCachingSampler) -> ProbeReading {
    ProbeReading {
        cache_bytes: s.cache_memory_bytes() as u64,
        refreshes: s.refresh_count(),
    }
}

/// Drive `sampler` through the sequential and the sharded call paths and
/// return everything it produced.
fn exercise(sampler: &mut dyn NegativeSampler, ds: &Dataset) -> Vec<String> {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(5),
        ds.num_entities(),
        ds.num_relations(),
    );
    let mut rng = StdRng::seed_from_u64(11);
    let mut seen = vec![format!("{} {}", sampler.name(), sampler.extra_parameters())];
    let positives: Vec<Triple> = ds.train.iter().take(40).copied().collect();
    let record = |n: &SampledNegative| format!("{:?} {:?} {}", n.triple, n.side, n.entity);
    for p in &positives {
        let n = sampler.sample(p, model.as_ref(), &mut rng);
        sampler.feedback(p, &n, 0.5, &mut rng);
        sampler.update(p, model.as_ref(), &mut rng);
        seen.push(record(&n));
        seen.push(format!(
            "{:?} {:?}",
            sampler.tail_cache_contents(p),
            sampler.head_cache_contents(p)
        ));
    }
    seen.push(format!("changed {}", sampler.take_changed_elements()));
    sampler.epoch_finished(0);
    sampler.prepare_shards(2);
    seen.push(format!("shards {}", sampler.shard_count()));
    let owners: Vec<usize> = positives.iter().map(|p| sampler.shard_of(p, 2)).collect();
    seen.push(format!("owners {owners:?}"));
    {
        let mut workers = sampler.shard_workers();
        seen.push(format!("workers {}", workers.len()));
        for (p, &owner) in positives.iter().zip(&owners) {
            let worker = &mut workers[owner];
            let n = worker.sample(p, model.as_ref(), &mut rng);
            worker.feedback(p, &n, 0.5, &mut rng);
            worker.update(p, model.as_ref(), &mut rng);
            seen.push(record(&n));
        }
    }
    sampler.merge_batch();
    seen.push(format!("changed {}", sampler.take_changed_elements()));
    seen.push(format!("{:?}", sampler.export_state()));
    seen
}

#[test]
fn timed_sampler_forwards_every_method_bit_identically() {
    let ds = dataset();
    let mut bare = nscaching(&ds);
    let counters = Arc::new(SamplerCounters::default());
    let mut timed = TimedSampler::new(nscaching(&ds), Arc::clone(&counters), probe);
    assert_eq!(exercise(&mut bare, &ds), exercise(&mut timed, &ds));

    // Calls through the sampler and through its shard workers both count.
    assert_eq!(counters.sample.calls(), 80);
    assert_eq!(counters.update.calls(), 80);
    assert_eq!(counters.feedback.calls(), 80);
    assert!(counters.update_self_seconds() <= counters.update.seconds());
    // The probe ran at epoch end.
    assert!(
        counters
            .cache_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );

    // State exported by the decorated sampler imports into a bare one.
    let state = timed.export_state();
    let mut restored = nscaching(&ds);
    restored
        .import_state(state.clone())
        .expect("same-shape state imports");
    assert_eq!(
        format!("{:?}", restored.export_state()),
        format!("{state:?}")
    );
}

/// How the model and sampler of a training run are wrapped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wrap {
    Bare,
    Timed,
    BatchClock,
}

fn train(runtime: TrainRuntime, wrap: Wrap) -> (Vec<u64>, Vec<u64>) {
    let decorated = wrap == Wrap::Timed;
    let ds = dataset();
    let data = TrainData::from_dataset(&ds);
    let (kind, sampler): (ModelKind, Box<dyn NegativeSampler>) = match runtime {
        TrainRuntime::Pipelined => {
            let bernoulli = BernoulliSampler::new(&ds.train, ds.num_entities(), ds.num_relations())
                .with_false_negative_filter(Arc::new(ds.train_graph()));
            let s: Box<dyn NegativeSampler> = if decorated {
                Box::new(TimedSampler::new(bernoulli, Arc::default(), |_| {
                    ProbeReading::default()
                }))
            } else {
                Box::new(bernoulli)
            };
            (ModelKind::TransD, s)
        }
        _ => {
            let s: Box<dyn NegativeSampler> = if decorated {
                Box::new(TimedSampler::new(nscaching(&ds), Arc::default(), probe))
            } else {
                Box::new(nscaching(&ds))
            };
            (ModelKind::TransE, s)
        }
    };
    let mut m = build_model(
        &ModelConfig::new(kind).with_dim(8).with_seed(9),
        ds.num_entities(),
        ds.num_relations(),
    );
    let marks = BatchMarks::default();
    match wrap {
        Wrap::Bare => {}
        Wrap::Timed => m = Box::new(TimedModel::new(m, Arc::default())),
        Wrap::BatchClock => m = Box::new(TimedModel::batch_clock(m, Arc::clone(&marks))),
    }
    let config = TrainConfig::new(3)
        .with_batch_size(64)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_seed(4)
        .with_shards(1)
        .with_runtime(runtime);
    let mut trainer = Trainer::new(m, sampler, &data, config);
    let protocol = EvalProtocol::filtered().with_threads(1);
    let (mut loss, mut mrr) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        loss.push(trainer.train_epoch().mean_loss.to_bits());
        mrr.push(trainer.evaluate(&protocol).combined.mrr.to_bits());
    }
    if wrap == Wrap::BatchClock {
        // One mark per optimizer step: at most one per mini-batch.
        let batches = ds.train.len().div_ceil(64) * 3;
        let marked = marks.lock().unwrap().len();
        assert!(
            marked > batches / 2 && marked <= batches,
            "{marked} marks, {batches} batches"
        );
    }
    (loss, mrr)
}

#[test]
fn decorated_training_reproduces_the_bare_trajectory() {
    for runtime in [TrainRuntime::Auto, TrainRuntime::Pipelined] {
        let bare = train(runtime, Wrap::Bare);
        assert_eq!(bare, train(runtime, Wrap::Timed), "{runtime:?}");
        assert_eq!(bare, train(runtime, Wrap::BatchClock), "{runtime:?}");
    }
}
