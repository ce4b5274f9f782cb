//! Criterion bench: the crash-recovery path — checkpoint save / restore
//! latency and the managed save → recover cycle.
//!
//! Run with `cargo bench -p nscaching-bench --bench checkpoint_cycle`.
//!
//! The checkpoint now carries a **sampler section** (NSCaching's per-shard
//! `H`/`T` caches here), so this bench times the full-state frame an online
//! deployment actually writes: model tables + optimizer slabs + trainer
//! counters + sampler state, staged, fsynced and atomically renamed by
//! `write_frame`. Restore is the mirrored path: checksum-verified read plus
//! every section decode.
//!
//! Records into the `checkpoint_cycle` section of `BENCH_serve.json`:
//!
//! * `save_ms` / `load_ms` — one-file checkpoint and restore wall-clock
//!   (best-of, durability syscalls included);
//! * `manager_cycle_ms` — `CheckpointManager::save` (sequence numbering +
//!   retention rotation) followed by `recover` (newest-first validation);
//! * `checkpoint_bytes` — the frame size being paid for.
//!
//! It also records into the `model_load` section one serving-side model load
//! at the full-scale serving design point (TransE, d=64, 14,541 entities, 237
//! relations — the model a hot reload swaps in), split by layer:
//!
//! * `read_ms` — `std::fs::read` of the whole frame;
//! * `checksum_ms` — the frame checksum over the payload;
//! * `decode_ms` — the model-section decode (`load_model` minus read and
//!   checksum);
//! * `assemble_ms` — `ModelSnapshot::into_model`, decoded tables to a live
//!   model;
//! * `load_total_ms` — `load_model` + `into_model`, the model half of
//!   `KnowledgeServer::reload`; and `save_ms` — `save_model` of the same
//!   model.
//!
//! Restore correctness rides along: every measured load is decoded from the
//! frame, a final resume is asserted to land on the saved trainer's model
//! bits, and the assembled serving model is asserted bit-identical to the
//! saved one.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::format::xxh64;
use nscaching_serve::{
    load_checkpoint, load_model, save_checkpoint, save_model, CheckpointManager,
};
use nscaching_train::{TrainConfig, Trainer};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Bench design point: a small-but-real full-state checkpoint.
const NUM_ENTITIES: usize = 2_000;
const NUM_TRAIN: usize = 6_000;
const DIM: usize = 32;

/// Serving design point of the model-load split: the full-scale TransE a
/// hot reload swaps in.
const SERVE_ENTITIES: usize = 14_541;
const SERVE_RELATIONS: usize = 237;
const SERVE_DIM: usize = 64;

fn bench_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nscaching-checkpoint-cycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A trainer with one epoch behind it, so the NSCaching caches, optimizer
/// slabs and RNG state are all populated — an empty sampler section would
/// undersell the frame.
fn trained_trainer() -> Trainer {
    let mut c = GeneratorConfig::small("checkpoint-cycle");
    c.num_entities = NUM_ENTITIES;
    c.num_train = NUM_TRAIN;
    c.num_valid = 50;
    c.num_test = 50;
    c.seed = 17;
    let ds: Dataset = nscaching_datagen::generate(&c).unwrap();
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(5),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::default()),
        &ds,
        9,
    );
    let config = TrainConfig::new(2)
        .with_batch_size(256)
        .with_optimizer(OptimizerConfig::adam(0.01))
        .with_seed(3);
    let mut trainer = Trainer::new(model, sampler, &ds, config);
    trainer.train_epoch();
    trainer
}

/// Best-of-`samples` milliseconds for one `call` invocation.
fn best_ms(samples: usize, mut call: impl FnMut()) -> f64 {
    call(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        call();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Bit patterns of every parameter of `model`, table by table.
fn model_bits(model: &dyn KgeModel) -> Vec<u64> {
    model
        .tables()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// One serving-side model load split into read, checksum, decode and
/// assemble, recorded as the `model_load` section.
fn measure_model_load(samples: usize, dir: &std::path::Path) {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(SERVE_DIM)
            .with_seed(7),
        SERVE_ENTITIES,
        SERVE_RELATIONS,
    );
    let file = dir.join("serve-model.snap");
    let save_ms = best_ms(samples, || {
        save_model(&file, black_box(model.as_ref())).unwrap();
    });
    let snapshot_bytes = std::fs::metadata(&file).unwrap().len();

    let read_ms = best_ms(samples, || {
        black_box(std::fs::read(&file).unwrap());
    });
    let frame = std::fs::read(&file).unwrap();
    let payload = &frame[20..frame.len() - 8];
    let checksum_ms = best_ms(samples, || {
        black_box(xxh64(black_box(payload)));
    });
    let load_model_ms = best_ms(samples, || {
        black_box(load_model(&file).unwrap());
    });
    // Assemble alone: each sample decodes outside the timer, and the
    // assembled model is dropped outside it too.
    let mut assemble_ms = f64::INFINITY;
    for _ in 0..=samples {
        let snapshot = load_model(&file).unwrap();
        let start = Instant::now();
        let assembled = black_box(snapshot.into_model().unwrap());
        assemble_ms = assemble_ms.min(start.elapsed().as_secs_f64() * 1e3);
        drop(assembled);
    }
    let load_total_ms = best_ms(samples, || {
        black_box(load_model(&file).unwrap().into_model().unwrap());
    });
    let decode_ms = (load_model_ms - read_ms - checksum_ms).max(0.0);

    let reloaded = load_model(&file).unwrap().into_model().unwrap();
    assert_eq!(
        model_bits(model.as_ref()),
        model_bits(reloaded.as_ref()),
        "the assembled model must hold the saved bits"
    );

    println!(
        "model_load: read {read_ms:.2}ms, checksum {checksum_ms:.2}ms, decode {decode_ms:.2}ms, \
         assemble {assemble_ms:.2}ms, load+assemble {load_total_ms:.2}ms, save {save_ms:.2}ms, \
         frame {snapshot_bytes} bytes"
    );
    let section = format!(
        "{{\n  \"workload\": \"model-only snapshot of TransE d={SERVE_DIM} |E|={SERVE_ENTITIES} |R|={SERVE_RELATIONS} (the full-scale serving model a hot reload swaps in)\",\n  \"snapshot_bytes\": {snapshot_bytes},\n  \"read_ms\": {read_ms:.2},\n  \"checksum_ms\": {checksum_ms:.2},\n  \"decode_ms\": {decode_ms:.2},\n  \"assemble_ms\": {assemble_ms:.2},\n  \"load_total_ms\": {load_total_ms:.2},\n  \"save_ms\": {save_ms:.2},\n  \"note\": \"best-of-{samples} wall-clock per layer of one load_model(..).into_model(): read = fs::read of the frame, checksum = XXH64 over the payload, decode = load_model minus read and checksum, assemble = into_model (shape check + moving the decoded slabs into the tables). load_total is measured end to end, so it can differ from the sum. save includes staging fsync + atomic rename + directory fsync. The assembled model is asserted bit-identical to the saved one\"\n}}"
    );
    record("model_load", &section);
}

/// Write `section` as `name` into `BENCH_serve.json`.
fn record(name: &str, section: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) = nscaching_bench::update_bench_section(&path, "serve", name, section) {
        eprintln!("could not record BENCH_serve.json at {path:?}: {e}");
    }
}

fn measure_and_record(_c: &mut Criterion) {
    let samples = 7;
    let dir = bench_dir();
    let trainer = trained_trainer();

    // One-file save / load.
    let file = dir.join("cycle.ckpt");
    let save_ms = best_ms(samples, || {
        save_checkpoint(&file, black_box(&trainer)).unwrap();
    });
    let checkpoint_bytes = std::fs::metadata(&file).unwrap().len();
    let load_ms = best_ms(samples, || {
        black_box(load_checkpoint(&file).unwrap());
    });

    // Managed cycle: sequence-numbered save with retention rotation, then
    // full newest-first recovery.
    let managed = dir.join("managed");
    let manager = CheckpointManager::new(&managed, 2).unwrap();
    let manager_cycle_ms = best_ms(samples, || {
        manager.save(black_box(&trainer)).unwrap();
        black_box(manager.recover().unwrap().expect("a checkpoint exists"));
    });

    // Restore correctness rides along with the timing claims.
    let restored = load_checkpoint(&file).unwrap();
    let saved_bits = model_bits(trainer.model());
    let restored_bits: Vec<u64> = restored
        .model
        .tables
        .iter()
        .flat_map(|t| t.data.iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(saved_bits, restored_bits, "restore must be bit-identical");

    println!(
        "checkpoint_cycle: save {save_ms:.2}ms, load {load_ms:.2}ms, \
         manager save+recover {manager_cycle_ms:.2}ms, frame {checkpoint_bytes} bytes"
    );

    let section = format!(
        "{{\n  \"workload\": \"TransE d={DIM} |E|={NUM_ENTITIES} |T|={NUM_TRAIN}, Adam, NSCaching sampler after one epoch (full-state frame: model + optimizer + trainer + sampler sections)\",\n  \"save_ms\": {save_ms:.2},\n  \"load_ms\": {load_ms:.2},\n  \"manager_cycle_ms\": {manager_cycle_ms:.2},\n  \"checkpoint_bytes\": {checkpoint_bytes},\n  \"note\": \"save includes staging fsync + atomic rename + directory fsync; manager_cycle adds sequence numbering, keep-2 rotation and newest-first checksum-verified recovery. Restore is asserted bit-identical on every run\"\n}}"
    );
    record("checkpoint_cycle", &section);

    measure_model_load(samples, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = measure_and_record
}
criterion_main!(benches);
