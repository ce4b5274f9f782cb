//! Snapshot-format integrity: bitwise round-trips for every model ×
//! optimizer combination, and typed (never panicking) failures for every
//! corruption class — truncation, bad magic, bit flips, future versions,
//! schema drift.

use nscaching::SamplerConfig;
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::format::{write_frame, xxh64, Writer};
use nscaching_serve::{
    load_checkpoint, load_model, resume_trainer, save_checkpoint, save_model, CheckpointManager,
    ModelSnapshot, SnapshotError,
};
use nscaching_train::{TrainConfig, Trainer};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tempfile(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("nscaching-snapshot-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{name}-{}-{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dataset(seed: u64) -> Dataset {
    let mut c = GeneratorConfig::small("roundtrip");
    c.num_entities = 60;
    c.num_train = 300;
    c.num_valid = 30;
    c.num_test = 30;
    c.seed = seed;
    nscaching_datagen::generate(&c).unwrap()
}

fn optimizer_config(opt: usize, lr: f64) -> OptimizerConfig {
    match opt {
        0 => OptimizerConfig::sgd(lr),
        1 => OptimizerConfig::adagrad(lr),
        _ => OptimizerConfig::adam(lr),
    }
}

fn trained_trainer(ds: &Dataset, kind: ModelKind, opt: usize, epochs: usize) -> Trainer {
    let model = build_model(
        &ModelConfig::new(kind).with_dim(6).with_seed(3),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, ds, 7);
    let config = TrainConfig::new(epochs)
        .with_batch_size(64)
        .with_optimizer(optimizer_config(opt, 0.02))
        .with_seed(11)
        .with_shards(1);
    let mut trainer = Trainer::new(model, sampler, ds, config);
    for _ in 0..epochs {
        trainer.train_epoch();
    }
    trainer
}

fn assert_tables_bitwise_equal(a: &dyn KgeModel, b: &ModelSnapshot) {
    let tables = a.tables();
    assert_eq!(tables.len(), b.tables.len());
    for (live, snap) in tables.iter().zip(&b.tables) {
        assert_eq!(live.name(), snap.name);
        assert_eq!(live.rows(), snap.rows);
        assert_eq!(live.dim(), snap.dim);
        assert!(
            live.data()
                .iter()
                .zip(&snap.data)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "table {} changed across the round-trip",
            live.name()
        );
    }
}

/// The full 7 × 3 matrix, deterministically: save → load → bitwise-equal
/// tables, optimizer slabs and trainer state.
#[test]
fn checkpoint_round_trip_is_bitwise_exact_for_all_models_and_optimizers() {
    let ds = dataset(1);
    for kind in ModelKind::ALL {
        for opt in 0..3 {
            let trainer = trained_trainer(&ds, kind, opt, 2);
            let path = tempfile(&format!("matrix-{kind:?}-{opt}"));
            save_checkpoint(&path, &trainer).unwrap();

            let checkpoint = load_checkpoint(&path).unwrap();
            assert_eq!(checkpoint.model.kind, kind);
            assert_eq!(checkpoint.model.dim, 6);
            assert_tables_bitwise_equal(trainer.model(), &checkpoint.model);

            let state = trainer.checkpoint();
            assert_eq!(checkpoint.state.epochs_done, state.epochs_done);
            assert_eq!(
                checkpoint.state.train_seconds.to_bits(),
                state.train_seconds.to_bits()
            );
            assert_eq!(checkpoint.state.rng, state.rng);
            assert_eq!(checkpoint.state.batch_order, state.batch_order);
            assert_eq!(
                checkpoint.state.optimizer, state.optimizer,
                "{kind:?} optimizer {opt} slabs drifted"
            );
            assert_eq!(checkpoint.meta.seed, 11);
            assert_eq!(checkpoint.meta.shards, 1);
            assert_eq!(checkpoint.meta.optimizer, optimizer_config(opt, 0.02));

            // The rebuilt model scores identically to the live one.
            let rebuilt = checkpoint.model.into_model().unwrap();
            let probe = ds.train[0];
            assert_eq!(
                rebuilt.score(&probe).to_bits(),
                trainer.model().score(&probe).to_bits()
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A serving process reads the model section straight out of a *training*
/// checkpoint.
#[test]
fn load_model_reads_the_model_section_of_a_full_checkpoint() {
    let ds = dataset(2);
    let trainer = trained_trainer(&ds, ModelKind::DistMult, 2, 1);
    let path = tempfile("model-from-checkpoint");
    save_checkpoint(&path, &trainer).unwrap();
    let snapshot = load_model(&path).unwrap();
    assert_tables_bitwise_equal(trainer.model(), &snapshot);
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_only_snapshots_round_trip() {
    for kind in ModelKind::ALL {
        let model = build_model(&ModelConfig::new(kind).with_dim(5).with_seed(9), 30, 4);
        let path = tempfile(&format!("model-{kind:?}"));
        save_model(&path, model.as_ref()).unwrap();
        let snapshot = load_model(&path).unwrap();
        assert_tables_bitwise_equal(model.as_ref(), &snapshot);
        let rebuilt = snapshot.into_model().unwrap();
        assert_eq!(rebuilt.kind(), kind);
        assert_eq!(rebuilt.num_entities(), 30);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn truncated_files_fail_with_typed_errors_at_every_cut() {
    let ds = dataset(3);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 2, 1);
    let path = tempfile("truncate");
    save_checkpoint(&path, &trainer).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Cut everywhere interesting: inside the magic, the header, the payload
    // and the trailing checksum.
    for cut in [
        0,
        4,
        11,
        19,
        20,
        full.len() / 2,
        full.len() - 9,
        full.len() - 1,
    ] {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_and_future_versions_are_rejected() {
    let ds = dataset(4);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 0, 1);
    let path = tempfile("magic");
    save_checkpoint(&path, &trainer).unwrap();
    let good = std::fs::read(&path).unwrap();

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).unwrap();
    assert!(matches!(
        load_checkpoint(&path),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = good.clone();
    future[8] = 0x2A;
    std::fs::write(&path, &future).unwrap();
    assert!(matches!(
        load_checkpoint(&path),
        Err(SnapshotError::UnsupportedVersion { found: 0x2A })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_bit_flip_in_the_payload_is_caught() {
    let ds = dataset(5);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1, 1);
    let path = tempfile("bitflip");
    save_checkpoint(&path, &trainer).unwrap();
    let good = std::fs::read(&path).unwrap();
    // Flip one bit in a stride of payload positions (covering section tags,
    // lengths, slab data) — the checksum must catch every one of them.
    let payload_start = 20;
    let payload_end = good.len() - 8;
    let mut probe = good.clone();
    for pos in (payload_start..payload_end).step_by(97) {
        probe[pos] ^= 1 << (pos % 8);
        std::fs::write(&path, &probe).unwrap();
        assert!(
            matches!(
                load_checkpoint(&path),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at {pos} slipped through"
        );
        probe[pos] = good[pos];
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_validates_the_configuration_fingerprint() {
    let ds = dataset(6);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 2, 1);
    let path = tempfile("fingerprint");
    save_checkpoint(&path, &trainer).unwrap();

    let base_config = || {
        TrainConfig::new(2)
            .with_batch_size(64)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_seed(11)
            .with_shards(1)
    };
    let sampler = || nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 7);

    // Wrong seed, wrong shard count, wrong optimizer: all refused.
    for bad in [
        base_config().with_seed(12),
        base_config().with_shards(2),
        base_config().with_optimizer(OptimizerConfig::sgd(0.02)),
        base_config().with_optimizer(OptimizerConfig::adam(0.05)),
    ] {
        let checkpoint = load_checkpoint(&path).unwrap();
        match resume_trainer(checkpoint, sampler(), &ds, bad) {
            Err(SnapshotError::SchemaMismatch(_)) => {}
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("configuration drift must not resume"),
        }
    }
    // The matching configuration resumes.
    let checkpoint = load_checkpoint(&path).unwrap();
    let resumed = resume_trainer(checkpoint, sampler(), &ds, base_config()).unwrap();
    assert_eq!(resumed.epochs_done(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn zeroed_rng_state_with_valid_checksum_fails_typed_not_panicking() {
    // An adversarial (or externally written) file can be checksum-consistent
    // and still carry the one invalid RNG state — the all-zero xoshiro
    // fixed point. Loading must reject it as Corrupt, not panic in the RNG
    // constructor during resume.
    let ds = dataset(7);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 0, 1);
    let path = tempfile("zero-rng");
    save_checkpoint(&path, &trainer).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // Walk the section table to the trainer section's RNG words:
    // payload starts at 20; each section is tag(u8) + len(u64 LE) + body.
    let mut pos = 20;
    loop {
        let tag = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if tag == 2 {
            // trainer section: epochs_done u64 + train_seconds f64, then rng.
            let rng_at = pos + 9 + 16;
            bytes[rng_at..rng_at + 32].fill(0);
            break;
        }
        pos += 9 + len;
    }
    // Recompute the checksum so only the RNG validation can catch this.
    let payload_end = bytes.len() - 8;
    let checksum = xxh64(&bytes[20..payload_end]);
    bytes[payload_end..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    match load_checkpoint(&path) {
        Err(SnapshotError::Corrupt(what)) => assert!(what.contains("RNG"), "{what}"),
        other => panic!(
            "expected Corrupt, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    std::fs::remove_file(&path).ok();
}

/// Save a small TransE model, let `mutate` rewrite its payload (which
/// starts at byte 20), re-seal the checksum and load the model the way a
/// server does: decode the model section, then assemble the live model.
fn load_resealed_model(name: &str, mutate: impl FnOnce(&mut [u8])) -> Result<(), SnapshotError> {
    let model = build_model(&ModelConfig::new(ModelKind::TransE).with_dim(4), 20, 3);
    let path = tempfile(name);
    save_model(&path, model.as_ref()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let payload_end = bytes.len() - 8;
    mutate(&mut bytes[20..payload_end]);
    let checksum = xxh64(&bytes[20..payload_end]);
    bytes[payload_end..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let result = load_model(&path)
        .and_then(ModelSnapshot::into_model)
        .map(drop);
    std::fs::remove_file(&path).ok();
    result
}

/// Payload offset of the model section's `dim`: section tag (1) + section
/// length (8), then kind (1).
const DIM_AT: usize = 1 + 8 + 1;
/// Payload offset of the model section's entity count.
const ENTITIES_AT: usize = DIM_AT + 8;
/// Payload offset of the model section's table count: after dim, entities
/// and relations (3 × 8).
const TABLE_COUNT_AT: usize = DIM_AT + 3 * 8;

#[test]
fn a_crafted_entity_count_fails_typed_before_any_allocation() {
    // The header claims 2^40 entities while the slabs stay 20 rows: building
    // the architecture from the header first would try to allocate 32 TiB.
    let result = load_resealed_model("entity-count", |payload| {
        payload[ENTITIES_AT..ENTITIES_AT + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    });
    assert!(
        matches!(
            result,
            Err(SnapshotError::SchemaMismatch(_) | SnapshotError::Corrupt(_))
        ),
        "expected a typed schema error, got {:?}",
        result.err().map(|e| e.to_string())
    );
}

#[test]
fn a_crafted_dimension_fails_typed_before_any_allocation() {
    // The header claims d = 2^40 while every slab stays 4 wide.
    let result = load_resealed_model("dimension", |payload| {
        payload[DIM_AT..DIM_AT + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    });
    assert!(
        matches!(
            result,
            Err(SnapshotError::SchemaMismatch(_) | SnapshotError::Corrupt(_))
        ),
        "expected a typed schema error, got {:?}",
        result.err().map(|e| e.to_string())
    );
}

/// FNV-1a 64, the checksum of version-1 frames (kept here only to forge one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrite the frame at `path` as a version-1 writer would have produced it:
/// same payload, version field 1, FNV-1a 64 trailer.
fn downgrade_to_version_1(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let payload_end = bytes.len() - 8;
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let checksum = fnv1a64(&bytes[20..payload_end]);
    bytes[payload_end..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn a_version_1_frame_is_rejected_as_unsupported() {
    let ds = dataset(8);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 2, 1);
    let path = tempfile("version-1");
    save_checkpoint(&path, &trainer).unwrap();
    downgrade_to_version_1(&path);
    assert!(matches!(
        load_model(&path),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    ));
    assert!(matches!(
        load_checkpoint(&path),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn recovery_quarantines_a_version_1_checkpoint_under_the_version_reason() {
    let ds = dataset(9);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 0, 1);
    let dir = tempfile("version-1-manager");
    let _ = std::fs::remove_dir_all(&dir);
    let manager = CheckpointManager::new(&dir, 3).unwrap();
    let older = manager.save(&trainer).unwrap();
    let newest = manager.save(&trainer).unwrap();
    downgrade_to_version_1(&newest);

    let recovery = manager
        .recover()
        .unwrap()
        .expect("the older checkpoint is valid");
    assert_eq!(recovery.path, older);
    assert_eq!(recovery.quarantined.len(), 1);
    let (from, to, error) = &recovery.quarantined[0];
    assert_eq!(from, &newest);
    assert!(matches!(
        error,
        SnapshotError::UnsupportedVersion { found: 1 }
    ));
    let name = to.file_name().unwrap().to_str().unwrap();
    assert!(name.ends_with(".ckpt.bad-version"), "{name}");
    assert!(!newest.exists(), "the version-1 file is moved aside");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crafted_table_count_fails_typed_instead_of_aborting() {
    // A checksum-consistent file claiming 2^32 − 1 tables used to reserve
    // ~275 GB up front and abort the process.
    let result = load_resealed_model("table-count", |payload| {
        payload[TABLE_COUNT_AT..TABLE_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    assert!(
        matches!(result, Err(SnapshotError::Truncated { .. })),
        "expected a typed Truncated error, got {:?}",
        result.err().map(|e| e.to_string())
    );
}

#[test]
fn an_overflowing_table_shape_fails_typed() {
    // One table of 2^63 × 2 values over an empty slab: the unchecked
    // product wraps to 0 and used to accept it as a consistent table.
    let model = build_model(&ModelConfig::new(ModelKind::TransE).with_dim(4), 20, 3);
    let path = tempfile("table-shape");
    save_model(&path, model.as_ref()).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let mut body = Writer::new();
    // Kind, dim and vocabulary sizes as saved; then the crafted table.
    body.raw(&saved[20 + 9..20 + TABLE_COUNT_AT]);
    body.u32(1);
    body.str("entity");
    body.u64(1 << 63);
    body.u64(2);
    body.f64_slice(&[]);
    let body = body.into_payload();
    let mut payload = Writer::new();
    payload.u8(saved[20]);
    payload.u64(body.len() as u64);
    payload.raw(&body);
    write_frame(&path, &payload.into_payload()).unwrap();
    let result = load_model(&path);
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(result, Err(SnapshotError::Corrupt(_))),
        "expected a typed Corrupt error, got {:?}",
        result.map(|m| m.tables.len()).map_err(|e| e.to_string())
    );
}

#[test]
fn mismatched_vocabulary_fails_the_schema_check() {
    let model = build_model(&ModelConfig::new(ModelKind::TransE).with_dim(4), 20, 3);
    let path = tempfile("schema");
    save_model(&path, model.as_ref()).unwrap();
    let mut snapshot = load_model(&path).unwrap();
    // Tamper with the decoded metadata so the rebuilt architecture disagrees
    // with the stored tables.
    snapshot.num_entities = 21;
    assert!(matches!(
        snapshot.into_model(),
        Err(SnapshotError::SchemaMismatch(_))
    ));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomised round-trip across the matrix: arbitrary model/optimizer
    // pair, seeds and training lengths — tables and optimizer slabs must
    // come back bit-for-bit.
    #[test]
    fn random_checkpoints_round_trip_bitwise(
        kind_idx in 0usize..7,
        opt in 0usize..3,
        data_seed in 0u64..50,
        epochs in 1usize..3,
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let ds = dataset(100 + data_seed);
        let trainer = trained_trainer(&ds, kind, opt, epochs);
        let path = tempfile("prop");
        save_checkpoint(&path, &trainer).unwrap();
        let checkpoint = load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let live = trainer.model().tables();
        prop_assert_eq!(live.len(), checkpoint.model.tables.len());
        for (a, b) in live.iter().zip(&checkpoint.model.tables) {
            prop_assert_eq!(a.data().len(), b.data.len());
            for (x, y) in a.data().iter().zip(&b.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let state = trainer.checkpoint();
        prop_assert_eq!(checkpoint.state.optimizer, state.optimizer);
        prop_assert_eq!(checkpoint.state.rng, state.rng);
        prop_assert_eq!(checkpoint.state.batch_order, state.batch_order);
        prop_assert_eq!(checkpoint.state.epochs_done, state.epochs_done);
    }
}
