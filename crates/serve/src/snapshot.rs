//! Model snapshots and full training checkpoints over the binary frame.
//!
//! A snapshot file's payload is a sequence of length-prefixed *sections*
//! (`u8` tag + `u64` byte length + body), so readers can skip what they do
//! not need: [`load_model`] reads only the model section of a full training
//! checkpoint, which is how a serving process consumes trainer output
//! directly.
//!
//! | tag | section | contents |
//! |-----|---------|----------|
//! | 1   | model   | kind, `d`, vocab sizes, every embedding table as a dimension-strided `f64`-LE slab |
//! | 2   | trainer | epoch counter, wall-clock, raw master-RNG state, batch permutation, config fingerprint |
//! | 3   | optimizer | per-table state slabs (Adam `m`/`v`/`t`, AdaGrad `acc`/`seen`) |
//! | 4   | sampler | the sampler's evolving state: NSCaching's per-shard `H`/`T` caches, or a GAN generator's tables + optimizer + REINFORCE baseline |
//!
//! Section 4 is absent from checkpoints of stateless samplers and from legacy
//! files; [`load_checkpoint`] decodes its absence to
//! [`SamplerState::Stateless`], which every sampler accepts as a no-op import.
//!
//! See the crate docs for the exact-resume contract these sections add up to.

use crate::error::SnapshotError;
use crate::format::{read_frame, write_frame, Reader, Writer};
use nscaching::{
    CacheEntryState, CacheState, GeneratorKind, GeneratorState, GeneratorTableState,
    NegativeSampler, NsCachingShardState, NsCachingState, SamplerState,
};
use nscaching_models::{model_from_tables, EmbeddingTable, KgeModel, ModelKind};
use nscaching_optim::{
    AdaGradTableState, AdamTableState, OptimizerConfig, OptimizerKind, OptimizerState,
};
use nscaching_train::{TrainConfig, TrainData, Trainer, TrainerState};
use std::path::Path;

const SECTION_MODEL: u8 = 1;
const SECTION_TRAINER: u8 = 2;
const SECTION_OPTIMIZER: u8 = 3;
const SECTION_SAMPLER: u8 = 4;

/// Sampler-state variant tags within the sampler section.
const SAMPLER_STATE_NSCACHING: u8 = 1;
const SAMPLER_STATE_GENERATOR: u8 = 2;

/// Generator-kind tags within a generator sampler state.
const GENERATOR_KIND_KBGAN: u8 = 1;
const GENERATOR_KIND_IGAN: u8 = 2;

/// One embedding table captured out of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct TableData {
    /// Table name (diagnostics + restore-time schema check).
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Row dimension.
    pub dim: usize,
    /// `rows × dim` values, row-major.
    pub data: Vec<f64>,
}

/// A model's parameters plus the metadata needed to rebuild it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Scoring function.
    pub kind: ModelKind,
    /// Embedding dimension (complex dimension for ComplEx).
    pub dim: usize,
    /// Entity vocabulary size.
    pub num_entities: usize,
    /// Relation vocabulary size.
    pub num_relations: usize,
    /// Every parameter table, in `KgeModel::tables()` order.
    pub tables: Vec<TableData>,
}

impl ModelSnapshot {
    /// Rebuild a live model holding exactly the captured parameters.
    ///
    /// Every table's name, row count and dimension is checked against the
    /// kind, `dim` and vocabulary sizes recorded next to them before anything
    /// is built, so a file from a different configuration — or a crafted
    /// header claiming sizes its slabs do not back — fails with
    /// [`SnapshotError::SchemaMismatch`] instead of scoring garbage or
    /// attempting a huge allocation. The decoded slabs are then moved into
    /// the model as they are: no initialisation, no copy.
    pub fn into_model(self) -> Result<Box<dyn KgeModel>, SnapshotError> {
        let tables = self
            .tables
            .into_iter()
            .map(|t| EmbeddingTable::from_data(t.name, t.rows, t.dim, t.data))
            .collect::<Result<Vec<_>, _>>()
            .map_err(SnapshotError::Corrupt)?;
        model_from_tables(
            self.kind,
            self.dim,
            self.num_entities,
            self.num_relations,
            tables,
        )
        .map_err(SnapshotError::SchemaMismatch)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let kind = model_kind_from_tag(r.u8("model kind")?)?;
        let dim = r.u64("model dim")? as usize;
        let num_entities = r.u64("entity count")? as usize;
        let num_relations = r.u64("relation count")? as usize;
        let n_tables = r.u32("table count")? as usize;
        // Each table costs ≥ 28 bytes (name length, rows, dim, slab count),
        // so a crafted count cannot reserve more than the payload backs.
        guard_count(r, n_tables, 28, "model tables")?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str("table name")?;
            let rows = r.u64("table rows")? as usize;
            let dim = r.u64("table dim")? as usize;
            let data = r.f64_slice("table slab")?;
            if rows.checked_mul(dim) != Some(data.len()) {
                return Err(SnapshotError::Corrupt(format!(
                    "table {name:?} slab holds {} values, expected {rows}×{dim}",
                    data.len()
                )));
            }
            tables.push(TableData {
                name,
                rows,
                dim,
                data,
            });
        }
        Ok(Self {
            kind,
            dim,
            num_entities,
            num_relations,
            tables,
        })
    }
}

/// Configuration fingerprint stored next to the trainer state so a resume
/// with a drifted configuration fails loudly instead of continuing a
/// *different* (silently non-reproducible) trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Master training seed.
    pub seed: u64,
    /// Shard count of the run.
    pub shards: u64,
    /// Optimizer kind and learning rate.
    pub optimizer: OptimizerConfig,
}

/// A full training checkpoint: model parameters + trainer state + metadata.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The model at the checkpointed epoch boundary.
    pub model: ModelSnapshot,
    /// Trainer state (epoch counter, RNG, batch permutation, optimizer slabs).
    pub state: TrainerState,
    /// Configuration fingerprint for resume-time validation.
    pub meta: CheckpointMeta,
}

/// Encode a model section body straight from the live tables.
fn encode_model(w: &mut Writer, model: &dyn KgeModel) {
    let tables = model.tables();
    w.u8(model_kind_tag(model.kind()));
    w.u64(model.dim() as u64);
    w.u64(model.num_entities() as u64);
    w.u64(model.num_relations() as u64);
    w.u32(tables.len() as u32);
    for table in tables {
        w.str(table.name());
        w.u64(table.rows() as u64);
        w.u64(table.dim() as u64);
        w.f64_slice(table.data());
    }
}

/// Persist a model-only snapshot (the serving artifact).
pub fn save_model(path: &Path, model: &dyn KgeModel) -> Result<(), SnapshotError> {
    let mut w = Writer::new();
    write_section(&mut w, SECTION_MODEL, |w| encode_model(w, model));
    write_frame(path, &w.into_payload())
}

/// Load the model section of a snapshot or checkpoint file.
pub fn load_model(path: &Path) -> Result<ModelSnapshot, SnapshotError> {
    let frame = read_frame(path)?;
    let mut r = Reader::new(frame.payload());
    let mut model = None;
    walk_sections(&mut r, |tag, r| {
        if tag == SECTION_MODEL {
            model = Some(ModelSnapshot::decode(r)?);
        }
        Ok(())
    })?;
    model.ok_or_else(|| SnapshotError::SchemaMismatch("no model section in snapshot".into()))
}

/// Persist a full training checkpoint at an epoch boundary.
///
/// Captures everything [`resume_trainer`] needs to continue the run
/// bit-for-bit (see the crate docs for the samplers this guarantee covers).
pub fn save_checkpoint(path: &Path, trainer: &Trainer) -> Result<(), SnapshotError> {
    let state = trainer.checkpoint();
    let config = trainer.config();
    let mut w = Writer::new();
    write_section(&mut w, SECTION_MODEL, |w| encode_model(w, trainer.model()));
    write_section(&mut w, SECTION_TRAINER, |w| {
        w.u64(state.epochs_done);
        w.f64(state.train_seconds);
        for word in state.rng {
            w.u64(word);
        }
        w.u64(config.seed);
        w.u64(config.shards.max(1) as u64);
        w.u8(optimizer_kind_tag(config.optimizer.kind));
        w.f64(config.optimizer.learning_rate);
        w.u32_slice(&state.batch_order);
    });
    write_section(&mut w, SECTION_OPTIMIZER, |w| {
        encode_optimizer_state(w, &state.optimizer)
    });
    // Stateless samplers write no sampler section at all, keeping their
    // checkpoints byte-compatible with pre-section-4 readers.
    if !matches!(state.sampler, SamplerState::Stateless) {
        write_section(&mut w, SECTION_SAMPLER, |w| {
            encode_sampler_state(w, &state.sampler)
        });
    }
    write_frame(path, &w.into_payload())
}

/// Load a full training checkpoint.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, SnapshotError> {
    let frame = read_frame(path)?;
    let mut r = Reader::new(frame.payload());
    let mut model = None;
    let mut trainer = None;
    let mut optimizer = None;
    let mut sampler = None;
    walk_sections(&mut r, |tag, r| {
        match tag {
            SECTION_MODEL => model = Some(ModelSnapshot::decode(r)?),
            SECTION_TRAINER => {
                let epochs_done = r.u64("epoch counter")?;
                let train_seconds = r.f64("train seconds")?;
                let mut rng = [0u64; 4];
                for word in &mut rng {
                    *word = r.u64("rng state")?;
                }
                // The all-zero state is xoshiro256**'s one invalid fixed
                // point; it cannot be produced by a real trainer, and the
                // RNG constructor asserts on it — reject here with a typed
                // error so a hand-crafted (but checksum-consistent) file
                // cannot panic a resume.
                if rng.iter().all(|&word| word == 0) {
                    return Err(SnapshotError::Corrupt(
                        "all-zero master-RNG state in trainer section".into(),
                    ));
                }
                let seed = r.u64("seed")?;
                let shards = r.u64("shards")?;
                let kind = optimizer_kind_from_tag(r.u8("optimizer kind")?)?;
                let learning_rate = r.f64("learning rate")?;
                let batch_order = r.u32_slice("batch order")?;
                trainer = Some((
                    epochs_done,
                    train_seconds,
                    rng,
                    batch_order,
                    CheckpointMeta {
                        seed,
                        shards,
                        optimizer: OptimizerConfig {
                            kind,
                            learning_rate,
                        },
                    },
                ));
            }
            SECTION_OPTIMIZER => optimizer = Some(decode_optimizer_state(r)?),
            SECTION_SAMPLER => sampler = Some(decode_sampler_state(r)?),
            _ => {}
        }
        Ok(())
    })?;
    let model = model.ok_or_else(|| SnapshotError::SchemaMismatch("no model section".into()))?;
    let (epochs_done, train_seconds, rng, batch_order, meta) =
        trainer.ok_or_else(|| SnapshotError::SchemaMismatch("no trainer section".into()))?;
    let optimizer =
        optimizer.ok_or_else(|| SnapshotError::SchemaMismatch("no optimizer section".into()))?;
    if optimizer.kind() != meta.optimizer.kind {
        return Err(SnapshotError::SchemaMismatch(format!(
            "optimizer section holds {:?} state but the trainer section records {:?}",
            optimizer.kind(),
            meta.optimizer.kind
        )));
    }
    Ok(Checkpoint {
        model,
        state: TrainerState {
            epochs_done,
            train_seconds,
            rng,
            batch_order,
            optimizer,
            // Legacy checkpoints (and stateless-sampler checkpoints) carry no
            // sampler section; every sampler imports `Stateless` as a no-op.
            sampler: sampler.unwrap_or(SamplerState::Stateless),
        },
        meta,
    })
}

/// Rebuild a [`Trainer`] from a checkpoint so it continues the interrupted
/// run.
///
/// `sampler`, `data` and `config` must be constructed exactly as for the
/// original run (same dataset, same sampler configuration and seed, same
/// [`TrainConfig`]); the configuration fingerprint stored in the checkpoint
/// is validated against `config` and any drift fails with
/// [`SnapshotError::SchemaMismatch`].
pub fn resume_trainer(
    checkpoint: Checkpoint,
    sampler: Box<dyn NegativeSampler>,
    data: impl Into<TrainData>,
    config: TrainConfig,
) -> Result<Trainer, SnapshotError> {
    let meta = checkpoint.meta;
    if config.seed != meta.seed {
        return Err(SnapshotError::SchemaMismatch(format!(
            "config seed {} differs from checkpointed seed {}",
            config.seed, meta.seed
        )));
    }
    if config.shards.max(1) as u64 != meta.shards {
        return Err(SnapshotError::SchemaMismatch(format!(
            "config shards {} differ from checkpointed shards {} (the shard count selects \
             the RNG partition, so resuming under a different one would be a different run)",
            config.shards.max(1),
            meta.shards
        )));
    }
    if config.optimizer != meta.optimizer {
        return Err(SnapshotError::SchemaMismatch(format!(
            "config optimizer {:?} differs from checkpointed {:?}",
            config.optimizer, meta.optimizer
        )));
    }
    let model = checkpoint.model.into_model()?;
    let mut trainer = Trainer::new(model, sampler, data, config);
    trainer
        .restore(checkpoint.state)
        .map_err(SnapshotError::SchemaMismatch)?;
    Ok(trainer)
}

/// Write one `tag + length + body` section, encoding the body in place and
/// back-filling its length.
fn write_section(w: &mut Writer, tag: u8, body: impl FnOnce(&mut Writer)) {
    w.u8(tag);
    let length_at = w.len();
    w.u64(0);
    body(w);
    let len = w.len() - length_at - 8;
    w.patch_u64(length_at, len as u64);
}

/// Walk every section, handing `(tag, body reader)` to `visit`. Unknown tags
/// are skipped (forward compatibility within one format version).
fn walk_sections(
    r: &mut Reader<'_>,
    mut visit: impl FnMut(u8, &mut Reader<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    while !r.is_exhausted() {
        let tag = r.u8("section tag")?;
        let len = r.u64("section length")? as usize;
        let mut body = r.sub_reader(len, "section body")?;
        visit(tag, &mut body)?;
    }
    Ok(())
}

/// Reject a decoded element count whose minimal encoding could not fit in the
/// reader's remaining bytes — the pre-allocation guard for corrupt counts.
fn guard_count(
    r: &Reader<'_>,
    count: usize,
    min_elem_bytes: usize,
    context: &'static str,
) -> Result<(), SnapshotError> {
    if count
        .checked_mul(min_elem_bytes)
        .is_none_or(|b| b > r.remaining())
    {
        return Err(SnapshotError::Truncated {
            context,
            needed: count.saturating_mul(min_elem_bytes),
            available: r.remaining(),
        });
    }
    Ok(())
}

fn encode_cache_state(w: &mut Writer, cache: &CacheState) {
    w.u64(cache.changed_elements);
    w.u64(cache.entries.len() as u64);
    for entry in &cache.entries {
        w.u32(entry.key.0);
        w.u32(entry.key.1);
        w.u32_slice(&entry.entities);
    }
}

fn decode_cache_state(r: &mut Reader<'_>, what: &'static str) -> Result<CacheState, SnapshotError> {
    let changed_elements = r.u64("cache changed elements")?;
    let n = r.u64("cache entry count")? as usize;
    // Allocation guard: each entry takes at least key (8) + count prefix (8)
    // bytes, so a corrupt count cannot drive a huge Vec::with_capacity.
    guard_count(r, n, 16, what)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let a = r.u32("cache key a")?;
        let b = r.u32("cache key b")?;
        let entities = r.u32_slice("cache entities")?;
        entries.push(CacheEntryState {
            key: (a, b),
            entities,
        });
    }
    Ok(CacheState {
        changed_elements,
        entries,
    })
}

fn encode_sampler_state(w: &mut Writer, state: &SamplerState) {
    match state {
        // Stateless captures never reach here (save_checkpoint omits the
        // section), but encode defensively as an NSCaching-free marker-less
        // no-op is impossible — panic instead of writing a lying section.
        SamplerState::Stateless => unreachable!("stateless sampler state is not encoded"),
        SamplerState::NsCaching(ns) => {
            w.u8(SAMPLER_STATE_NSCACHING);
            w.u8(ns.updates_enabled as u8);
            w.u64(ns.shards.len() as u64);
            for shard in &ns.shards {
                w.u64(shard.refresh_count);
                encode_cache_state(w, &shard.head);
                encode_cache_state(w, &shard.tail);
            }
        }
        SamplerState::Generator(g) => {
            w.u8(SAMPLER_STATE_GENERATOR);
            w.u8(match g.kind {
                GeneratorKind::KbGan => GENERATOR_KIND_KBGAN,
                GeneratorKind::Igan => GENERATOR_KIND_IGAN,
            });
            w.f64(g.baseline);
            w.u64(g.feedback_steps);
            w.u32(g.tables.len() as u32);
            for table in &g.tables {
                w.str(&table.name);
                w.u64(table.rows as u64);
                w.u64(table.dim as u64);
                w.f64_slice(&table.data);
            }
            encode_optimizer_state(w, &g.optimizer);
        }
    }
}

fn decode_sampler_state(r: &mut Reader<'_>) -> Result<SamplerState, SnapshotError> {
    match r.u8("sampler state kind")? {
        SAMPLER_STATE_NSCACHING => {
            let updates_enabled = match r.u8("updates-enabled flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "updates-enabled flag must be 0 or 1, found {other}"
                    )))
                }
            };
            let n = r.u64("sampler shard count")? as usize;
            if n == 0 {
                return Err(SnapshotError::Corrupt(
                    "NSCaching sampler state records zero shards".into(),
                ));
            }
            guard_count(r, n, 40, "sampler shards")?;
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                let refresh_count = r.u64("shard refresh count")?;
                let head = decode_cache_state(r, "head cache entries")?;
                let tail = decode_cache_state(r, "tail cache entries")?;
                shards.push(NsCachingShardState {
                    refresh_count,
                    head,
                    tail,
                });
            }
            Ok(SamplerState::NsCaching(NsCachingState {
                updates_enabled,
                shards,
            }))
        }
        SAMPLER_STATE_GENERATOR => {
            let kind = match r.u8("generator kind")? {
                GENERATOR_KIND_KBGAN => GeneratorKind::KbGan,
                GENERATOR_KIND_IGAN => GeneratorKind::Igan,
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown generator kind tag {other}"
                    )))
                }
            };
            let baseline = r.f64("generator baseline")?;
            let feedback_steps = r.u64("feedback steps")?;
            let n = r.u32("generator table count")? as usize;
            // Each table costs ≥ 28 bytes (name length, rows, dim, slab count).
            guard_count(r, n, 28, "generator tables")?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str("generator table name")?;
                let rows = r.u64("generator table rows")? as usize;
                let dim = r.u64("generator table dim")? as usize;
                let data = r.f64_slice("generator table slab")?;
                if rows.checked_mul(dim) != Some(data.len()) {
                    return Err(SnapshotError::Corrupt(format!(
                        "generator table {name:?} slab holds {} values, expected {rows}×{dim}",
                        data.len()
                    )));
                }
                tables.push(GeneratorTableState {
                    name,
                    rows,
                    dim,
                    data,
                });
            }
            let optimizer = decode_optimizer_state(r)?;
            Ok(SamplerState::Generator(GeneratorState {
                kind,
                baseline,
                feedback_steps,
                tables,
                optimizer,
            }))
        }
        other => Err(SnapshotError::Corrupt(format!(
            "unknown sampler state tag {other}"
        ))),
    }
}

fn encode_optimizer_state(w: &mut Writer, state: &OptimizerState) {
    match state {
        OptimizerState::Sgd => w.u8(optimizer_kind_tag(OptimizerKind::Sgd)),
        OptimizerState::AdaGrad { tables } => {
            w.u8(optimizer_kind_tag(OptimizerKind::AdaGrad));
            w.u32(tables.len() as u32);
            for t in tables {
                w.u64(t.dim as u64);
                w.f64_slice(&t.acc);
                w.bool_slice(&t.seen);
            }
        }
        OptimizerState::Adam { tables } => {
            w.u8(optimizer_kind_tag(OptimizerKind::Adam));
            w.u32(tables.len() as u32);
            for t in tables {
                w.u64(t.dim as u64);
                w.f64_slice(&t.m);
                w.f64_slice(&t.v);
                w.u64_slice(&t.t);
            }
        }
    }
}

fn decode_optimizer_state(r: &mut Reader<'_>) -> Result<OptimizerState, SnapshotError> {
    match optimizer_kind_from_tag(r.u8("optimizer state kind")?)? {
        OptimizerKind::Sgd => Ok(OptimizerState::Sgd),
        OptimizerKind::AdaGrad => {
            let n = r.u32("adagrad table count")? as usize;
            // Each table costs ≥ 24 bytes (dim, two slab counts).
            guard_count(r, n, 24, "adagrad tables")?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                let dim = r.u64("adagrad dim")? as usize;
                let acc = r.f64_slice("adagrad accumulators")?;
                let seen = r.bool_slice("adagrad seen flags")?;
                tables.push(AdaGradTableState { dim, acc, seen });
            }
            Ok(OptimizerState::AdaGrad { tables })
        }
        OptimizerKind::Adam => {
            let n = r.u32("adam table count")? as usize;
            // Each table costs ≥ 32 bytes (dim, three slab counts).
            guard_count(r, n, 32, "adam tables")?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                let dim = r.u64("adam dim")? as usize;
                let m = r.f64_slice("adam first moments")?;
                let v = r.f64_slice("adam second moments")?;
                let t = r.u64_slice("adam step counters")?;
                tables.push(AdamTableState { dim, m, v, t });
            }
            Ok(OptimizerState::Adam { tables })
        }
    }
}

fn model_kind_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::TransE => 0,
        ModelKind::TransH => 1,
        ModelKind::TransD => 2,
        ModelKind::TransR => 3,
        ModelKind::DistMult => 4,
        ModelKind::ComplEx => 5,
        ModelKind::Rescal => 6,
    }
}

fn model_kind_from_tag(tag: u8) -> Result<ModelKind, SnapshotError> {
    Ok(match tag {
        0 => ModelKind::TransE,
        1 => ModelKind::TransH,
        2 => ModelKind::TransD,
        3 => ModelKind::TransR,
        4 => ModelKind::DistMult,
        5 => ModelKind::ComplEx,
        6 => ModelKind::Rescal,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown model kind tag {other}"
            )))
        }
    })
}

fn optimizer_kind_tag(kind: OptimizerKind) -> u8 {
    match kind {
        OptimizerKind::Sgd => 0,
        OptimizerKind::AdaGrad => 1,
        OptimizerKind::Adam => 2,
    }
}

fn optimizer_kind_from_tag(tag: u8) -> Result<OptimizerKind, SnapshotError> {
    Ok(match tag {
        0 => OptimizerKind::Sgd,
        1 => OptimizerKind::AdaGrad,
        2 => OptimizerKind::Adam,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown optimizer kind tag {other}"
            )))
        }
    })
}
