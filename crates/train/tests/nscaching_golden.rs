//! Absolute golden for the paper-exact sequential NSCaching trajectory.
//!
//! The equivalence suites elsewhere compare one engine against another, so
//! a change that moved *every* engine the same way (say, a sampling kernel
//! that draws differently) would pass them all. This test pins the raw
//! outcome of a short sequential run — NSCaching with the default
//! importance-sampling cache refresh (Algorithm 3), TransE, one shard — at
//! two seeds:
//!
//! * the FNV-1a digest of the final embedding tables' bits;
//! * the per-epoch mean-loss bits;
//! * the per-epoch changed-cache-element counts (Figure 8(a));
//! * the per-epoch repeat-ratio bits (Figure 7(a)).
//!
//! Any kernel rewrite on this path must reproduce them unchanged. If a
//! change is *meant* to move the trajectory, re-pin the values and say so
//! in the change log.

use nscaching::{build_sampler, NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, TrainRuntime, Trainer};

const EPOCHS: usize = 3;

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    tables_fnv: u64,
    loss_bits: [u64; EPOCHS],
    changed: [u64; EPOCHS],
    repeat_bits: [u64; EPOCHS],
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("nscaching-golden");
    c.num_entities = 150;
    c.num_train = 600;
    c.num_valid = 40;
    c.num_test = 40;
    c.seed = 31;
    nscaching_datagen::generate(&c).unwrap()
}

fn run(ds: &Dataset, seed: u64) -> Golden {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(8)
            .with_seed(seed),
        ds.num_entities(),
        ds.num_relations(),
    );
    // N1 = 20 of N1 + N2 = 40 candidates: enough picks per refresh that the
    // weighted selection kernel dominates the trajectory.
    let sampler = build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(20, 20)),
        ds,
        seed ^ 0x5eed,
    );
    let config = TrainConfig::new(EPOCHS)
        .with_batch_size(100)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(2.0)
        .with_seed(seed)
        .with_shards(1)
        .with_runtime(TrainRuntime::Sequential);
    let mut trainer = Trainer::new(model, sampler, ds, config);
    let mut loss_bits = [0u64; EPOCHS];
    let mut changed = [0u64; EPOCHS];
    let mut repeat_bits = [0u64; EPOCHS];
    for e in 0..EPOCHS {
        let stats = trainer.train_epoch();
        loss_bits[e] = stats.mean_loss.to_bits();
        changed[e] = stats.changed_cache_elements;
        repeat_bits[e] = stats.repeat_ratio.to_bits();
    }
    let tables_fnv = fnv1a(
        trainer
            .model()
            .tables()
            .iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits())),
    );
    Golden {
        tables_fnv,
        loss_bits,
        changed,
        repeat_bits,
    }
}

#[test]
fn sequential_nscaching_trajectory_matches_the_pinned_golden() {
    let ds = dataset();
    let goldens = [
        (
            3u64,
            Golden {
                tables_fnv: 7471220884065852854,
                loss_bits: [
                    4611078919219584831,
                    4609783337254125705,
                    4609240370956968776,
                ],
                changed: [10352, 9898, 9738],
                repeat_bits: [
                    4574336165517728591,
                    4581662020911584597,
                    4583823748732722435,
                ],
            },
        ),
        (
            1009u64,
            Golden {
                tables_fnv: 3063468978489584392,
                loss_bits: [
                    4611214344052396998,
                    4610085742079605950,
                    4609335213570615068,
                ],
                changed: [10307, 10081, 9854],
                repeat_bits: [
                    4575957461383581969,
                    4579800533065604792,
                    4583023108798967681,
                ],
            },
        ),
    ];
    for (seed, expected) in goldens {
        assert_eq!(run(&ds, seed), expected, "seed {seed}");
    }
}
