//! An IGAN-style baseline (Wang et al., AAAI 2018).
//!
//! IGAN's generator models a probability distribution over the *entire*
//! entity set for each positive triple, so both sampling and the REINFORCE
//! update cost `O(|E|·d)` per triple — the defining property the paper's
//! Table I contrasts with NSCaching's `O((N1+N2)·d)`. The original code was
//! never released; this re-implementation follows the description in the
//! NSCaching and IGAN papers (two-layer generator replaced by an embedding
//! generator, which preserves the complexity and training behaviour that the
//! comparison relies on).
//!
//! Sharded training mirrors KBGAN: the generator is scored read-only by the
//! shard workers, REINFORCE contributions accumulate per shard against the
//! batch-start baseline, and `merge_batch` applies one deterministic
//! generator step per mini-batch.

use crate::corruption::CorruptionPolicy;
use crate::partition::ObservedPartition;
use crate::sampler::{NegativeSampler, SampledNegative, ShardSampler};
use crate::state::{
    capture_generator_tables, restore_generator_tables, GeneratorKind, GeneratorState, SamplerState,
};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_math::{sample_one_weighted, softmax_in_place};
use nscaching_models::{GradientArena, KgeModel};
use nscaching_optim::{build_optimizer, Optimizer, OptimizerConfig};
use rand::rngs::StdRng;

struct PendingChoice {
    positive: Triple,
    side: CorruptionSide,
    probs: Vec<f64>,
    chosen: usize,
}

/// One shard's private workspace: pending draw, buffered REINFORCE feedback
/// and the recycled `O(|E|)` probability buffer.
#[derive(Default)]
struct IganShardSlot {
    pending: Option<PendingChoice>,
    grads: GradientArena,
    rewards: Vec<f64>,
    /// Probability buffer recycled between consecutive `PendingChoice`s so
    /// the O(|E|) softmax reuses its allocation across positives.
    spare_probs: Vec<f64>,
}

/// IGAN-style sampler: full-softmax generator over all entities.
pub struct IganSampler {
    generator: Box<dyn KgeModel>,
    optimizer: Box<dyn Optimizer>,
    policy: CorruptionPolicy,
    baseline: f64,
    baseline_decay: f64,
    feedback_steps: u64,
    /// Cap on how many entities receive a REINFORCE gradient per step (the
    /// chosen entity always does). `usize::MAX` means the faithful full
    /// update; smaller values trade fidelity for speed in smoke tests.
    gradient_fanout: usize,
    /// Per-shard workspaces; slot 0 doubles as the sequential path's state.
    slots: Vec<IganShardSlot>,
    /// Recycled gradient arena for `merge_batch` (and the sequential path's
    /// per-positive REINFORCE step).
    merge_scratch: GradientArena,
    /// Shard routing: balanced when key frequencies were observed, uniform
    /// hash otherwise (IGAN is keyless; see the KBGAN field of the same
    /// name).
    routing: ObservedPartition,
}

impl IganSampler {
    /// Create an IGAN-style sampler with a full `O(|E|)` REINFORCE update.
    pub fn new(generator: Box<dyn KgeModel>, generator_lr: f64, policy: CorruptionPolicy) -> Self {
        let mut optimizer = build_optimizer(&OptimizerConfig::adam(generator_lr));
        optimizer.bind(generator.as_ref());
        Self {
            generator,
            optimizer,
            policy,
            baseline: 0.0,
            baseline_decay: 0.99,
            feedback_steps: 0,
            gradient_fanout: usize::MAX,
            slots: vec![IganShardSlot::default()],
            merge_scratch: GradientArena::new(),
            routing: ObservedPartition::default(),
        }
    }

    /// Record the `(h, r)` key frequencies of `triples` so `prepare_shards`
    /// builds the load-balanced partition instead of routing shards by the
    /// uniform hash (see [`ObservedPartition`]).
    pub fn with_observed_keys(mut self, triples: &[Triple]) -> Self {
        self.routing.observe(triples);
        self
    }

    /// Limit the REINFORCE update to the `fanout` highest-probability
    /// entities (plus the chosen one). Only used to keep smoke tests fast.
    pub fn with_gradient_fanout(mut self, fanout: usize) -> Self {
        self.gradient_fanout = fanout.max(1);
        self
    }

    /// Number of REINFORCE updates applied so far.
    pub fn feedback_steps(&self) -> u64 {
        self.feedback_steps
    }

    /// Immutable access to the generator.
    pub fn generator(&self) -> &dyn KgeModel {
        self.generator.as_ref()
    }

    /// Draw from the full-softmax generator distribution — shared by the
    /// sequential hook and the shard workers.
    fn sample_in_slot(
        generator: &dyn KgeModel,
        policy: &CorruptionPolicy,
        slot: &mut IganShardSlot,
        positive: &Triple,
        rng: &mut StdRng,
    ) -> SampledNegative {
        let side = policy.choose(positive, rng);
        // Full distribution over every entity — the O(|E|·d) step, streamed
        // through the batched fast path into a recycled buffer. The
        // positive's own entity is masked out, matching the negative set
        // definition of Eq. (5).
        let mut probs = std::mem::take(&mut slot.spare_probs);
        generator.score_all_into(positive, side, &mut probs);
        probs[positive.entity_at(side) as usize] = f64::NEG_INFINITY;
        softmax_in_place(&mut probs);
        let chosen = sample_one_weighted(rng, &probs);
        slot.pending = Some(PendingChoice {
            positive: *positive,
            side,
            probs,
            chosen,
        });
        SampledNegative::new(positive, side, chosen as u32)
    }

    /// Take the slot's pending choice if it matches the reported draw.
    fn matching_pending(
        slot: &mut IganShardSlot,
        positive: &Triple,
        negative: &SampledNegative,
    ) -> Option<PendingChoice> {
        let pending = slot.pending.take()?;
        if pending.positive != *positive
            || pending.side != negative.side
            || pending.chosen as u32 != negative.entity
        {
            slot.spare_probs = pending.probs;
            return None;
        }
        Some(pending)
    }

    /// Accumulate the (optionally fanout-limited) REINFORCE gradient of a
    /// recorded choice into `grads`.
    fn accumulate_reinforce(
        generator: &dyn KgeModel,
        gradient_fanout: usize,
        pending: &PendingChoice,
        advantage: f64,
        grads: &mut GradientArena,
    ) {
        let mut order: Vec<usize> = (0..pending.probs.len()).collect();
        if gradient_fanout < pending.probs.len() {
            order.sort_by(|&a, &b| pending.probs[b].partial_cmp(&pending.probs[a]).unwrap());
            order.truncate(gradient_fanout);
            if !order.contains(&pending.chosen) {
                order.push(pending.chosen);
            }
        }
        for &i in &order {
            let indicator = if i == pending.chosen { 1.0 } else { 0.0 };
            let coeff = -advantage * (indicator - pending.probs[i]);
            if coeff != 0.0 {
                let triple = pending.positive.corrupted(pending.side, i as u32);
                generator.accumulate_score_gradient(&triple, coeff, grads);
            }
        }
    }

    /// Sequential-path REINFORCE: immediate baseline update and one optimizer
    /// step per positive, the original IGAN schedule.
    fn reinforce_now(&mut self, pending: PendingChoice, reward: f64) {
        let advantage = reward - self.baseline;
        self.baseline = self.baseline_decay * self.baseline + (1.0 - self.baseline_decay) * reward;
        self.feedback_steps += 1;
        if advantage == 0.0 {
            self.slots[0].spare_probs = pending.probs;
            return;
        }
        // The merge arena is idle on the sequential path; reuse it so the
        // O(|E|)-row REINFORCE step allocates nothing in steady state.
        let mut grads = std::mem::take(&mut self.merge_scratch);
        grads.clear();
        Self::accumulate_reinforce(
            self.generator.as_ref(),
            self.gradient_fanout,
            &pending,
            advantage,
            &mut grads,
        );
        self.optimizer.step(self.generator.as_mut(), &mut grads);
        self.generator.apply_constraints(grads.touched());
        self.merge_scratch = grads;
        self.slots[0].spare_probs = pending.probs;
    }
}

/// Worker view over one IGAN shard.
struct IganShardWorker<'a> {
    generator: &'a dyn KgeModel,
    policy: &'a CorruptionPolicy,
    gradient_fanout: usize,
    /// Baseline snapshotted at batch start (see the KBGAN worker).
    baseline: f64,
    slot: &'a mut IganShardSlot,
}

impl ShardSampler for IganShardWorker<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        IganSampler::sample_in_slot(self.generator, self.policy, self.slot, positive, rng)
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let Some(pending) = IganSampler::matching_pending(self.slot, positive, negative) else {
            return;
        };
        self.slot.rewards.push(reward);
        let advantage = reward - self.baseline;
        if advantage != 0.0 {
            IganSampler::accumulate_reinforce(
                self.generator,
                self.gradient_fanout,
                &pending,
                advantage,
                &mut self.slot.grads,
            );
        }
        self.slot.spare_probs = pending.probs;
    }
}

impl NegativeSampler for IganSampler {
    fn name(&self) -> &'static str {
        "IGAN"
    }

    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        Self::sample_in_slot(
            self.generator.as_ref(),
            &self.policy,
            &mut self.slots[0],
            positive,
            rng,
        )
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let Some(pending) = Self::matching_pending(&mut self.slots[0], positive, negative) else {
            return;
        };
        self.reinforce_now(pending, reward);
    }

    fn prepare_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.routing.prepare(shards);
        if self.slots.len() != shards {
            self.slots = (0..shards).map(|_| IganShardSlot::default()).collect();
        }
    }

    fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Balanced `(h, r)` routing when key frequencies were observed, uniform
    /// hash otherwise (IGAN is keyless; see the KBGAN override).
    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        self.routing
            .shard_of((positive.head, positive.relation), shards)
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let generator = self.generator.as_ref();
        let policy = &self.policy;
        let gradient_fanout = self.gradient_fanout;
        let baseline = self.baseline;
        self.slots
            .iter_mut()
            .map(|slot| {
                Box::new(IganShardWorker {
                    generator,
                    policy,
                    gradient_fanout,
                    baseline,
                    slot,
                }) as Box<dyn ShardSampler>
            })
            .collect()
    }

    fn merge_batch(&mut self) {
        let mut merged = std::mem::take(&mut self.merge_scratch);
        merged.clear();
        for slot in self.slots.iter_mut() {
            for &reward in &slot.rewards {
                self.baseline =
                    self.baseline_decay * self.baseline + (1.0 - self.baseline_decay) * reward;
                self.feedback_steps += 1;
            }
            slot.rewards.clear();
            merged.merge(&mut slot.grads);
            slot.grads.clear();
        }
        if !merged.is_empty() {
            self.optimizer.step(self.generator.as_mut(), &mut merged);
            self.generator.apply_constraints(merged.touched());
        }
        self.merge_scratch = merged;
    }

    fn extra_parameters(&self) -> usize {
        self.generator.num_parameters()
    }

    fn export_state(&self) -> SamplerState {
        SamplerState::Generator(GeneratorState {
            kind: GeneratorKind::Igan,
            baseline: self.baseline,
            feedback_steps: self.feedback_steps,
            tables: capture_generator_tables(self.generator.as_ref()),
            optimizer: self.optimizer.export_state(),
        })
    }

    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        let state = match state {
            SamplerState::Stateless => return Ok(()),
            SamplerState::Generator(g) if g.kind == GeneratorKind::Igan => g,
            other => {
                return Err(format!(
                    "IGAN sampler cannot import {} state",
                    other.kind_name()
                ))
            }
        };
        restore_generator_tables(self.generator.as_mut(), &state.tables)?;
        state.optimizer.check_fits(self.generator.as_ref())?;
        self.optimizer.import_state(state.optimizer)?;
        // Re-bind so the slabs stay pre-sized even if the capture was taken
        // before the optimizer ever touched some table.
        self.optimizer.bind(self.generator.as_ref());
        self.baseline = state.baseline;
        self.feedback_steps = state.feedback_steps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{build_model, ModelConfig, ModelKind};

    fn generator(n: usize) -> Box<dyn KgeModel> {
        build_model(
            &ModelConfig::new(ModelKind::DistMult)
                .with_dim(4)
                .with_seed(2),
            n,
            2,
        )
    }

    fn discriminator(n: usize) -> Box<dyn KgeModel> {
        build_model(
            &ModelConfig::new(ModelKind::ComplEx)
                .with_dim(4)
                .with_seed(8),
            n,
            2,
        )
    }

    #[test]
    fn sampling_covers_the_whole_entity_set() {
        let mut s = IganSampler::new(generator(25), 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(25);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            assert!(neg.entity < 25);
            seen.insert(neg.entity);
        }
        assert!(
            seen.len() > 10,
            "generator starts near-uniform, saw {}",
            seen.len()
        );
    }

    #[test]
    fn feedback_counts_and_baseline_move() {
        let mut s = IganSampler::new(generator(15), 0.05, CorruptionPolicy::Uniform);
        let d = discriminator(15);
        let mut rng = seeded_rng(2);
        let pos = Triple::new(1, 1, 2);
        for _ in 0..10 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            s.feedback(&pos, &neg, d.score(&neg.triple), &mut rng);
        }
        assert_eq!(s.feedback_steps(), 10);
        assert_eq!(s.name(), "IGAN");
        assert!(s.extra_parameters() > 0);
    }

    #[test]
    fn fanout_limit_still_learns_to_prefer_rewarded_entities() {
        let mut s =
            IganSampler::new(generator(12), 0.1, CorruptionPolicy::Uniform).with_gradient_fanout(4);
        let d = discriminator(12);
        let mut rng = seeded_rng(3);
        let pos = Triple::new(0, 0, 1);
        for _ in 0..300 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let reward = if neg.entity == 5 { 4.0 } else { -4.0 };
            s.feedback(&pos, &neg, reward, &mut rng);
        }
        let g = s.generator();
        let favoured = g.score(&pos.with_head(5)) + g.score(&pos.with_tail(5));
        let other = g.score(&pos.with_head(9)) + g.score(&pos.with_tail(9));
        assert!(favoured > other, "{favoured} !> {other}");
    }

    #[test]
    fn stale_feedback_is_ignored() {
        let mut s = IganSampler::new(generator(10), 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(10);
        let mut rng = seeded_rng(4);
        let pos = Triple::new(0, 0, 1);
        let neg = s.sample(&pos, d.as_ref(), &mut rng);
        let other_pos = Triple::new(2, 1, 3);
        s.feedback(&other_pos, &neg, 1.0, &mut rng);
        assert_eq!(s.feedback_steps(), 0);
    }

    #[test]
    fn sharded_feedback_merges_deterministically() {
        let run = || {
            let mut s = IganSampler::new(generator(20), 0.05, CorruptionPolicy::Uniform);
            let d = discriminator(20);
            s.prepare_shards(2);
            let positives = [Triple::new(0, 0, 1), Triple::new(3, 1, 7)];
            {
                let mut workers = s.shard_workers();
                for (w, pos) in workers.iter_mut().zip(&positives) {
                    let mut rng = seeded_rng(6);
                    let neg = w.sample(pos, d.as_ref(), &mut rng);
                    w.feedback(pos, &neg, d.score(&neg.triple), &mut rng);
                }
            }
            s.merge_batch();
            (
                s.feedback_steps(),
                s.generator().score(&Triple::new(0, 0, 1)),
            )
        };
        let (steps_a, score_a) = run();
        let (steps_b, score_b) = run();
        assert_eq!(steps_a, 2);
        assert_eq!(steps_a, steps_b);
        assert_eq!(score_a, score_b, "merge must be bit-reproducible");
    }
}
