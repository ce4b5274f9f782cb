//! The optimizer trait and configuration.

use crate::adagrad::AdaGrad;
use crate::adam::Adam;
use crate::sgd::Sgd;
use nscaching_models::{GradientArena, KgeModel};
use serde::{Deserialize, Serialize};

/// A sparse first-order optimizer.
///
/// `step` applies one descent update for every touched `(table, row)` slot of
/// the arena, walking the sorted slot list (see the crate docs for the
/// determinism contract). The caller re-imposes model constraints afterwards
/// with `model.apply_constraints(grads.touched())` — the same sorted list, so
/// no separate touched-row vector is materialised.
pub trait Optimizer: Send {
    /// Apply one descent step of the given sparse gradient.
    fn step(&mut self, model: &mut dyn KgeModel, grads: &mut GradientArena);

    /// Pre-size the per-row state slabs from `model`'s table dimensions so
    /// that [`step`](Self::step) never allocates. Called once at construction
    /// by the trainer and the GAN samplers; stateless optimizers ignore it.
    fn bind(&mut self, _model: &dyn KgeModel) {}

    /// The (base) learning rate.
    fn learning_rate(&self) -> f64;

    /// Reset all accumulated state (moments, step counters).
    fn reset(&mut self);

    /// Copy out the per-row state slabs for checkpointing.
    ///
    /// The exported slabs are exactly the optimizer's live state: importing
    /// them into a freshly built optimizer of the same kind (then re-`bind`ing
    /// it) continues the update sequence bit-for-bit, which is half of the
    /// trainer's exact-resume guarantee (the other half is the RNG state).
    fn export_state(&self) -> OptimizerState;

    /// Replace the per-row state with slabs captured by
    /// [`export_state`](Self::export_state).
    ///
    /// Fails (with a description) when `state` belongs to a different
    /// optimizer kind. Callers should re-`bind` afterwards so slab sizes are
    /// re-padded to the model's tables.
    fn import_state(&mut self, state: OptimizerState) -> Result<(), String>;
}

/// A checkpointable copy of an optimizer's per-row state slabs.
///
/// The variants mirror the dense per-table slab layout of the concrete
/// optimizers (see the crate docs): one entry per parameter table, indexed by
/// table id, each holding `rows × dim` row-major value slabs plus the per-row
/// bookkeeping (`seen` flags, step counters). [`Optimizer::export_state`] /
/// [`Optimizer::import_state`] round-trip it; `nscaching_serve` serialises it
/// into the snapshot format.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// SGD carries no state.
    Sgd,
    /// AdaGrad: squared-gradient accumulators plus touched-row flags.
    AdaGrad {
        /// One slab per parameter table, in table-id order.
        tables: Vec<AdaGradTableState>,
    },
    /// Adam: first/second moments plus per-row step counters.
    Adam {
        /// One slab per parameter table, in table-id order.
        tables: Vec<AdamTableState>,
    },
}

impl OptimizerState {
    /// The optimizer kind this state belongs to.
    pub fn kind(&self) -> OptimizerKind {
        match self {
            OptimizerState::Sgd => OptimizerKind::Sgd,
            OptimizerState::AdaGrad { .. } => OptimizerKind::AdaGrad,
            OptimizerState::Adam { .. } => OptimizerKind::Adam,
        }
    }

    /// Check that every slab fits `model`'s table of the same id: the same
    /// `dim` and no more rows (an untouched empty slab, dim 0, fits any
    /// table).
    ///
    /// [`Optimizer::bind`] keeps an imported slab's `dim` and only pads
    /// missing rows, so importing a slab shaped for another model would step
    /// the model with the wrong stride. Callers check before importing.
    pub fn check_fits(&self, model: &dyn KgeModel) -> Result<(), String> {
        let shapes: Vec<(usize, usize)> = match self {
            OptimizerState::Sgd => Vec::new(),
            OptimizerState::AdaGrad { tables } => {
                tables.iter().map(|t| (t.seen.len(), t.dim)).collect()
            }
            OptimizerState::Adam { tables } => tables.iter().map(|t| (t.t.len(), t.dim)).collect(),
        };
        let live = model.tables();
        for (i, (rows, dim)) in shapes.into_iter().enumerate() {
            let Some(table) = live.get(i) else {
                return Err(format!(
                    "optimizer state has table {i}, the model only {}",
                    live.len()
                ));
            };
            let untouched = rows == 0 && dim == 0;
            if rows > table.rows() || (dim != table.dim() && !untouched) {
                return Err(format!(
                    "optimizer table {i} holds {rows} rows × dim {dim}, the model's table {:?} \
                     is {} rows × dim {}",
                    table.name(),
                    table.rows(),
                    table.dim()
                ));
            }
        }
        Ok(())
    }
}

/// One table's exported AdaGrad state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaGradTableState {
    /// Row dimension (0 for a table that was never touched).
    pub dim: usize,
    /// `rows × dim` squared-gradient sums, row-major.
    pub acc: Vec<f64>,
    /// Which rows have ever received a gradient.
    pub seen: Vec<bool>,
}

/// One table's exported Adam state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamTableState {
    /// Row dimension (0 for a table that was never touched).
    pub dim: usize,
    /// First moments, `rows × dim` row-major.
    pub m: Vec<f64>,
    /// Second moments, `rows × dim` row-major.
    pub v: Vec<f64>,
    /// Per-row step counters (0 = never touched).
    pub t: Vec<u64>,
}

/// Which optimizer to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd,
    /// AdaGrad with per-component accumulators.
    AdaGrad,
    /// Adam with default `β₁ = 0.9`, `β₂ = 0.999` (the paper's optimizer).
    Adam,
}

/// Declarative optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Which algorithm to use.
    pub kind: OptimizerKind,
    /// Learning rate η.
    pub learning_rate: f64,
}

impl OptimizerConfig {
    /// The paper's default: Adam with the given learning rate.
    pub fn adam(learning_rate: f64) -> Self {
        Self {
            kind: OptimizerKind::Adam,
            learning_rate,
        }
    }

    /// Plain SGD with the given learning rate.
    pub fn sgd(learning_rate: f64) -> Self {
        Self {
            kind: OptimizerKind::Sgd,
            learning_rate,
        }
    }

    /// AdaGrad with the given learning rate.
    pub fn adagrad(learning_rate: f64) -> Self {
        Self {
            kind: OptimizerKind::AdaGrad,
            learning_rate,
        }
    }
}

/// Build an optimizer from its configuration.
pub fn build_optimizer(config: &OptimizerConfig) -> Box<dyn Optimizer> {
    match config.kind {
        OptimizerKind::Sgd => Box::new(Sgd::new(config.learning_rate)),
        OptimizerKind::AdaGrad => Box::new(AdaGrad::new(config.learning_rate)),
        OptimizerKind::Adam => Box::new(Adam::new(config.learning_rate)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors_set_kind_and_rate() {
        assert_eq!(OptimizerConfig::adam(0.01).kind, OptimizerKind::Adam);
        assert_eq!(OptimizerConfig::sgd(0.1).learning_rate, 0.1);
        assert_eq!(OptimizerConfig::adagrad(0.05).kind, OptimizerKind::AdaGrad);
    }

    #[test]
    fn build_dispatches_on_kind() {
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::AdaGrad,
            OptimizerKind::Adam,
        ] {
            let opt = build_optimizer(&OptimizerConfig {
                kind,
                learning_rate: 0.123,
            });
            assert!((opt.learning_rate() - 0.123).abs() < 1e-12);
        }
    }
}
