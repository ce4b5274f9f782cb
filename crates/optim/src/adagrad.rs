//! AdaGrad (Duchi et al., 2011) with dense per-table accumulator slabs.
//!
//! The per-component sum of squared gradients `G` lives in one contiguous
//! `rows × dim` slab per parameter table (see the crate docs for the layout
//! rationale); a touched row's accumulator is an array index away instead of
//! a hash-map lookup, and [`Optimizer::bind`] pre-sizes the slabs so `step`
//! never allocates.

use crate::optimizer::{AdaGradTableState, Optimizer, OptimizerState};
use nscaching_models::{GradientArena, KgeModel};

/// One table's accumulator slab.
#[derive(Debug, Clone, Default)]
struct TableAcc {
    dim: usize,
    /// `rows × dim` squared-gradient sums, row-major.
    acc: Vec<f64>,
    /// Which rows have ever received a gradient (drives `state_rows`).
    seen: Vec<bool>,
}

impl TableAcc {
    /// Grow the slab (if needed) to hold `row`.
    ///
    /// A bound optimizer never grows here — `bind` sized every slab to its
    /// table — so the steady-state step stays allocation-free.
    #[inline]
    fn ensure_row(&mut self, row: usize) {
        if self.seen.len() <= row {
            let rows = (row + 1).next_power_of_two().max(8);
            self.acc.resize(rows * self.dim, 0.0);
            self.seen.resize(rows, false);
        }
    }
}

/// Resolve (growing if needed) the slab for `table`, fixing its dimension on
/// first touch. Called once per table *run* of the grouped apply walk.
fn slab_for(tables: &mut Vec<TableAcc>, table: usize, dim: usize) -> &mut TableAcc {
    if table >= tables.len() {
        tables.resize_with(table + 1, TableAcc::default);
    }
    let slab = &mut tables[table];
    if slab.dim == 0 {
        slab.dim = dim;
    }
    debug_assert_eq!(slab.dim, dim, "gradient dimension mismatch");
    slab
}

/// `θ ← θ − η·g / (√G + ε)` with `G` the per-component sum of squared
/// gradients, stored in dense per-table slabs.
#[derive(Debug, Clone)]
pub struct AdaGrad {
    learning_rate: f64,
    epsilon: f64,
    tables: Vec<TableAcc>,
    live_rows: usize,
}

impl AdaGrad {
    /// Create an AdaGrad optimizer with learning rate `η` and `ε = 1e-10`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self {
            learning_rate,
            epsilon: 1e-10,
            tables: Vec::new(),
            live_rows: 0,
        }
    }

    /// Number of rows with live state (used in tests and memory reports).
    pub fn state_rows(&self) -> usize {
        self.live_rows
    }
}

impl Optimizer for AdaGrad {
    fn step(&mut self, model: &mut dyn KgeModel, grads: &mut GradientArena) {
        let lr = self.learning_rate;
        let eps = self.epsilon;
        // Grouped per-table walk: slab and parameter table (a virtual
        // `table_mut` dispatch) resolved once per table run; row order and
        // arithmetic unchanged, so trajectories stay bit-identical.
        for (table_id, run) in grads.rows().by_table() {
            let slab = slab_for(&mut self.tables, table_id, run.dim());
            let table = model.table_mut(table_id);
            for (row, grad) in run.iter() {
                slab.ensure_row(row);
                if !slab.seen[row] {
                    slab.seen[row] = true;
                    self.live_rows += 1;
                }
                let base = row * slab.dim;
                let acc = &mut slab.acc[base..base + slab.dim];
                let params = table.row_mut(row);
                for ((p, g), a) in params.iter_mut().zip(grad).zip(acc.iter_mut()) {
                    *a += g * g;
                    *p -= lr * g / (a.sqrt() + eps);
                }
            }
        }
    }

    fn bind(&mut self, model: &dyn KgeModel) {
        for (table, t) in model.tables().iter().enumerate() {
            if table >= self.tables.len() {
                self.tables.resize_with(table + 1, TableAcc::default);
            }
            let slab = &mut self.tables[table];
            if slab.dim == 0 {
                slab.dim = t.dim();
            }
            if slab.seen.len() < t.rows() {
                slab.acc.resize(t.rows() * t.dim(), 0.0);
                slab.seen.resize(t.rows(), false);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn reset(&mut self) {
        for slab in &mut self.tables {
            slab.acc.fill(0.0);
            slab.seen.fill(false);
        }
        self.live_rows = 0;
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState::AdaGrad {
            tables: self
                .tables
                .iter()
                .map(|slab| AdaGradTableState {
                    dim: slab.dim,
                    acc: slab.acc.clone(),
                    seen: slab.seen.clone(),
                })
                .collect(),
        }
    }

    fn import_state(&mut self, state: OptimizerState) -> Result<(), String> {
        let OptimizerState::AdaGrad { tables } = state else {
            return Err(format!(
                "cannot import {:?} state into AdaGrad",
                state.kind()
            ));
        };
        for (i, slab) in tables.iter().enumerate() {
            if slab.seen.len().checked_mul(slab.dim) != Some(slab.acc.len()) {
                return Err(format!(
                    "AdaGrad table {i}: accumulator length {} does not match {} rows × dim {}",
                    slab.acc.len(),
                    slab.seen.len(),
                    slab.dim
                ));
            }
        }
        self.live_rows = tables
            .iter()
            .flat_map(|slab| slab.seen.iter())
            .filter(|&&seen| seen)
            .count();
        self.tables = tables
            .into_iter()
            .map(|slab| TableAcc {
                dim: slab.dim,
                acc: slab.acc,
                seen: slab.seen,
            })
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{DistMult, KgeModel};

    fn model() -> DistMult {
        let mut rng = seeded_rng(3);
        let mut m = DistMult::new(2, 1, 2, &mut rng);
        m.tables_mut()[0].set_row(0, &[0.0, 0.0]);
        m
    }

    #[test]
    fn first_step_is_learning_rate_sized() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[2.0, -4.0], 1.0);
        let mut opt = AdaGrad::new(0.1);
        opt.step(&mut m, &mut grads);
        // each component: -lr * g/|g| = ∓lr (sign of g)
        let row = m.tables()[0].row(0);
        assert!((row[0] + 0.1).abs() < 1e-6);
        assert!((row[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn repeated_gradients_shrink_the_effective_step() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[1.0, 1.0], 1.0);
        let mut opt = AdaGrad::new(0.1);
        opt.step(&mut m, &mut grads);
        let after_first = m.tables()[0].row(0)[0];
        opt.step(&mut m, &mut grads);
        let after_second = m.tables()[0].row(0)[0];
        let first_step = (0.0 - after_first).abs();
        let second_step = (after_first - after_second).abs();
        assert!(second_step < first_step, "{second_step} !< {first_step}");
    }

    #[test]
    fn state_grows_only_for_touched_rows_and_reset_clears_it() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 1, &[1.0, 1.0], 1.0);
        let mut opt = AdaGrad::new(0.1);
        opt.bind(&m);
        opt.step(&mut m, &mut grads);
        assert_eq!(opt.state_rows(), 1);
        opt.reset();
        assert_eq!(opt.state_rows(), 0);
    }

    #[test]
    fn bound_and_unbound_states_apply_identical_updates() {
        let mut bound_model = model();
        let mut lazy_model = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[0.7, -0.3], 1.0);
        grads.add(1, 0, &[0.2, 0.9], -0.5);
        let mut bound = AdaGrad::new(0.1);
        bound.bind(&bound_model);
        let mut lazy = AdaGrad::new(0.1);
        for _ in 0..3 {
            bound.step(&mut bound_model, &mut grads);
            lazy.step(&mut lazy_model, &mut grads);
        }
        for (a, b) in bound_model.tables().iter().zip(lazy_model.tables()) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(bound.state_rows(), lazy.state_rows());
    }

    #[test]
    fn state_export_import_round_trips_and_rejects_foreign_kinds() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 1, &[0.5, -0.5], 1.0);
        let mut opt = AdaGrad::new(0.1);
        opt.bind(&m);
        opt.step(&mut m, &mut grads);
        let state = opt.export_state();
        let mut fresh = AdaGrad::new(0.1);
        fresh.import_state(state.clone()).unwrap();
        assert_eq!(fresh.export_state(), state);
        assert_eq!(fresh.state_rows(), 1);
        assert!(fresh.import_state(OptimizerState::Sgd).is_err());
    }
}
