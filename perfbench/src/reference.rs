//! The host-speed reference `train_examples_per_s` is scaled by.
//!
//! A shared host runs the same code up to 1.5× faster or slower from one
//! minute to the next (README.md, "Host phases"), and a training run sees
//! the speed of the minute it ran in. So every untraced run also times a
//! fixed kernel of its own, between epochs while the trainer is idle: row
//! gathers and L1 distances over a table shaped like the workload's entity
//! embeddings, the access pattern of a translational model scoring
//! candidates, plus one row write per query. The kernel calls no code of
//! the workspace, so a change to the program cannot change its work; only
//! the host's speed does.

use std::time::Instant;

/// Queries per timed unit.
const QUERIES: usize = 1000;
/// Candidate rows scored per query.
const CANDIDATES: usize = 100;

/// A table of `rows × dim` values and the generator that picks its rows.
pub struct ReferenceKernel {
    table: Vec<f64>,
    rows: usize,
    dim: usize,
    state: u64,
}

impl ReferenceKernel {
    /// A kernel over a `rows × dim` table with fixed contents.
    pub fn new(rows: usize, dim: usize) -> Self {
        let mut kernel = Self {
            table: Vec::with_capacity(rows * dim),
            rows,
            dim,
            state: 0x2545_f491_4f6c_dd1d,
        };
        for _ in 0..rows * dim {
            let bits = kernel.next_u64() >> 11;
            kernel.table.push(bits as f64 / (1u64 << 53) as f64 - 0.5);
        }
        kernel
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn next_row(&mut self) -> usize {
        (self.next_u64() % self.rows as u64) as usize
    }

    /// Run one fixed unit of work and return its wall time, seconds.
    pub fn time_unit(&mut self) -> f64 {
        let started = Instant::now();
        let dim = self.dim;
        let mut query = vec![0.0; dim];
        for _ in 0..QUERIES {
            let (head, relation) = (self.next_row(), self.next_row());
            for (d, q) in query.iter_mut().enumerate() {
                *q = self.table[head * dim + d] + self.table[relation * dim + d];
            }
            let (mut best, mut best_row) = (f64::MAX, 0);
            for _ in 0..CANDIDATES {
                let row = self.next_row();
                let distance: f64 = query
                    .iter()
                    .zip(&self.table[row * dim..(row + 1) * dim])
                    .map(|(q, t)| (q - t).abs())
                    .sum();
                if distance < best {
                    (best, best_row) = (distance, row);
                }
            }
            for (t, q) in self.table[best_row * dim..(best_row + 1) * dim]
                .iter_mut()
                .zip(&query)
            {
                *t = *t * 0.999 + q * 0.001;
            }
        }
        std::hint::black_box(&self.table);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_same_work() {
        let (mut a, mut b) = (ReferenceKernel::new(64, 8), ReferenceKernel::new(64, 8));
        a.time_unit();
        b.time_unit();
        assert_eq!(a.table, b.table);
        assert_eq!(a.state, b.state);
        assert!(a.time_unit() > 0.0);
    }
}
