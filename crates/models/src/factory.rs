//! Model construction from a declarative configuration.

use crate::complex::ComplEx;
use crate::distmult::DistMult;
use crate::embedding::EmbeddingTable;
use crate::rescal::Rescal;
use crate::scorer::{KgeModel, ModelKind};
use crate::transd::TransD;
use crate::transe::TransE;
use crate::transh::TransH;
use crate::transr::TransR;
use nscaching_math::seeded_rng;
use serde::{Deserialize, Serialize};

/// Declarative description of a model to build.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which scoring function to use.
    pub kind: ModelKind,
    /// Embedding dimension `d` (complex dimension for ComplEx).
    pub dim: usize,
    /// Seed used for Xavier initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// A configuration with the workspace defaults (`d = 32`).
    pub fn new(kind: ModelKind) -> Self {
        Self {
            kind,
            dim: 32,
            seed: 0,
        }
    }

    /// Set the embedding dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Set the initialisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Build a freshly initialised model for the given vocabulary sizes.
pub fn build_model(
    config: &ModelConfig,
    num_entities: usize,
    num_relations: usize,
) -> Box<dyn KgeModel> {
    let mut rng = seeded_rng(config.seed);
    let d = config.dim;
    match config.kind {
        ModelKind::TransE => Box::new(TransE::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::TransH => Box::new(TransH::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::TransD => Box::new(TransD::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::TransR => Box::new(TransR::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::DistMult => Box::new(DistMult::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::ComplEx => Box::new(ComplEx::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::Rescal => Box::new(Rescal::new(num_entities, num_relations, d, &mut rng)),
    }
}

/// Name, rows and row dimension of every table a `kind` model of these sizes
/// holds, in [`KgeModel::tables`] order; `None` for a zero dimension or a
/// row dimension that overflows `usize`.
fn table_shapes(
    kind: ModelKind,
    dim: usize,
    num_entities: usize,
    num_relations: usize,
) -> Option<Vec<(&'static str, usize, usize)>> {
    if dim == 0 {
        return None;
    }
    let (e, r) = (num_entities, num_relations);
    Some(match kind {
        ModelKind::TransE | ModelKind::DistMult => vec![("entity", e, dim), ("relation", r, dim)],
        ModelKind::TransH => vec![
            ("entity", e, dim),
            ("relation", r, dim),
            ("relation_normal", r, dim),
        ],
        ModelKind::TransD => vec![
            ("entity", e, dim),
            ("relation", r, dim),
            ("entity_proj", e, dim),
            ("relation_proj", r, dim),
        ],
        ModelKind::TransR => vec![
            ("entity", e, dim),
            ("relation", r, dim),
            ("relation_matrix", r, dim.checked_mul(dim)?),
        ],
        ModelKind::ComplEx => {
            let width = dim.checked_mul(2)?;
            vec![("entity", e, width), ("relation", r, width)]
        }
        ModelKind::Rescal => vec![
            ("entity", e, dim),
            ("relation_matrix", r, dim.checked_mul(dim)?),
        ],
    })
}

/// Assemble a `kind` model of embedding dimension `d` around existing
/// parameter tables (e.g. decoded from a snapshot), in [`KgeModel::tables`]
/// order.
///
/// Every table's name, row count and dimension is checked against what such
/// a model over the given vocabulary sizes holds before anything is built;
/// the tables are then moved in as they are. Nothing is allocated, drawn
/// from an RNG or projected, so the result holds exactly the given bits.
pub fn model_from_tables(
    kind: ModelKind,
    d: usize,
    num_entities: usize,
    num_relations: usize,
    tables: Vec<EmbeddingTable>,
) -> Result<Box<dyn KgeModel>, String> {
    let shapes = table_shapes(kind, d, num_entities, num_relations)
        .ok_or_else(|| format!("{kind:?} cannot have embedding dimension {d}"))?;
    if shapes.len() != tables.len() {
        return Err(format!(
            "{kind:?} holds {} tables but {} were given",
            shapes.len(),
            tables.len()
        ));
    }
    for (&(name, rows, dim), table) in shapes.iter().zip(&tables) {
        if table.name() != name || table.rows() != rows || table.dim() != dim {
            return Err(format!(
                "{kind:?} table {name:?} ({rows}×{dim}) does not match the given table {:?} ({}×{})",
                table.name(),
                table.rows(),
                table.dim()
            ));
        }
    }
    let mut tables = tables.into_iter();
    let mut next = || tables.next().expect("table count checked above");
    Ok(match kind {
        ModelKind::TransE => Box::new(TransE::from_tables(next(), next(), d)),
        ModelKind::TransH => Box::new(TransH::from_tables(next(), next(), next(), d)),
        ModelKind::TransD => Box::new(TransD::from_tables(next(), next(), next(), next(), d)),
        ModelKind::TransR => Box::new(TransR::from_tables(next(), next(), next(), d)),
        ModelKind::DistMult => Box::new(DistMult::from_tables(next(), next(), d)),
        ModelKind::ComplEx => Box::new(ComplEx::from_tables(next(), next(), d)),
        ModelKind::Rescal => Box::new(Rescal::from_tables(next(), next(), d)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_kg::Triple;

    #[test]
    fn every_kind_builds_with_matching_metadata() {
        for kind in ModelKind::ALL {
            let config = ModelConfig::new(kind).with_dim(6).with_seed(3);
            let model = build_model(&config, 11, 4);
            assert_eq!(model.kind(), kind, "{kind:?}");
            assert_eq!(model.num_entities(), 11);
            assert_eq!(model.num_relations(), 4);
            assert_eq!(model.dim(), 6);
            assert!(model.num_parameters() > 0);
            // scoring an arbitrary triple must be finite
            let s = model.score(&Triple::new(0, 0, 1));
            assert!(s.is_finite(), "{kind:?} produced a non-finite score");
        }
    }

    #[test]
    fn same_seed_gives_identical_models() {
        let config = ModelConfig::new(ModelKind::TransE)
            .with_dim(8)
            .with_seed(77);
        let a = build_model(&config, 20, 3);
        let b = build_model(&config, 20, 3);
        let t = Triple::new(3, 1, 7);
        assert_eq!(a.score(&t), b.score(&t));
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = build_model(&ModelConfig::new(ModelKind::TransE).with_seed(1), 20, 3);
        let b = build_model(&ModelConfig::new(ModelKind::TransE).with_seed(2), 20, 3);
        let t = Triple::new(3, 1, 7);
        assert_ne!(a.score(&t), b.score(&t));
    }

    fn clone_tables(model: &dyn KgeModel) -> Vec<EmbeddingTable> {
        model.tables().into_iter().cloned().collect()
    }

    #[test]
    fn model_from_tables_rebuilds_every_kind_bit_for_bit() {
        for kind in ModelKind::ALL {
            let config = ModelConfig::new(kind).with_dim(5).with_seed(4);
            let built = build_model(&config, 13, 3);
            let rebuilt = model_from_tables(kind, 5, 13, 3, clone_tables(built.as_ref())).unwrap();
            assert_eq!(rebuilt.kind(), kind);
            assert_eq!(rebuilt.dim(), 5);
            assert_eq!(rebuilt.num_entities(), 13);
            assert_eq!(rebuilt.num_relations(), 3);
            for (a, b) in built.tables().iter().zip(rebuilt.tables()) {
                assert_eq!(a.name(), b.name());
                let bits =
                    |t: &EmbeddingTable| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{kind:?} table {}", a.name());
            }
            let t = Triple::new(2, 1, 9);
            assert_eq!(built.score(&t).to_bits(), rebuilt.score(&t).to_bits());
        }
    }

    #[test]
    fn model_from_tables_rejects_every_shape_drift() {
        let config = ModelConfig::new(ModelKind::TransR).with_dim(3);
        let tables = || clone_tables(build_model(&config, 8, 2).as_ref());
        // Vocabulary sizes, dimension and kind that disagree with the tables,
        // including ones whose tables could never be allocated.
        assert!(model_from_tables(ModelKind::TransR, 3, 9, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, 3, 1 << 40, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, 3, 8, 3, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, 4, 8, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, 0, 8, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, 1 << 33, 8, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransR, usize::MAX, 8, 2, tables()).is_err());
        assert!(model_from_tables(ModelKind::TransE, 3, 8, 2, tables()).is_err());
        let mut short = tables();
        short.pop();
        assert!(model_from_tables(ModelKind::TransR, 3, 8, 2, short).is_err());
        let mut renamed = tables();
        renamed[1] = EmbeddingTable::zeros("relations", 2, 3);
        assert!(model_from_tables(ModelKind::TransR, 3, 8, 2, renamed).is_err());
        assert!(model_from_tables(ModelKind::TransR, 3, 8, 2, tables()).is_ok());
    }

    #[test]
    fn builder_setters_apply() {
        let c = ModelConfig::new(ModelKind::ComplEx)
            .with_dim(12)
            .with_seed(9);
        assert_eq!(c.dim, 12);
        assert_eq!(c.seed, 9);
        assert_eq!(c.kind, ModelKind::ComplEx);
    }
}
