//! Contiguous parameter-shard geometry for the sharded parameter server.
//!
//! A [`ShardMap`] partitions the flat d-dimensional parameter vector into
//! `s` contiguous slices, one per shard server. The tiling is validated at
//! construction to cover `[0, d)` exactly — every coordinate belongs to
//! precisely one shard, with no gap and no overlap — so every later layer
//! (wire routing, per-shard GAR selection, final-model reassembly) can treat
//! shard geometry as trusted.
//!
//! Sharding is only sound for *coordinate-decomposable* GARs (see
//! [`GarKind::is_coordinate_decomposable`](garfield_aggregation::GarKind::is_coordinate_decomposable)):
//! applying the rule to each slice independently must equal slicing the rule
//! applied to the full vectors, given identical input membership. Average
//! and the coordinate-wise median have this property; distance-based rules
//! (Krum, MDA, Bulyan) do not, and configurations combining them with
//! `shards > 1` are rejected at validation time.

use crate::{CoreError, CoreResult};
use garfield_ml::Model;
use garfield_tensor::Tensor;
use std::ops::Range;

/// One contiguous parameter shard: which slice of the flat vector a shard
/// server owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The shard's index within its [`ShardMap`] (0-based, dense).
    pub index: usize,
    /// First coordinate of the slice.
    pub offset: usize,
    /// Number of coordinates in the slice (always ≥ 1).
    pub len: usize,
}

impl ShardSpec {
    /// The half-open coordinate range `[offset, offset + len)` this shard
    /// owns.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }

    /// Slices this shard's coordinates out of a full-dimension vector.
    ///
    /// # Panics
    ///
    /// Panics if `full` is shorter than the shard's range — shard specs only
    /// make sense against the dimension their map was built for.
    pub fn slice<'a>(&self, full: &'a [f32]) -> &'a [f32] {
        &full[self.range()]
    }
}

/// A validated partition of `[0, d)` into contiguous shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    dimension: usize,
    specs: Vec<ShardSpec>,
}

impl ShardMap {
    /// Partitions a `dimension`-coordinate vector into `shards` contiguous
    /// near-even slices (the first `dimension % shards` shards take one
    /// extra coordinate).
    ///
    /// # Errors
    ///
    /// Degenerate geometry is rejected loudly rather than producing empty
    /// shards: `dimension == 0`, `shards == 0`, or more shards than
    /// coordinates (`shards > dimension`) are all
    /// [`CoreError::InvalidConfig`].
    pub fn new(dimension: usize, shards: usize) -> CoreResult<ShardMap> {
        if dimension == 0 {
            return Err(CoreError::InvalidConfig(
                "cannot shard a zero-dimensional parameter vector".to_string(),
            ));
        }
        if shards == 0 {
            return Err(CoreError::InvalidConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        if shards > dimension {
            return Err(CoreError::InvalidConfig(format!(
                "{shards} shards over a {dimension}-parameter model would leave \
                 empty shards; use at most {dimension}"
            )));
        }
        let base = dimension / shards;
        let extra = dimension % shards;
        let mut specs = Vec::with_capacity(shards);
        let mut offset = 0;
        for index in 0..shards {
            let len = base + usize::from(index < extra);
            specs.push(ShardSpec { index, offset, len });
            offset += len;
        }
        debug_assert_eq!(offset, dimension, "shard tiling must cover [0, d) exactly");
        Ok(ShardMap { dimension, specs })
    }

    /// The dimension `d` the map partitions.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// The spec of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn spec(&self, index: usize) -> ShardSpec {
        self.specs[index]
    }

    /// All shard specs, in coordinate order.
    pub fn specs(&self) -> &[ShardSpec] {
        &self.specs
    }

    /// Reassembles a full-dimension vector from per-shard slices, in shard
    /// order.
    ///
    /// # Errors
    ///
    /// Each slice must have exactly its shard's length and there must be one
    /// slice per shard; anything else is [`CoreError::InvalidConfig`].
    pub fn reassemble(&self, slices: &[Vec<f32>]) -> CoreResult<Vec<f32>> {
        if slices.len() != self.specs.len() {
            return Err(CoreError::InvalidConfig(format!(
                "reassembly needs {} shard slices, got {}",
                self.specs.len(),
                slices.len()
            )));
        }
        let mut full = Vec::with_capacity(self.dimension);
        for (spec, slice) in self.specs.iter().zip(slices) {
            if slice.len() != spec.len {
                return Err(CoreError::InvalidConfig(format!(
                    "shard {} slice has {} values, expected {}",
                    spec.index,
                    slice.len(),
                    spec.len
                )));
            }
            full.extend_from_slice(slice);
        }
        Ok(full)
    }
}

/// A model that *is* one flat parameter slice: the model a sharded
/// [`ParameterServer`](crate::ParameterServer) owns.
///
/// A shard server never runs a forward or backward pass — workers compute
/// gradients against the reassembled full model — so this model only
/// implements the parameter-vector surface ([`Model::parameters`] /
/// [`Model::parameters_mut`]); the compute entry points return inert values
/// and accuracy evaluation is skipped for shard servers.
#[derive(Debug, Clone)]
pub struct ShardSliceModel {
    params: Tensor,
    name: String,
}

impl ShardSliceModel {
    /// Wraps shard `spec`'s slice of the full initial parameter vector.
    pub fn new(spec: ShardSpec, full: &[f32]) -> Self {
        ShardSliceModel {
            params: Tensor::from(spec.slice(full).to_vec()),
            name: format!(
                "shard-{}[{}..{})",
                spec.index,
                spec.offset,
                spec.offset + spec.len
            ),
        }
    }
}

impl Model for ShardSliceModel {
    fn parameters(&self) -> &Tensor {
        &self.params
    }

    fn parameters_mut(&mut self) -> &mut [f32] {
        self.params.data_mut()
    }

    fn gradient(&self, _batch: &garfield_ml::Batch) -> (f32, Tensor) {
        (0.0, Tensor::zeros(self.params.len()))
    }

    fn predict(&self, inputs: &Tensor) -> Tensor {
        let rows = inputs.matrix_dims().map(|(r, _)| r).unwrap_or(1);
        Tensor::zeros(garfield_tensor::Shape::matrix(rows, 1))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Builds the server that owns shard `spec` of a sharded deployment: an
/// honest [`ParameterServer`](crate::ParameterServer) whose model is the
/// matching slice of `full` (the template server's initial parameters) with
/// a fresh optimizer built from the config's hyperparameters.
///
/// Every substrate (in-process executor, `garfield-node`) must build shard
/// servers through this function: optimizer state starts identical across
/// shards and substrates, which the bit-identity contract between sharded
/// and unsharded runs relies on. The server side of a sharded deployment is
/// trusted (sharding is only valid under single-replica systems), so the
/// returned server is always honest.
pub fn shard_server(
    spec: ShardSpec,
    full: &[f32],
    config: &crate::ExperimentConfig,
) -> crate::ByzantineServer {
    let optimizer = garfield_ml::Sgd::new(config.learning_rate).with_momentum(config.momentum);
    let inner = crate::ParameterServer::new(
        spec.index,
        Box::new(ShardSliceModel::new(spec, full)),
        optimizer,
    );
    // The attack RNG stream is unused on an honest server but must still be
    // deterministic per shard so construction stays substrate-independent.
    let rng = garfield_tensor::TensorRng::seed_from(config.seed ^ 0x5348_4400 ^ spec.index as u64);
    crate::ByzantineServer::new(inner, None, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_tile_the_dimension_exactly() {
        for (d, s) in [(10, 1), (10, 2), (10, 3), (10, 10), (7, 4), (1000, 7)] {
            let map = ShardMap::new(d, s).unwrap();
            assert_eq!(map.dimension(), d);
            assert_eq!(map.shard_count(), s);
            let mut next = 0;
            for (i, spec) in map.specs().iter().enumerate() {
                assert_eq!(spec.index, i);
                assert_eq!(
                    spec.offset,
                    next,
                    "shard {i} must start where {} ended",
                    i.max(1) - 1
                );
                assert!(spec.len >= 1, "no empty shards");
                next += spec.len;
            }
            assert_eq!(next, d, "tiling must end exactly at d");
        }
    }

    #[test]
    fn near_even_split_gives_early_shards_the_remainder() {
        let map = ShardMap::new(10, 3).unwrap();
        let lens: Vec<usize> = map.specs().iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn degenerate_geometry_is_rejected_loudly() {
        assert!(ShardMap::new(0, 1).is_err());
        assert!(ShardMap::new(10, 0).is_err());
        let err = ShardMap::new(3, 5).unwrap_err();
        assert!(err.to_string().contains("empty shards"), "{err}");
    }

    #[test]
    fn slice_and_reassemble_are_inverse() {
        let full: Vec<f32> = (0..23).map(|i| i as f32 * 1.5).collect();
        let map = ShardMap::new(full.len(), 4).unwrap();
        let slices: Vec<Vec<f32>> = map
            .specs()
            .iter()
            .map(|spec| spec.slice(&full).to_vec())
            .collect();
        assert_eq!(map.reassemble(&slices).unwrap(), full);

        // Wrong slice count and wrong slice length are both rejected.
        assert!(map.reassemble(&slices[..3]).is_err());
        let mut bad = slices.clone();
        bad[1].push(0.0);
        assert!(map.reassemble(&bad).is_err());
    }

    #[test]
    fn shard_slice_model_round_trips_parameters() {
        let full: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let map = ShardMap::new(9, 3).unwrap();
        let mut model = ShardSliceModel::new(map.spec(1), &full);
        assert_eq!(model.num_parameters(), 3);
        assert_eq!(model.parameters().data(), &[3.0, 4.0, 5.0]);
        let updated = Tensor::from(vec![1.0, 2.0, 3.0]);
        model.set_parameters(&updated).unwrap();
        assert_eq!(model.parameters(), &updated);
        assert!(model.set_parameters(&Tensor::zeros(4usize)).is_err());
    }
}
