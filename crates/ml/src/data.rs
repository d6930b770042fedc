//! Synthetic datasets and mini-batch sharding across workers.
//!
//! The paper evaluates on MNIST (28×28×1, 10 classes) and CIFAR-10
//! (32×32×3, 10 classes). Real image files are not available in this
//! environment, so [`Dataset::synthetic`] generates a seeded Gaussian-cluster
//! classification task with the same input dimensionality and class count:
//! each class has a random mean image and samples are that mean plus noise.
//! The task is learnable but not trivial, which is exactly what the paper's
//! convergence and attack experiments require: they compare how systems
//! converge under attack, not absolute accuracy on a particular image set.

use crate::{MlError, MlResult};
use garfield_tensor::{Shape, Tensor, TensorRng};

/// The synthetic stand-ins for the paper's two datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 28×28 single-channel images, 10 classes (MNIST-shaped).
    MnistLike,
    /// 32×32 three-channel images, 10 classes (CIFAR-10-shaped).
    CifarLike,
    /// A tiny 16-feature task used by fast unit tests.
    Tiny,
}

impl DatasetKind {
    /// Number of input features per sample.
    pub fn features(self) -> usize {
        match self {
            DatasetKind::MnistLike => 28 * 28,
            DatasetKind::CifarLike => 32 * 32 * 3,
            DatasetKind::Tiny => 16,
        }
    }

    /// Number of target classes.
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::MnistLike | DatasetKind::CifarLike => 10,
            DatasetKind::Tiny => 4,
        }
    }

    /// Human-readable dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "mnist-like",
            DatasetKind::CifarLike => "cifar-like",
            DatasetKind::Tiny => "tiny",
        }
    }
}

/// How a dataset is partitioned across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Samples are shuffled and dealt round-robin: every worker sees every class.
    Iid,
    /// Samples are sorted by label before dealing: workers see disjoint label
    /// subsets, the non-IID regime the decentralized application targets.
    ByLabel,
}

impl ShardStrategy {
    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardStrategy::Iid => "iid",
            ShardStrategy::ByLabel => "by-label",
        }
    }
}

impl std::fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ShardStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "iid" => Ok(ShardStrategy::Iid),
            "by-label" => Ok(ShardStrategy::ByLabel),
            other => Err(format!(
                "unknown shard strategy '{other}' (expected iid or by-label)"
            )),
        }
    }
}

/// A mini-batch: a `(batch, features)` input matrix plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Input matrix, one row per sample.
    pub inputs: Tensor,
    /// Class label of each row.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// An in-memory labelled dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    inputs: Vec<Vec<f32>>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Generates a synthetic dataset of `samples` labelled points.
    ///
    /// Class means are sampled once from the provided RNG; every sample is its
    /// class mean plus Gaussian noise, so the task is linearly separable in
    /// expectation but individual gradients remain noisy (non-zero variance —
    /// the property the GAR variance conditions of §3.1 are about).
    pub fn synthetic(kind: DatasetKind, samples: usize, rng: &mut TensorRng) -> Self {
        let d = kind.features();
        let c = kind.classes();
        let noise = 0.6f32;
        let means: Vec<Vec<f32>> = (0..c).map(|_| rng.normal_tensor(d).into_vec()).collect();
        let mut inputs = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let label = i % c;
            let mut x = means[label].clone();
            for v in &mut x {
                *v += noise * rng.standard_normal();
            }
            inputs.push(x);
            labels.push(label);
        }
        // Shuffle so labels are not trivially ordered.
        let perm = rng.permutation(samples);
        let inputs = perm.iter().map(|&i| inputs[i].clone()).collect();
        let labels = perm.iter().map(|&i| labels[i]).collect();
        Dataset {
            kind,
            inputs,
            labels,
        }
    }

    /// Builds a dataset from explicit samples.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] if `inputs` and `labels` differ in
    /// length or any label is out of range for `kind`.
    pub fn from_samples(
        kind: DatasetKind,
        inputs: Vec<Vec<f32>>,
        labels: Vec<usize>,
    ) -> MlResult<Self> {
        if inputs.len() != labels.len() {
            return Err(MlError::InvalidData(format!(
                "{} inputs but {} labels",
                inputs.len(),
                labels.len()
            )));
        }
        if let Some(bad) = labels.iter().find(|&&l| l >= kind.classes()) {
            return Err(MlError::InvalidData(format!(
                "label {bad} out of range for {} classes",
                kind.classes()
            )));
        }
        if let Some(row) = inputs.iter().find(|r| r.len() != kind.features()) {
            return Err(MlError::InvalidData(format!(
                "sample has {} features, expected {}",
                row.len(),
                kind.features()
            )));
        }
        Ok(Dataset {
            kind,
            inputs,
            labels,
        })
    }

    /// The dataset kind.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Extracts the `index`-th batch of size `batch_size` (wrapping around the
    /// end of the dataset, so every index is valid for non-empty datasets).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] for an empty dataset or a zero batch size.
    pub fn batch(&self, index: usize, batch_size: usize) -> MlResult<Batch> {
        if self.is_empty() {
            return Err(MlError::InvalidData(
                "cannot draw a batch from an empty dataset".into(),
            ));
        }
        if batch_size == 0 {
            return Err(MlError::InvalidData("batch size must be positive".into()));
        }
        let d = self.kind.features();
        let mut data = Vec::with_capacity(batch_size * d);
        let mut labels = Vec::with_capacity(batch_size);
        let start = index.wrapping_mul(batch_size);
        for k in 0..batch_size {
            let i = (start + k) % self.len();
            data.extend_from_slice(&self.inputs[i]);
            labels.push(self.labels[i]);
        }
        let inputs = Tensor::from_vec(data, Shape::matrix(batch_size, d))
            .expect("batch construction uses consistent dimensions");
        Ok(Batch { inputs, labels })
    }

    /// A batch containing the entire dataset (used for accuracy evaluation and
    /// for the large-batch "true gradient" estimate of the variance tool).
    pub fn full_batch(&self) -> MlResult<Batch> {
        self.batch(0, self.len().max(1))
    }

    /// Splits the dataset into a head of `n` samples and a tail with the rest.
    ///
    /// Used to carve a held-out test set from one synthetic generation so that
    /// train and test share the same class structure.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] when `n` is zero or not smaller than the
    /// dataset size (both splits must be non-empty).
    pub fn split_at(&self, n: usize) -> MlResult<(Dataset, Dataset)> {
        if n == 0 || n >= self.len() {
            return Err(MlError::InvalidData(format!(
                "cannot split {} samples at {n}: both parts must be non-empty",
                self.len()
            )));
        }
        let head = Dataset {
            kind: self.kind,
            inputs: self.inputs[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
        };
        let tail = Dataset {
            kind: self.kind,
            inputs: self.inputs[n..].to_vec(),
            labels: self.labels[n..].to_vec(),
        };
        Ok((head, tail))
    }

    /// Splits the dataset into `shards` worker partitions.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] when `shards` is zero or exceeds the
    /// number of samples.
    pub fn shard(&self, shards: usize, strategy: ShardStrategy) -> MlResult<Vec<Partition>> {
        if shards == 0 {
            return Err(MlError::InvalidData(
                "cannot shard into zero partitions".into(),
            ));
        }
        if shards > self.len() {
            return Err(MlError::InvalidData(format!(
                "cannot shard {} samples into {shards} partitions",
                self.len()
            )));
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        if strategy == ShardStrategy::ByLabel {
            order.sort_by_key(|&i| self.labels[i]);
        }
        let mut parts: Vec<(Vec<Vec<f32>>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); shards];
        match strategy {
            ShardStrategy::Iid => {
                for (pos, &i) in order.iter().enumerate() {
                    let p = pos % shards;
                    parts[p].0.push(self.inputs[i].clone());
                    parts[p].1.push(self.labels[i]);
                }
            }
            ShardStrategy::ByLabel => {
                // Contiguous label-sorted ranges whose sizes differ by at most one,
                // so no shard is ever empty.
                for (pos, &i) in order.iter().enumerate() {
                    let p = (pos * shards / self.len()).min(shards - 1);
                    parts[p].0.push(self.inputs[i].clone());
                    parts[p].1.push(self.labels[i]);
                }
            }
        }
        Ok(parts
            .into_iter()
            .enumerate()
            .map(|(worker, (inputs, labels))| Partition {
                worker,
                data: Dataset {
                    kind: self.kind,
                    inputs,
                    labels,
                },
            })
            .collect())
    }
}

/// One worker's shard of a dataset.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Index of the worker owning this shard.
    pub worker: usize,
    /// The shard's local data.
    pub data: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(42)
    }

    #[test]
    fn synthetic_dataset_has_requested_size_and_shapes() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 100, &mut rng());
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.kind().features(), 16);
        let b = ds.batch(0, 10).unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(b.inputs.shape().dims(), &[10, 16]);
    }

    #[test]
    fn synthetic_dataset_is_reproducible() {
        let a = Dataset::synthetic(DatasetKind::Tiny, 50, &mut rng());
        let b = Dataset::synthetic(DatasetKind::Tiny, 50, &mut rng());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inputs[0], b.inputs[0]);
    }

    #[test]
    fn batches_wrap_around() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 10, &mut rng());
        let b = ds.batch(3, 8).unwrap();
        assert_eq!(b.len(), 8);
        // index far beyond the dataset still works (wraps modulo len)
        assert!(ds.batch(1000, 4).is_ok());
    }

    #[test]
    fn batch_errors_on_empty_or_zero() {
        let ds = Dataset::from_samples(DatasetKind::Tiny, vec![], vec![]).unwrap();
        assert!(ds.batch(0, 4).is_err());
        let ds2 = Dataset::synthetic(DatasetKind::Tiny, 4, &mut rng());
        assert!(ds2.batch(0, 0).is_err());
    }

    #[test]
    fn from_samples_validates() {
        let good = Dataset::from_samples(DatasetKind::Tiny, vec![vec![0.0; 16]], vec![1]);
        assert!(good.is_ok());
        assert!(Dataset::from_samples(DatasetKind::Tiny, vec![vec![0.0; 16]], vec![]).is_err());
        assert!(Dataset::from_samples(DatasetKind::Tiny, vec![vec![0.0; 16]], vec![9]).is_err());
        assert!(Dataset::from_samples(DatasetKind::Tiny, vec![vec![0.0; 3]], vec![0]).is_err());
    }

    #[test]
    fn iid_sharding_spreads_labels() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 200, &mut rng());
        let shards = ds.shard(4, ShardStrategy::Iid).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.data.len()).sum();
        assert_eq!(total, 200);
        for s in &shards {
            let mut seen = std::collections::HashSet::new();
            for &l in &s.data.labels {
                seen.insert(l);
            }
            assert_eq!(
                seen.len(),
                DatasetKind::Tiny.classes(),
                "IID shard should see all classes"
            );
        }
    }

    #[test]
    fn by_label_sharding_concentrates_labels() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 200, &mut rng());
        let shards = ds.shard(4, ShardStrategy::ByLabel).unwrap();
        // With 4 classes and 4 shards, each shard should be dominated by few labels.
        for s in &shards {
            let mut seen = std::collections::HashSet::new();
            for &l in &s.data.labels {
                seen.insert(l);
            }
            assert!(seen.len() <= 2, "non-IID shard saw {} labels", seen.len());
        }
    }

    #[test]
    fn shard_count_validation() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 10, &mut rng());
        assert!(ds.shard(0, ShardStrategy::Iid).is_err());
        assert!(ds.shard(11, ShardStrategy::Iid).is_err());
    }

    #[test]
    fn dataset_kind_dimensions_match_paper() {
        assert_eq!(DatasetKind::MnistLike.features(), 784);
        assert_eq!(DatasetKind::CifarLike.features(), 3072);
        assert_eq!(DatasetKind::MnistLike.classes(), 10);
        assert_eq!(DatasetKind::CifarLike.classes(), 10);
    }

    #[test]
    fn split_at_partitions_without_overlap() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 50, &mut rng());
        let (train, test) = ds.split_at(40).unwrap();
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
        assert_eq!(train.inputs[0], ds.inputs[0]);
        assert_eq!(test.inputs[0], ds.inputs[40]);
        assert!(ds.split_at(0).is_err());
        assert!(ds.split_at(50).is_err());
    }

    #[test]
    fn full_batch_covers_everything() {
        let ds = Dataset::synthetic(DatasetKind::Tiny, 33, &mut rng());
        let b = ds.full_batch().unwrap();
        assert_eq!(b.len(), 33);
    }
}
