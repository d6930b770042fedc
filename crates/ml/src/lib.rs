//! # garfield-ml
//!
//! Machine-learning substrate for the Garfield-rs reproduction of
//! *"Garfield: System Support for Byzantine Machine Learning"* (DSN 2021).
//!
//! The paper trains image-classification models with TensorFlow / PyTorch;
//! this crate provides the equivalent pure-Rust pieces the distributed layer
//! needs:
//!
//! * dense layers, activations and a multi-layer perceptron [`Mlp`] with
//!   manual back-propagation (models exchange *flat parameter vectors*, which
//!   is all the Byzantine-resilient machinery ever sees);
//! * softmax cross-entropy and mean-squared-error losses;
//! * an [`Sgd`] optimizer with optional momentum;
//! * synthetic, seeded classification datasets standing in for MNIST and
//!   CIFAR-10 (same shapes and class counts — the experiments compare how
//!   systems converge under attack, not accuracy on a particular image set),
//!   with IID and non-IID sharding across workers;
//! * the paper's Table 1 model zoo: parameter counts for throughput workloads
//!   plus small trainable models for convergence experiments.
//!
//! # Quick example
//!
//! ```rust
//! use garfield_ml::{Dataset, DatasetKind, Mlp, Sgd, Model, Optimizer};
//! use garfield_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from(1);
//! let data = Dataset::synthetic(DatasetKind::MnistLike, 256, &mut rng);
//! let mut model = Mlp::mnist_cnn_lite(&mut rng);
//! let mut opt = Sgd::new(0.05);
//! let batch = data.batch(0, 32).unwrap();
//! let (loss, grad) = model.gradient(&batch);
//! opt.step(&mut model, &grad).unwrap();
//! assert!(loss > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod layers;
mod loss;
mod metrics;
mod model;
mod optim;
pub mod zoo;

pub use data::{Batch, Dataset, DatasetKind, Partition, ShardStrategy};
pub use layers::{Activation, DenseLayer};
pub use loss::{mse_loss, softmax, softmax_cross_entropy, LossKind};
pub use metrics::{accuracy, top1_accuracy};
pub use model::{MlError, MlResult, Mlp, Model};
pub use optim::{Optimizer, Sgd};
pub use zoo::{paper_models, ModelSpec};
