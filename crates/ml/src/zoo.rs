//! The model zoo: the paper's Table 1 architectures plus small trainable models.
//!
//! The paper evaluates throughput with six architectures ranging from a small
//! MNIST CNN (79 510 parameters) to VGG (128 807 306 parameters). For the
//! distributed-layer experiments only the flat parameter-vector dimension `d`
//! matters, so each entry is exposed both as a [`ModelSpec`] (exact paper
//! parameter count, for the analytic throughput model) and — for the two
//! smallest — as a trainable model for convergence experiments.

use crate::model::{Mlp, Model};
use crate::{DatasetKind, MlError, MlResult};
use garfield_tensor::TensorRng;

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as reported in the paper.
    pub name: &'static str,
    /// Exact number of trainable parameters reported in Table 1.
    pub parameters: usize,
    /// Serialized size in megabytes reported in Table 1.
    pub size_mb: f64,
}

/// The six models of Table 1, in the paper's order.
pub fn paper_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "MNIST_CNN",
            parameters: 79_510,
            size_mb: 0.3,
        },
        ModelSpec {
            name: "CifarNet",
            parameters: 1_756_426,
            size_mb: 6.7,
        },
        ModelSpec {
            name: "Inception",
            parameters: 5_602_874,
            size_mb: 21.4,
        },
        ModelSpec {
            name: "ResNet-50",
            parameters: 23_539_850,
            size_mb: 89.8,
        },
        ModelSpec {
            name: "ResNet-200",
            parameters: 62_697_610,
            size_mb: 239.2,
        },
        ModelSpec {
            name: "VGG",
            parameters: 128_807_306,
            size_mb: 491.4,
        },
    ]
}

/// The model used by the appendix PyTorch experiments, which swaps ResNet-200
/// for ResNet-152.
pub fn resnet152_spec() -> ModelSpec {
    ModelSpec {
        name: "ResNet-152",
        parameters: 60_192_808,
        size_mb: 229.6,
    }
}

/// Looks up a Table 1 model by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`MlError::UnknownModel`] if the name is not in Table 1.
pub fn spec_by_name(name: &str) -> MlResult<ModelSpec> {
    paper_models()
        .into_iter()
        .chain(std::iter::once(resnet152_spec()))
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| MlError::UnknownModel(name.to_string()))
}

/// Builds a small *trainable* model by name for convergence experiments.
///
/// Supported names: `mnist-cnn-lite`, `cifarnet-lite`, `tiny`,
/// `linear-mnist`, `linear-cifar`.
///
/// # Errors
///
/// Returns [`MlError::UnknownModel`] for unsupported names.
pub fn trainable_model(name: &str, rng: &mut TensorRng) -> MlResult<Box<dyn Model>> {
    let boxed: Box<dyn Model> = match name.to_ascii_lowercase().as_str() {
        "mnist-cnn-lite" | "mnist_cnn" => Box::new(Mlp::mnist_cnn_lite(rng)),
        "cifarnet-lite" | "cifarnet" => Box::new(Mlp::cifarnet_lite(rng)),
        "tiny" => Box::new(Mlp::tiny(rng)),
        "linear-mnist" => Box::new(linear(DatasetKind::MnistLike, rng)),
        "linear-cifar" => Box::new(linear(DatasetKind::CifarLike, rng)),
        other => return Err(MlError::UnknownModel(other.to_string())),
    };
    Ok(boxed)
}

/// Multinomial logistic regression on `kind`: an [`Mlp`] with no hidden layer.
fn linear(kind: DatasetKind, rng: &mut TensorRng) -> Mlp {
    let dims = [kind.features(), kind.classes()];
    Mlp::new(format!("linear-{}", kind.name()), &dims, rng)
}

/// The dataset a trainable model expects.
///
/// # Errors
///
/// Returns [`MlError::UnknownModel`] for unsupported names.
pub fn dataset_for(name: &str) -> MlResult<DatasetKind> {
    match name.to_ascii_lowercase().as_str() {
        "mnist-cnn-lite" | "mnist_cnn" | "linear-mnist" => Ok(DatasetKind::MnistLike),
        "cifarnet-lite" | "cifarnet" | "linear-cifar" => Ok(DatasetKind::CifarLike),
        "tiny" => Ok(DatasetKind::Tiny),
        other => Err(MlError::UnknownModel(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_exactly() {
        let models = paper_models();
        assert_eq!(models.len(), 6);
        assert_eq!(models[0].name, "MNIST_CNN");
        assert_eq!(models[0].parameters, 79_510);
        assert_eq!(models[3].name, "ResNet-50");
        assert_eq!(models[3].parameters, 23_539_850);
        assert_eq!(models[5].name, "VGG");
        assert_eq!(models[5].parameters, 128_807_306);
        // Sizes are within rounding of 4 bytes/parameter.
        for m in &models {
            let mb = (m.parameters * 4) as f64 / 1_048_576.0;
            assert!(
                (mb - m.size_mb).abs() / m.size_mb < 0.05,
                "{}: {mb} vs {}",
                m.name,
                m.size_mb
            );
        }
    }

    #[test]
    fn spec_lookup_is_case_insensitive() {
        assert_eq!(spec_by_name("vgg").unwrap().parameters, 128_807_306);
        assert_eq!(spec_by_name("resnet-152").unwrap().name, "ResNet-152");
        assert!(spec_by_name("alexnet").is_err());
    }

    #[test]
    fn trainable_models_build_and_have_consistent_dims() {
        let mut rng = TensorRng::seed_from(2);
        for name in [
            "mnist-cnn-lite",
            "cifarnet-lite",
            "tiny",
            "linear-mnist",
            "linear-cifar",
        ] {
            let m = trainable_model(name, &mut rng).unwrap();
            assert!(m.num_parameters() > 0, "{name}");
            let kind = dataset_for(name).unwrap();
            assert!(m.parameters().len() == m.num_parameters());
            assert!(kind.features() > 0);
        }
        let linear = trainable_model("linear-mnist", &mut rng).unwrap();
        assert_eq!(linear.name(), "linear-mnist-like");
        assert_eq!(linear.num_parameters(), 784 * 10 + 10);
        assert!(trainable_model("nope", &mut rng).is_err());
        assert!(dataset_for("nope").is_err());
    }
}
