//! Concrete Byzantine attack implementations.

use crate::Attack;
use garfield_tensor::{Tensor, TensorRng};

/// Replaces the vector with Gaussian noise of configurable magnitude.
///
/// This is the paper's "random vectors" attack (Fig. 5a). Vanilla averaging
/// collapses under it; Byzantine-resilient GARs filter it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomVectorAttack {
    /// Standard deviation of the injected noise.
    pub std_dev: f32,
}

impl Default for RandomVectorAttack {
    fn default() -> Self {
        RandomVectorAttack { std_dev: 10.0 }
    }
}

impl Attack for RandomVectorAttack {
    fn name(&self) -> &'static str {
        "random"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], rng: &mut TensorRng) -> Tensor {
        rng.normal_tensor(honest.shape().clone())
            .scale(self.std_dev)
    }
}

/// Reverses the vector and amplifies it, the paper's "×(−100)" attack (Fig. 5b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReversedVectorAttack {
    /// Amplification factor applied after the sign flip.
    pub amplification: f32,
}

impl ReversedVectorAttack {
    /// Creates a reversed attack with the given amplification factor.
    pub fn amplified(amplification: f32) -> Self {
        ReversedVectorAttack { amplification }
    }
}

impl Default for ReversedVectorAttack {
    fn default() -> Self {
        ReversedVectorAttack::amplified(100.0)
    }
}

impl Attack for ReversedVectorAttack {
    fn name(&self) -> &'static str {
        "reversed"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], _rng: &mut TensorRng) -> Tensor {
        honest.scale(-self.amplification)
    }
}

/// Sends an all-zero vector, effectively dropping the node's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropVectorAttack;

impl Attack for DropVectorAttack {
    fn name(&self) -> &'static str {
        "drop"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], _rng: &mut TensorRng) -> Tensor {
        Tensor::zeros(honest.shape().clone())
    }
}

/// Flips the sign of the vector without amplification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignFlipAttack;

impl Attack for SignFlipAttack {
    fn name(&self) -> &'static str {
        "sign-flip"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], _rng: &mut TensorRng) -> Tensor {
        honest.scale(-1.0)
    }
}

/// "A little is enough" (Baruch, Baruch & Goldberg, 2019).
///
/// The omniscient adversary estimates the honest gradients' coordinate-wise
/// mean `μ` and standard deviation `σ`, and sends `μ − z·σ`: a vector that
/// stays within the natural noise envelope (so distance-based defences accept
/// it) yet consistently biases the aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LittleIsEnoughAttack {
    /// The `z` factor controlling how far inside the envelope the shift stays.
    pub z: f32,
}

impl Default for LittleIsEnoughAttack {
    fn default() -> Self {
        LittleIsEnoughAttack { z: 1.5 }
    }
}

impl Attack for LittleIsEnoughAttack {
    fn name(&self) -> &'static str {
        "little-is-enough"
    }

    fn corrupt(&self, honest: &Tensor, peers: &[Tensor], _rng: &mut TensorRng) -> Tensor {
        // With no peers to estimate the envelope from (a caller that passes
        // no view), σ degenerates to zero and μ to the honest gradient itself
        // — the payload would be the honest gradient bit for bit, i.e. no
        // attack at all. Send the reflected gradient instead.
        if peers.iter().all(|p| p.len() != honest.len()) {
            return honest.scale(-1.0);
        }
        let (mean, std) = coordinate_moments(honest, peers);
        let mut out = mean;
        for (o, s) in out.data_mut().iter_mut().zip(std.data().iter()) {
            *o -= self.z * s;
        }
        out
    }
}

/// "Fall of empires" (Xie, Koyejo & Gupta, 2019): inner-product manipulation.
///
/// The adversary sends `−ε · μ`, the negated (scaled) mean of the honest
/// gradients, which keeps a small norm while pointing against the descent
/// direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallOfEmpiresAttack {
    /// The ε scale applied to the negated mean.
    pub epsilon: f32,
}

impl Default for FallOfEmpiresAttack {
    fn default() -> Self {
        FallOfEmpiresAttack { epsilon: 1.1 }
    }
}

impl Attack for FallOfEmpiresAttack {
    fn name(&self) -> &'static str {
        "fall-of-empires"
    }

    fn corrupt(&self, honest: &Tensor, peers: &[Tensor], _rng: &mut TensorRng) -> Tensor {
        let (mean, _) = coordinate_moments(honest, peers);
        mean.scale(-self.epsilon)
    }
}

/// Gradient computed as if the labels had been shifted by one class
/// (approximated at the vector level by a partial sign flip plus noise).
///
/// Unlike the omniscient attacks this models *data poisoning*: the Byzantine
/// worker honestly runs SGD but on corrupted labels. At the vector level the
/// resulting gradient points towards a wrong minimum, which we model as a
/// blend of the true gradient and its reflection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelFlipAttack {
    /// Blend factor: 0 = honest, 1 = fully reflected gradient.
    pub strength: f32,
}

impl Default for LabelFlipAttack {
    fn default() -> Self {
        LabelFlipAttack { strength: 0.8 }
    }
}

impl Attack for LabelFlipAttack {
    fn name(&self) -> &'static str {
        "label-flip"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], rng: &mut TensorRng) -> Tensor {
        let noise = rng
            .normal_tensor(honest.shape().clone())
            .scale(0.05 * honest.norm().max(1e-6));
        honest
            .scale(1.0 - 2.0 * self.strength)
            .try_add(&noise)
            .expect("noise shares the gradient shape")
    }
}

/// Zeros out a random fraction of the coordinates (a lossy / omission fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialDropAttack {
    /// Fraction of coordinates to zero, in `[0, 1]`.
    pub fraction: f32,
}

impl Default for PartialDropAttack {
    fn default() -> Self {
        PartialDropAttack { fraction: 0.5 }
    }
}

impl Attack for PartialDropAttack {
    fn name(&self) -> &'static str {
        "partial-drop"
    }

    fn corrupt(&self, honest: &Tensor, _peers: &[Tensor], rng: &mut TensorRng) -> Tensor {
        let mut out = honest.clone();
        for v in out.data_mut() {
            if rng.uniform01() < self.fraction {
                *v = 0.0;
            }
        }
        out
    }
}

/// Coordinate-wise mean and standard deviation of the honest vector plus any
/// observed peers (the omniscient-adversary estimate).
fn coordinate_moments(honest: &Tensor, peers: &[Tensor]) -> (Tensor, Tensor) {
    let mut all: Vec<&Tensor> = Vec::with_capacity(peers.len() + 1);
    all.push(honest);
    all.extend(peers.iter().filter(|p| p.len() == honest.len()));
    let n = all.len() as f32;
    let mut mean = Tensor::zeros(honest.shape().clone());
    for t in &all {
        mean.add_assign_checked(t).expect("equal shapes");
    }
    mean.scale_inplace(1.0 / n);
    let mut var = Tensor::zeros(honest.shape().clone());
    for t in &all {
        for (v, (x, m)) in var
            .data_mut()
            .iter_mut()
            .zip(t.data().iter().zip(mean.data().iter()))
        {
            let d = x - m;
            *v += d * d;
        }
    }
    var.scale_inplace(1.0 / n);
    let std = var.map(f32::sqrt);
    (mean, std)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(17)
    }

    #[test]
    fn reversed_attack_multiplies_by_minus_amplification() {
        let honest = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let out = ReversedVectorAttack::amplified(100.0).corrupt(&honest, &[], &mut rng());
        assert_eq!(out.data(), &[-100.0, 200.0, -50.0]);
    }

    #[test]
    fn drop_and_sign_flip() {
        let honest = Tensor::from_slice(&[1.0, -2.0]);
        assert!(DropVectorAttack
            .corrupt(&honest, &[], &mut rng())
            .iter()
            .all(|&v| v == 0.0));
        assert_eq!(
            SignFlipAttack.corrupt(&honest, &[], &mut rng()).data(),
            &[-1.0, 2.0]
        );
    }

    #[test]
    fn random_attack_is_unrelated_to_the_honest_vector() {
        let honest = Tensor::ones(64usize);
        let out = RandomVectorAttack::default().corrupt(&honest, &[], &mut rng());
        assert_eq!(out.len(), 64);
        // Norm should be far from the honest vector's norm of 8.
        assert!(out.norm() > 20.0);
    }

    #[test]
    fn little_is_enough_stays_near_the_honest_envelope() {
        let mut r = rng();
        let peers: Vec<Tensor> = (0..5)
            .map(|_| {
                Tensor::ones(16usize)
                    .try_add(&r.normal_tensor(16usize).scale(0.1))
                    .unwrap()
            })
            .collect();
        let honest = peers[0].clone();
        let out = LittleIsEnoughAttack::default().corrupt(&honest, &peers, &mut r);
        // The attack vector stays within a few σ of the mean: small distance,
        // unlike the amplified attacks.
        for &v in out.data() {
            assert!((0.0..2.0).contains(&v), "value {v} escaped the envelope");
        }
    }

    #[test]
    fn little_is_enough_attacks_from_round_zero() {
        // Before any estimation view exists the envelope is degenerate
        // (μ = honest, σ = 0): the naive payload would be the honest gradient
        // itself. The adversary must still attack — it sends the reflection.
        let honest = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let out = LittleIsEnoughAttack::default().corrupt(&honest, &[], &mut rng());
        assert_eq!(out.data(), &[-1.0, 2.0, -0.5]);
        // Mismatched peers are no estimation view either.
        let bad = vec![Tensor::ones(7usize)];
        let out = LittleIsEnoughAttack::default().corrupt(&honest, &bad, &mut rng());
        assert_eq!(out.data(), &[-1.0, 2.0, -0.5]);
    }

    #[test]
    fn fall_of_empires_points_against_the_mean() {
        let mut r = rng();
        let peers: Vec<Tensor> = (0..4).map(|_| Tensor::ones(8usize)).collect();
        let out = FallOfEmpiresAttack::default().corrupt(&peers[0], &peers, &mut r);
        let dot: f32 = out.dot(&peers[0]).unwrap();
        assert!(dot < 0.0, "attack should oppose the descent direction");
    }

    #[test]
    fn label_flip_reverses_most_of_the_gradient() {
        let honest = Tensor::from_slice(&[1.0; 32]);
        let out = LabelFlipAttack::default().corrupt(&honest, &[], &mut rng());
        let dot = out.dot(&honest).unwrap();
        assert!(dot < 0.0);
    }

    #[test]
    fn partial_drop_zeroes_roughly_the_requested_fraction() {
        let honest = Tensor::ones(1000usize);
        let out = PartialDropAttack { fraction: 0.3 }.corrupt(&honest, &[], &mut rng());
        let zeros = out.iter().filter(|&&v| v == 0.0).count();
        assert!((200..400).contains(&zeros), "zeroed {zeros} of 1000");
    }

    #[test]
    fn moments_ignore_mismatched_peers() {
        let honest = Tensor::ones(4usize);
        let peers = vec![Tensor::ones(3usize)];
        let (mean, std) = coordinate_moments(&honest, &peers);
        assert_eq!(mean.data(), honest.data());
        assert!(std.iter().all(|&v| v == 0.0));
    }
}
