//! The [`Attack`] trait and the attack catalogue enumeration.

use garfield_tensor::{Tensor, TensorRng};
use std::fmt;
use std::str::FromStr;

/// A Byzantine behaviour: transforms the vector an honest node would have sent.
///
/// `honest` is the correct gradient or model vector the node computed;
/// `peers` holds the round's honest vectors when the attack reads them
/// ([`AttackKind::reads_peers`]: the omniscient-adversary model used by "a
/// little is enough" and "fall of empires") and may be empty otherwise;
/// `rng` supplies randomness for stochastic attacks.
pub trait Attack: Send + Sync {
    /// The attack's short name.
    fn name(&self) -> &'static str;

    /// Produces the Byzantine vector that will actually be sent.
    fn corrupt(&self, honest: &Tensor, peers: &[Tensor], rng: &mut TensorRng) -> Tensor;
}

/// Identifiers for the attacks shipped with Garfield, used by configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Replace the vector with Gaussian noise (Fig. 5a).
    Random,
    /// Reverse and amplify the vector (×(−100), Fig. 5b).
    Reversed,
    /// Send an all-zero vector (drop the contribution).
    Drop,
    /// Flip the sign without amplification.
    SignFlip,
    /// "A little is enough" (Baruch et al. 2019).
    LittleIsEnough,
    /// "Fall of empires" (Xie et al. 2019).
    FallOfEmpires,
    /// Compute the gradient on permuted labels (data poisoning).
    LabelFlip,
    /// Zero out a random fraction of the coordinates.
    PartialDrop,
}

impl AttackKind {
    /// All attack kinds.
    pub fn all() -> [AttackKind; 8] {
        [
            AttackKind::Random,
            AttackKind::Reversed,
            AttackKind::Drop,
            AttackKind::SignFlip,
            AttackKind::LittleIsEnough,
            AttackKind::FallOfEmpires,
            AttackKind::LabelFlip,
            AttackKind::PartialDrop,
        ]
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            AttackKind::Random => "random",
            AttackKind::Reversed => "reversed",
            AttackKind::Drop => "drop",
            AttackKind::SignFlip => "sign-flip",
            AttackKind::LittleIsEnough => "little-is-enough",
            AttackKind::FallOfEmpires => "fall-of-empires",
            AttackKind::LabelFlip => "label-flip",
            AttackKind::PartialDrop => "partial-drop",
        }
    }

    /// Whether the attack reads the round's honest gradients (its `peers`):
    /// the collusion attacks, which estimate the honest moments from them.
    pub fn reads_peers(self) -> bool {
        matches!(self, AttackKind::LittleIsEnough | AttackKind::FallOfEmpires)
    }

    /// Builds the default-parameter implementation of this attack.
    pub fn build(self) -> Box<dyn Attack> {
        use crate::catalog::*;
        match self {
            AttackKind::Random => Box::new(RandomVectorAttack::default()),
            AttackKind::Reversed => Box::new(ReversedVectorAttack::amplified(100.0)),
            AttackKind::Drop => Box::new(DropVectorAttack),
            AttackKind::SignFlip => Box::new(SignFlipAttack),
            AttackKind::LittleIsEnough => Box::new(LittleIsEnoughAttack::default()),
            AttackKind::FallOfEmpires => Box::new(FallOfEmpiresAttack::default()),
            AttackKind::LabelFlip => Box::new(LabelFlipAttack::default()),
            AttackKind::PartialDrop => Box::new(PartialDropAttack::default()),
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for AttackKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttackKind::all()
            .into_iter()
            .find(|k| k.as_str() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown attack '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_strings() {
        for kind in AttackKind::all() {
            assert_eq!(kind.as_str().parse::<AttackKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("nonsense".parse::<AttackKind>().is_err());
    }

    #[test]
    fn every_kind_builds_an_attack_with_matching_name_prefix() {
        let mut rng = TensorRng::seed_from(1);
        let honest = Tensor::ones(4usize);
        for kind in AttackKind::all() {
            let attack = kind.build();
            let out = attack.corrupt(&honest, &[], &mut rng);
            assert_eq!(out.len(), honest.len(), "{kind} changed the vector length");
        }
    }
}
