//! Node identities and roles.

use std::fmt;

/// Identifier of a node in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The job a node performs, mirroring the paper's cluster definition files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Parameter-server replica.
    Server,
    /// Gradient-computing worker.
    Worker,
}
