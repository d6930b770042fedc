//! The static cluster specification: which node listens where.
//!
//! This is the multi-process analogue of the paper's Controller cluster
//! definition (§3.2): a plain text file mapping every node id to a socket
//! address, shared by all `garfield-node` processes of one deployment.
//!
//! ```text
//! # 1 server + 4 workers on localhost
//! 0 127.0.0.1:4700
//! 1 127.0.0.1:4701
//! 2 127.0.0.1:4702
//! 3 127.0.0.1:4703
//! 4 127.0.0.1:4704
//! ```
//!
//! Node ids follow the layout of
//! [`NodeLayout`](garfield_runtime::NodeLayout): server replicas first,
//! workers after.

use garfield_net::{NetError, NetResult, NodeId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;

/// A static `node id → socket address` map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSpec {
    entries: BTreeMap<NodeId, SocketAddr>,
}

impl ClusterSpec {
    /// Creates an empty spec.
    pub fn new() -> Self {
        ClusterSpec::default()
    }

    /// Adds (or replaces) a node's address, builder style.
    pub fn with(mut self, id: NodeId, addr: SocketAddr) -> Self {
        self.entries.insert(id, addr);
        self
    }

    /// Builds a spec of `n` nodes (ids `0..n`) on `127.0.0.1`, with ports
    /// picked by the OS.
    ///
    /// Each port is discovered by binding an ephemeral listener and
    /// immediately releasing it, so this is best-effort: another process
    /// could grab a port in the window before the `garfield-node` children
    /// bind. Good enough for tests and localhost walkthroughs; production
    /// deployments write explicit specs.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the OS refuses a loopback bind.
    pub fn localhost(n: usize) -> NetResult<ClusterSpec> {
        let mut spec = ClusterSpec::new();
        let mut holds = Vec::with_capacity(n);
        for id in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            spec.entries
                .insert(NodeId(id as u32), listener.local_addr()?);
            holds.push(listener); // hold all n before releasing any
        }
        Ok(spec)
    }

    /// The address `id` listens on.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for ids the spec does not name.
    pub fn addr(&self, id: NodeId) -> NetResult<SocketAddr> {
        self.entries
            .get(&id)
            .copied()
            .ok_or(NetError::UnknownNode(id))
    }

    /// All `(id, addr)` pairs, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, SocketAddr)> + '_ {
        self.entries.iter().map(|(&n, &a)| (n, a))
    }

    /// All `(id, addr)` pairs except `id` itself, in id order.
    pub fn peers(&self, id: NodeId) -> Vec<(NodeId, SocketAddr)> {
        self.nodes().filter(|&(n, _)| n != id).collect()
    }

    /// All node ids, in order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.entries.keys().copied().collect()
    }

    /// Number of nodes in the spec.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the spec names no node.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the spec in its file format (one `id addr` line per node).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(24 * self.entries.len());
        for (id, addr) in &self.entries {
            let _ = writeln!(out, "{} {addr}", id.0);
        }
        out
    }

    /// Parses the file format: one `id host:port` pair per line, `#`
    /// comments and blank lines ignored.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] naming the first malformed line, and
    /// [`NetError::DuplicateNode`] when an id appears twice.
    pub fn parse(text: &str) -> NetResult<ClusterSpec> {
        let mut spec = ClusterSpec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad =
                |what: &str| NetError::Io(format!("cluster spec line {}: {what}", number + 1));
            let mut parts = line.split_whitespace();
            let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(bad("expected '<node id> <host:port>'"));
            };
            let id = NodeId(
                id.parse::<u32>()
                    .map_err(|e| bad(&format!("node id '{id}': {e}")))?,
            );
            let addr = addr
                .parse::<SocketAddr>()
                .map_err(|e| bad(&format!("address '{addr}': {e}")))?;
            if spec.entries.insert(id, addr).is_some() {
                return Err(NetError::DuplicateNode(id));
            }
        }
        Ok(spec)
    }

    /// Loads a spec file (see [`ClusterSpec::parse`] for the format).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> NetResult<ClusterSpec> {
        ClusterSpec::parse(&std::fs::read_to_string(path)?)
    }

    /// Writes the spec to a file in its text format.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> NetResult<()> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_round_trips() {
        let spec = ClusterSpec::new()
            .with(NodeId(0), "127.0.0.1:4700".parse().unwrap())
            .with(NodeId(2), "10.0.0.7:80".parse().unwrap());
        let back = ClusterSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.len(), 2);
        assert_eq!(back.addr(NodeId(2)).unwrap().port(), 80);
        assert!(matches!(
            back.addr(NodeId(1)),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn parse_skips_comments_and_rejects_garbage() {
        let spec = ClusterSpec::parse(
            "# a comment\n\n0 127.0.0.1:4700  # trailing comment\n1 127.0.0.1:4701\n",
        )
        .unwrap();
        assert_eq!(spec.len(), 2);
        // Nodes come back in id order, whatever the line order.
        let spec = ClusterSpec::parse("1 127.0.0.1:9464\n0 127.0.0.1:9465\n").unwrap();
        let nodes: Vec<_> = spec.nodes().map(|(id, addr)| (id.0, addr.port())).collect();
        assert_eq!(nodes, [(0, 9465), (1, 9464)]);
        assert!(ClusterSpec::parse("0").is_err());
        assert!(ClusterSpec::parse("zero 127.0.0.1:1").is_err());
        assert!(ClusterSpec::parse("0 not-an-addr").is_err());
        assert!(ClusterSpec::parse("0 1.2.3.4:1 extra").is_err());
        assert_eq!(
            ClusterSpec::parse("0 127.0.0.1:1\n0 127.0.0.1:2").unwrap_err(),
            NetError::DuplicateNode(NodeId(0))
        );
        assert!(ClusterSpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn duplicate_node_ids_fail_loudly_never_shadow() {
        // A spec naming the same rank twice must be a dedicated error — a
        // silently shadowed endpoint would send one node's traffic to
        // another's port. Same or different address, separated or adjacent,
        // commented or not: always DuplicateNode, naming the culprit.
        for text in [
            "0 127.0.0.1:1\n0 127.0.0.1:2",                // different addresses
            "0 127.0.0.1:1\n0 127.0.0.1:1",                // identical lines
            "0 127.0.0.1:1\n1 127.0.0.1:2\n0 127.0.0.1:3", // separated
            "# c\n0 127.0.0.1:1 # first\n\n0 127.0.0.1:2 # again",
        ] {
            assert_eq!(
                ClusterSpec::parse(text).unwrap_err(),
                NetError::DuplicateNode(NodeId(0)),
                "spec must reject:\n{text}"
            );
        }
        // load() propagates the same error from a file.
        let dir = std::env::temp_dir().join(format!("garfield-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.txt");
        std::fs::write(&path, "3 127.0.0.1:1\n3 127.0.0.1:2").unwrap();
        assert_eq!(
            ClusterSpec::load(&path).unwrap_err(),
            NetError::DuplicateNode(NodeId(3))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn localhost_spec_assigns_distinct_loopback_ports() {
        let spec = ClusterSpec::localhost(5).unwrap();
        assert_eq!(spec.len(), 5);
        let mut ports: Vec<u16> = spec
            .ids()
            .iter()
            .map(|&id| spec.addr(id).unwrap().port())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 5, "ports must be distinct");
        assert!(spec.addr(NodeId(0)).unwrap().ip().is_loopback());
        assert_eq!(spec.peers(NodeId(0)).len(), 4);
    }
}
