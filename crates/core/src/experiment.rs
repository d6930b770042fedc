//! Experiment configuration: the knobs of a Garfield deployment.

use crate::system::{system_names, SystemPlan, Topology};
use crate::{json, CoreError, CoreResult};
use garfield_aggregation::GarKind;
use garfield_attacks::AttackKind;
use garfield_ml::ShardStrategy;
use garfield_net::Device;
use std::fmt::Write as _;

/// The deployments evaluated in the paper (§5 and §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Vanilla parameter server with plain averaging (TensorFlow / PyTorch baseline).
    Vanilla,
    /// AggregaThor-style baseline: single trusted server, Multi-Krum, older runtime.
    AggregaThor,
    /// Crash-tolerant primary/backup replication of the server (strawman of §6.2).
    CrashTolerant,
    /// Single Server, Multiple Workers — Byzantine workers only (§5.1).
    Ssmw,
    /// Multiple Servers, Multiple Workers — Byzantine servers and workers (§5.2).
    Msmw,
    /// Decentralized (peer-to-peer) learning (§5.3).
    Decentralized,
    /// Speculative fast-path aggregation (arXiv:1911.07537): SSMW topology,
    /// but each round takes the cheap average path plus a consistency check
    /// and permanently falls back to the configured robust `gradient_gar` on
    /// suspicion. Written `speculative` or `speculative(<gar>)` on the CLI.
    Speculative,
}

impl SystemKind {
    /// All systems, in the order the paper's figures list them (the
    /// speculative extension last).
    pub fn all() -> [SystemKind; 7] {
        [
            SystemKind::Vanilla,
            SystemKind::CrashTolerant,
            SystemKind::Ssmw,
            SystemKind::Msmw,
            SystemKind::Decentralized,
            SystemKind::AggregaThor,
            SystemKind::Speculative,
        ]
    }

    /// Canonical lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SystemKind::Vanilla => "vanilla",
            SystemKind::AggregaThor => "aggregathor",
            SystemKind::CrashTolerant => "crash-tolerant",
            SystemKind::Ssmw => "ssmw",
            SystemKind::Msmw => "msmw",
            SystemKind::Decentralized => "decentralized",
            SystemKind::Speculative => "speculative",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SystemKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SystemKind::all()
            .into_iter()
            .find(|k| k.as_str() == s.to_ascii_lowercase())
            .ok_or_else(|| {
                let names = crate::system_names(|_| true);
                format!("unknown system '{s}' (expected one of {names})")
            })
    }
}

/// Full description of one training experiment.
///
/// Defaults follow the paper's PyTorch setup (§6.1): 10 workers of which 3 may
/// be Byzantine, 3 servers of which 1 may be Byzantine, batch size 100.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Trainable model name (see `garfield_ml::zoo::trainable_model`).
    pub model: String,
    /// Number of synthetic samples to generate for the training set.
    pub dataset_samples: usize,
    /// Number of synthetic samples in the held-out test set.
    pub test_samples: usize,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
    /// Total number of workers (`n_w`).
    pub nw: usize,
    /// Declared maximum number of Byzantine workers (`f_w`).
    pub fw: usize,
    /// Total number of parameter-server replicas (`n_ps`).
    pub nps: usize,
    /// Declared maximum number of Byzantine servers (`f_ps`).
    pub fps: usize,
    /// Number of workers that actually behave Byzantine this run.
    pub actual_byzantine_workers: usize,
    /// Number of servers that actually behave Byzantine this run.
    pub actual_byzantine_servers: usize,
    /// Attack installed on Byzantine workers.
    pub worker_attack: Option<AttackKind>,
    /// Attack installed on Byzantine servers.
    pub server_attack: Option<AttackKind>,
    /// GAR used to aggregate gradients.
    pub gradient_gar: GarKind,
    /// GAR used to aggregate models between server replicas.
    pub model_gar: GarKind,
    /// Device class of every node.
    pub device: Device,
    /// How the dataset is partitioned across workers.
    pub shard_strategy: ShardStrategy,
    /// Number of contiguous *parameter* shards the model is split across on
    /// the live substrate (1 = classic unsharded parameter server). Each
    /// shard gets its own server process owning one slice of the flat
    /// parameter vector; `shards > 1` requires a coordinate-decomposable
    /// gradient GAR and a single-replica system (not MSMW). Distinct from
    /// [`ExperimentConfig::shard_strategy`], which shards the *dataset*
    /// across workers.
    pub shards: usize,
    /// Number of training iterations.
    pub iterations: usize,
    /// Evaluate accuracy every this many iterations (0 disables evaluation).
    pub eval_every: usize,
    /// Extra peer-to-peer contraction rounds per iteration (decentralized, non-IID).
    pub contraction_steps: usize,
    /// Whether the network is assumed synchronous. Synchronous deployments
    /// wait for all `nw` gradients (paper's PyTorch Multi-Krum variant);
    /// asynchronous ones proceed after `nw − fw` (paper's TensorFlow Bulyan
    /// variant).
    pub synchronous: bool,
    /// RNG seed controlling data synthesis, initialisation, attacks and jitter.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            model: "tiny".into(),
            dataset_samples: 512,
            test_samples: 256,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.0,
            nw: 10,
            fw: 3,
            nps: 3,
            fps: 1,
            actual_byzantine_workers: 0,
            actual_byzantine_servers: 0,
            worker_attack: None,
            server_attack: None,
            gradient_gar: GarKind::MultiKrum,
            model_gar: GarKind::Median,
            device: Device::Cpu,
            shard_strategy: ShardStrategy::Iid,
            shards: 1,
            iterations: 30,
            eval_every: 10,
            contraction_steps: 0,
            synchronous: true,
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// A small, fast configuration used by tests and the quickstart example.
    pub fn small() -> Self {
        ExperimentConfig {
            model: "tiny".into(),
            dataset_samples: 256,
            test_samples: 128,
            batch_size: 8,
            nw: 7,
            fw: 1,
            nps: 3,
            fps: 1,
            iterations: 20,
            eval_every: 5,
            ..ExperimentConfig::default()
        }
    }

    /// The paper's TensorFlow/CPU setup: 18 workers (3 Byzantine), 6 servers (1 Byzantine).
    pub fn paper_cpu() -> Self {
        ExperimentConfig {
            nw: 18,
            fw: 3,
            nps: 6,
            fps: 1,
            batch_size: 32,
            gradient_gar: GarKind::Bulyan,
            model_gar: GarKind::Median,
            device: Device::Cpu,
            synchronous: false,
            ..ExperimentConfig::default()
        }
    }

    /// The paper's PyTorch/GPU setup: 10 workers (3 Byzantine), 3 servers (1 Byzantine).
    pub fn paper_gpu() -> Self {
        ExperimentConfig {
            nw: 10,
            fw: 3,
            nps: 3,
            fps: 1,
            batch_size: 100,
            gradient_gar: GarKind::MultiKrum,
            model_gar: GarKind::Median,
            device: Device::Gpu,
            ..ExperimentConfig::default()
        }
    }

    /// Effective batch size per model update (`nw × batch_size`).
    pub fn effective_batch(&self) -> usize {
        self.nw * self.batch_size
    }

    /// Number of gradient replies a server of `system` waits for: all of them
    /// in the synchronous case, `nw − fw` when tolerating Byzantine workers
    /// asynchronously (see [`SystemPlan::of`]).
    pub fn gradient_quorum(&self, system: SystemKind) -> usize {
        SystemPlan::of(system, self).gradient_quorum
    }

    /// Number of model replies a server waits for from its peers.
    pub fn model_quorum(&self) -> usize {
        self.nps.saturating_sub(self.fps).max(1)
    }

    /// Serializes the configuration to JSON.
    ///
    /// This is how `garfield-node` processes receive their experiment: the
    /// launcher writes the config once, every process parses the same bytes,
    /// and [`Deployment::new`](crate::Deployment::new) then derives
    /// bit-identical initial state in each of them. The `seed` is written as
    /// a decimal *string* so the full `u64` range survives the `f64`-backed
    /// JSON number representation.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"model\":");
        json::write_string(&mut out, &self.model);
        let _ = write!(
            out,
            ",\"dataset_samples\":{},\"test_samples\":{},\"batch_size\":{}",
            self.dataset_samples, self.test_samples, self.batch_size
        );
        out.push_str(",\"learning_rate\":");
        json::write_f32(&mut out, self.learning_rate);
        out.push_str(",\"momentum\":");
        json::write_f32(&mut out, self.momentum);
        let _ = write!(
            out,
            ",\"nw\":{},\"fw\":{},\"nps\":{},\"fps\":{},\"actual_byzantine_workers\":{},\"actual_byzantine_servers\":{}",
            self.nw, self.fw, self.nps, self.fps,
            self.actual_byzantine_workers, self.actual_byzantine_servers
        );
        for (key, attack) in [
            ("worker_attack", self.worker_attack),
            ("server_attack", self.server_attack),
        ] {
            let _ = write!(out, ",\"{key}\":");
            match attack {
                Some(kind) => json::write_string(&mut out, kind.as_str()),
                None => out.push_str("null"),
            }
        }
        out.push_str(",\"gradient_gar\":");
        json::write_string(&mut out, self.gradient_gar.as_str());
        out.push_str(",\"model_gar\":");
        json::write_string(&mut out, self.model_gar.as_str());
        out.push_str(",\"device\":");
        json::write_string(&mut out, self.device.as_str());
        out.push_str(",\"shard_strategy\":");
        json::write_string(&mut out, self.shard_strategy.as_str());
        let _ = write!(
            out,
            ",\"shards\":{},\"iterations\":{},\"eval_every\":{},\"contraction_steps\":{},\"synchronous\":{},\"seed\":\"{}\"}}",
            self.shards, self.iterations, self.eval_every, self.contraction_steps, self.synchronous, self.seed
        );
        out
    }

    /// Parses a configuration previously produced by
    /// [`ExperimentConfig::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] on malformed JSON, missing
    /// fields, or enum names no variant answers to.
    pub fn from_json(input: &str) -> CoreResult<Self> {
        let bad = |what: String| CoreError::Serialization(format!("config JSON: {what}"));
        let doc = json::parse(input).map_err(CoreError::Serialization)?;
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_str)
                .ok_or_else(|| bad(format!("missing string field '{key}'")))
        };
        let usize_field = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_usize)
                .ok_or_else(|| bad(format!("missing integer field '{key}'")))
        };
        // `to_json` writes non-finite floats as `null` (like serde_json),
        // so the reader maps `null` back to NaN rather than rejecting a
        // document the writer itself produced.
        let f32_field = |key: &str| match doc.get(key) {
            Some(json::Value::Null) => Ok(f32::NAN),
            Some(field) => field
                .as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| bad(format!("missing number field '{key}'"))),
            None => Err(bad(format!("missing number field '{key}'"))),
        };
        let attack_field = |key: &str| -> CoreResult<Option<AttackKind>> {
            match doc.get(key) {
                None | Some(json::Value::Null) => Ok(None),
                Some(value) => value
                    .as_str()
                    .ok_or_else(|| bad(format!("field '{key}' must be a string or null")))?
                    .parse::<AttackKind>()
                    .map(Some)
                    .map_err(bad),
            }
        };
        // The seed is written as a string (u64 > 2^53 would lose precision
        // as an f64-backed number) but a plain integral number is accepted
        // too, for hand-written configs.
        let seed = match doc.get("seed") {
            Some(json::Value::String(s)) => s
                .parse::<u64>()
                .map_err(|e| bad(format!("seed '{s}': {e}")))?,
            Some(json::Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
            _ => return Err(bad("missing field 'seed' (string or integer)".into())),
        };
        Ok(ExperimentConfig {
            model: str_field("model")?.to_string(),
            dataset_samples: usize_field("dataset_samples")?,
            test_samples: usize_field("test_samples")?,
            batch_size: usize_field("batch_size")?,
            learning_rate: f32_field("learning_rate")?,
            momentum: f32_field("momentum")?,
            nw: usize_field("nw")?,
            fw: usize_field("fw")?,
            nps: usize_field("nps")?,
            fps: usize_field("fps")?,
            actual_byzantine_workers: usize_field("actual_byzantine_workers")?,
            actual_byzantine_servers: usize_field("actual_byzantine_servers")?,
            worker_attack: attack_field("worker_attack")?,
            server_attack: attack_field("server_attack")?,
            gradient_gar: str_field("gradient_gar")?
                .parse::<GarKind>()
                .map_err(|e| bad(e.to_string()))?,
            model_gar: str_field("model_gar")?
                .parse::<GarKind>()
                .map_err(|e| bad(e.to_string()))?,
            device: str_field("device")?.parse::<Device>().map_err(bad)?,
            shard_strategy: str_field("shard_strategy")?
                .parse::<ShardStrategy>()
                .map_err(bad)?,
            // Absent in configs written before parameter sharding existed:
            // default to the classic unsharded server.
            shards: match doc.get("shards") {
                None => 1,
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| bad("field 'shards' must be an integer".into()))?,
            },
            iterations: usize_field("iterations")?,
            eval_every: usize_field("eval_every")?,
            contraction_steps: usize_field("contraction_steps")?,
            synchronous: doc
                .get("synchronous")
                .and_then(json::Value::as_bool)
                .ok_or_else(|| bad("missing boolean field 'synchronous'".into()))?,
            seed,
        })
    }

    /// Checks the configuration for internal consistency and for the
    /// Byzantine-resilience requirements of the chosen GARs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first violated constraint.
    pub fn validate(&self, system: SystemKind) -> CoreResult<()> {
        if self.nw == 0 {
            return Err(CoreError::InvalidConfig(
                "at least one worker is required".into(),
            ));
        }
        if self.batch_size == 0 || self.iterations == 0 {
            return Err(CoreError::InvalidConfig(
                "batch size and iteration count must be positive".into(),
            ));
        }
        if self.dataset_samples < self.nw {
            return Err(CoreError::InvalidConfig(format!(
                "{} samples cannot be sharded over {} workers",
                self.dataset_samples, self.nw
            )));
        }
        if self.actual_byzantine_workers > self.nw {
            return Err(CoreError::InvalidConfig(
                "more actual Byzantine workers than workers".into(),
            ));
        }
        if self.actual_byzantine_servers > self.nps {
            return Err(CoreError::InvalidConfig(
                "more actual Byzantine servers than servers".into(),
            ));
        }
        let plan = SystemPlan::of(system, self);
        if plan.topology == Topology::ReplicatedServer && self.nps == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "{system} requires at least one server"
            )));
        }
        let gradient_gar = &plan.gradient_gar;
        // A speculative rule needs a primitive Byzantine-resilient rule to
        // fall back to.
        if let GarKind::Speculative { fallback } = gradient_gar {
            if matches!(**fallback, GarKind::Average | GarKind::Speculative { .. }) {
                return Err(CoreError::InvalidConfig(format!(
                    "speculative needs a primitive Byzantine-resilient gradient_gar \
                     to fall back to, not '{fallback}'"
                )));
            }
        }
        // Parameter sharding: only sound when applying the gradient GAR to
        // each slice independently equals slicing it applied to the full
        // vectors, and only wired for the single-server live topologies
        // (each shard *is* a server; replicating shards is the MSMW
        // open item, not this one).
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig("shards must be at least 1".into()));
        }
        if self.shards > 1 {
            let shardable =
                |plan: &SystemPlan| plan.live && plan.topology == Topology::SingleServer;
            if !shardable(&plan) {
                return Err(CoreError::InvalidConfig(format!(
                    "parameter sharding requires a single-server live system \
                     ({}), not {system}",
                    system_names(shardable)
                )));
            }
            if !gradient_gar.is_coordinate_decomposable() {
                return Err(CoreError::InvalidConfig(format!(
                    "gradient GAR '{gradient_gar}' is not coordinate-decomposable: \
                     per-shard selection would diverge from full-vector selection; \
                     use average or median (or their speculative forms) with shards > 1"
                )));
            }
        }
        // GAR requirements on the gradient path.
        if plan.gradient_quorum < gradient_gar.minimum_inputs(plan.gradient_f) {
            return Err(CoreError::InvalidConfig(format!(
                "{gradient_gar} needs at least {} gradient inputs to tolerate f_w = {}, but only {} are collected",
                gradient_gar.minimum_inputs(plan.gradient_f),
                plan.gradient_f,
                plan.gradient_quorum
            )));
        }
        // GAR requirements on the model path: a replica aggregates the models it
        // pulled from `quorum` peers *plus its own*, hence the `+ 1`.
        if let Some(merge) = &plan.merge {
            if merge.quorum + 1 < merge.gar.minimum_inputs(merge.f) {
                return Err(CoreError::InvalidConfig(format!(
                    "{} needs at least {} model inputs to tolerate f_ps = {}, but only {} are collected",
                    merge.gar,
                    merge.gar.minimum_inputs(merge.f),
                    merge.f,
                    merge.quorum + 1
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_presets_are_valid() {
        for cfg in [
            ExperimentConfig::default(),
            ExperimentConfig::small(),
            ExperimentConfig::paper_gpu(),
        ] {
            for system in [
                SystemKind::Vanilla,
                SystemKind::Ssmw,
                SystemKind::CrashTolerant,
            ] {
                cfg.validate(system).unwrap();
            }
        }
        // The CPU preset uses Bulyan with n_w - f_w = 15 >= 4*3+3 = 15.
        ExperimentConfig::paper_cpu()
            .validate(SystemKind::Msmw)
            .unwrap();
    }

    #[test]
    fn quorums_follow_the_paper_listings() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.gradient_quorum(SystemKind::Ssmw), cfg.nw);
        // Synchronous deployments wait for everyone; asynchronous ones for nw - fw.
        assert_eq!(cfg.gradient_quorum(SystemKind::Msmw), cfg.nw);
        let async_cfg = ExperimentConfig {
            synchronous: false,
            ..cfg.clone()
        };
        assert_eq!(async_cfg.gradient_quorum(SystemKind::Msmw), cfg.nw - cfg.fw);
        assert_eq!(cfg.model_quorum(), cfg.nps - cfg.fps);
        assert_eq!(cfg.effective_batch(), cfg.nw * cfg.batch_size);
    }

    #[test]
    fn validation_rejects_inconsistent_setups() {
        let mut cfg = ExperimentConfig::small();
        cfg.nw = 0;
        assert!(cfg.validate(SystemKind::Vanilla).is_err());

        let mut cfg = ExperimentConfig::small();
        cfg.actual_byzantine_workers = cfg.nw + 1;
        assert!(cfg.validate(SystemKind::Vanilla).is_err());

        let mut cfg = ExperimentConfig::small();
        cfg.fw = 3; // Multi-Krum needs 2f+3 = 9 inputs, only nw - fw = 4 collected
        assert!(cfg.validate(SystemKind::Msmw).is_err());

        let mut cfg = ExperimentConfig::small();
        cfg.dataset_samples = 3;
        assert!(cfg.validate(SystemKind::Ssmw).is_err());

        let mut cfg = ExperimentConfig::small();
        cfg.nps = 0;
        assert!(cfg.validate(SystemKind::Msmw).is_err());
        assert!(cfg.validate(SystemKind::Ssmw).is_ok());
    }

    #[test]
    fn system_kind_names_are_stable() {
        assert_eq!(SystemKind::Msmw.to_string(), "msmw");
        assert_eq!(SystemKind::all().len(), 7);
        for kind in SystemKind::all() {
            assert_eq!(kind.as_str().parse::<SystemKind>().unwrap(), kind);
        }
        assert_eq!(
            "warp-drive".parse::<SystemKind>().unwrap_err(),
            "unknown system 'warp-drive' (expected one of vanilla, crash-tolerant, ssmw, msmw, \
             decentralized, aggregathor, speculative)"
        );
    }

    #[test]
    fn speculative_validation_demands_a_robust_fallback() {
        // The default small() config falls back to Multi-Krum: fine.
        ExperimentConfig::small()
            .validate(SystemKind::Speculative)
            .unwrap();
        // Averaging (or nesting) is nothing to fall back to.
        let mut cfg = ExperimentConfig::small();
        cfg.gradient_gar = GarKind::Average;
        assert!(cfg.validate(SystemKind::Speculative).is_err());
        let mut cfg = ExperimentConfig::small();
        cfg.gradient_gar = GarKind::Speculative {
            fallback: Box::new(GarKind::Median),
        };
        assert!(cfg.validate(SystemKind::Speculative).is_err());
        // The fallback's (n, f) requirement applies to the speculative system.
        let mut cfg = ExperimentConfig::small();
        cfg.fw = 3; // Multi-Krum needs 2f+3 = 9 inputs, nw is 7
        assert!(cfg.validate(SystemKind::Speculative).is_err());
    }

    #[test]
    fn sharded_configs_demand_decomposable_gars_and_simple_topologies() {
        // Median decomposes per-coordinate: fine on every sharded system.
        let mut cfg = ExperimentConfig::small();
        cfg.shards = 4;
        cfg.gradient_gar = GarKind::Median;
        cfg.validate(SystemKind::Ssmw).unwrap();
        cfg.validate(SystemKind::Vanilla).unwrap();
        cfg.validate(SystemKind::Speculative).unwrap();

        // Distance-based selection does not decompose.
        let mut cfg = ExperimentConfig::small();
        cfg.shards = 2;
        cfg.gradient_gar = GarKind::MultiKrum;
        let err = cfg.validate(SystemKind::Ssmw).unwrap_err();
        assert!(err.to_string().contains("coordinate-decomposable"), "{err}");
        // ... including as a speculative fallback (the replay path must
        // decompose too).
        assert!(cfg.validate(SystemKind::Speculative).is_err());
        // But vanilla ignores gradient_gar entirely (it always averages),
        // so sharding it is sound regardless.
        cfg.validate(SystemKind::Vanilla).unwrap();

        // Replicated-server topologies are not shard-wired.
        let mut cfg = ExperimentConfig::small();
        cfg.shards = 2;
        cfg.gradient_gar = GarKind::Median;
        assert!(cfg.validate(SystemKind::Msmw).is_err());

        // Zero shards is always nonsense.
        let mut cfg = ExperimentConfig::small();
        cfg.shards = 0;
        assert!(cfg.validate(SystemKind::Ssmw).is_err());
    }

    #[test]
    fn shards_default_to_one_in_older_configs() {
        let json = ExperimentConfig::small().to_json();
        assert!(json.contains("\"shards\":1"));
        // A config written before the field existed parses as unsharded.
        let legacy = json.replace("\"shards\":1,", "");
        assert_eq!(ExperimentConfig::from_json(&legacy).unwrap().shards, 1);
        // And the field round-trips when present.
        let sharded = json.replace("\"shards\":1", "\"shards\":5");
        assert_eq!(ExperimentConfig::from_json(&sharded).unwrap().shards, 5);
    }

    #[test]
    fn config_json_round_trips_every_field() {
        let mut cfg = ExperimentConfig::paper_cpu();
        cfg.worker_attack = Some(garfield_attacks::AttackKind::LittleIsEnough);
        cfg.server_attack = None;
        cfg.shard_strategy = ShardStrategy::ByLabel;
        cfg.seed = u64::MAX - 3; // beyond f64's 2^53 integer range
        let back = ExperimentConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_json_accepts_numeric_seeds_and_rejects_garbage() {
        let json = ExperimentConfig::small()
            .to_json()
            .replace("\"seed\":\"42\"", "\"seed\":42");
        assert_eq!(ExperimentConfig::from_json(&json).unwrap().seed, 42);

        assert!(ExperimentConfig::from_json("{").is_err());
        assert!(ExperimentConfig::from_json("{}").is_err());
        let bad_gar = ExperimentConfig::small()
            .to_json()
            .replace("multi-krum", "mega-krum");
        assert!(ExperimentConfig::from_json(&bad_gar).is_err());
        let bad_attack = {
            let mut cfg = ExperimentConfig::small();
            cfg.worker_attack = Some(garfield_attacks::AttackKind::Drop);
            cfg.to_json().replace("\"drop\"", "\"smash\"")
        };
        assert!(ExperimentConfig::from_json(&bad_attack).is_err());

        // Non-finite floats serialize as `null` (like serde_json); the
        // reader must accept the writer's own output and map them to NaN.
        let mut nan_cfg = ExperimentConfig::small();
        nan_cfg.momentum = f32::NAN;
        let json = nan_cfg.to_json();
        assert!(json.contains("\"momentum\":null"));
        assert!(ExperimentConfig::from_json(&json)
            .unwrap()
            .momentum
            .is_nan());
    }
}
