//! `garfield-node`: one Garfield node per OS process, over TCP.
//!
//! The multi-process face of the live runtime: every worker and parameter
//! server replica of an experiment runs as its own `garfield-node` process,
//! exchanging wire messages over real sockets according to a shared cluster
//! spec — the paper's deployment shape, on localhost or a real cluster.
//!
//! ```console
//! garfield-node --role server --rank 0 --cluster cluster.txt \
//!               --config experiment.json --system ssmw --out result.json
//! garfield-node --role worker --rank 3 --cluster cluster.txt \
//!               --config experiment.json --system ssmw
//! ```
//!
//! * `--cluster` — `node id → host:port` lines (see `ClusterSpec`); ids are
//!   laid out servers-first (`NodeLayout`): server replica `i` is node `i`,
//!   worker `j` is node `servers + j`.
//! * `--config` — an `ExperimentConfig` as JSON (`ExperimentConfig::to_json`).
//! * `--system` — any system (the usage message lists them, from the system
//!   plans). The gradient GAR is the config's `gradient_gar`.
//!   `decentralized` deploys one replica per worker: launch `nw` servers
//!   and `nw` workers.
//! * `--gradient-quorum` — override `q`; `n − f` exercises the asynchronous
//!   liveness condition (the run survives `f` dead workers).
//! * `--shards` — override the config's `shards`: split the parameter vector
//!   across that many shard servers (server rank `i` owns shard `i`).
//!   Requires a single-replica system and a coordinate-decomposable gradient
//!   GAR (average or median) — enforced by config validation. Each shard server writes its *slice* to `--out`;
//!   stitching the slices together in rank order yields the full model,
//!   bit-identical to an unsharded run of the same seed at full quorum.
//!   Sharded servers reject `--checkpoint`/`--resume` (checkpoints hold
//!   full-model state).
//! * `--round-deadline-ms` / `--idle-timeout-ms` — pull deadline (servers)
//!   and inbox idle backstop (workers).
//! * `--retry-ms` — how long a server pull waits before re-asking peers
//!   that have not replied (idempotent re-requests; what lets a respawned
//!   worker contribute to the round whose original request died with it).
//! * `--delay-ms` — straggler injection: this node services every request
//!   (worker) or starts every round (server) that many milliseconds late —
//!   the CLI face of the runtime's `Fault::Delay`. Pacing a run this way
//!   never changes reply *contents*, so full-quorum results stay
//!   bit-identical; the recovery tests use it to pin kill timing.
//! * `--checkpoint <dir>` / `--checkpoint-every <k>` — servers persist
//!   their training state (model, optimizer, RNG streams, round) to
//!   `<dir>/checkpoint.bin` atomically after every `k`-th iteration.
//! * `--resume <dir>` — load the checkpoint in `<dir>` (if one exists) and
//!   continue training from its round instead of from scratch. The same
//!   command line therefore works for the first launch *and* for every
//!   respawn after a SIGKILL. Workers are stateless repliers; they accept
//!   the flag and simply rejoin.
//! * `--out` — servers write a JSON result (final accuracy + the final
//!   model as exact `f32` bit patterns, for bit-identical comparison
//!   against an in-process run of the same seed).
//! * `--metrics-addr` — bind a scrape endpoint (e.g. `127.0.0.1:9464`,
//!   port 0 for ephemeral) serving Prometheus text at `/metrics`, the
//!   flight recorder at `/flight` and a liveness probe at `/healthz` (node
//!   id + current round) while the node trains. The bound address is
//!   announced on stderr (`garfield-node: metrics on …`) and, for servers
//!   writing `--out`, recorded in the result JSON's `metrics_addr` field so
//!   tools never parse stderr for it.
//! * `--flight-dir` — dump this node's flight recorder as
//!   `<dir>/flight-<role><rank>.jsonl` at exit (and on panic), for
//!   `expfig trace <dir>` to merge into a cross-node timeline.
//!
//! Exit status: `0` on success, `1` on a runtime/liveness failure, `2` on
//! bad usage.

use garfield_core::{Checkpoint, CheckpointPolicy, ExperimentConfig, SystemKind};
use garfield_net::NodeId;
use garfield_obs::flight;
use garfield_obs::http::MetricsServer;
use garfield_runtime::{node, Fault, FaultPlan, LiveOptions};
use garfield_transport::{result_json, ClusterSpec, TcpOptions, TcpTransport};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    role: String,
    rank: usize,
    cluster: String,
    config: String,
    system: SystemKind,
    shards: Option<usize>,
    /// `--gradient-quorum`, `--round-deadline-ms`, `--idle-timeout-ms` and
    /// `--retry-ms`, over the in-process defaults.
    options: LiveOptions,
    delay: Option<u64>,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    resume: Option<String>,
    out: Option<String>,
    metrics_addr: Option<String>,
    flight_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: garfield-node --role <server|worker> --rank <n> --cluster <file> \
         --config <file> --system <one of: {}> \
         [--gradient-quorum <q>] [--shards <s>] \
         [--round-deadline-ms <ms>] [--idle-timeout-ms <ms>] [--retry-ms <ms>] \
         [--delay-ms <ms>] [--checkpoint <dir>] [--checkpoint-every <k>] \
         [--resume <dir>] [--out <file>] [--metrics-addr <host:port>] \
         [--flight-dir <dir>]",
        garfield_core::system_names(|_| true)
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |name: &str| -> &str {
        value(name).unwrap_or_else(|| {
            eprintln!("missing required flag {name}");
            usage();
        })
    };
    let parsed = |name: &str, raw: &str| -> usize {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("flag {name}: {e}");
            usage();
        })
    };
    let millis = |name: &str, default: Duration| -> Duration {
        value(name).map_or(default, |v| Duration::from_millis(parsed(name, v) as u64))
    };
    let defaults = LiveOptions::default();
    let role = required("--role").to_string();
    if role != "server" && role != "worker" {
        eprintln!("--role must be 'server' or 'worker', got '{role}'");
        usage();
    }
    Args {
        rank: parsed("--rank", required("--rank")),
        cluster: required("--cluster").to_string(),
        config: required("--config").to_string(),
        system: required("--system").parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        }),
        shards: value("--shards").map(|v| parsed("--shards", v)),
        options: LiveOptions {
            gradient_quorum: value("--gradient-quorum").map(|v| parsed("--gradient-quorum", v)),
            round_deadline: millis("--round-deadline-ms", defaults.round_deadline),
            idle_timeout: millis("--idle-timeout-ms", defaults.idle_timeout),
            request_retry: millis("--retry-ms", defaults.request_retry),
        },
        delay: value("--delay-ms").map(|v| parsed("--delay-ms", v) as u64),
        checkpoint: value("--checkpoint").map(str::to_string),
        checkpoint_every: value("--checkpoint-every")
            .map_or(1, |v| parsed("--checkpoint-every", v)),
        resume: value("--resume").map(str::to_string),
        out: value("--out").map(str::to_string),
        metrics_addr: value("--metrics-addr").map(str::to_string),
        flight_dir: value("--flight-dir").map(str::to_string),
        role,
    }
}

/// What [`setup_obs`] arranged: where to dump the flight recorder at clean
/// exit, and the scrape endpoint's *bound* address (port 0 resolved).
#[derive(Default)]
struct ObsSetup {
    flight_dump: Option<PathBuf>,
    metrics_addr: Option<std::net::SocketAddr>,
}

/// Turns the observability layer on when either flag asks for it: pins the
/// flight-recorder epoch, attributes events and `/healthz` to this process's
/// node id, binds the scrape endpoint, and (with `--flight-dir`) arranges a
/// JSONL dump on panic.
fn setup_obs(args: &Args, id: NodeId) -> Result<ObsSetup, String> {
    if args.metrics_addr.is_none() && args.flight_dir.is_none() {
        return Ok(ObsSetup::default());
    }
    garfield_obs::enable();
    flight::set_default_node(id.0);
    garfield_obs::http::set_health_node(id.0);
    let metrics_addr = match &args.metrics_addr {
        Some(addr) => {
            let server =
                MetricsServer::start(addr).map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            // Announce the *bound* address so launchers using port 0 can find
            // the scrape endpoint; servers also record it in the --out JSON.
            eprintln!("garfield-node: metrics on http://{}/metrics", server.addr());
            Some(server.addr())
        }
        None => None,
    };
    let flight_dump = args
        .flight_dir
        .as_ref()
        .map(|dir| PathBuf::from(dir).join(format!("flight-{}{}.jsonl", args.role, args.rank)));
    if let Some(path) = &flight_dump {
        flight::install_panic_hook(path.clone());
    }
    Ok(ObsSetup {
        flight_dump,
        metrics_addr,
    })
}

/// Writes the flight recorder to `path` at clean exit (the panic hook covers
/// the other way out).
fn dump_flight(dump: &Option<PathBuf>) -> Result<(), String> {
    match dump {
        Some(path) => flight::write_dump(path).map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(()),
    }
}

fn run(args: Args) -> Result<(), String> {
    let system = args.system;
    let config_text =
        std::fs::read_to_string(&args.config).map_err(|e| format!("{}: {e}", args.config))?;
    let mut config = ExperimentConfig::from_json(&config_text).map_err(|e| e.to_string())?;
    if let Some(shards) = args.shards {
        config.shards = shards;
    }
    if config.shards > 1 && (args.checkpoint.is_some() || args.resume.is_some()) {
        // A checkpoint records full-model training state; shard servers own
        // slices. Refuse loudly instead of resuming into a dimension error.
        return Err(
            "parameter-sharded deployments (--shards > 1) do not support \
             --checkpoint/--resume: checkpoints hold full-model state"
                .to_string(),
        );
    }
    // Same assembly as the in-process executor: every process builds the
    // full deployment from the shared config (identical shards, initial
    // model, attack installation, ids and RNG streams), then keeps only its
    // node. Faults are per process here: `--delay-ms`, set below.
    let nodes = node::assemble(system, &config, &args.options, &FaultPlan::new())
        .map_err(|e| e.to_string())?;
    let layout = nodes.layout;
    let fault = args.delay.map(|millis| Fault::Delay { millis });

    let spec = ClusterSpec::load(&args.cluster).map_err(|e| format!("{}: {e}", args.cluster))?;
    if spec.len() < layout.len() {
        return Err(format!(
            "cluster spec names {} nodes but the experiment deploys {} ({} servers + {} workers)",
            spec.len(),
            layout.len(),
            layout.server_ids.len(),
            layout.worker_ids.len()
        ));
    }

    match args.role.as_str() {
        "worker" => {
            let mut node = nodes.workers.into_iter().nth(args.rank).ok_or_else(|| {
                format!(
                    "worker rank {} out of range (nw = {})",
                    args.rank,
                    layout.worker_ids.len()
                )
            })?;
            node.fault = fault;
            let id = layout.worker_ids[args.rank];
            if args.resume.is_some() {
                // Workers are stateless repliers: the model arrives with
                // every request and shards derive from the shared config, so
                // "resuming" a worker is simply rejoining the cluster.
                eprintln!(
                    "garfield-node: worker {} rejoining (workers carry no checkpointable state)",
                    args.rank
                );
            }
            let obs = setup_obs(&args, id)?;
            let transport =
                TcpTransport::bind(&spec, id, TcpOptions::default()).map_err(|e| e.to_string())?;
            eprintln!(
                "garfield-node: worker {} up as node {id} on {}",
                args.rank,
                transport.local_addr()
            );
            let telemetry = node.run(Box::new(transport));
            eprintln!(
                "garfield-node: worker {} done — {} msgs / {} B sent, {} msgs / {} B received, {} on-wire B, {} dropped, {} gradients reused",
                args.rank,
                telemetry.messages_sent,
                telemetry.bytes_sent,
                telemetry.messages_received,
                telemetry.bytes_received,
                telemetry.wire_bytes_sent(),
                telemetry.messages_dropped(),
                telemetry.gradients_reused,
            );
            dump_flight(&obs.flight_dump)
        }
        "server" => {
            let mut node = nodes.servers.into_iter().nth(args.rank).ok_or_else(|| {
                format!(
                    "server rank {} out of range ({} replicas run live under {})",
                    args.rank,
                    layout.server_ids.len(),
                    system
                )
            })?;
            let id = layout.server_ids[args.rank];
            // Load the resume checkpoint *before* binding the port, so a
            // corrupt or foreign checkpoint fails fast. A missing file is a
            // fresh start: the same command line serves first launch and
            // respawn.
            if let Some(dir) = &args.resume {
                node.resume = Checkpoint::load_if_present(dir).map_err(|e| e.to_string())?;
                match &node.resume {
                    Some(cp) => {
                        cp.validate_for(system.as_str(), config.seed)
                            .map_err(|e| e.to_string())?;
                        if cp.round >= config.iterations as u64 {
                            // A supervisor blindly restarting after a
                            // *successful* run lands here: every iteration
                            // is already done. Exit cleanly without touching
                            // --out — rewriting it would clobber the
                            // recorded result with an empty zero-accuracy
                            // trace.
                            eprintln!(
                                "garfield-node: server {} checkpoint in {dir} is already \
                                 complete (round {} of {}); nothing to resume",
                                args.rank, cp.round, config.iterations
                            );
                            return Ok(());
                        }
                        eprintln!(
                            "garfield-node: server {} resuming from {dir} at round {}",
                            args.rank, cp.round
                        );
                    }
                    None => eprintln!(
                        "garfield-node: server {} found no checkpoint in {dir}, starting fresh",
                        args.rank
                    ),
                }
            }
            node.fault = fault;
            node.checkpoint = args
                .checkpoint
                .as_ref()
                .map(|dir| CheckpointPolicy::new(dir, args.checkpoint_every));
            if args.rank == 0 {
                // No controller process exists: the coordinating replica
                // winds every worker down when it exits.
                node.shutdown_targets = layout.worker_ids.clone();
            }
            let obs = setup_obs(&args, id)?;
            let transport =
                TcpTransport::bind(&spec, id, TcpOptions::default()).map_err(|e| e.to_string())?;
            eprintln!(
                "garfield-node: server {} up as node {id} on {}",
                args.rank,
                transport.local_addr()
            );
            let run = node.run(Box::new(transport)).map_err(|e| e.to_string())?;
            eprintln!(
                "garfield-node: server {} done — {} iterations{}, final accuracy {:.4}, mean round {:.1} ms, {} on-wire B sent, {} checkpoints, {} retried requests",
                args.rank,
                run.trace.len(),
                match run.resumed_from {
                    Some(round) => format!(" (resumed at {round})"),
                    None => String::new(),
                },
                run.trace.final_accuracy(),
                1e3 * run.round_latencies.iter().sum::<f64>()
                    / run.round_latencies.len().max(1) as f64,
                run.telemetry.wire_bytes_sent(),
                run.telemetry.checkpoints_written,
                run.telemetry.requests_retried,
            );
            if let Some(path) = &args.out {
                std::fs::write(path, result_json(system, &run, obs.metrics_addr))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            dump_flight(&obs.flight_dump)
        }
        _ => unreachable!("role validated in parse_args"),
    }
}

fn main() {
    if let Err(message) = run(parse_args()) {
        eprintln!("garfield-node: error: {message}");
        std::process::exit(1);
    }
}
