//! `expfig watch <spec>`: a live per-node cluster view over the scrape
//! endpoints `garfield-node --metrics-addr` serves.
//!
//! The spec file is a cluster spec ([`ClusterSpec`], read by
//! [`ClusterSpec::parse`]: one `id host:port` line per node, comments with
//! `#`, blank lines ignored) — but listing where each node's `/metrics`
//! endpoint lives, not its transport port:
//!
//! ```text
//! # node id → metrics endpoint
//! 0 127.0.0.1:9464
//! 1 127.0.0.1:9465
//! ```
//!
//! Each poll hits `/healthz` (is the node up, which round is it in) and
//! `/metrics` (Prometheus text) per node, and derives the operator view:
//! round, rounds/s (counter delta between polls), round-latency p50/p99
//! from histogram buckets, outbound queue depth, drops, and the
//! top-suspicion peers from the `garfield_peer_suspicion` gauges. A node
//! whose `/healthz` does not answer renders as DOWN — distinct from a live
//! node that has not published metrics yet.
//!
//! Everything network-independent (exposition parsing, quantiles, view
//! derivation, rendering) is a pure function over text so the whole
//! pipeline unit-tests without sockets.

use garfield_core::json::{self, Value};
use garfield_transport::ClusterSpec;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One blocking HTTP/1.1 GET; returns the body of a `200 OK` response.
///
/// # Errors
///
/// Returns a message for connect/read failures and non-200 statuses.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<String, String> {
    let err = |e: std::io::Error| format!("{addr}{path}: {e}");
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(err)?;
    stream.set_read_timeout(Some(timeout)).map_err(err)?;
    stream.set_write_timeout(Some(timeout)).map_err(err)?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(err)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(err)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: truncated response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

/// One parsed Prometheus sample line: metric name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (histogram series keep their `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// `(key, value)` label pairs, unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf` parses as [`f64::INFINITY`]).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Un-escapes a Prometheus label value (`\\`, `\"`, `\n`).
fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other), // covers \" and \\
            None => out.push('\\'),
        }
    }
    out
}

/// Parses Prometheus text exposition (v0.0.4) into samples, skipping
/// comments and lines that do not scan. The inverse of
/// `garfield_obs::metrics::render` for everything that renderer emits.
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`; the value never contains
        // spaces, the label block may (inside quoted values).
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => match v.parse() {
                Ok(v) => v,
                Err(_) => continue,
            },
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let Some(block) = rest.strip_suffix('}') else {
                    continue;
                };
                let mut labels = Vec::new();
                // Split on `",` boundaries so escaped quotes and commas
                // inside values survive.
                let mut rest = block;
                while !rest.is_empty() {
                    let Some((key, after)) = rest.split_once("=\"") else {
                        break;
                    };
                    // Find the closing quote, skipping escaped ones.
                    let mut end = None;
                    let bytes = after.as_bytes();
                    let mut i = 0;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                end = Some(i);
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    let Some(end) = end else { break };
                    labels.push((key.to_string(), unescape(&after[..end])));
                    rest = after[end + 1..].trim_start_matches(',');
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// A quantile in milliseconds from a family's cumulative `_bucket` series.
///
/// Multiple label sets of the family (e.g. one histogram per phase) are
/// merged by summing counts per `le` bound — each series is cumulative in
/// `le`, so the sum is too. Returns 0 when the family has no observations.
pub fn quantile_ms(samples: &[Sample], family: &str, q: f64) -> f64 {
    let bucket_name = format!("{family}_bucket");
    let mut bounds: Vec<(f64, u64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) = s.label("le") else { continue };
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse() {
                Ok(v) => v,
                Err(_) => continue,
            }
        };
        match bounds.iter_mut().find(|(b, _)| *b == le) {
            Some((_, count)) => *count += s.value as u64,
            None => bounds.push((le, s.value as u64)),
        }
    }
    bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = bounds.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    for &(bound, cumulative) in &bounds {
        if cumulative >= rank {
            // The +Inf bucket has no finite bound; report the largest
            // finite one (the render's last finite bound) instead.
            if bound.is_infinite() {
                break;
            }
            return bound * 1e3;
        }
    }
    bounds
        .iter()
        .rev()
        .find(|(b, _)| b.is_finite())
        .map_or(0.0, |&(b, _)| b * 1e3)
}

/// Sum of every sample of `family` (any label set); 0 when absent.
fn family_sum(samples: &[Sample], family: &str) -> f64 {
    let sum: f64 = samples
        .iter()
        .filter(|s| s.name == family)
        .map(|s| s.value)
        .sum();
    // An empty f64 sum is the additive identity -0.0; renderers would print
    // a surprising `-0` for DOWN nodes.
    sum + 0.0
}

/// Everything one table line needs about one node, from one poll.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Node id from the watch spec.
    pub node: u32,
    /// Whether `/healthz` answered — DOWN is distinct from "no metrics yet".
    pub up: bool,
    /// The round `/healthz` reported.
    pub round: u64,
    /// `garfield_rounds_total` (0 until the node publishes metrics).
    pub rounds_total: f64,
    /// Round-latency p50 in milliseconds, from `garfield_round_seconds`.
    pub p50_ms: f64,
    /// Round-latency p99 in milliseconds.
    pub p99_ms: f64,
    /// Outbound queue depth summed over peers.
    pub queue: f64,
    /// Messages dropped, summed over peers.
    pub drops: f64,
    /// Lowest round any `garfield_shard_round{shard}` gauge on this node
    /// reports — the trailing shard's progress. −1 when the node publishes
    /// no shard gauges (an unsharded deployment).
    pub shard_lo: i64,
    /// Highest shard round on this node; −1 when unsharded. A widening
    /// `shard_hi − shard_lo` gap means one shard server is falling behind.
    pub shard_hi: i64,
    /// `(peer, suspicion)` gauges, sorted most-suspicious first.
    pub suspects: Vec<(u32, f64)>,
}

/// Derives a node's view from its (optional) `/healthz` and `/metrics`
/// bodies — `None` meaning the endpoint did not answer.
pub fn view(node: u32, healthz: Option<&str>, metrics: Option<&str>) -> NodeView {
    let (up, round) = match healthz.and_then(|body| json::parse(body).ok()) {
        Some(doc) => (
            doc.get("ok").and_then(Value::as_bool).unwrap_or(false),
            doc.get("round").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        ),
        None => (false, 0),
    };
    let samples = metrics.map(parse_exposition).unwrap_or_default();
    let shard_rounds: Vec<i64> = samples
        .iter()
        .filter(|s| s.name == "garfield_shard_round")
        .map(|s| s.value as i64)
        .collect();
    let shard_lo = shard_rounds.iter().copied().min().unwrap_or(-1);
    let shard_hi = shard_rounds.iter().copied().max().unwrap_or(-1);
    let mut suspects: Vec<(u32, f64)> = samples
        .iter()
        .filter(|s| s.name == "garfield_peer_suspicion")
        .filter_map(|s| Some((s.label("peer")?.parse().ok()?, s.value)))
        .collect();
    suspects.sort_by(|a, b| b.1.total_cmp(&a.1));
    NodeView {
        node,
        up,
        round,
        rounds_total: family_sum(&samples, "garfield_rounds_total"),
        p50_ms: quantile_ms(&samples, "garfield_round_seconds", 0.5),
        p99_ms: quantile_ms(&samples, "garfield_round_seconds", 0.99),
        queue: family_sum(&samples, "garfield_outbound_queue_depth"),
        drops: family_sum(&samples, "garfield_messages_dropped_total"),
        shard_lo,
        shard_hi,
        suspects,
    }
}

/// Scrapes every node of the spec once (healthz + metrics, `timeout` each)
/// and derives the per-node views, in id order.
pub fn poll(spec: &ClusterSpec, timeout: Duration) -> Vec<NodeView> {
    spec.nodes()
        .map(|(node, addr)| {
            let healthz = http_get(addr, "/healthz", timeout).ok();
            let metrics = http_get(addr, "/metrics", timeout).ok();
            view(node.0, healthz.as_deref(), metrics.as_deref())
        })
        .collect()
}

/// Rounds/s from the counter delta between two polls of the same node
/// (0 on the first poll or when the counter went backwards, i.e. the node
/// restarted).
pub fn rounds_per_sec(prev: Option<&NodeView>, current: &NodeView, elapsed_secs: f64) -> f64 {
    match prev {
        Some(p) if elapsed_secs > 0.0 && current.rounds_total >= p.rounds_total => {
            (current.rounds_total - p.rounds_total) / elapsed_secs
        }
        _ => 0.0,
    }
}

/// The `peer:score` summary of a node's most suspicious peers.
fn suspects_cell(suspects: &[(u32, f64)], max: usize) -> String {
    if suspects.is_empty() {
        return "-".to_string();
    }
    suspects
        .iter()
        .take(max)
        .map(|(peer, score)| format!("{peer}:{score:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `shard` column: `-` for unsharded nodes, one round for a single
/// shard gauge, `lo..hi` when the node sees several shards at different
/// rounds (a widening gap means a shard server is falling behind).
fn shard_cell(v: &NodeView) -> String {
    match (v.shard_lo, v.shard_hi) {
        (-1, _) => "-".to_string(),
        (lo, hi) if lo == hi => lo.to_string(),
        (lo, hi) => format!("{lo}..{hi}"),
    }
}

/// Renders one poll as an aligned per-node table (`rates[i]` pairs with
/// `views[i]`).
pub fn render_table(views: &[NodeView], rates: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>8} {:>8} {:>9} {:>9} {:>6} {:>6} {:>8}  top suspicion",
        "node", "state", "round", "r/s", "p50_ms", "p99_ms", "queue", "drops", "shard"
    );
    for (i, v) in views.iter().enumerate() {
        let rate = rates.get(i).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>8} {:>8.2} {:>9.1} {:>9.1} {:>6} {:>6} {:>8}  {}",
            v.node,
            if v.up { "up" } else { "DOWN" },
            v.round,
            rate,
            v.p50_ms,
            v.p99_ms,
            v.queue as u64,
            v.drops as u64,
            shard_cell(v),
            suspects_cell(&v.suspects, 3),
        );
    }
    out
}

/// One machine-readable line for `--once`: a JSON object per node.
pub fn view_json(v: &NodeView, rate: f64) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(
        out,
        "{{\"node\":{},\"up\":{},\"round\":{},\"rounds_total\":{},\"rounds_per_s\":",
        v.node, v.up, v.round, v.rounds_total
    );
    json::write_f64(&mut out, rate);
    let _ = write!(out, ",\"p50_ms\":");
    json::write_f64(&mut out, v.p50_ms);
    let _ = write!(out, ",\"p99_ms\":");
    json::write_f64(&mut out, v.p99_ms);
    let _ = write!(
        out,
        ",\"queue\":{},\"drops\":{},\"shard_lo\":{},\"shard_hi\":{},\"suspects\":[",
        v.queue, v.drops, v.shard_lo, v.shard_hi
    );
    for (i, (peer, score)) in v.suspects.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"peer\":{peer},\"score\":");
        json::write_f64(&mut out, *score);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The CSV sink's header line.
pub fn csv_header() -> &'static str {
    "poll,node,up,round,rounds_total,rounds_per_s,p50_ms,p99_ms,queue,drops,shard_lo,shard_hi,\
     top_suspect,top_score"
}

/// One CSV line per node per poll (the sink `expfig watch` appends to).
pub fn csv_line(poll: u64, v: &NodeView, rate: f64) -> String {
    let (top_suspect, top_score) = v
        .suspects
        .first()
        .map_or((-1i64, 0.0), |&(p, s)| (i64::from(p), s));
    format!(
        "{poll},{},{},{},{},{rate},{},{},{},{},{},{},{top_suspect},{top_score}",
        v.node,
        v.up,
        v.round,
        v.rounds_total,
        v.p50_ms,
        v.p99_ms,
        v.queue,
        v.drops,
        v.shard_lo,
        v.shard_hi
    )
}

/// One `watch --once` pass over a spec text: scrape every node once and
/// return the machine-readable JSON lines (what the binary prints).
///
/// # Errors
///
/// Returns the spec parse error, or a note when the spec is empty — scrape
/// failures are *not* errors, they render as DOWN nodes.
pub fn watch_once(spec_text: &str, timeout: Duration) -> Result<String, String> {
    let spec = ClusterSpec::parse(spec_text).map_err(|e| e.to_string())?;
    if spec.is_empty() {
        return Err("watch spec names no node".to_string());
    }
    let views = poll(&spec, timeout);
    Ok(views
        .iter()
        .map(|v| view_json(v, 0.0))
        .collect::<Vec<_>>()
        .join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_labels_escapes_and_inf() {
        let text = "# HELP x y\n# TYPE x counter\n\
                    x{peer=\"3\"} 7\n\
                    x{s=\"a\\\"b\\\\c\\nd\"} 1\n\
                    plain 2.5\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    garbage line without value x\n";
        let samples = parse_exposition(text);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].label("peer"), Some("3"));
        assert_eq!(samples[0].value, 7.0);
        assert_eq!(samples[1].label("s"), Some("a\"b\\c\nd"));
        assert_eq!(samples[2].name, "plain");
        assert_eq!(samples[3].label("le"), Some("+Inf"));
    }

    fn bucket(family: &str, le: &str, cumulative: u64) -> String {
        format!("{family}_bucket{{le=\"{le}\"}} {cumulative}\n")
    }

    #[test]
    fn quantiles_come_from_cumulative_buckets() {
        let mut text = String::new();
        // 10 observations: 5 in ≤0.01, 9 in ≤0.1, all 10 somewhere.
        text += &bucket("garfield_round_seconds", "0.01", 5);
        text += &bucket("garfield_round_seconds", "0.1", 9);
        text += &bucket("garfield_round_seconds", "+Inf", 10);
        let samples = parse_exposition(&text);
        assert_eq!(quantile_ms(&samples, "garfield_round_seconds", 0.5), 10.0);
        assert_eq!(quantile_ms(&samples, "garfield_round_seconds", 0.9), 100.0);
        // p99 lands in +Inf: reported as the largest finite bound.
        assert_eq!(quantile_ms(&samples, "garfield_round_seconds", 0.99), 100.0);
        assert_eq!(quantile_ms(&samples, "absent", 0.5), 0.0);
    }

    #[test]
    fn quantiles_merge_label_sets_of_one_family() {
        let text = concat!(
            "f_bucket{phase=\"a\",le=\"0.01\"} 1\n",
            "f_bucket{phase=\"a\",le=\"+Inf\"} 1\n",
            "f_bucket{phase=\"b\",le=\"0.01\"} 0\n",
            "f_bucket{phase=\"b\",le=\"+Inf\"} 1\n",
        );
        let samples = parse_exposition(text);
        // Two observations total, one ≤ 0.01: the median is the 0.01 bucket.
        assert_eq!(quantile_ms(&samples, "f", 0.5), 10.0);
    }

    #[test]
    fn a_view_derives_from_healthz_and_metrics() {
        let healthz = "{\"ok\":true,\"node\":0,\"round\":12}\n";
        let metrics = concat!(
            "garfield_rounds_total 12\n",
            "garfield_outbound_queue_depth{peer=\"1\"} 2\n",
            "garfield_outbound_queue_depth{peer=\"2\"} 1\n",
            "garfield_messages_dropped_total{peer=\"1\"} 3\n",
            "garfield_peer_suspicion{peer=\"2\"} 0.4\n",
            "garfield_peer_suspicion{peer=\"5\"} 6.1\n",
        );
        let v = view(0, Some(healthz), Some(metrics));
        assert!(v.up);
        assert_eq!(v.round, 12);
        assert_eq!(v.rounds_total, 12.0);
        assert_eq!(v.queue, 3.0);
        assert_eq!(v.drops, 3.0);
        assert_eq!(v.suspects, vec![(5, 6.1), (2, 0.4)]);
        // No shard gauges: the shard columns hold the unsharded sentinel.
        assert_eq!((v.shard_lo, v.shard_hi), (-1, -1));

        // Healthz down: the node is DOWN even if metrics linger.
        let down = view(0, None, Some(metrics));
        assert!(!down.up);
        // Up but no metrics yet: alive with empty counters.
        let fresh = view(3, Some(healthz), None);
        assert!(fresh.up);
        assert_eq!(fresh.rounds_total, 0.0);
        assert!(fresh.suspects.is_empty());
    }

    #[test]
    fn rates_tables_json_and_csv_render() {
        let healthz = "{\"ok\":true,\"node\":1,\"round\":8}";
        let metrics = "garfield_rounds_total 8\ngarfield_peer_suspicion{peer=\"4\"} 5.25\n";
        let v = view(1, Some(healthz), Some(metrics));
        let mut prev = v.clone();
        prev.rounds_total = 6.0;
        assert_eq!(rounds_per_sec(Some(&prev), &v, 2.0), 1.0);
        assert_eq!(rounds_per_sec(None, &v, 2.0), 0.0);
        // Counter went backwards (restart): no negative rate.
        let mut ahead = v.clone();
        ahead.rounds_total = 99.0;
        assert_eq!(rounds_per_sec(Some(&ahead), &v, 2.0), 0.0);

        let table = render_table(std::slice::from_ref(&v), &[1.0]);
        assert!(table.contains("top suspicion"));
        assert!(table.contains("4:5.25"), "{table}");

        let line = view_json(&v, 1.0);
        assert!(line.starts_with("{\"node\":1,\"up\":true,\"round\":8"));
        assert!(line.contains("\"suspects\":[{\"peer\":4,\"score\":5.25}]"));
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("rounds_per_s").and_then(Value::as_f64), Some(1.0));

        assert!(csv_header().starts_with("poll,node"));
        let csv = csv_line(7, &v, 1.0);
        assert!(csv.starts_with("7,1,true,8,8,1,"), "{csv}");
        assert!(csv.ends_with(",4,5.25"), "{csv}");
        // No suspicion yet: the suspect columns hold sentinels.
        let empty = view(2, None, None);
        assert!(csv_line(0, &empty, 0.0).ends_with(",-1,0"));
    }

    #[test]
    fn shard_round_gauges_surface_as_lowest_and_highest_progress() {
        // A shard server publishes its own shard's round; an aggregated
        // scrape (or a future multi-shard node) may carry several. The view
        // keeps the trailing and leading rounds so a widening gap is visible.
        let healthz = "{\"ok\":true,\"node\":0,\"round\":9}";
        let metrics = concat!(
            "garfield_shard_round{shard=\"0\"} 9\n",
            "garfield_shard_round{shard=\"1\"} 7\n",
            "garfield_shard_round{shard=\"2\"} 11\n",
        );
        let v = view(0, Some(healthz), Some(metrics));
        assert_eq!((v.shard_lo, v.shard_hi), (7, 11));
        let table = render_table(std::slice::from_ref(&v), &[0.0]);
        assert!(table.contains("shard"), "{table}");
        assert!(table.contains("7..11"), "{table}");
        let line = view_json(&v, 0.0);
        assert!(line.contains("\"shard_lo\":7,\"shard_hi\":11"), "{line}");
        assert!(csv_header().contains(",shard_lo,shard_hi,"));
        assert!(
            csv_line(0, &v, 0.0).contains(",7,11,"),
            "{}",
            csv_line(0, &v, 0.0)
        );

        // One shard gauge: a single round, no range arrow.
        let single = view(
            1,
            Some(healthz),
            Some("garfield_shard_round{shard=\"0\"} 4\n"),
        );
        assert_eq!((single.shard_lo, single.shard_hi), (4, 4));
        let table = render_table(std::slice::from_ref(&single), &[0.0]);
        assert!(!table.contains(".."), "{table}");
        // Unsharded nodes render the `-` placeholder.
        let plain = view(2, Some(healthz), Some("garfield_rounds_total 3\n"));
        assert_eq!((plain.shard_lo, plain.shard_hi), (-1, -1));
        assert!(render_table(std::slice::from_ref(&plain), &[0.0]).contains(" -  "));
    }

    #[test]
    fn watch_once_renders_down_nodes_not_errors() {
        // A spec pointing at a port nobody listens on: the node reports
        // DOWN, the pass itself succeeds.
        let out = watch_once("0 127.0.0.1:9\n", Duration::from_millis(200)).unwrap();
        assert!(out.starts_with("{\"node\":0,\"up\":false"), "{out}");
        assert!(watch_once("", Duration::from_millis(10)).is_err());
        assert!(watch_once("bad", Duration::from_millis(10)).is_err());
    }
}
