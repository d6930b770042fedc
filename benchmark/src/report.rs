//! What the benchmark writes and reads back: the result line of one run,
//! the result file of a whole set, the comparison of two sets, and the
//! check that `BENCHMARK.json` names what the binary measures.

use crate::bench::Outcome;
use crate::catalogue::{Better, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads;
use garfield_core::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn text(value: &Value) -> String {
    let mut out = String::new();
    json::write_value(&mut out, value);
    out
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value as measured and its unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: BTreeMap<String, Value> = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = object([
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.spec.unit.into())),
            ]);
            (m.spec.name.to_string(), entry)
        })
        .collect();
    text(&object([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// What the `all` subcommand keeps of one run beyond its result line.
pub fn detail_line(outcome: &Outcome, wall_s: f64) -> String {
    let detail = object([
        ("rounds", Value::Number(outcome.rounds as f64)),
        (
            "model_fingerprint",
            Value::String(format!("{:016x}", outcome.model_fingerprint)),
        ),
        ("wall_s", Value::Number(wall_s)),
    ]);
    format!("detail {}", text(&detail))
}

/// One run as the `all` subcommand read it back from a child process.
pub struct ChildRun {
    pub result: Value,
    pub detail: Value,
}

impl ChildRun {
    /// Parses a child's standard output: the last line is the result, the
    /// `detail` line before it carries rounds, fingerprint and wall time.
    pub fn parse(stdout: &str) -> Result<ChildRun, String> {
        let last = stdout.lines().last().ok_or("the run printed nothing")?;
        let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
        let detail = stdout
            .lines()
            .rev()
            .find_map(|line| line.strip_prefix("detail "))
            .ok_or("the run printed no detail line")?;
        let detail = json::parse(detail).map_err(|e| format!("detail line: {e}"))?;
        Ok(ChildRun { result, detail })
    }

    pub fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }
}

/// One workload's entry of a result file: every untraced run's end-to-end
/// values (and their median), and the traced run's per-layer values.
pub fn workload_entry(
    workload: &workloads::Workload,
    untraced: &[ChildRun],
    traced: &ChildRun,
) -> Result<Value, String> {
    let missing = |name: &str| format!("{}: a run did not report {name}", workload.name);
    let mut end_to_end = BTreeMap::new();
    for spec in &END_TO_END {
        let values: Vec<f64> = untraced
            .iter()
            .map(|run| run.metric(spec.name).ok_or_else(|| missing(spec.name)))
            .collect::<Result<_, _>>()?;
        let entry = object([
            ("unit", Value::String(spec.unit.into())),
            ("better", Value::String(spec.better.as_str().into())),
            ("bound", Value::Number(spec.bound)),
            ("median", Value::Number(median(&values))),
            (
                "values",
                Value::Array(values.into_iter().map(Value::Number).collect()),
            ),
        ]);
        end_to_end.insert(spec.name.to_string(), entry);
    }
    let mut per_layer = BTreeMap::new();
    for spec in &PER_LAYER {
        let value = traced.metric(spec.name).ok_or_else(|| missing(spec.name))?;
        let entry = object([
            ("unit", Value::String(spec.unit.into())),
            ("value", Value::Number(value)),
        ]);
        per_layer.insert(spec.name.to_string(), entry);
    }
    let all_runs = || untraced.iter().chain(std::iter::once(traced));
    let detail = |key: &str| -> Vec<Value> {
        untraced
            .iter()
            .map(|run| run.detail.get(key).cloned().unwrap_or(Value::Null))
            .collect()
    };
    Ok(object([
        ("name", Value::String(workload.name.into())),
        ("why", Value::String(workload.why.into())),
        ("correct", Value::Bool(all_runs().all(ChildRun::correct))),
        (
            "attempted",
            Value::Number(all_runs().map(|r| r.count("attempted")).sum()),
        ),
        (
            "failed",
            Value::Number(all_runs().map(|r| r.count("failed")).sum()),
        ),
        ("rounds", Value::Array(detail("rounds"))),
        ("wall_s", Value::Array(detail("wall_s"))),
        (
            "model_fingerprint",
            untraced[0]
                .detail
                .get("model_fingerprint")
                .cloned()
                .unwrap_or(Value::Null),
        ),
        (
            "traced_rounds",
            traced.detail.get("rounds").cloned().unwrap_or(Value::Null),
        ),
        ("end_to_end", Value::Object(end_to_end)),
        ("per_layer", Value::Object(per_layer)),
    ]))
}

/// A whole result file.
pub fn result_file(env: Value, workloads: Vec<Value>) -> String {
    let mut out = text(&object([
        ("env", env),
        ("workloads", Value::Array(workloads)),
    ]));
    out.push('\n');
    out
}

/// How one end-to-end metric of one workload moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but either set's own runs spread wider than it.
    Unresolved,
}

/// Judges medians `a` (parent) and `b` (change) of a metric whose runs
/// spread over `spread_a` / `spread_b` (quartile distance as a share of the median).
pub fn verdict(spec: &MetricSpec, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let worse_by = match spec.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    if worse_by > spec.bound {
        Verdict::Regressed
    } else if spread_a.max(spread_b) > spec.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&raw).map_err(|e| format!("{path}: {e}"))
}

/// Median and quartile spread of one metric's runs in a result file's
/// workload entry.
fn runs_of(entry: &Value, metric: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = entry
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!values.is_empty()).then(|| (median(&values), quartile_spread(&values)))
}

/// Prints, per workload and end-to-end metric, the two medians, the change,
/// the bound and the verdict; returns whether every pairing is `ok` and the
/// model fingerprints agree.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    fn entries(file: &Value) -> &[Value] {
        file.get("workloads")
            .and_then(Value::as_array)
            .unwrap_or_default()
    }
    let mut all_ok = true;
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for entry_a in entries(&a) {
        let name = entry_a.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(entry_b) = entries(&b)
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<20} missing from {path_b}");
            all_ok = false;
            continue;
        };
        for spec in &END_TO_END {
            let (Some((mid_a, spread_a)), Some((mid_b, spread_b))) =
                (runs_of(entry_a, spec.name), runs_of(entry_b, spec.name))
            else {
                println!("{name:<20} {:<22} missing", spec.name);
                all_ok = false;
                continue;
            };
            let verdict = verdict(spec, mid_a, mid_b, spread_a, spread_b);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{name:<20} {:<22} {mid_a:>14.4} {mid_b:>14.4} {:>+8.2}% {:>6.1}%  {}",
                spec.name,
                (mid_b - mid_a) / mid_a * 100.0,
                spec.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let fingerprints = (
            entry_a.get("model_fingerprint"),
            entry_b.get("model_fingerprint"),
        );
        let same = fingerprints.0 == fingerprints.1;
        all_ok &= same;
        println!(
            "{name:<20} {:<22} {:>14} {:>14} {:>9} {:>7}  {}",
            "model_fingerprint",
            fingerprints.0.and_then(Value::as_str).unwrap_or("?"),
            fingerprints.1.and_then(Value::as_str).unwrap_or("?"),
            "",
            "exact",
            if same { "ok" } else { "differs" }
        );
    }
    Ok(all_ok)
}

/// Checks that `BENCHMARK.json` lists exactly the workloads and metrics this
/// binary measures, with the same units, directions and bounds.
pub fn check_manifest(path: &Path) -> Result<(), String> {
    let manifest = load(&path.display().to_string())?;
    let string = |s: &str| Value::String(s.into());
    let metrics = |table: &[MetricSpec], bounded: bool| {
        let entries = table.iter().map(|m| {
            let mut fields = vec![
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better.as_str())),
            ];
            if bounded {
                fields.push(("bound", Value::Number(m.bound)));
            }
            object(fields)
        });
        Value::Array(entries.collect())
    };
    let workloads = workloads::all()
        .iter()
        .map(|w| object([("name", string(w.name)), ("why", string(w.why))]))
        .collect();
    for (key, measured) in [
        ("workloads", Value::Array(workloads)),
        ("end_to_end", metrics(&END_TO_END, true)),
        ("per_layer", metrics(&PER_LAYER, false)),
    ] {
        if manifest.get(key) != Some(&measured) {
            return Err(format!(
                "{}: `{key}` differs from what the binary measures, which is {}",
                path.display(),
                text(&measured)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Metric;

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 1_234,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, spec)| Metric {
                    spec,
                    value: 1.5 + i as f64 / 3.0,
                    min: 1.0,
                    max: 9.0,
                })
                .collect(),
            rounds: 800,
            model_fingerprint: 0x0123_4567_89ab_cdef,
            notes: Vec::new(),
        }
    }

    #[test]
    fn a_result_line_round_trips_with_exactly_the_contract_keys() {
        let line = result_line(&outcome());
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        let Value::Object(top) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").unwrap().as_usize(), Some(1_234));
        for (i, spec) in END_TO_END.iter().enumerate() {
            let metric = parsed.get("metrics").unwrap().get(spec.name).unwrap();
            // Every digit survives: the value reads back bit for bit.
            assert_eq!(
                metric.get("value").unwrap().as_f64(),
                Some(1.5 + i as f64 / 3.0)
            );
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(spec.unit));
        }
    }

    #[test]
    fn a_child_run_is_read_back_from_its_standard_output() {
        let out = outcome();
        let stdout = format!(
            "vanilla_router rounds_per_s 80 1/s\n{}\n{}\n",
            detail_line(&out, 12.5),
            result_line(&out)
        );
        let run = ChildRun::parse(&stdout).unwrap();
        assert!(run.correct());
        assert_eq!(run.metric("rounds_per_s"), Some(1.5));
        assert_eq!(run.detail.get("rounds").unwrap().as_usize(), Some(800));
        assert_eq!(
            run.detail.get("model_fingerprint").unwrap().as_str(),
            Some("0123456789abcdef")
        );
        assert!(ChildRun::parse("").is_err());
        assert!(
            ChildRun::parse("{\"correct\":true}").is_err(),
            "no detail line"
        );
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = |name| END_TO_END.iter().find(|m| m.name == name).unwrap();
        let rate = spec("rounds_per_s"); // higher is better, bound 25 %
        assert_eq!(verdict(rate, 100.0, 80.0, 0.02, 0.02), Verdict::Ok);
        assert_eq!(verdict(rate, 100.0, 130.0, 0.02, 0.02), Verdict::Ok);
        assert_eq!(verdict(rate, 100.0, 70.0, 0.02, 0.02), Verdict::Regressed);
        assert_eq!(verdict(rate, 100.0, 99.0, 0.02, 0.30), Verdict::Unresolved);
        let p50 = spec("round_p50_ms"); // lower is better, bound 25 %
        assert_eq!(verdict(p50, 10.0, 13.0, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(p50, 10.0, 8.0, 0.0, 0.0), Verdict::Ok);
    }

    #[test]
    fn the_manifest_names_what_the_binary_measures() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        check_manifest(&manifest).unwrap();
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(workloads::all().into_iter().map(|w| w.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64 && name.chars().all(allowed), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }
}
