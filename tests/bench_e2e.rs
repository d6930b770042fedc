//! The committed end-to-end trajectory, `BENCH_e2e.json` in the repo root.
//!
//! Each row is one workload of the benchmark package measured on one seed
//! with alternated parent/change pairs: the metric's median and
//! interquartile range on both sides, the pairs the change won, and the
//! three exact columns (`model_fingerprint`, `wire_bytes_per_round`,
//! `final_accuracy`) of both sides. A row's exact columns must equal its
//! parent's unless the row says why they moved, and a row that claims a
//! gain must have won at least nine pairs in ten, by a median move larger
//! than the parent's interquartile range.

use garfield_core::json::{self, Value};

fn trajectory() -> Value {
    json::parse(include_str!("../BENCH_e2e.json")).expect("BENCH_e2e.json parses")
}

/// The benchmark's declaration: workload names and end-to-end metrics.
fn declaration() -> Value {
    json::parse(include_str!("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn field<'v>(row: &'v Value, key: &str) -> Result<&'v Value, String> {
    row.get(key).ok_or_else(|| format!("no `{key}`"))
}

fn number(row: &Value, key: &str) -> Result<f64, String> {
    field(row, key)?
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("`{key}` is not a finite number"))
}

fn count(row: &Value, key: &str) -> Result<usize, String> {
    field(row, key)?
        .as_usize()
        .ok_or_else(|| format!("`{key}` is not a count"))
}

fn text<'v>(row: &'v Value, key: &str) -> Result<&'v str, String> {
    field(row, key)?
        .as_str()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("`{key}` is not a non-empty string"))
}

/// One side's exact columns, as comparable values.
fn exact(row: &Value, key: &str) -> Result<(String, usize, u64), String> {
    let side = field(row, key)?;
    let fingerprint = text(side, "model_fingerprint")?;
    if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!(
            "`{key}` fingerprint {fingerprint:?} is not 16 hex digits"
        ));
    }
    let accuracy = number(side, "final_accuracy")?;
    Ok((
        fingerprint.to_string(),
        count(side, "wire_bytes_per_round")?,
        accuracy.to_bits(),
    ))
}

/// Checks one row against the benchmark's declaration.
fn check_row(row: &Value, declaration: &Value) -> Result<(), String> {
    count(row, "pr")?;
    text(row, "parent")?;
    match field(row, "commit")? {
        Value::Null => {} // the commit that adds the row
        commit => {
            commit
                .as_str()
                .ok_or("`commit` is neither a hash nor null")?;
        }
    }
    let cpu = text(row, "target_cpu")?;
    if !matches!(cpu, "x86-64-v3" | "x86-64") {
        return Err(format!("unknown target_cpu {cpu:?}"));
    }
    let workload = text(row, "workload")?;
    let workloads = field(declaration, "workloads")?.as_array().unwrap_or(&[]);
    if !workloads
        .iter()
        .any(|w| w.get("name").and_then(Value::as_str) == Some(workload))
    {
        return Err(format!("{workload} is no benchmark workload"));
    }
    count(row, "seed")?;
    count(row, "seconds")?;
    let metric = text(row, "metric")?;
    let metrics = field(declaration, "end_to_end")?.as_array().unwrap_or(&[]);
    let declared = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
        .ok_or_else(|| format!("{metric} is no end-to-end metric"))?;
    let lower_is_better = match text(declared, "better")? {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("{metric} is better {other:?}")),
    };

    let (pairs, won) = (count(row, "pairs")?, count(row, "won")?);
    if pairs == 0 || won > pairs {
        return Err(format!("won {won} of {pairs} pairs"));
    }
    let (parent_median, median) = (number(row, "parent_median")?, number(row, "median")?);
    let (parent_iqr, iqr) = (number(row, "parent_iqr")?, number(row, "iqr")?);
    if parent_iqr < 0.0 || iqr < 0.0 {
        return Err("a negative interquartile range".into());
    }

    let (before, after) = (exact(row, "parent_exact")?, exact(row, "exact")?);
    if before != after {
        text(row, "exact_moved")
            .map_err(|_| format!("exact columns moved ({before:?} -> {after:?}) with no reason"))?;
    }

    let claimed = field(row, "claimed_gain")?
        .as_bool()
        .ok_or("`claimed_gain` is not a bool")?;
    if claimed {
        if pairs < 10 || 10 * won < 9 * pairs {
            return Err(format!("a claimed gain won only {won} of {pairs} pairs"));
        }
        let gain = if lower_is_better {
            parent_median - median
        } else {
            median - parent_median
        };
        if gain <= parent_iqr {
            return Err(format!(
                "a claimed gain of {gain} is inside the parent's IQR {parent_iqr}"
            ));
        }
    }
    Ok(())
}

fn rows(doc: &Value) -> &[Value] {
    doc.get("rows")
        .and_then(Value::as_array)
        .expect("a `rows` array")
}

/// `row` with `key` set to `value`.
fn with(row: &Value, key: &str, value: Value) -> Value {
    let mut row = row.clone();
    if let Value::Object(map) = &mut row {
        map.insert(key.to_string(), value);
    }
    row
}

#[test]
fn every_committed_row_keeps_its_exact_columns_and_earns_its_claim() {
    let (doc, declaration) = (trajectory(), declaration());
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("garfield-bench/e2e-v1")
    );
    let rows = rows(&doc);
    assert!(!rows.is_empty());
    let mut keys = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if let Err(why) = check_row(row, &declaration) {
            panic!("row {i}: {why}");
        }
        let key = ["pr", "workload", "seed", "metric"].map(|k| format!("{:?}", row.get(k)));
        assert!(!keys.contains(&key), "row {i} repeats {key:?}");
        keys.push(key);
    }
    assert!(
        rows.iter()
            .any(|r| r.get("claimed_gain") == Some(&Value::Bool(true))),
        "no row claims a gain"
    );
}

#[test]
fn a_weak_or_inexact_row_is_refused() {
    let (doc, declaration) = (trajectory(), declaration());
    let claim = rows(&doc)
        .iter()
        .find(|r| r.get("claimed_gain") == Some(&Value::Bool(true)))
        .expect("a claimed row");
    assert!(check_row(claim, &declaration).is_ok());

    let half_won = with(claim, "won", Value::Number(5.0));
    assert!(check_row(&half_won, &declaration).is_err());
    let parent_median = claim.get("parent_median").cloned().unwrap();
    let no_move = with(claim, "median", parent_median);
    assert!(check_row(&no_move, &declaration).is_err());
    let unclaimed = with(&half_won, "claimed_gain", Value::Bool(false));
    assert!(check_row(&unclaimed, &declaration).is_ok());

    let parent_exact = claim.get("parent_exact").unwrap();
    let moved = with(
        parent_exact,
        "model_fingerprint",
        Value::String("0123456789abcdef".into()),
    );
    let inexact = with(claim, "exact", moved);
    assert!(check_row(&inexact, &declaration).is_err());
    let explained = with(
        &inexact,
        "exact_moved",
        Value::String("a deliberate change of summation order".into()),
    );
    assert!(check_row(&explained, &declaration).is_ok());

    let unknown = with(claim, "workload", Value::String("ssmw_gpu".into()));
    assert!(check_row(&unknown, &declaration).is_err());
}
