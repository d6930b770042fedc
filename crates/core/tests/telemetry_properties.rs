//! Property tests for telemetry JSON emission.
//!
//! The regression being pinned: `TrainingTrace::to_json` must route every
//! number through `garfield_core::json`, so a diverged run's NaN loss or an
//! infinite timing serializes as `null` (the `serde_json` convention) rather
//! than the invalid literals `NaN`/`inf` that ad-hoc `write!("{}")`
//! formatting produces. Every emitted document must therefore (a) parse as
//! well-formed JSON and (b) round-trip: finite values exactly, non-finite
//! values as `null`.

use garfield_core::json;
use garfield_core::{AccuracyPoint, IterationTiming, TrainingTrace};
use proptest::prelude::*;

/// Maps a selector to a float from the awkward corners of the f64 space:
/// non-finites, signed zeros, subnormals, extremes — or the plain finite
/// value for the common case.
fn special_f64(sel: u8, finite: f64) -> f64 {
    match sel % 10 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE / 4.0, // subnormal
        6 => f64::MAX,
        7 => f64::MIN_POSITIVE,
        _ => finite,
    }
}

fn special_f32(sel: u8, finite: f32) -> f32 {
    special_f64(sel, finite as f64) as f32
}

/// The number field `key` of `item` as written: finite values exactly,
/// `None` for the `null` that stands for every non-finite input.
fn read(item: &json::Value, key: &str) -> Option<f64> {
    match item.get(key).expect("every field is written") {
        json::Value::Null => None,
        value => Some(value.as_f64().expect("a number or null")),
    }
}

fn roundtrips_f64(written: f64, read: Option<f64>) -> bool {
    match read {
        Some(read) => written.is_finite() && written.to_bits() == read.to_bits(),
        None => !written.is_finite(),
    }
}

fn roundtrips_f32(written: f32, read: Option<f64>) -> bool {
    roundtrips_f64(f64::from(written), read.map(|v| f64::from(v as f32)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_json_round_trips_any_float_including_non_finite(
        timings in proptest::collection::vec(
            ((0u8..10, 0u8..10, 0u8..10), (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6)),
            0..6,
        ),
        points in proptest::collection::vec(
            (
                0usize..1000,
                (0u8..10, 0u8..10, 0u8..10),
                (0.0f64..1e6, 0.0f32..1.0, 0.0f32..100.0),
            ),
            0..6,
        ),
        batch in 0usize..10_000,
        system_letters in proptest::collection::vec(0u8..26, 1..8),
    ) {
        let system: String = system_letters.iter().map(|c| (b'a' + c) as char).collect();
        let mut trace = TrainingTrace::new(system.clone(), batch);
        for ((s1, s2, s3), (a, b, c)) in &timings {
            trace.iterations.push(IterationTiming {
                computation: special_f64(*s1, *a),
                communication: special_f64(*s2, *b),
                aggregation: special_f64(*s3, *c),
            });
        }
        for (iteration, (s1, s2, s3), (t, acc, loss)) in &points {
            trace.accuracy.push(AccuracyPoint {
                iteration: *iteration,
                sim_time: special_f64(*s1, *t),
                accuracy: special_f32(*s2, *acc),
                loss: special_f32(*s3, *loss),
            });
        }

        let text = trace.to_json();
        // (a) The emission is well-formed JSON no matter what floats went in.
        let doc = json::parse(&text);
        prop_assert!(doc.is_ok(), "emitted invalid JSON: {text}");
        let doc = doc.unwrap();

        // (b) It preserves every value (non-finite ↦ null).
        prop_assert_eq!(doc.get("system").and_then(json::Value::as_str), Some(system.as_str()));
        let effective_batch = doc.get("effective_batch").and_then(json::Value::as_usize);
        prop_assert_eq!(effective_batch, Some(batch));
        let list = |key| doc.get(key).and_then(json::Value::as_array).unwrap();
        prop_assert_eq!(list("iterations").len(), trace.iterations.len());
        prop_assert_eq!(list("accuracy").len(), trace.accuracy.len());
        for (w, r) in trace.iterations.iter().zip(list("iterations")) {
            prop_assert!(roundtrips_f64(w.computation, read(r, "computation")));
            prop_assert!(roundtrips_f64(w.communication, read(r, "communication")));
            prop_assert!(roundtrips_f64(w.aggregation, read(r, "aggregation")));
        }
        for (w, r) in trace.accuracy.iter().zip(list("accuracy")) {
            prop_assert_eq!(read(r, "iteration"), Some(w.iteration as f64));
            prop_assert!(roundtrips_f64(w.sim_time, read(r, "sim_time")));
            prop_assert!(roundtrips_f32(w.accuracy, read(r, "accuracy")));
            prop_assert!(roundtrips_f32(w.loss, read(r, "loss")));
        }
    }

    #[test]
    fn write_value_emission_always_reparses_to_the_same_value(
        numbers in proptest::collection::vec((0u8..10, -1e9f64..1e9), 0..8),
        strings in proptest::collection::vec(
            // Printable ASCII, including the quote/backslash escaping cases.
            proptest::collection::vec(32u8..127, 0..12),
            0..4,
        ),
    ) {
        use garfield_core::json::Value;
        let mut items: Vec<Value> = numbers
            .iter()
            .map(|(sel, v)| Value::Number(special_f64(*sel, *v)))
            .collect();
        items.extend(
            strings
                .iter()
                .map(|bytes| Value::String(bytes.iter().map(|&b| b as char).collect())),
        );
        let doc = Value::Array(items);

        let mut text = String::new();
        json::write_value(&mut text, &doc);
        let back = json::parse(&text).unwrap();

        match (&doc, &back) {
            (Value::Array(written), Value::Array(read)) => {
                prop_assert_eq!(written.len(), read.len());
                for (w, r) in written.iter().zip(read.iter()) {
                    match (w, r) {
                        // Non-finite numbers degrade to null by design.
                        (Value::Number(n), Value::Null) => prop_assert!(!n.is_finite()),
                        (Value::Number(w), Value::Number(r)) => {
                            prop_assert!(roundtrips_f64(*w, Some(*r)));
                        }
                        (w, r) => prop_assert_eq!(w, r),
                    }
                }
            }
            _ => prop_assert!(false, "array did not reparse as array"),
        }
    }
}
