//! Property tests for the JSON substrate: writer/parser round trips over
//! arbitrary value trees, parser robustness on arbitrary bytes, and
//! streaming mask/nesting agreement with the parser.

use proptest::prelude::*;
use rfjson_jsonstream::frame::{shard_ranges, split_records};
use rfjson_jsonstream::write::to_string;
use rfjson_jsonstream::{parse, StreamTracker, Value};

/// Strategy for arbitrary JSON value trees (finite numbers only — JSON
/// cannot carry NaN/Inf).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1.0e12f64..1.0e12).prop_map(|n| Value::Number((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _\\\\\"\\n\\t{}\\[\\],:]{0,12}".prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..5)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect())),
        ]
    })
}

proptest! {
    #[test]
    fn write_parse_round_trip(v in value_strategy()) {
        let text = to_string(&v);
        let back = parse(text.as_bytes()).expect("writer output must parse");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..120)) {
        // Must return Ok or Err, never panic or loop.
        let _ = parse(&bytes);
    }

    #[test]
    fn parser_position_within_input(bytes in prop::collection::vec(any::<u8>(), 0..60)) {
        if let Err(e) = parse(&bytes) {
            prop_assert!(e.position <= bytes.len());
        }
    }

    #[test]
    fn nesting_returns_to_zero_on_valid_json(v in value_strategy()) {
        let text = to_string(&v);
        let mut t = StreamTracker::new();
        for b in text.bytes() {
            t.on_byte(b);
        }
        prop_assert_eq!(t.state(), (false, false, 0));
    }

    #[test]
    fn nesting_depth_bounded_by_structure(v in value_strategy()) {
        fn depth_of(v: &Value) -> u32 {
            match v {
                Value::Array(items) => {
                    1 + items.iter().map(depth_of).max().unwrap_or(0)
                }
                Value::Object(members) => {
                    1 + members.iter().map(|(_, x)| depth_of(x)).max().unwrap_or(0)
                }
                _ => 0,
            }
        }
        let text = to_string(&v);
        let structural = depth_of(&v);
        let mut t = StreamTracker::new();
        let max_seen = text.bytes().map(|b| t.on_byte(b).depth).max().unwrap_or(0);
        prop_assert_eq!(max_seen, structural);
    }

    #[test]
    fn framing_reassembles_any_chunking(
        records in prop::collection::vec("[a-z0-9{}:\",]{1,20}", 1..8),
        chunk in 1usize..16,
    ) {
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(r.as_bytes());
            stream.push(b'\n');
        }
        // Whole-buffer splitting:
        let split: Vec<Vec<u8>> = split_records(&stream).map(<[u8]>::to_vec).collect();
        prop_assert_eq!(split.len(), records.len());
        // The same records, reassembled from any number of record-aligned
        // shards:
        let got: Vec<Vec<u8>> = shard_ranges(&stream, chunk)
            .into_iter()
            .flat_map(|r| split_records(&stream[r]).map(<[u8]>::to_vec).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(got, split);
    }

    #[test]
    fn duplicate_free_object_lookup(pairs in prop::collection::vec(("[a-f]{1,3}", 0i64..100), 0..6)) {
        let v = Value::Object(
            pairs.iter().map(|(k, n)| (k.clone(), Value::Number(*n as f64))).collect(),
        );
        for (k, n) in &pairs {
            // First occurrence wins.
            let first = pairs.iter().find(|(kk, _)| kk == k).map(|(_, n)| *n).unwrap();
            prop_assert_eq!(v.get(k).and_then(Value::as_f64), Some(first as f64));
            let _ = n;
        }
    }
}
