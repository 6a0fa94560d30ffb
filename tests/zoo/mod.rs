//! The expression zoo and adversarial records shared by the engine's
//! differential suites (`engine_diff.rs`: the record path; `stream_diff.rs`:
//! the stream path).

use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::query::query_to_exprs;
use rfjson_riotbench::Query;

/// Expressions covering every primitive technique, every combinator,
/// both structural scopes, and nesting of contexts.
pub fn expression_zoo() -> Vec<Expr> {
    vec![
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
        Expr::substring(b"dust", 4).unwrap(),
        Expr::substring(b"favourites_count", 9).unwrap(), // wide blocks (B > 8)
        // Mixed block lengths in one program: one automaton, three lanes.
        Expr::or([
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"total_amount", 3).unwrap(),
            Expr::substring(b"favourites_count", 9).unwrap(),
        ]),
        Expr::window(b"light").unwrap(),
        Expr::dfa_string(b"humidity").unwrap(),
        Expr::int_range(12, 49),
        Expr::float_range("-12.5", "43.1").unwrap(),
        Expr::and([
            Expr::substring(b"light", 1).unwrap(),
            Expr::int_range(1345, 26282),
        ]),
        Expr::or([
            Expr::substring(b"cat", 1).unwrap(),
            Expr::substring(b"dog", 1).unwrap(),
        ]),
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        ),
        query_to_exprs(&Query::qs0(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 2).unwrap(),
        // Context nested under OR nested under context.
        Expr::context([
            Expr::or([
                Expr::context([Expr::substring(b"n", 1).unwrap(), Expr::int_range(0, 9)]),
                Expr::window(b"dust").unwrap(),
            ]),
            Expr::float_range("0.5", "1.5").unwrap(),
        ]),
        // Context-free ranges: no classifier, no structural events.
        Expr::or([
            Expr::int_range(12, 49),
            Expr::float_range("0.7", "35.1").unwrap(),
            Expr::int_range(-5, 5),
        ]),
        // The same bounds twice in one group: one unit, two leaves.
        Expr::and([
            Expr::context([
                Expr::substring(b"v", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::context([
                Expr::substring(b"n", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
        ]),
        // Multi-word latch bitsets: byte-serial, same number automaton.
        many_ranges(),
    ]
}

/// 70 unit ranges under one `Or`: 71 nodes.
pub fn many_ranges() -> Expr {
    Expr::Or((0..70).map(|i| Expr::int_range(i, i + 1)).collect())
}

/// The edge-case records of tests/edge_cases.rs and more: escapes,
/// hostile bracket soup, deep nesting, truncation, binary garbage, and
/// number tokens at every kind of boundary.
pub fn adversarial_records() -> Vec<&'static [u8]> {
    vec![
        b"",
        b"   ",
        b"{}",
        b"null",
        br#"{"e":[{"v":"21.0","n":"temperature""#,
        b"}}}}]]]]",
        b"{{{{",
        br#""temperature" 21.0"#,
        b"\xff\xfe\x00\x01",
        br#"{"e":[{"u":"}{][","v":"21.0","n":"temperature"}],"bt":1}"#,
        br#"{"e":[{"u":"a\"}b","v":"21.0","n":"temperature"}],"bt":1}"#,
        br#"{"data":{"batch":[[{"readings":[{"v":"20.0","n":"temperature"}]}]]}}"#,
        br#"{"e":[{"n":"temperature","v":"99"},{"n":"other","v":"20.0"}],"bt":5}"#,
        br#"{"x":1,"y":7}"#,
        br#"{"a":1,"x_late":7}"#,
        b"[15,99]",
        b"[1.5e1]",
        br#"{"k":"\\","j":"\\\""}"#,
        // Number tokens: ending on the record's last byte (the separator
        // fires them), exponent- and sign-only, spanning two words, and
        // back to back with only a separator between.
        br#"{"n":"v","v":21"#,
        b"[3",
        b"e,E,-,+,.,-e",
        br#"{"v":0.00000000000000021,"n":7}"#,
        b"[12,13,14,1,5,33.3,4]",
        br#"{"v":"35.1","n":"12"},{"v":"35.2","n":"x"}"#,
        // Where the word kernel runs the program on fires gathered since
        // the last structural byte. A fire before an open: the inner
        // close must not end the outer instance. Number tokens ending on
        // an open: their fire starts an instance at the inner depth,
        // which the inner close ends. Several fires inside one string,
        // an open, and the member's value before its comma. Fires with
        // no structural byte after them. Tokens ending on a member-scoped
        // comma, on a close, and on the separator.
        br#"{"n":"temperature","x":{"a":"b"},"v":21.0}"#,
        br#"{"v":21{"x":"y"},"n":"temperature"}"#,
        br#"{"v":[21["x"],"n":"temperature"]}"#,
        br#"{"k":"tolls_amount tolls_amount"[{"a":"b"}]5.33,"v":1}"#,
        br#"{"e":[{"n":"temperature","v":"21.0 7 12 "#,
        br#"{"total_amount":1,"tolls_amount":7.5}"#,
        br#"{"tolls_amount":7.5,"fare_amount":9}"#,
        br#"{"n":"temperature","v":21.0"#,
    ]
}
