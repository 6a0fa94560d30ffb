//! The expression zoo and adversarial records shared by the engine's
//! differential suites (`engine_diff.rs`: the stream path record by
//! record; `stream_diff.rs`: the stream path;
//! `multi_diff.rs`: batches; `telemetry_invariants.rs`: the kernel's byte
//! law; `cosim.rs`: the netlists), and the seam check they share with
//! `block_automaton_equiv.rs`, `no_false_negatives.rs` and
//! `reset_regression.rs`: the stream
//! path, record by record, at every word offset right after another
//! record, against the byte-serial oracle ([`assert_engine_seams`],
//! [`assert_batch_seams`]).

#![allow(dead_code)] // each suite uses its own part of the zoo

use rfjson_core::backend::{run_verdict_driver, Lane};
use rfjson_core::expr::{Expr, NumberTechnique, StructScope};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{Engine, IngestLimits, MultiEngine};
use rfjson_riotbench::{taxi, Query};
use std::fmt::Debug;

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
    .into_iter()
    .chain(anchoring_exprs())
    .collect()
}

/// The paper's token technique beside the anchored one that
/// `Expr::int_range` and `query_to_exprs` build: alone, in contexts, as
/// a whole query, and both techniques over the same bounds in one
/// program (two automata, one per technique).
pub fn anchoring_exprs() -> Vec<Expr> {
    let token = |e: Expr| e.with_number_technique(NumberTechnique::Token);
    vec![
        token(Expr::int_range(12, 49)),
        token(Expr::float_range("-12.5", "43.1").unwrap()),
        token(query_to_exprs(&Query::qt(), 2).unwrap()),
        Expr::and([
            Expr::context([
                Expr::substring(b"v", 1).unwrap(),
                token(Expr::int_range(12, 49)),
            ]),
            Expr::or([Expr::int_range(12, 49), Expr::int_range(140, 3155)]),
        ]),
        // A context-free anchored program: anchors without the string mask.
        Expr::or([
            Expr::int_range(140, 3155),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]),
    ]
}

/// Records where anchoring decides, for ranges like `12 ≤ i ≤ 49` and
/// `140 ≤ i ≤ 3155`: numbers at the record's start and end and a record
/// that is one bare number; after `[`, after whitespace and inside padded
/// quotes; a hex ID; key names with `e`; unanchored ends; and a token
/// whose unanchored start sits at every word offset — `x121` (its `21`
/// in range if the clear stopped at the start byte) before an anchored
/// `,21` that the walk must still find.
pub fn anchoring_records() -> Vec<Vec<u8>> {
    let mut records: Vec<Vec<u8>> = [
        &b"21"[..],
        b"21 ",
        b" 21",
        b"[21,-3.5e1, 40]",
        br#"{"v":[ 21 ,13]}"#,
        br#"{"v": 21}"#,
        b"{\"v\":\"\t21 \"}",
        b"{\"v\":\" 700\r\"}",
        br#"{"medallion":"96F7E95C"}"#,
        br#"{"medallion":"96F7E95C","trip_time_in_secs":99}"#,
        br#"{"e12e":"x","temp13e":5e,"e":"e"}"#,
        br#"{"v":21kg}"#,
        br#"{"v":"21kg"}"#,
        b"21x",
        br#"{"pickup_datetime":"2013-01-01 15:11:48","tolls_amount":"x5.0"}"#,
    ]
    .iter()
    .map(|r| r.to_vec())
    .collect();
    for offset in 0..8 {
        let mut record = vec![b'a'; offset];
        record.extend_from_slice(b"x121,21]");
        records.push(record);
        let mut record = vec![b'a'; offset];
        record.extend_from_slice(b"x12121212121212,1200}");
        records.push(record);
    }
    records
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

/// The keys every Taxi record holds: eight with a number, five with a
/// string.
const TAXI_KEYS: [&str; 13] = [
    "trip_time_in_secs",
    "trip_distance",
    "fare_amount",
    "surcharge",
    "mta_tax",
    "tip_amount",
    "tolls_amount",
    "total_amount",
    "medallion",
    "hack_license",
    "vendor_id",
    "pickup_datetime",
    "payment_type",
];

/// An `And` of `n` member contexts `{sB(key) & v(0 ≤ f ≤ 100000 + i)}`
/// over [`TAXI_KEYS`] round robin: `n` distinct number units,
/// `min(n, 13)` distinct key units and `3n + 1` nodes — past eight
/// attributes a second bank of key lanes, past 21 a second latch word.
pub fn taxi_attributes(n: usize, b: usize) -> Expr {
    Expr::and((0..n).map(|i| {
        let key = TAXI_KEYS[i % TAXI_KEYS.len()].as_bytes();
        let high = format!("{}", 100_000 + i);
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(key, b).unwrap(),
                Expr::float_range("0", &high).unwrap(),
            ],
        )
    }))
}

/// An `Or` of the member contexts `{sB(key) & v(10 i ≤ n ≤ 10 i + 9)}`
/// over all of [`TAXI_KEYS`]: thirteen key units — at `b = 1` the last
/// five in a second bank of lanes — each beside a range that no other
/// key's holds, so a lane that fires another lane's nodes changes the
/// verdict of a record with its key alone ([`one_key_records`]).
pub fn taxi_alternatives(b: usize) -> Expr {
    Expr::or(TAXI_KEYS.iter().enumerate().map(|(i, key)| {
        let low = 10 * i as i64;
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(key.as_bytes(), b).unwrap(),
                Expr::int_range(low, low + 9),
            ],
        )
    }))
}

/// One record per key of [`TAXI_KEYS`] that holds that key alone, with a
/// value in its range of [`taxi_alternatives`], and one with a value in
/// the next key's range: every key lane fires alone, in either bank.
pub fn one_key_records() -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    for (i, key) in TAXI_KEYS.iter().enumerate() {
        for value in [10 * i + 5, 10 * i + 15] {
            records.push(format!("{{\"{key}\":{value}}}").into_bytes());
        }
    }
    records
}

/// `len` bytes of the text `ab,ab,…`: every window of it is a block of
/// any needle cut from it.
pub fn run_text(len: usize) -> Vec<u8> {
    b"ab,".iter().copied().cycle().take(len).collect()
}

/// A 600-byte needle whose B = 300 table alone is past the table cap.
pub fn big_needle() -> Vec<u8> {
    (0..600u32).map(|i| b'a' + (i * i % 23) as u8).collect()
}

/// A pseudo-random needle over twenty letters.
pub fn random_needle(seed: u32, len: usize) -> Vec<u8> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        b'a' + (x >> 16) as u8 % 20
    };
    (0..len).map(|_| next()).collect()
}

/// Two B = 20 units whose tables fit the cap alone but not together: a
/// pool that splits into two automata.
pub fn split_pool() -> Expr {
    Expr::or([
        Expr::substring(&random_needle(1, 110), 20).unwrap(),
        Expr::substring(&random_needle(2, 110), 20).unwrap(),
    ])
}

/// Programs at the edges of the lane layout: past a bank of B = 1 or
/// B ≥ 2 lanes and past one latch word (the Taxi attribute queries at
/// b = 1 and b = 2, and the thirteen alternatives whose key lanes fire
/// alone), a run target past the packed counters, a unit whose table
/// alone is past the cap (a reference lane), a pool that splits into two
/// automata, and units that see `\n`.
pub fn wide_programs() -> Vec<Expr> {
    let mut exprs = Vec::new();
    for n in [9, 16, 22, 32] {
        for b in [1, 2] {
            exprs.push(taxi_attributes(n, b));
        }
    }
    exprs.extend([taxi_alternatives(1), taxi_alternatives(2)]);
    let long = Expr::substring(&run_text(130), 1).unwrap(); // run target 130
    exprs.push(long.clone());
    exprs.push(Expr::context([long, Expr::int_range(7, 7)]));
    exprs.push(Expr::substring(&big_needle(), 300).unwrap());
    exprs.push(split_pool());
    exprs.push(Expr::or([
        Expr::substring(b"a\nb", 1).unwrap(),
        Expr::substring(b"ab\ncd", 2).unwrap(),
        Expr::dfa_string(b"x\ny").unwrap(),
    ]));
    exprs.push(Expr::and([
        Expr::substring(b"a\nb", 1).unwrap(),
        Expr::int_range(40, 49),
    ]));
    exprs.push(Expr::substring(b"ab\ncd", 2).unwrap());
    exprs.push(Expr::dfa_string(b"x\ny").unwrap());
    exprs
}

/// Records that make the wide programs fire and miss: Taxi records,
/// records with one Taxi key each ([`one_key_records`]), runs of
/// [`run_text`] around 130 bytes, the big needle and one byte
/// short of it, the split pool's needles whole and cut over two records,
/// and the pieces of the `\n` needles.
pub fn wide_program_records() -> Vec<Vec<u8>> {
    let mut records = taxi::generate(94, 6).records().to_vec();
    records.extend(one_key_records());
    for run in [125, 129, 130, 131, 300] {
        let mut record = b"{\"k\":\"".to_vec();
        record.extend_from_slice(&run_text(run));
        record.extend_from_slice(b"\",\"v\":7}");
        records.push(record);
    }
    let big = big_needle();
    for needle in [
        &big[..],
        &big[1..],
        &random_needle(1, 110),
        &random_needle(2, 109),
    ] {
        let mut record = b"{\"k\":\"".to_vec();
        record.extend_from_slice(needle);
        record.extend_from_slice(b"\",\"v\":45}");
        records.push(record);
    }
    // The second split-pool needle cut over two records: a unit must not
    // run on across a record boundary.
    let cut = random_needle(2, 110);
    records.push([&b"{\"k\":\""[..], &cut[..19]].concat());
    records.push([&cut[19..], &b"\"}"[..]].concat());
    records.push(br#"{"k":"xa","v":44}"#.to_vec());
    records.push(br#"b{"k":"cd","x":"y"}"#.to_vec());
    records
}

/// Every literal of `exprs`, space-separated.
pub fn literals(exprs: &[Expr]) -> Vec<u8> {
    fn visit(expr: &Expr, out: &mut Vec<u8>) {
        match expr {
            Expr::Str(spec) => {
                out.extend_from_slice(&spec.needle);
                out.push(b' ');
            }
            Expr::Num(..) => {}
            Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
                for c in cs {
                    visit(c, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    for e in exprs {
        visit(e, &mut out);
    }
    out
}

/// `lane` after a probation window of records that hold every literal of
/// `exprs`: its prefilters have turned themselves off, unless a literal
/// holds a `\n`.
pub fn warmed<L: Lane>(mut lane: L, exprs: &[Expr]) -> L {
    let mut record = b"{\"w\":\"".to_vec();
    record.extend(literals(exprs));
    record.extend_from_slice(b"\"}\n");
    let window = record.repeat(Engine::PREFILTER_PROBATION as usize);
    let mut out = lane.new_verdicts();
    lane.scan_stream(&window, IngestLimits::UNLIMITED, &mut out);
    lane
}

/// `record` right after `dirty` and its separator, behind `pad` spaces:
/// over the pads 0–7 the record starts at every word offset, where the
/// kernel meets it straight after a separator ended a record in full
/// swing. An odd pad leaves the record without its own separator, for
/// the padded last word to close.
pub fn seam_stream(dirty: &[u8], record: &[u8], pad: usize) -> Vec<u8> {
    let mut stream = vec![b' '; pad];
    stream.extend_from_slice(dirty);
    stream.push(b'\n');
    stream.extend_from_slice(record);
    if pad.is_multiple_of(2) {
        stream.push(b'\n');
    }
    stream
}

/// The stream path of `lane` against the byte-serial oracle compiled from
/// `source`, record by record: each of `records` after the one before it
/// (the first after none) at the pads 0–7 of [`seam_stream`], through a
/// fresh copy of `lane` per record, whose live prefilters gate the
/// records in front of the kernel, and through a copy [`warmed`] past
/// probation, whose kernel runs across the separator.
fn assert_stream_seams<L>(
    lane: &L,
    source: &L::Source,
    exprs: &[Expr],
    records: &[impl AsRef<[u8]>],
) where
    L: Lane + Clone,
    L::Verdicts: PartialEq + Debug,
{
    let shown = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let what: Vec<String> = exprs.iter().map(|e| format!("`{e}`")).collect();
    let mut ungated = warmed(lane.clone(), exprs);
    let mut oracle = L::Reference::compile_lane(source).expect("the source compiles");
    let mut dirty: &[u8] = b"";
    for record in records {
        let record = record.as_ref();
        let mut gated = lane.clone();
        for pad in 0..8 {
            let stream = seam_stream(dirty, record, pad);
            let mut want = oracle.new_verdicts();
            run_verdict_driver(&mut oracle, &stream, IngestLimits::UNLIMITED, &mut want);
            for (path, lane) in [("gated", &mut gated), ("ungated", &mut ungated)] {
                let mut got = lane.new_verdicts();
                lane.scan_stream(&stream, IngestLimits::UNLIMITED, &mut got);
                assert_eq!(
                    got,
                    want,
                    "{} on the {path} stream path at pad {pad}: {:?} after {:?}",
                    what.join(", "),
                    shown(record),
                    shown(dirty)
                );
            }
        }
        dirty = record;
    }
}

/// [`assert_stream_seams`] of `expr`'s [`Engine`].
pub fn assert_engine_seams(expr: &Expr, records: &[impl AsRef<[u8]>]) {
    let exprs = std::slice::from_ref(expr);
    assert_stream_seams(&Engine::compile(expr), expr, exprs, records);
}

/// [`assert_stream_seams`] of the [`MultiEngine`] of `exprs`, against the
/// byte-serial model of each query.
pub fn assert_batch_seams(exprs: &[Expr], records: &[impl AsRef<[u8]>]) {
    assert_stream_seams(&MultiEngine::compile_batch(exprs), exprs, exprs, records);
}
