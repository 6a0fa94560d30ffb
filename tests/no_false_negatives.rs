//! Property-based tests of the raw-filter guarantee: **no false
//! negatives, ever** — plus exactness properties of the supporting
//! machinery (range automata, string masks, matchers).
//!
//! Value-anchored number tokens are held to the parser on any legal
//! spelling of the whitespace: QT- and QS1-shaped records re-serialised
//! with random JSON whitespace (space, tab, CR) around every structural
//! byte and inside every numeric string (`"v":" 25 "`), and generated
//! documents with numbers in arrays, in objects, in strings and as the
//! whole record — through the model, the engine's stream path over all
//! of them and over each record at a random word offset right after
//! another, gated and ungated, and a `MultiEngine` batch. Respelling the
//! numbers themselves (`600.0` against an integer range) and escaped
//! keys or values are known false negatives of the range grammar and of
//! the substring units, with their own fix to come, so every number here
//! keeps the spelling of its kind and no string holds an escape.

mod zoo;

use proptest::prelude::*;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::primitive::{
    exact_end_positions, DfaStringMatcher, FireFilter, SubstringMatcher, WindowMatcher,
};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{Engine, FilterBackend, IngestLimits, MultiBackend, MultiEngine, Verdict};
use rfjson_jsonstream::{parse, StreamTracker, StringMask, Value};
use rfjson_redfa::range::{NumberBounds, NumberKind};
use rfjson_redfa::Decimal;
use rfjson_riotbench::{smartcity, taxi, Query};

/// A small xorshift stream for whitespace and seams.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 33) as usize % n
    }

    /// JSON whitespace other than the separator: none half the time,
    /// else one or two of `bytes`.
    fn pad_with(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        for _ in 0..[0, 0, 1, 2][self.below(4)] {
            out.push(bytes[self.below(bytes.len())]);
        }
    }

    /// Whitespace between tokens: space, tab, CR.
    fn pad(&mut self, out: &mut Vec<u8>) {
        self.pad_with(b" \t\r", out);
    }
}

/// `record` with random JSON whitespace at both ends, around every
/// structural byte outside strings, and inside every string whose
/// content is an RFC 8259 number — spaces only there, as a raw tab or CR
/// in a string is not JSON and an escaped one is out of scope. The
/// records hold no escapes.
fn respace(record: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(record.len() * 2);
    rng.pad(&mut out);
    let mut i = 0;
    while i < record.len() {
        let b = record[i];
        if b == b'"' {
            let len = record[i + 1..]
                .iter()
                .position(|&c| c == b'"')
                .expect("closed");
            let content = &record[i + 1..i + 1 + len];
            out.push(b'"');
            if matches!(parse(content), Ok(Value::Number(_))) {
                rng.pad_with(b" ", &mut out);
                out.extend_from_slice(content);
                rng.pad_with(b" ", &mut out);
            } else {
                out.extend_from_slice(content);
            }
            out.push(b'"');
            i += len + 2;
        } else if b"{}[]:,".contains(&b) {
            rng.pad(&mut out);
            out.push(b);
            rng.pad(&mut out);
            i += 1;
        } else {
            out.push(b);
            i += 1;
        }
    }
    rng.pad(&mut out);
    out
}

/// Every record the truth selects must be accepted, for every member of
/// `exprs`: by the model, by the engine's stream path over all of them
/// and over the record alone, at a random word offset right after the
/// record before it ([`zoo::seam_stream`]) — gated by a live prefilter
/// and with it turned off — and by the batch of all members.
fn assert_no_false_negatives(
    exprs: &[Expr],
    records: &[Vec<u8>],
    truth: &dyn Fn(usize, &Value) -> bool,
    rng: &mut Rng,
) {
    let parsed: Vec<Value> = records
        .iter()
        .map(|r| parse(r).expect("legal JSON"))
        .collect();
    let stream = records.join(&b'\n');
    let batch =
        MultiEngine::compile_batch(exprs).filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    for (q, expr) in exprs.iter().enumerate() {
        let mut model = CompiledFilter::compile(expr);
        let fresh = Engine::compile(expr);
        let mut ungated = zoo::warmed(fresh.clone(), std::slice::from_ref(expr));
        let streamed =
            Engine::compile(expr).filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        let batched = batch.query_verdicts(q);
        for (r, (record, value)) in records.iter().zip(&parsed).enumerate() {
            if !truth(q, value) {
                continue;
            }
            let shown = String::from_utf8_lossy(record);
            assert!(
                model.accepts_record(record),
                "model drops {shown:?} for `{expr}`"
            );
            assert_eq!(
                streamed[r],
                Verdict::Match,
                "stream path drops {shown:?} for `{expr}`"
            );
            assert_eq!(
                batched[r],
                Verdict::Match,
                "batch drops {shown:?} for `{expr}`"
            );
            let pad = rng.below(8);
            let dirty = &records[r.saturating_sub(1)];
            let seam = zoo::seam_stream(dirty, record, pad);
            let mut gated = fresh.clone();
            for (path, engine) in [("gated", &mut gated), ("ungated", &mut ungated)] {
                let verdicts = engine.filter_stream_verdicts(&seam, IngestLimits::UNLIMITED);
                assert_eq!(
                    verdicts.last(),
                    Some(&Verdict::Match),
                    "{path} stream path at pad {pad} drops {shown:?} for `{expr}`"
                );
            }
        }
    }
}

/// Whether the parser reads a number in `lo..=hi` anywhere in `value`:
/// a number, or a string whose trimmed content is one.
fn holds_number_in(value: &Value, lo: f64, hi: f64) -> bool {
    match value {
        Value::Array(items) => items.iter().any(|v| holds_number_in(v, lo, hi)),
        Value::Object(members) => members.iter().any(|(_, v)| holds_number_in(v, lo, hi)),
        v => v.as_numeric().is_some_and(|n| (lo..=hi).contains(&n)),
    }
}

#[test]
fn respaced_query_records_are_never_dropped() {
    let mut rng = Rng(0x5EED_2022);
    for (query, records, shape) in [
        (Query::qt(), taxi::generate(31, 300), "QT"),
        (Query::qs1(), smartcity::generate(32, 300), "QS1"),
    ] {
        let exprs = [
            query_to_exprs(&query, 1).unwrap(),
            query_to_exprs(&query, 2).unwrap(),
        ];
        let mut respaced: Vec<Vec<u8>> = records
            .records()
            .iter()
            .map(|r| respace(r, &mut rng))
            .collect();
        respaced.extend(records.records().iter().cloned());
        let selected = respaced
            .iter()
            .filter(|r| query.matches(&parse(r).unwrap()))
            .count();
        assert!(selected >= 20, "{shape}: {selected} records selected");
        assert_no_false_negatives(&exprs, &respaced, &|_, v| query.matches(v), &mut rng);
    }
}

/// A SenML-ish record with controllable sensor values.
fn senml_record(temp_tenths: i32, hum_tenths: i32, aqr: i32) -> Vec<u8> {
    format!(
        concat!(
            "{{\"e\":[",
            "{{\"v\":\"{}.{}\",\"u\":\"far\",\"n\":\"temperature\"}},",
            "{{\"v\":\"{}.{}\",\"u\":\"per\",\"n\":\"humidity\"}},",
            "{{\"v\":\"{}\",\"u\":\"per\",\"n\":\"airquality_raw\"}}",
            "],\"bt\":1422748800000}}"
        ),
        temp_tenths / 10,
        (temp_tenths % 10).abs(),
        hum_tenths / 10,
        (hum_tenths % 10).abs(),
        aqr,
    )
    .into_bytes()
}

proptest! {
    /// Numbers in every place the parser reads one — array elements,
    /// member values, numeric strings, the whole record — under random
    /// whitespace, beside keys and IDs that hold digits and `e`s: an
    /// integer and a decimal range each fire wherever a number in range
    /// sits.
    #[test]
    fn anchored_ranges_fire_wherever_the_parser_reads_a_number(
        values in proptest::collection::vec((-3000i64..3000, 0usize..5, any::<bool>()), 1..8),
        lo in -1000i64..1000,
        span in 0i64..1500,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed | 1);
        let (lo, hi) = (lo, lo + span);
        // Integers for the integer range; the same values in tenths,
        // spelt as decimals, for the decimal range.
        let spell = |v: i64, decimal: bool| if decimal {
            format!("{}{}.{}", if v < 0 { "-" } else { "" }, v.abs() / 10, v.abs() % 10)
        } else {
            v.to_string()
        };
        let mut records = Vec::new();
        for decimal in [false, true] {
            let mut items = Vec::new();
            for &(v, place, _) in &values {
                let n = spell(v, decimal);
                items.push(match place {
                    0 => n,
                    1 => format!("\"{n}\""),
                    2 => format!("{{\"e1{}e\":{n}}}", v.abs() % 7),
                    3 => format!("[{n},\"7E{}\"]", v.abs() % 97),
                    _ => format!("{{\"id\":\"9{}F{n}C\",\"v\":[{n}]}}", v.abs() % 5),
                });
            }
            let doc = format!("{{\"k\":[{}]}}", items.join(","));
            records.push(respace(doc.as_bytes(), &mut rng));
            // Each value alone as the whole record, bare or quoted.
            for &(v, _, quoted) in &values {
                let n = spell(v, decimal);
                let doc = if quoted { format!("\"{n}\"") } else { n };
                records.push(respace(doc.as_bytes(), &mut rng));
            }
        }
        let exprs = [
            Expr::int_range(lo, hi),
            Expr::float_range(&spell(lo, true), &spell(hi, true)).unwrap(),
        ];
        let half = records.len() / 2;
        let truth = |q: usize, v: &Value| {
            let (lo, hi) = if q == 0 { (lo as f64, hi as f64) } else { (lo as f64 / 10.0, hi as f64 / 10.0) };
            holds_number_in(v, lo, hi)
        };
        // Integer spellings against the integer range, decimals against
        // the decimal range: a decimal against an integer range is a
        // respelling, out of scope here.
        assert_no_false_negatives(&exprs[..1], &records[..half], &truth, &mut rng);
        assert_no_false_negatives(&exprs[1..], &records[half..], &|_, v| truth(1, v), &mut rng);
    }

    /// Any record whose temperature is genuinely within range must be
    /// accepted by the structural {s1 & v} filter, whatever the other
    /// sensors do.
    #[test]
    fn structural_filter_never_drops_matches(
        temp in 7i32..=351,
        hum in 0i32..1000,
        aqr in 0i32..2000,
    ) {
        let expr = Expr::context_scoped(StructScope::Object, [
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        let mut filter = CompiledFilter::compile(&expr);
        let record = senml_record(temp, hum, aqr);
        // temp is in tenths: 7..=351 ⇒ 0.7..=35.1 inclusive.
        prop_assert!(
            filter.accepts_record(&record),
            "dropped record with temperature {}.{}",
            temp / 10, temp % 10
        );
    }

    /// Substring matchers never miss a true occurrence, for any needle,
    /// block length and haystack.
    #[test]
    fn substring_matcher_no_false_negatives(
        needle in "[a-d]{1,6}",
        haystack in "[a-e \\{\\}:,\"]{0,40}",
        b in 1usize..6,
    ) {
        let needle = needle.as_bytes();
        let b = b.min(needle.len());
        let mut m = SubstringMatcher::new(needle, b).unwrap();
        let hay = haystack.as_bytes();
        let fires = m.fire_positions(hay);
        for end in exact_end_positions(hay, needle) {
            prop_assert!(
                fires.contains(&end),
                "B={b} missed occurrence ending at {end}"
            );
        }
    }

    /// Exact matchers (DFA and window) fire exactly at true ends.
    #[test]
    fn exact_matchers_are_exact(
        needle in "[a-c]{1,5}",
        haystack in "[a-d]{0,30}",
    ) {
        let needle_b = needle.as_bytes();
        let hay = haystack.as_bytes();
        let want = exact_end_positions(hay, needle_b);
        let mut dfa = DfaStringMatcher::new(needle_b);
        let mut win = WindowMatcher::new(needle_b);
        prop_assert_eq!(dfa.fire_positions(hay), want.clone());
        prop_assert_eq!(win.fire_positions(hay), want);
    }

    /// The integer-range automaton accepts exactly the integers in range.
    #[test]
    fn int_range_dfa_exact(
        lo in 0i64..500,
        width in 0i64..500,
        probe in 0i64..1200,
    ) {
        let hi = lo + width;
        let bounds = NumberBounds::int_range(lo, hi);
        let dfa = bounds.to_dfa_exact();
        let token = probe.to_string();
        prop_assert_eq!(
            dfa.accepts(token.as_bytes()),
            probe >= lo && probe <= hi,
            "probe {} vs [{}, {}]", probe, lo, hi
        );
    }

    /// The decimal-range automaton agrees with exact decimal comparison,
    /// including negative bounds and fractional probes.
    #[test]
    fn float_range_dfa_exact(
        lo_h in -3000i64..3000,
        width_h in 0i64..4000,
        probe_h in -8000i64..8000,
    ) {
        // Work in hundredths for exact arithmetic.
        let fmt = |h: i64| {
            let sign = if h < 0 { "-" } else { "" };
            let a = h.abs();
            if a % 100 == 0 {
                format!("{sign}{}", a / 100)
            } else if a % 10 == 0 {
                format!("{sign}{}.{}", a / 100, (a / 10) % 10)
            } else {
                format!("{sign}{}.{:02}", a / 100, a % 100)
            }
        };
        let hi_h = lo_h + width_h;
        let lo: Decimal = fmt(lo_h).parse().unwrap();
        let hi: Decimal = fmt(hi_h).parse().unwrap();
        let bounds = NumberBounds::new(lo, hi, NumberKind::Float).unwrap();
        let dfa = bounds.to_dfa_exact();
        let token = fmt(probe_h);
        prop_assert_eq!(
            dfa.accepts(token.as_bytes()),
            probe_h >= lo_h && probe_h <= hi_h,
            "probe {} vs [{}, {}]", token, fmt(lo_h), fmt(hi_h)
        );
    }

    /// The streaming string mask agrees with an oracle computed from the
    /// parser's view of string literal extents on arbitrary ASCII strings
    /// embedded in JSON.
    #[test]
    fn string_mask_brackets_never_count_inside_strings(
        payload in "[a-z\\{\\}\\[\\],0-9]{0,20}",
    ) {
        // Build {"k":"<payload>","d":[1]} — payload is inside a string, so
        // whatever brackets and commas it contains, the tracker must end at
        // depth 0, the array's depth must be 2 and the one member end is
        // the comma after the payload's string.
        let record = format!("{{\"k\":\"{payload}\",\"d\":[1]}}");
        let mut t = StreamTracker::new();
        let infos: Vec<_> = record.bytes().map(|b| t.on_byte(b)).collect();
        prop_assert_eq!(t.state().2, 0);
        // The '1' inside the array sits at depth 2.
        let one_pos = record.rfind('1').unwrap();
        prop_assert_eq!(infos[one_pos].depth, 2);
        let commas: Vec<usize> = (0..infos.len()).filter(|&i| infos[i].is_comma).collect();
        prop_assert_eq!(commas, vec![payload.len() + 7]);
    }

    /// Escape chains of any length are tracked correctly: a string
    /// containing n backslashes before a quote stays open iff n is odd.
    #[test]
    fn escape_chains(n_backslashes in 0usize..12) {
        let mut s = String::from("\"");
        for _ in 0..n_backslashes {
            s.push('\\');
        }
        s.push('"');
        let mut m = StringMask::new();
        for b in s.bytes() {
            m.on_byte(b);
        }
        prop_assert_eq!(m.in_string(), n_backslashes % 2 == 1);
    }

    /// Composed AND filters: accept implies every conjunct would accept
    /// alone (monotonicity of composition).
    #[test]
    fn and_composition_monotone(
        a_lo in 0i64..50,
        b_lo in 0i64..50,
        value in 0i64..100,
    ) {
        let ea = Expr::int_range(a_lo, a_lo + 25);
        let eb = Expr::int_range(b_lo, b_lo + 25);
        let eand = Expr::and([ea.clone(), eb.clone()]);
        let record = format!("{{\"x\":{value}}}").into_bytes();
        let and_accepts = CompiledFilter::compile(&eand).accepts_record(&record);
        let a_accepts = CompiledFilter::compile(&ea).accepts_record(&record);
        let b_accepts = CompiledFilter::compile(&eb).accepts_record(&record);
        prop_assert_eq!(and_accepts, a_accepts && b_accepts);
    }

    /// The paper's running example (Listing 2's query on Listing 1-shaped
    /// records), checked against **all four** primitive matchers: the
    /// structural `{string & number}` filter is built once per string
    /// technique — (i) DFA matcher, (ii) window matcher, (iii) substring
    /// matcher — each combined with the (iv) number-range matcher, and
    /// none of them may ever drop a genuinely matching record.
    #[test]
    fn running_example_all_four_matchers(
        temp in 7i32..=351,
        hum in 0i32..1000,
        aqr in 0i32..2000,
        b in 1usize..4,
    ) {
        let string_variants: [(&str, Expr); 3] = [
            ("dfa", Expr::dfa_string(b"temperature").unwrap()),
            ("window", Expr::window(b"temperature").unwrap()),
            ("substring", Expr::substring(b"temperature", b).unwrap()),
        ];
        let record = senml_record(temp, hum, aqr);
        for (name, string_expr) in string_variants {
            // Listing 2: { s("temperature") & v(0.7 <= f <= 35.1) } — the
            // number matcher is the fourth primitive, present in every
            // variant.
            let expr = Expr::context_scoped(StructScope::Object, [
                string_expr,
                Expr::float_range("0.7", "35.1").unwrap(),
            ]);
            let mut filter = CompiledFilter::compile(&expr);
            // temp is in tenths: 7..=351 ⇒ 0.7..=35.1 inclusive, so the
            // record genuinely matches and must never be filtered out.
            prop_assert!(
                filter.accepts_record(&record),
                "{name} matcher dropped record with temperature {}.{}",
                temp / 10, temp % 10
            );
        }
    }

    /// OR filters accept iff some branch accepts (no pruning possible).
    #[test]
    fn or_composition_exact(
        value in 0i64..100,
    ) {
        let ea = Expr::int_range(0, 20);
        let eb = Expr::int_range(60, 80);
        let eor = Expr::or([ea.clone(), eb.clone()]);
        let record = format!("{{\"x\":{value}}}").into_bytes();
        let or_accepts = CompiledFilter::compile(&eor).accepts_record(&record);
        let a = CompiledFilter::compile(&ea).accepts_record(&record);
        let b = CompiledFilter::compile(&eb).accepts_record(&record);
        prop_assert_eq!(or_accepts, a || b);
    }
}
