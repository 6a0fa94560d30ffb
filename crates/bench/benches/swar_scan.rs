//! Criterion: the SWAR word-at-a-time kernels against their byte-serial
//! counterparts — the newline hop and the per-word classifier +
//! string-mask resolution (`classify_word`, a view of the kernel's
//! classifier: one `class_masks` read of `STRUCTURE_CLASSES` per word) —
//! then literal containment, the record-level literal prefilter, the
//! engine end to end on its stream path, the word kernel over the whole
//! buffer (the `…/block` rows), and the engine's stream path over Taxi
//! records as its program widens (`engine_wide/N`: an `And` of `N`
//! attribute pairs).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rfjson_core::engine::Engine;
use rfjson_core::prefilter::Prefilter;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{Expr, FilterBackend, IngestLimits, StructScope};
use rfjson_jsonstream::swar::{
    self, classify_word, load_word, string_mask_word, StringState, WORD_BYTES,
};
use rfjson_jsonstream::{classify, ByteClass, StringMask};
use rfjson_riotbench::{smartcity_corpus, taxi_corpus, Query};
use std::hint::black_box;

fn swar_scan(c: &mut Criterion) {
    let stream = smartcity_corpus(2000).stream();
    let mut group = c.benchmark_group("swar_scan");
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.sample_size(15);

    group.bench_function("newline_hop/byte", |b| {
        b.iter(|| {
            let mut n = 0usize;
            let mut rest = black_box(&stream[..]);
            while let Some(p) = rest.iter().position(|&x| x == b'\n') {
                n += 1;
                rest = &rest[p + 1..];
            }
            black_box(n)
        });
    });
    group.bench_function("newline_hop/swar", |b| {
        b.iter(|| {
            let mut n = 0usize;
            let mut rest = black_box(&stream[..]);
            while let Some(p) = swar::find_byte(rest, b'\n') {
                n += 1;
                rest = &rest[p + 1..];
            }
            black_box(n)
        });
    });

    group.bench_function("string_mask/byte", |b| {
        b.iter(|| {
            let mut mask = StringMask::new();
            let mut acc = 0u32;
            for &byte in black_box(&stream[..]) {
                acc += u32::from(mask.on_byte(byte)) + u32::from(classify(byte) == ByteClass::Open);
            }
            black_box(acc)
        });
    });
    group.bench_function("string_mask/swar", |b| {
        b.iter(|| {
            let mut state = StringState::default();
            let mut acc = 0u32;
            for chunk in black_box(&stream[..]).chunks_exact(WORD_BYTES) {
                let m = classify_word(load_word(chunk.try_into().unwrap()));
                let (masked, next) = string_mask_word(m.quotes, m.backslashes, state);
                state = next;
                acc += masked.count_ones() + (m.opens & !masked).count_ones();
            }
            black_box(acc)
        });
    });

    group.bench_function("contains/swar", |b| {
        b.iter(|| black_box(swar::contains(black_box(&stream), b"airquality_raw")));
    });

    // The literal prefilter alone, record by record: rejecting from every
    // N-th byte (`miss`: no needle byte run anywhere), rejecting after
    // verifying a look-alike run in every record (`lookalike`: s2 over
    // the letters of `airquality_raw`), and finding the literal at the
    // far end of every record (`hit`: what an unselective stream pays
    // during probation).
    let corpus = smartcity_corpus(2000);
    for (name, needle, b, rejects) in [
        ("miss", &b"wind_speed"[..], 1, true),
        ("lookalike", b"airquality_war", 2, true),
        ("hit", b"airquality_raw", 1, false),
    ] {
        let prefilter = Prefilter::build(&Expr::substring(needle, b).unwrap()).unwrap();
        let expected = if rejects { corpus.len() } else { 0 };
        group.bench_function(format!("prefilter_reject/{name}"), |b| {
            b.iter(|| {
                let rejected = black_box(&corpus)
                    .records()
                    .iter()
                    .filter(|record| prefilter.rejects(record))
                    .count();
                assert_eq!(rejected, expected);
                rejected
            });
        });
    }

    // End-to-end: the stream path, `filter_stream_verdicts_into` (the
    // word kernel over the whole buffer) — with b=1 (byte hit table) and
    // b=2 (pooled block-hit automaton) substring units, which the kernel
    // steps at the same cost.
    for (b, name) in [(1, "engine_qs0"), (2, "engine_qs0_b2")] {
        let expr = query_to_exprs(&Query::qs0(), b).unwrap();
        let mut engine = Engine::compile(&expr);
        let mut out = Vec::new();
        group.bench_function(format!("{name}/block"), |b| {
            b.iter(|| {
                out.clear();
                engine.filter_stream_verdicts_into(
                    black_box(&stream),
                    IngestLimits::UNLIMITED,
                    &mut out,
                );
                black_box(out.len())
            });
        });
    }

    // One kernel for every width: past eight attributes the key lanes
    // take a second bank, past 21 the latch a second word, and the cost
    // per byte grows with the lanes, not by a change of path.
    let taxi = taxi_corpus(2000).stream();
    group.throughput(Throughput::Bytes(taxi.len() as u64));
    for n in [5, 8, 9, 16, 32] {
        let mut engine = Engine::compile(&taxi_attributes(n));
        // Every record holds every key: probation turns the prefilter off.
        engine.filter_stream(&taxi);
        let mut out = Vec::new();
        group.bench_function(format!("engine_wide/{n}"), |b| {
            b.iter(|| {
                out.clear();
                engine.filter_stream_verdicts_into(
                    black_box(&taxi),
                    IngestLimits::UNLIMITED,
                    &mut out,
                );
                black_box(out.len())
            });
        });
    }
    group.finish();
}

/// An `And` of `n` member contexts `{s1(key) & v(0 ≤ f ≤ 100000 + i)}`
/// over the thirteen keys every Taxi record holds, round robin.
fn taxi_attributes(n: usize) -> Expr {
    const KEYS: [&str; 13] = [
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
    Expr::and((0..n).map(|i| {
        let high = format!("{}", 100_000 + i);
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(KEYS[i % KEYS.len()].as_bytes(), 1).unwrap(),
                Expr::float_range("0", &high).unwrap(),
            ],
        )
    }))
}

criterion_group!(benches, swar_scan);
criterion_main!(benches);
