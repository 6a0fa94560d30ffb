//! Criterion: the motivating comparison of §I — parsing everything vs
//! raw-filtering first and parsing only the survivors. The win scales
//! with query selectivity (QS1 keeps ~5 %, QS0 keeps ~64 %). Filtering
//! runs on the batch [`Engine`]'s stream path over the corpus as one
//! NDJSON buffer; the byte-serial cosim model, record by record, is kept
//! as `filter_then_parse_model` to track the fast path's own speedup.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rfjson_core::engine::Engine;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{FilterBackend, IngestLimits};
use rfjson_jsonstream::parse;
use rfjson_riotbench::{smartcity_corpus, Query};
use std::hint::black_box;

fn raw_vs_parse(c: &mut Criterion) {
    let dataset = smartcity_corpus(1500);
    let bytes: u64 = dataset.payload_bytes() as u64;
    let stream = dataset.stream();

    for query in [Query::qs0(), Query::qs1()] {
        let mut group = c.benchmark_group(format!("raw_vs_parse_{}", query.name));
        group.throughput(Throughput::Bytes(bytes));
        group.sample_size(12);

        group.bench_function("parse_everything", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for record in dataset.records() {
                    let v = parse(black_box(record)).expect("valid json");
                    if query.matches(&v) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        });

        let expr = query_to_exprs(&query, 1).expect("query converts");
        let mut engine = Engine::compile(&expr);
        let mut verdicts = Vec::new();
        group.bench_function("filter_then_parse", |b| {
            b.iter(|| {
                verdicts.clear();
                engine.filter_stream_verdicts_into(
                    black_box(&stream),
                    IngestLimits::UNLIMITED,
                    &mut verdicts,
                );
                let mut hits = 0usize;
                for (record, verdict) in dataset.records().iter().zip(&verdicts) {
                    if verdict.matched() {
                        let v = parse(record).expect("valid json");
                        if query.matches(&v) {
                            hits += 1;
                        }
                    }
                }
                black_box(hits)
            });
        });

        let mut model = CompiledFilter::compile(&expr);
        group.bench_function("filter_then_parse_model", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for record in dataset.records() {
                    if model.accepts_record(black_box(record)) {
                        let v = parse(record).expect("valid json");
                        if query.matches(&v) {
                            hits += 1;
                        }
                    }
                }
                black_box(hits)
            });
        });

        // The hardware-relevant variant: filtering is free (happens in the
        // PL between NIC and CPU); the CPU only parses survivors.
        let decisions = Engine::compile(&expr).filter_stream(&stream);
        let survivors: Vec<&Vec<u8>> = dataset
            .records()
            .iter()
            .zip(decisions)
            .filter_map(|(record, pass)| pass.then_some(record))
            .collect();
        group.bench_function("parse_survivors_only", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for record in &survivors {
                    let v = parse(black_box(record)).expect("valid json");
                    if query.matches(&v) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        });
        group.finish();
    }
}

criterion_group!(benches, raw_vs_parse);
criterion_main!(benches);
