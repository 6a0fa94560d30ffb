//! Differential tests for the fused multi-query engine: for any query
//! batch, [`MultiEngine`] must be **byte-identical** to running N
//! independent [`Engine`]s — on the record-at-a-time API's per-byte
//! latched accept signal (each group member's model routed to its
//! query), on every record's verdict at every word offset right after
//! another ([`zoo::assert_batch_seams`]), at every shard count, and
//! under quarantine limits. Fusing is allowed to be faster, never
//! different.

mod zoo;

use proptest::prelude::*;
use rfjson_core::engine::PrefilterStatus;
use rfjson_core::multi::{Group, MultiBackend, MultiEngine, MultiLanes};
use rfjson_core::prefilter::Prefilter;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, StructScope};
use rfjson_riotbench::{smartcity, taxi, twitter, AttrKind, Query, RangePredicate, RecordShape};
use rfjson_runtime::fault::{
    silence_injected_panics, FaultKind, FaultPlan, FaultyBackend, Trigger,
};
use rfjson_runtime::ShardedRunner;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Query batches covering every primitive technique, shared units across
/// lanes, both structural scopes, and the paper's Table VIII queries —
/// the wide-block (B = 9) one, the mixed-B one, whose twelve distinct
/// B ≥ 2 units take two banks of lanes, and one with a run target past
/// the packed counters, a reference lane beside two packed neighbours
/// ([`zoo_batches_take_the_expected_scan_path`]).
fn batch_zoo() -> Vec<Vec<Expr>> {
    vec![
        vec![
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::window(b"light").unwrap(),
            Expr::dfa_string(b"humidity").unwrap(),
            Expr::int_range(12, 49),
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
        ],
        vec![
            Expr::substring(b"airquality_raw", 9).unwrap(),
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("-12.5", "43.1").unwrap(),
        ],
        // Duplicate lanes: dedup must not entangle their verdicts.
        vec![
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs1(), 1).unwrap(),
        ],
        // Mixed block lengths, more than eight B ≥ 2 units in one pool.
        vec![
            query_to_exprs(&Query::qt(), 2).unwrap(),
            query_to_exprs(&Query::qt(), 3).unwrap(),
            Expr::substring(b"tolls_amount", 2).unwrap(), // shared with QT b=2
            Expr::substring(b"airquality_raw", 9).unwrap(),
            Expr::substring(b"favourites_count", 9).unwrap(),
        ],
        vec![
            Expr::substring(&[b'k'; 130], 2).unwrap(), // run target 129
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"temperature", 1).unwrap(),
        ],
    ]
}

/// Member indices of every group.
fn group_members(fused: &MultiEngine) -> Vec<&[usize]> {
    fused.groups().iter().map(Group::members).collect()
}

/// Reference lanes per group.
fn reference_lanes(fused: &MultiEngine) -> Vec<usize> {
    let groups = fused.groups().iter();
    groups
        .map(|g| g.engine().reference_lanes().count())
        .collect()
}

/// Banks of packed lanes per block-hit automaton, per group.
fn block_banks(fused: &MultiEngine) -> Vec<Vec<usize>> {
    let groups = fused.groups().iter();
    let banks = |g: &Group| {
        g.engine()
            .block_automaton_views()
            .map(|v| v.banks)
            .collect()
    };
    groups.map(banks).collect()
}

/// Every batch takes the word kernel, group by group (its byte law is
/// held in `telemetry_invariants.rs`); the groups follow shared needles
/// alone, and the lanes the groups need are laid out in banks and
/// reference lanes.
#[test]
fn zoo_batches_take_the_expected_scan_path() {
    let zoo = batch_zoo();
    for exprs in &zoo {
        let fused = MultiEngine::compile_batch(exprs);
        assert!(fused.groups().iter().all(|g| !g.members().is_empty()));
    }
    // QT at b = 2 and b = 3 and the bare `tolls_amount` unit share their
    // needles: one group, whose ten distinct B ≥ 2 units take two banks of
    // one automaton. The two wide units have needles of their own.
    let mixed = MultiEngine::compile_batch(&zoo[3]);
    assert_eq!(group_members(&mixed), [&[0, 1, 2][..], &[3], &[4]]);
    assert_eq!(block_banks(&mixed), [vec![2], vec![1], vec![1]]);
    let pool = mixed.share_stats().pool;
    assert_eq!(
        (pool.subp, pool.wide),
        (10, 2),
        "QT's five keys twice, two wide"
    );
    // The run target past the packed counters is a reference lane of its
    // query's group; its neighbours keep packed lanes.
    let fused = MultiEngine::compile_batch(&zoo[4]);
    assert_eq!(group_members(&fused), [&[0][..], &[1], &[2]]);
    assert_eq!(reference_lanes(&fused), [1, 0, 0]);
    assert_eq!(block_banks(&fused), [vec![], vec![1], vec![]]);
}

/// Seventy distinct needles, five per query and no two queries sharing
/// one: fourteen groups of five units each, on the word kernel.
#[test]
fn a_batch_of_seventy_needles_stays_on_the_block_path() {
    let batch: Vec<Expr> = (0..14)
        .map(|q| {
            Expr::and((0..5).map(|k| {
                let needle = format!("needle_{q:02}_{}", ["a", "b", "c", "d", "e"][k]);
                Expr::substring(needle.as_bytes(), 1 + (q + k) % 3).unwrap()
            }))
        })
        .collect();
    let fused = MultiEngine::compile_batch(&batch);
    assert_eq!(fused.share_stats().pool.total(), 70);
    assert_eq!(fused.groups().len(), 14, "no two queries share a needle");
    assert!(reference_lanes(&fused).iter().all(|&r| r == 0));
    let mut stream = Vec::new();
    for q in [3, 11, 0] {
        let keys: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|k| format!("\"needle_{q:02}_{k}\":1"))
            .collect();
        stream.extend_from_slice(format!("{{{}}}\n", keys.join(",")).as_bytes());
    }
    assert_streamwise(&batch, &stream, IngestLimits::UNLIMITED);
    let verdicts =
        MultiEngine::compile_batch(&batch).filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    for (record, q) in [3, 11, 0].into_iter().enumerate() {
        let hits: Vec<usize> = (0..14).filter(|&x| verdicts.matched(record, x)).collect();
        assert_eq!(hits, [q]);
    }
}

fn bit(out: &[u64], q: usize) -> bool {
    out[q / 64] >> (q % 64) & 1 == 1
}

/// Steps the record-at-a-time API of the fused engine and of N
/// independent engines over `record + '\n'` and asserts every lane's
/// latched accept matches on **every byte**: each group routes its
/// members' models to their queries.
fn assert_bytewise(exprs: &[Expr], record: &[u8]) {
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let mut out = vec![0u64; exprs.len().div_ceil(64)];
    for (i, &b) in record.iter().chain(b"\n").enumerate() {
        fused.on_byte(b);
        out.fill(0);
        fused.write_accepts(&mut out);
        for (q, engine) in engines.iter_mut().enumerate() {
            let want = engine.on_byte(b);
            assert_eq!(
                bit(&out, q),
                want,
                "lane {q} (`{}`) diverges at byte {i} ({:?}) of record {:?}",
                exprs[q],
                b as char,
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Stream-level agreement: the fused serial driver, the [`MultiLanes`]
/// references (engines, and the byte-serial model that shares no kernel
/// with the fused pool), every independent engine's verdict vector, and
/// the sharded runner at every shard count must all agree — skips
/// included.
fn assert_streamwise(exprs: &[Expr], stream: &[u8], limits: IngestLimits) {
    let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    let lanes = MultiLanes::<Engine>::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    let model =
        MultiLanes::<CompiledFilter>::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    assert_eq!(fused, model, "fused vs byte-serial model lanes");
    for (q, expr) in exprs.iter().enumerate() {
        assert_eq!(
            fused.query_verdicts(q),
            lanes.query_verdicts(q),
            "fused vs multi-lanes diverge on lane {q} (`{expr}`)"
        );
        let single = Engine::compile(expr).filter_stream_verdicts(stream, limits);
        assert_eq!(
            fused.query_verdicts(q),
            single,
            "fused vs independent engine diverge on lane {q} (`{expr}`)"
        );
    }
    for shards in SHARD_COUNTS {
        let mut runner: ShardedRunner<MultiEngine> = ShardedRunner::with_shards(exprs, shards);
        let sharded = runner
            .filter_stream_verdicts(stream, limits)
            .expect("healthy lanes never double fault");
        assert_eq!(sharded.num_records(), fused.num_records());
        for (q, expr) in exprs.iter().enumerate() {
            assert_eq!(
                sharded.query_verdicts(q),
                fused.query_verdicts(q),
                "sharded fused diverges on lane {q} (`{expr}`), shards {shards}"
            );
        }
    }
}

#[test]
fn fused_bytewise_equals_independent_engines() {
    let datasets = [
        smartcity::generate(41, 6),
        taxi::generate(42, 6),
        twitter::generate(43, 4),
    ];
    for exprs in batch_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_bytewise(&exprs, record);
            }
        }
    }
}

/// The fused stream path against the byte-serial model of every query,
/// each record at every word offset right after another, with the
/// groups' prefilters live and turned off.
#[test]
fn fused_blockwise_equals_independent_engines_at_split_seams() {
    let datasets = [smartcity::generate(44, 6), taxi::generate(45, 6)];
    for exprs in batch_zoo() {
        for ds in &datasets {
            zoo::assert_batch_seams(&exprs, ds.records());
        }
    }
}

#[test]
fn fused_stream_equals_independent_engines_at_every_shard_count() {
    let streams = [
        smartcity::generate(46, 40).stream(),
        taxi::generate(47, 40).stream(),
        b"\r\n{\"a\":3}\r\n\n{\"temperature\":21.5}".to_vec(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, IngestLimits::UNLIMITED);
        }
    }
}

#[test]
fn quarantine_agrees_across_all_paths() {
    let limits = IngestLimits {
        max_record_bytes: Some(90),
        max_records: Some(25),
    };
    let streams = [
        smartcity::generate(48, 40).stream(),
        taxi::generate(49, 40).stream(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, limits);
        }
    }
}

/// The five queries the benchmarks keep resident: two on SmartCity
/// attributes, QT at b = 1 and b = 2, one on a Twitter attribute.
fn resident_queries() -> Vec<Expr> {
    vec![
        query_to_exprs(&Query::qs0(), 1).unwrap(),
        query_to_exprs(&Query::qs1(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 2).unwrap(),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"favourites_count", 2).unwrap(),
                Expr::int_range(100, 50_000),
            ],
        ),
    ]
}

/// SmartCity, Taxi and Twitter records interleaved one by one, so that
/// consecutive records concern different groups.
fn interleaved_records(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let sources = [
        smartcity::generate(seed, n),
        taxi::generate(seed + 1, n),
        twitter::generate(seed + 2, n),
    ];
    let mut records = Vec::new();
    for i in 0..n {
        for source in &sources {
            records.push(source.records()[i].clone());
        }
    }
    records
}

fn stream_of(records: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for record in records {
        stream.extend_from_slice(record);
        stream.push(b'\n');
    }
    stream
}

/// Grouping goes by batch order; verdicts must not. Every permutation
/// of the resident queries answers every query as the byte-serial model
/// and as its own engine do.
#[test]
fn every_order_of_the_resident_queries_gives_the_same_verdicts() {
    let queries = resident_queries();
    let stream = stream_of(&interleaved_records(60, 12));
    let limits = IngestLimits::UNLIMITED;
    let model = MultiLanes::<CompiledFilter>::compile_batch(&queries)
        .filter_stream_verdicts(&stream, limits);
    for (q, expr) in queries.iter().enumerate() {
        let single = Engine::compile(expr).filter_stream_verdicts(&stream, limits);
        assert_eq!(model.query_verdicts(q), single, "`{expr}`");
    }
    let identity = MultiEngine::compile_batch(&queries);
    assert_eq!(group_members(&identity), [&[0, 1][..], &[2, 3], &[4]]);

    // Heap's algorithm over the query order.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut counters = vec![0; order.len()];
    let mut permutations = 0;
    let mut i = 0;
    loop {
        if i == 0 {
            let batch: Vec<Expr> = order.iter().map(|&q| queries[q].clone()).collect();
            let mut fused = MultiEngine::compile_batch(&batch);
            assert_eq!(fused.groups().len(), 3, "order {order:?}");
            let verdicts = fused.filter_stream_verdicts(&stream, limits);
            for (slot, &q) in order.iter().enumerate() {
                assert_eq!(
                    verdicts.query_verdicts(slot),
                    model.query_verdicts(q),
                    "query {q} at slot {slot} of order {order:?}"
                );
            }
            permutations += 1;
            i = 1;
        }
        if i == order.len() {
            break;
        }
        if counters[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    assert_eq!(permutations, 120);
}

/// A SmartCity query over QS0's five attributes with its own ranges.
fn qs_shaped(i: usize) -> Expr {
    let predicates = vec![
        RangePredicate::new("temperature", &format!("{i}.5"), "40.1", AttrKind::Float),
        RangePredicate::new("humidity", "10.7", &format!("9{i}.2"), AttrKind::Float),
        RangePredicate::new("light", &format!("{i}00"), "26282", AttrKind::Int),
        RangePredicate::new(
            "dust",
            "83.36",
            &format!("{}188.21", i + 1),
            AttrKind::Float,
        ),
        RangePredicate::new("airquality_raw", &format!("1{i}"), "363", AttrKind::Int),
    ];
    let query = Query {
        name: format!("QS-{i}"),
        predicates,
        shape: RecordShape::SenML,
        paper_selectivity: 0.0,
    };
    query_to_exprs(&query, 1).unwrap()
}

/// A group is a component of shared needles, however much it needs: six
/// 16-node queries over the same five needles are one group of 96 nodes,
/// two latch words, and QT at b = 1, 2 and 3 one group whose ten B ≥ 2
/// units take two banks. Verdicts do not change.
#[test]
fn needle_sharing_groups_grow_past_one_latch_word_and_agree() {
    let six: Vec<Expr> = (0..6).map(qs_shaped).collect();
    let fused = MultiEngine::compile_batch(&six);
    let shape: Vec<(&[usize], usize, usize)> = fused
        .groups()
        .iter()
        .map(|g| {
            (
                g.members(),
                g.engine().num_nodes(),
                g.engine().unit_counts().sub1,
            )
        })
        .collect();
    assert_eq!(shape, [(&[0, 1, 2, 3, 4, 5][..], 96, 5)]);
    let stream = smartcity::generate(61, 60).stream();
    assert_streamwise(&six, &stream, IngestLimits::UNLIMITED);

    let qt: Vec<Expr> = [1, 2, 3]
        .iter()
        .map(|&b| query_to_exprs(&Query::qt(), b).unwrap())
        .collect();
    let fused = MultiEngine::compile_batch(&qt);
    assert_eq!(group_members(&fused), [&[0, 1, 2][..]]);
    assert_eq!(block_banks(&fused), [vec![2]]);
    let stream = taxi::generate(62, 60).stream();
    assert_streamwise(&qt, &stream, IngestLimits::UNLIMITED);
}

/// The wide programs, as one batch and as batches of one, against the
/// byte-serial model at every shard count.
#[test]
fn wide_programs_agree_as_a_batch_at_every_shard_count() {
    let records = zoo::wide_program_records();
    let stream = stream_of(&records);
    let batch = zoo::wide_programs();
    assert_streamwise(&batch, &stream, IngestLimits::UNLIMITED);
    let limits = IngestLimits {
        max_record_bytes: Some(400),
        max_records: Some(12),
    };
    assert_streamwise(&batch, &stream, limits);
}

/// Both number techniques and their mixes, as one batch, over the
/// records where anchoring decides, at every shard count: one group pools
/// a token and an anchored automaton over the same bounds.
#[test]
fn anchoring_zoo_agrees_as_a_batch_at_every_shard_count() {
    let mut records = zoo::anchoring_records();
    records.extend(taxi::generate(96, 4).records().iter().cloned());
    let mut batch = zoo::anchoring_exprs();
    batch.extend([
        Expr::int_range(12, 49),
        query_to_exprs(&Query::qt(), 2).unwrap(),
    ]);
    for pad in 0..8 {
        let mut padded = vec![b' '; pad];
        padded.extend(stream_of(&records));
        assert_streamwise(&batch, &padded, IngestLimits::UNLIMITED);
    }
    for record in &records {
        assert_bytewise(&batch, record);
    }
    zoo::assert_batch_seams(&batch, &records);
}

/// A member without a prefilter (an `Or` root, a pure number range) can
/// match any record: such members are grouped together and always
/// scanned, and the routed groups beside them still are routed.
#[test]
fn members_without_a_prefilter_are_always_scanned() {
    let batch = vec![
        query_to_exprs(&Query::qs0(), 1).unwrap(),
        Expr::or([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::substring(b"tolls_amount", 2).unwrap(),
        ]),
        Expr::int_range(12, 49),
        query_to_exprs(&Query::qt(), 1).unwrap(),
    ];
    let records = interleaved_records(63, 200);
    let stream = stream_of(&records);
    let mut fused = MultiEngine::compile_batch(&batch);
    assert_eq!(group_members(&fused), [&[0][..], &[1, 2], &[3]]);
    let verdicts = fused.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    let status: Vec<(PrefilterStatus, u64)> = fused
        .groups()
        .iter()
        .map(|g| {
            (
                g.engine().prefilter_status(),
                g.engine().prefilter_stats().1,
            )
        })
        .collect();
    // Each routed group turns away the two thirds of the stream that are
    // not its source's.
    assert_eq!(
        status,
        [
            (PrefilterStatus::Live, 400),
            (PrefilterStatus::Absent, 0),
            (PrefilterStatus::Live, 400)
        ]
    );
    let model = MultiLanes::<CompiledFilter>::compile_batch(&batch)
        .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    assert_eq!(verdicts, model);
    assert!(verdicts.count_matches(1) >= 400 && verdicts.count_matches(2) > 0);
    assert_streamwise(&batch, &stream_of(&records[..90]), IngestLimits::UNLIMITED);
}

/// One member's own prefilter rejects a record its group-mate's passes:
/// Taxi records with the `tolls_amount` member cut out still carry
/// `total_amount`, inside which `s1("tolls_amount")` fires and
/// `s2("tolls_amount")` cannot. The group scans such a record for QT
/// b=1's sake and must still answer QT b=2 exactly.
#[test]
fn a_member_whose_own_prefilter_rejects_is_answered_exactly() {
    let batch = vec![
        query_to_exprs(&Query::qt(), 1).unwrap(),
        query_to_exprs(&Query::qt(), 2).unwrap(),
    ];
    let own: Vec<Prefilter> = batch.iter().map(|e| Prefilter::build(e).unwrap()).collect();
    let mut records = Vec::new();
    let rides = taxi::generate(64, 250);
    let sensors = smartcity::generate(65, 250);
    for (ride, sensor) in rides.records().iter().zip(sensors.records()) {
        let text = std::str::from_utf8(ride).unwrap();
        let start = text.find("\"tolls_amount\":").unwrap();
        let end = start + text[start..].find(',').unwrap() + 1;
        let cut = [&ride[..start], &ride[end..]].concat();
        assert!(!own[0].rejects(&cut) && own[1].rejects(&cut));
        assert!(own.iter().all(|pf| pf.rejects(sensor) && !pf.rejects(ride)));
        records.extend([cut, sensor.clone(), ride.clone()]);
    }
    let stream = stream_of(&records);
    let mut fused = MultiEngine::compile_batch(&batch);
    assert_eq!(fused.groups().len(), 1);
    let verdicts = fused.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    let engine = fused.groups()[0].engine();
    assert_eq!(engine.prefilter_status(), PrefilterStatus::Live);
    assert_eq!(engine.prefilter_stats(), (750, 250), "only the sensors");
    let model = MultiLanes::<CompiledFilter>::compile_batch(&batch)
        .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    assert_eq!(verdicts, model);
    for (q, expr) in batch.iter().enumerate() {
        let single = Engine::compile(expr).filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        assert_eq!(verdicts.query_verdicts(q), single, "`{expr}`");
    }
    assert!(verdicts.count_matches(0) > verdicts.count_matches(1));
    assert_streamwise(&batch, &stream_of(&records[..60]), IngestLimits::UNLIMITED);
}

/// The record-at-a-time API is the byte-serial oracle, `on_block` a byte
/// loop: nothing is routed, the groups' prefilters do not look, and the
/// answer is the model's. The stream path routes the same records, each
/// at every word offset right after another, to the same verdicts.
#[test]
fn on_byte_then_on_block_is_unrouted_and_equals_the_byte_loop() {
    let queries = resident_queries();
    let mut fused = MultiEngine::compile_batch(&queries);
    let mut model = MultiLanes::<CompiledFilter>::compile_batch(&queries);
    let records = interleaved_records(66, 8);
    zoo::assert_batch_seams(&queries, &records);
    for record in records {
        fused.reset();
        fused.on_byte(record[0]);
        fused.on_block(&record[1..]);
        let mut got = vec![0u64; 1];
        fused.write_accepts(&mut got);
        fused.on_byte(b'\n');
        fused.write_accepts(&mut got);
        let mut want = vec![0u64; 1];
        model.accepts_record_into(&record, &mut want);
        assert_eq!(got, want, "{:?}", String::from_utf8_lossy(&record));
    }
    for group in fused.groups() {
        assert_eq!(group.engine().prefilter_stats(), (0, 0));
    }
}

/// A healed multi-runner lane must stay byte-identical when **reused**:
/// the first call faults a lane mid-stream, the heal recompiles it, and
/// the second call over the same runner must run the healed lane clean
/// — the batch twin of `reset_regression.rs`'s reuse contract (this was
/// previously untested: every other multi test used a fresh runner per
/// call).
#[test]
fn healed_multi_lane_is_reused_cleanly_on_second_call() {
    silence_injected_panics();
    // Poison one mid-stream record with a byte no RiotBench corpus
    // emits, so the fault lands in the same record at every shard count.
    let ds = smartcity::generate(50, 30);
    let mut stream = Vec::new();
    for (i, record) in ds.records().iter().enumerate() {
        if i == 13 {
            stream.extend_from_slice(b"{\"poison\":\"\x07\"}\n");
        }
        stream.extend_from_slice(record);
        stream.push(b'\n');
    }

    for exprs in batch_zoo() {
        let fused = MultiEngine::compile_batch(&exprs)
            .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        for shards in SHARD_COUNTS {
            // Primary lanes are faulty batches; the retry lane is the
            // clean `MultiLanes<CompiledFilter>` default. Fuel 1: the
            // fault fires once on the first call, then the healed lane
            // must carry the second call without the retry path.
            let armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::Panic)
                .with_fuel(1)
                .arm();
            let mut runner: ShardedRunner<MultiLanes<FaultyBackend<Engine>>> =
                ShardedRunner::try_with_shards(&exprs[..], shards).unwrap();
            let first = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("single fault must be absorbed by the retry lane");
            let second = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("healed lane must run clean");
            drop(armed);
            assert_eq!(first.num_records(), fused.num_records());
            for (q, expr) in exprs.iter().enumerate() {
                assert_eq!(
                    first.query_verdicts(q),
                    fused.query_verdicts(q),
                    "faulted+retried call diverges on lane {q} (`{expr}`), shards {shards}"
                );
                assert_eq!(
                    second.query_verdicts(q),
                    fused.query_verdicts(q),
                    "healed reused lane diverges on lane {q} (`{expr}`), shards {shards}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora × random zoo batch × every shard count, with and
    /// without quarantine limits.
    #[test]
    fn fused_equals_independent_on_random_corpora(
        seed in 0u64..1_000_000,
        n in 1usize..24,
        which in 0usize..3,
        batch_idx in 0usize..5,
        limited in any::<bool>(),
    ) {
        let ds = match which {
            0 => smartcity::generate(seed, n),
            1 => taxi::generate(seed, n),
            _ => twitter::generate(seed, n),
        };
        let zoo = batch_zoo();
        let exprs = &zoo[batch_idx % zoo.len()];
        let limits = if limited {
            IngestLimits {
                max_record_bytes: Some(100),
                max_records: Some(n / 2 + 1),
            }
        } else {
            IngestLimits::UNLIMITED
        };
        let stream = ds.stream();
        let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(&stream, limits);
        for (q, expr) in exprs.iter().enumerate() {
            let single = Engine::compile(expr).filter_stream_verdicts(&stream, limits);
            prop_assert_eq!(&fused.query_verdicts(q), &single);
        }
        for shards in SHARD_COUNTS {
            let mut runner: ShardedRunner<MultiEngine> =
                ShardedRunner::with_shards(&exprs[..], shards);
            let sharded = runner
                .filter_stream_verdicts(&stream, limits)
                .expect("healthy lanes never double fault");
            for q in 0..exprs.len() {
                prop_assert_eq!(sharded.query_verdicts(q), fused.query_verdicts(q));
            }
        }
    }

    /// Arbitrary bytes salted with needles, quotes and separators: the
    /// grouped engine never panics and answers as the byte-serial model
    /// does — routed groups, an always-scanned group and a byte-serial
    /// group of one side by side, with and without limits, sharded or not.
    #[test]
    fn grouped_engine_survives_byte_soup(
        pieces in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..24),
                Just(b"\"temperature\":21.5".to_vec()),
                Just(b"tolls_amount".to_vec()),
                Just(b"total_amount\":5.33,".to_vec()),
                Just(b"favourites_count\":700".to_vec()),
                Just(vec![b'k'; 131]),
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b"{\"e\":[{".to_vec()),
                Just(b"}],\"\\\"".to_vec()),
            ],
            0..40,
        ),
        limited in any::<bool>(),
    ) {
        let mut batch = resident_queries();
        batch.push(Expr::or([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::int_range(5, 21),
        ]));
        batch.push(Expr::substring(&[b'k'; 130], 2).unwrap());
        let stream = pieces.concat();
        let limits = if limited {
            IngestLimits { max_record_bytes: Some(150), max_records: Some(9) }
        } else {
            IngestLimits::UNLIMITED
        };
        let mut fused = MultiEngine::compile_batch(&batch);
        prop_assert_eq!(fused.groups().len(), 5);
        let verdicts = fused.filter_stream_verdicts(&stream, limits);
        let model = MultiLanes::<CompiledFilter>::compile_batch(&batch)
            .filter_stream_verdicts(&stream, limits);
        prop_assert_eq!(&verdicts, &model);
        // The same engine again: nothing of the first stream lingers.
        prop_assert_eq!(&fused.filter_stream_verdicts(&stream, limits), &model);
        for shards in [2, 3] {
            let mut runner: ShardedRunner<MultiEngine> =
                ShardedRunner::with_shards(&batch[..], shards);
            let sharded = runner
                .filter_stream_verdicts(&stream, limits)
                .expect("healthy lanes never double fault");
            prop_assert_eq!(&sharded, &model);
        }
    }
}
