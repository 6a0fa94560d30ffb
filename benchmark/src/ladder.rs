//! The traced run: the layer ladder, timed from outside.
//!
//! After a short untraced measurement of the workload's own pass, the
//! ladder runs in rounds. A round performs every rung once over the same
//! segment — from the workload's top-level pass down to a plain read of
//! the bytes — each through the layer's public functions, each bracketed
//! by the calibration kernel, each recorded as a span. Interleaving the
//! rungs puts them all in the same machine state, so a difference of two
//! rungs (a layer's self time) is steadier than either rung.
//!
//! Rungs are timed independently, so a span's parent is the rung whose
//! time it accounts for, not a caller that was running. Rungs on the
//! path from the workload's pass down to the read run over the whole
//! segment; the others are reference figures and run over a prefix.

use crate::calib::{Bracket, Calibrator, Timing, CAL_REF_NS_PER_BYTE};
use crate::corpus::{record_aligned_prefix, Corpus};
use crate::endtoend::{self, EndToEnd};
use crate::host::process_cpu_ns;
use crate::report::{Metric, Span};
use crate::stats::{cost, median, norm_duration, norm_ns_per_byte, Summary};
use crate::workloads::{
    burst_config, check_pass, resident_queries, units, Kind, Ops, PassOutput, Spec, Unit,
};
use rfjson_core::multi::{BatchVerdicts, MultiBackend, MultiEngine};
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, PrefilterStatus, Verdict,
};
use rfjson_jsonstream::frame::{shard_ranges, split_records};
use rfjson_jsonstream::swar::{classify_word, find_byte, load_word, string_mask_word, StringState};
use rfjson_jsonstream::{parse, Value};
use rfjson_runtime::ShardedRunner;
use rfjson_telemetry::{registry, Snapshot};
use std::hint::black_box;

/// Share of `--seconds` spent on the untraced passes the ladder is
/// compared against.
const UNTRACED_SHARE: f64 = 0.25;
/// Rounds performed even if `--seconds` is already over.
const MIN_ROUNDS: usize = 3;
/// The byte-serial rungs run over a sample of this size.
const BYTE_SERIAL_SAMPLE: usize = 256 * 1024;
/// Rungs that are no part of the workload's own pass (reference rungs)
/// run over a prefix of this size, so that a round stays short enough
/// for every rung to collect samples; their per-byte cost does not
/// depend on it.
const REFERENCE_BYTES: usize = 1024 * 1024;
/// Bracketed repetitions of the microsecond- and millisecond-scale
/// calls (compile, plan, shard_ranges), and calls per repetition of the
/// microsecond-scale ones.
const SMALL_REPS: usize = 15;
const CALLS_PER_REP: usize = 16;
/// An inner rung this much above the rung that contains it counts as an
/// inversion.
const INVERSION_TOLERANCE: f64 = 1.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Pass,
    RuntimeFanout,
    RuntimeBurst,
    RuntimeSerial,
    Driver,
    OnBlock,
    OnByte,
    Model,
    MultiDriver,
    MultiOnBlock,
    MultiSerialEquiv,
    Parse,
    SplitRecords,
    ClassifyMask,
    FindByte,
    CeilingRead,
}

/// Outside-in: the order a round runs them in.
const RUNGS: [Rung; 16] = [
    Rung::Pass,
    Rung::RuntimeFanout,
    Rung::RuntimeBurst,
    Rung::RuntimeSerial,
    Rung::Driver,
    Rung::OnBlock,
    Rung::OnByte,
    Rung::Model,
    Rung::MultiDriver,
    Rung::MultiOnBlock,
    Rung::MultiSerialEquiv,
    Rung::Parse,
    Rung::SplitRecords,
    Rung::ClassifyMask,
    Rung::FindByte,
    Rung::CeilingRead,
];

impl Rung {
    /// Position in [`RUNGS`], which lists the variants in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }

    /// Span name: the layer's module and function.
    fn name(self) -> &'static str {
        match self {
            Rung::Pass => "pass",
            Rung::RuntimeFanout => "runtime.fanout",
            Rung::RuntimeBurst => "runtime.burst",
            Rung::RuntimeSerial => "runtime.serial",
            Rung::Driver => "backend.driver",
            Rung::OnBlock => "engine.on_block",
            Rung::OnByte => "engine.on_byte",
            Rung::Model => "evaluator.model",
            Rung::MultiDriver => "multi.driver",
            Rung::MultiOnBlock => "multi.on_block",
            Rung::MultiSerialEquiv => "multi.serial_equiv",
            Rung::Parse => "parser.parse",
            Rung::SplitRecords => "frame.split_records",
            Rung::ClassifyMask => "swar.classify_mask",
            Rung::FindByte => "swar.find_byte",
            Rung::CeilingRead => "ceiling.read",
        }
    }

    /// The rung whose time this one accounts for on a workload of
    /// `kind`; `None` for the top rung and for reference rungs that are
    /// no part of the workload's pass.
    fn parent(self, kind: Kind) -> Option<Rung> {
        let runtime_rung = match kind {
            Kind::ShardedXl => Some(Rung::RuntimeFanout),
            Kind::ShardedBurst => Some(Rung::RuntimeBurst),
            _ => None,
        };
        match self {
            Rung::RuntimeFanout | Rung::RuntimeBurst if runtime_rung == Some(self) => {
                Some(Rung::Pass)
            }
            Rung::Driver => match kind {
                Kind::SenmlPipeline | Kind::EngineFilter => Some(Rung::Pass),
                Kind::Fused => None,
                Kind::ShardedXl | Kind::ShardedBurst => runtime_rung,
            },
            // The pipeline splits to find its survivors; the runtime
            // recounts the records of every shard.
            Rung::SplitRecords => match kind {
                Kind::SenmlPipeline => Some(Rung::Pass),
                _ => runtime_rung,
            },
            Rung::Parse if kind == Kind::SenmlPipeline => Some(Rung::Pass),
            Rung::MultiDriver if kind == Kind::Fused => Some(Rung::Pass),
            Rung::MultiOnBlock => Some(Rung::MultiDriver),
            Rung::OnBlock => Some(Rung::Driver),
            Rung::FindByte | Rung::ClassifyMask if kind == Kind::Fused => Some(match self {
                Rung::FindByte => Rung::MultiDriver,
                _ => Rung::MultiOnBlock,
            }),
            Rung::FindByte => Some(Rung::Driver),
            Rung::ClassifyMask => Some(Rung::OnBlock),
            Rung::CeilingRead => Some(Rung::ClassifyMask),
            _ => None,
        }
    }

    /// Whether this rung accounts for part of the workload's own pass.
    fn in_pass(self, kind: Kind) -> bool {
        let mut at = self;
        while let Some(parent) = at.parent(kind) {
            at = parent;
        }
        at == Rung::Pass
    }
}

/// One rung-pass: its timing and what it covered.
struct Sample {
    timing: Timing,
    bytes: usize,
    /// Top-level calls the bytes were delivered in.
    calls: usize,
}

impl Sample {
    fn cost(&self) -> f64 {
        cost(self.timing.ns(), self.bytes, self.timing.cal_ns_per_byte)
    }

    fn raw_ns_per_byte(&self) -> f64 {
        self.timing.ns() / self.bytes as f64
    }

    /// Nanoseconds on the reference machine.
    fn norm_ns(&self) -> f64 {
        norm_duration(self.timing.ns(), self.timing.cal_ns_per_byte)
    }
}

/// A stretch of a segment with everything the rungs need precomputed,
/// so that only the layer's own work is timed.
struct Part<'a> {
    bytes: &'a [u8],
    records: Vec<&'a [u8]>,
    burst: Unit<'a>,
}

impl<'a> Part<'a> {
    fn new(bytes: &'a [u8]) -> Part<'a> {
        Part {
            bytes,
            records: split_records(bytes).collect(),
            burst: Unit::burst(bytes),
        }
    }
}

struct Segment<'a> {
    whole: Part<'a>,
    reference: Part<'a>,
    byte_serial: Part<'a>,
}

impl<'a> Segment<'a> {
    fn new(bytes: &'a [u8]) -> Segment<'a> {
        Segment {
            whole: Part::new(bytes),
            reference: Part::new(record_aligned_prefix(bytes, REFERENCE_BYTES)),
            byte_serial: Part::new(record_aligned_prefix(bytes, BYTE_SERIAL_SAMPLE)),
        }
    }

    fn part(&self, rung: Rung, kind: Kind) -> &Part<'a> {
        match rung {
            Rung::OnByte | Rung::Model => &self.byte_serial,
            _ if rung.in_pass(kind) => &self.whole,
            _ => &self.reference,
        }
    }
}

/// The objects under the rungs, built once and warmed by the first
/// (discarded) round.
struct Layers {
    engine: Engine,
    model: CompiledFilter,
    multi: MultiEngine,
    engines: Vec<Engine>,
    serial: ShardedRunner<Engine>,
    fanout: ShardedRunner<Engine>,
    burst: ShardedRunner<Engine>,
    verdicts: Vec<Verdict>,
    batch: BatchVerdicts,
    accepts: Vec<u64>,
}

impl Layers {
    fn new(primary: &Expr, resident: &[Expr], threads: usize) -> Layers {
        Layers {
            engine: Engine::compile(primary),
            model: CompiledFilter::compile(primary),
            multi: MultiEngine::compile_batch(resident),
            engines: resident.iter().map(Engine::compile).collect(),
            serial: ShardedRunner::with_shards(primary, 1),
            fanout: ShardedRunner::with_shards(primary, threads),
            burst: ShardedRunner::with_config(primary, burst_config(threads)),
            verdicts: Vec::new(),
            batch: BatchVerdicts::new(resident.len()),
            accepts: vec![0; resident.len().div_ceil(64)],
        }
    }

    /// One pass of a rung other than the top one over `part`.
    fn run(&mut self, rung: Rung, part: &Part<'_>, truth: &dyn Fn(&Value) -> bool) {
        let limits = IngestLimits::UNLIMITED;
        self.verdicts.clear();
        match rung {
            Rung::Pass => unreachable!("the top rung runs the workload's own instance"),
            Rung::RuntimeFanout | Rung::RuntimeSerial => {
                let runner = if rung == Rung::RuntimeFanout {
                    &mut self.fanout
                } else {
                    &mut self.serial
                };
                runner
                    .filter_stream_verdicts_into(part.bytes, limits, &mut self.verdicts)
                    .expect("no faults injected");
            }
            Rung::RuntimeBurst => {
                for call in &part.burst.calls {
                    let bytes = &part.bytes[call.clone()];
                    self.burst
                        .filter_stream_verdicts_into(bytes, limits, &mut self.verdicts)
                        .expect("no faults injected");
                }
            }
            Rung::Driver => {
                self.engine
                    .filter_stream_verdicts_into(part.bytes, limits, &mut self.verdicts);
            }
            Rung::OnBlock => {
                let mut accepted = 0usize;
                for r in &part.records {
                    let last = self.engine.on_block(black_box(r));
                    accepted += usize::from(self.engine.on_byte(b'\n') || last);
                    self.engine.reset();
                }
                black_box(accepted);
            }
            Rung::OnByte => {
                let mut accepted = 0usize;
                for r in &part.records {
                    for &b in black_box(*r) {
                        self.engine.on_byte(b);
                    }
                    accepted += usize::from(self.engine.on_byte(b'\n'));
                    self.engine.reset();
                }
                black_box(accepted);
            }
            Rung::Model => {
                self.model
                    .filter_stream_verdicts_into(part.bytes, limits, &mut self.verdicts);
            }
            Rung::MultiDriver => {
                self.batch.clear();
                self.multi
                    .filter_stream_verdicts_into(part.bytes, limits, &mut self.batch);
                black_box(self.batch.num_records());
            }
            Rung::MultiOnBlock => {
                let mut accepted = 0u64;
                for r in &part.records {
                    self.multi.on_block(black_box(r));
                    self.multi.on_byte(b'\n');
                    self.multi.write_accepts(&mut self.accepts);
                    accepted = accepted.wrapping_add(self.accepts[0]);
                    self.multi.reset();
                }
                black_box(accepted);
            }
            Rung::MultiSerialEquiv => {
                for engine in &mut self.engines {
                    self.verdicts.clear();
                    engine.filter_stream_verdicts_into(part.bytes, limits, &mut self.verdicts);
                }
            }
            Rung::Parse => {
                let hits = part
                    .records
                    .iter()
                    .filter(|r| parse(black_box(r)).is_ok_and(|v| truth(&v)))
                    .count();
                black_box(hits);
            }
            Rung::SplitRecords => {
                let total: usize = split_records(black_box(part.bytes)).map(<[u8]>::len).sum();
                black_box(total);
            }
            Rung::ClassifyMask => {
                black_box(classify_mask(black_box(part.bytes)));
            }
            Rung::FindByte => {
                black_box(find_byte_hops(black_box(part.bytes)));
            }
            Rung::CeilingRead => {
                black_box(ceiling_read(black_box(part.bytes)));
            }
        }
        black_box(self.verdicts.len());
    }
}

fn ceiling_read(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .fold(0, u64::wrapping_add)
}

/// The newline-hop loop of the stream drivers.
fn find_byte_hops(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    let mut lines = 0;
    while let Some(p) = find_byte(rest, b'\n') {
        lines += 1;
        rest = &rest[p + 1..];
    }
    lines
}

/// Per-word classification and string masking, as `on_block_swar` does
/// before any matcher unit runs.
fn classify_mask(bytes: &[u8]) -> u64 {
    let mut state = StringState::default();
    let mut acc = 0u64;
    for chunk in bytes.chunks_exact(8) {
        let masks = classify_word(load_word(
            chunk.try_into().expect("chunks_exact yields 8 bytes"),
        ));
        let (masked, next) = string_mask_word(masks.quotes, masks.backslashes, state);
        state = next;
        acc = acc.wrapping_add(u64::from(masked & masks.specials()) + u64::from(masks.newlines));
    }
    acc
}

pub struct Traced {
    pub ops: Ops,
    pub rounds: usize,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    pub untraced: EndToEnd,
}

#[allow(clippy::too_many_lines)]
pub fn run(
    spec: &Spec,
    corpus: &Corpus,
    xl: &[u8],
    cal: &Calibrator,
    threads: usize,
    seconds: f64,
) -> Traced {
    let kind = spec.kind;
    let telemetry_start = registry().snapshot();
    let lanes = spec.lanes(threads);
    let mut untraced = endtoend::run(spec, corpus, xl, cal, lanes, seconds * UNTRACED_SHARE);
    let mut ops = untraced.ops;

    let resident: Vec<Expr> = resident_queries().into_iter().map(|q| q.expr).collect();
    let primary = &spec.primary().expr;
    let segments: Vec<Segment<'_>> = corpus.segments.iter().map(|s| Segment::new(s)).collect();
    let pass_units = units(kind, corpus, xl);
    // `sharded_xl` is about the one big buffer: there the fan-out rung
    // runs over the pass unit itself, not over a segment.
    let xl_part = (kind == Kind::ShardedXl).then(|| Part::new(xl));
    let mut layers = Layers::new(primary, &resident, threads);
    let mut pass_out = PassOutput::new(spec);

    // Ladder rounds. Round 0 warms every layer object and is not
    // recorded.
    let mut samples: Vec<Vec<Sample>> = RUNGS.iter().map(|_| Vec::new()).collect();
    let mut spans = Vec::new();
    let mut fanout_cpu_ns = 0.0;
    let mut bracket = Bracket::new(cal);
    let deadline = seconds * (1.0 - UNTRACED_SHARE);
    let mut round = 0usize;
    while round <= MIN_ROUNDS || bracket.elapsed_s() < deadline {
        let seg = &segments[round % segments.len()];
        let u = round % pass_units.len();
        let unit = &pass_units[u];
        for rung in RUNGS {
            let part = match (&xl_part, rung) {
                (Some(xl_part), Rung::RuntimeFanout) => xl_part,
                _ => seg.part(rung, kind),
            };
            let (bytes, calls, rung_lanes) = match rung {
                Rung::Pass => (unit.bytes.len(), unit.calls.len(), lanes),
                Rung::RuntimeFanout => (part.bytes.len(), 1, threads),
                Rung::RuntimeBurst => (part.bytes.len(), part.burst.calls.len(), threads),
                _ => (part.bytes.len(), 1, 1),
            };
            let cpu_before = (rung == Rung::RuntimeFanout).then(process_cpu_ns).flatten();
            let timing = if rung == Rung::Pass {
                let (result, timing) = bracket.time(rung_lanes, || {
                    untraced.instance.pass(spec, unit, &mut pass_out)
                });
                ops.add(check_pass(spec, &result, &pass_out, &untraced.expected[u]));
                timing
            } else {
                let truth = &spec.primary().truth;
                bracket.time(rung_lanes, || layers.run(rung, part, truth)).1
            };
            if round == 0 {
                continue;
            }
            if let (Some(before), Some(after)) = (cpu_before, process_cpu_ns()) {
                fanout_cpu_ns += after - before;
            }
            // Ids count up with the spans; a parent always runs earlier in
            // the round than the rungs beneath it.
            let id_of = |r: Rung| ((round - 1) * RUNGS.len() + r.index()) as u32;
            spans.push(Span {
                id: id_of(rung),
                name: rung.name(),
                workload: spec.name,
                pass: round as u32,
                start_ns: timing.start_ns,
                end_ns: timing.end_ns,
                parent: rung.parent(kind).map(id_of),
            });
            samples[rung.index()].push(Sample {
                timing,
                bytes,
                calls,
            });
        }
        round += 1;
    }
    let rounds = round - 1;

    // Small calls: compile in ms, plan and shard_ranges in µs. Returns
    // normalised ns per call.
    let mut small = |name: &'static str, calls: usize, f: &mut dyn FnMut()| -> Summary {
        let per_call: Vec<f64> = (0..SMALL_REPS)
            .map(|rep| {
                let ((), t) = bracket.time(1, || (0..calls).for_each(|_| f()));
                spans.push(Span {
                    id: spans.len() as u32,
                    name,
                    workload: spec.name,
                    pass: rep as u32,
                    start_ns: t.start_ns,
                    end_ns: t.end_ns,
                    parent: None,
                });
                norm_duration(t.ns(), t.cal_ns_per_byte) / calls as f64
            })
            .collect();
        Summary::of(&per_call)
    };
    let seg0 = &segments[0].whole;
    let fanout_part0 = xl_part.as_ref().unwrap_or(seg0);
    let engine_compile = small("engine.compile", 1, &mut || {
        black_box(Engine::compile(black_box(primary)));
    });
    let multi_compile = small("multi.compile", 1, &mut || {
        black_box(MultiEngine::compile_batch(black_box(&resident)));
    });
    let shard_ranges_ns = small("frame.shard_ranges", CALLS_PER_REP, &mut || {
        black_box(shard_ranges(black_box(seg0.bytes), threads));
    });
    let plan_ns = small("runtime.plan", CALLS_PER_REP, &mut || {
        black_box(layers.fanout.plan(black_box(fanout_part0.bytes)));
    });

    // Exact shares from the telemetry registry: one untimed call each on
    // settled state, so the counts repeat from run to run.
    let window = |f: &mut dyn FnMut()| -> Snapshot {
        let before = registry().snapshot();
        f();
        registry().snapshot().delta(&before)
    };
    let truth = &spec.primary().truth;
    layers.engine.flush_telemetry();
    let engine_window = window(&mut || layers.run(Rung::Driver, seg0, truth));
    layers.multi.flush_telemetry();
    let multi_window = window(&mut || layers.run(Rung::MultiDriver, seg0, truth));
    layers.run(Rung::RuntimeFanout, fanout_part0, truth);
    let shard_imbalance = registry()
        .snapshot()
        .gauge("runtime.shard_imbalance")
        .unwrap_or(0.0);
    let whole_run = registry().snapshot().delta(&telemetry_start);
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let engine_bytes = engine_window.counter("engine.bytes.block")
        + engine_window.counter("engine.bytes.byte_serial")
        + engine_window.counter("engine.bytes.prefilter_skipped");
    let multi_block_bytes = multi_window.counter("multi.bytes.block");

    // Normalised ns/byte of each rung, across rounds.
    let rung_ns_b: Vec<Summary> = samples
        .iter()
        .map(|rung_samples| {
            let costs: Vec<f64> = rung_samples.iter().map(Sample::cost).collect();
            Summary::of(&costs).scaled(CAL_REF_NS_PER_BYTE)
        })
        .collect();
    let ns_b = |rung: Rung| rung_ns_b[rung.index()];
    // Median over rounds of a figure computed from two rungs of the same
    // round, which ran in the same machine state.
    let per_round = |a: Rung, b: Rung, f: &dyn Fn(&Sample, &Sample) -> f64| -> f64 {
        let values: Vec<f64> = samples[a.index()]
            .iter()
            .zip(&samples[b.index()])
            .map(|(x, y)| f(x, y))
            .collect();
        median(&values)
    };
    // A layer's self time: its rung minus the rung beneath it.
    let self_ns_b = |outer: Rung, inner: Rung| {
        per_round(outer, inner, &|o, i| norm_ns_per_byte(o.cost() - i.cost()))
    };
    let raw_ratio = |num: Rung, den: Rung| {
        per_round(num, den, &|n, d| n.raw_ns_per_byte() / d.raw_ns_per_byte())
    };

    // Additivity: what the top rung costs beyond the rungs it is made
    // of, per round.
    let child_rungs: Vec<Rung> = RUNGS
        .iter()
        .copied()
        .filter(|r| r.parent(kind) == Some(Rung::Pass))
        .collect();
    let unattributed: Vec<f64> = (0..rounds)
        .map(|i| {
            let children: f64 = child_rungs
                .iter()
                .map(|&r| match r {
                    // Only the survivors are parsed.
                    Rung::Parse => samples[r.index()][i].cost() * untraced.pass_ratio,
                    _ => samples[r.index()][i].cost(),
                })
                .sum();
            let top = samples[Rung::Pass.index()][i].cost();
            (top - children) / top
        })
        .collect();
    let e2e = norm_ns_per_byte(untraced.cost.p50);
    // Monotone rungs: a rung should not cost more than the rung it is
    // part of. The pass is judged by `unattributed_share` instead, and a
    // rung that fans out over several lanes does not bound its parts.
    let bounds_its_parts = |p: Rung| {
        p != Rung::Pass && (threads == 1 || !matches!(p, Rung::RuntimeFanout | Rung::RuntimeBurst))
    };
    let inversions = RUNGS
        .iter()
        .filter(|&&r| {
            r.parent(kind).is_some_and(|p| {
                bounds_its_parts(p) && ns_b(r).p50 > ns_b(p).p50 * INVERSION_TOLERANCE
            })
        })
        .count();
    // What delivering the bytes in bursts costs per call, over handing
    // the same bytes to one serial engine call. Negative where the
    // fan-out inside each call wins more than the calls cost.
    let call_overhead_us = per_round(Rung::RuntimeBurst, Rung::Driver, &|burst, driver| {
        let same_bytes_serial = driver.norm_ns() * burst.bytes as f64 / driver.bytes as f64;
        (burst.norm_ns() - same_bytes_serial) / burst.calls as f64 / 1e3
    });
    let speedup = raw_ratio(Rung::Driver, Rung::RuntimeFanout);
    let fanout_bytes: usize = samples[Rung::RuntimeFanout.index()]
        .iter()
        .map(|s| s.bytes)
        .sum();
    let share_stats = layers.multi.share_stats();

    let m = Metric::median;
    let x = Metric::exact;
    let mut metrics = vec![
        m("ceiling.read_ns_b", "ns/B", ns_b(Rung::CeilingRead)),
        m("swar.find_byte_ns_b", "ns/B", ns_b(Rung::FindByte)),
        m("swar.classify_mask_ns_b", "ns/B", ns_b(Rung::ClassifyMask)),
        m("frame.split_records_ns_b", "ns/B", ns_b(Rung::SplitRecords)),
        m("frame.shard_ranges_us", "us", shard_ranges_ns.scaled(1e-3)),
        m("parser.parse_ns_b", "ns/B", ns_b(Rung::Parse)),
        m("engine.compile_ms", "ms", engine_compile.scaled(1e-6)),
        m("multi.compile_ms", "ms", multi_compile.scaled(1e-6)),
        m("engine.on_block_ns_b", "ns/B", ns_b(Rung::OnBlock)),
        x(
            "engine.units_program_ns_b",
            "ns/B",
            self_ns_b(Rung::OnBlock, Rung::ClassifyMask),
        ),
        m("engine.on_byte_ns_b", "ns/B", ns_b(Rung::OnByte)),
        x(
            "engine.block_share",
            "share",
            share(engine_window.counter("engine.bytes.block"), engine_bytes),
        ),
        x(
            "prefilter.reject_share",
            "share",
            share(
                engine_window.counter("engine.prefilter.rejected"),
                engine_window.counter("engine.records"),
            ),
        ),
        x(
            "prefilter.state",
            "state",
            match layers.engine.prefilter_status() {
                PrefilterStatus::Absent => 0.0,
                PrefilterStatus::Probation => 1.0,
                PrefilterStatus::Live => 2.0,
                PrefilterStatus::Disabled => 3.0,
            },
        ),
        x(
            "engine.table_bytes",
            "B",
            layers.engine.table_bytes() as f64,
        ),
        x(
            "engine.num_nodes",
            "count",
            layers.engine.num_nodes() as f64,
        ),
        m("backend.driver_ns_b", "ns/B", ns_b(Rung::Driver)),
        x(
            "backend.driver_self_ns_b",
            "ns/B",
            self_ns_b(Rung::Driver, Rung::OnBlock),
        ),
        m("evaluator.model_ns_b", "ns/B", ns_b(Rung::Model)),
        m("multi.on_block_ns_b", "ns/B", ns_b(Rung::MultiOnBlock)),
        m("multi.driver_ns_b", "ns/B", ns_b(Rung::MultiDriver)),
        x(
            "multi.driver_self_ns_b",
            "ns/B",
            self_ns_b(Rung::MultiDriver, Rung::MultiOnBlock),
        ),
        m(
            "multi.serial_equiv_ns_b",
            "ns/B",
            ns_b(Rung::MultiSerialEquiv),
        ),
        x(
            "multi.sharing_factor",
            "ratio",
            raw_ratio(Rung::MultiSerialEquiv, Rung::MultiDriver),
        ),
        x("multi.units_pool", "count", share_stats.pool.total() as f64),
        x(
            "multi.units_total",
            "count",
            share_stats.total_units() as f64,
        ),
        // Both gates are counted per byte of the block scan.
        x(
            "multi.gate_skip_share.sub1",
            "share",
            share(
                multi_window.counter("multi.gate_skips.sub1"),
                multi_block_bytes,
            ),
        ),
        x(
            "multi.gate_skip_share.subp",
            "share",
            share(
                multi_window.counter("multi.gate_skips.subp"),
                multi_block_bytes,
            ),
        ),
        m("runtime.serial_ns_b", "ns/B", ns_b(Rung::RuntimeSerial)),
        x(
            "runtime.serial_self_ns_b",
            "ns/B",
            self_ns_b(Rung::RuntimeSerial, Rung::Driver),
        ),
        m("runtime.fanout_ns_b", "ns/B", ns_b(Rung::RuntimeFanout)),
        x("runtime.speedup", "ratio", speedup),
        x("runtime.efficiency", "ratio", speedup / threads as f64),
        m("runtime.plan_us", "us", plan_ns.scaled(1e-3)),
        x("runtime.call_overhead_us", "us", call_overhead_us),
        x(
            "runtime.cpu_ns_b",
            "ns/B",
            norm_duration(fanout_cpu_ns, untraced.calibration.p50) / fanout_bytes.max(1) as f64,
        ),
        x("runtime.shard_imbalance", "ratio", shard_imbalance),
        x(
            "runtime.retries",
            "count",
            whole_run.counter("runtime.retries") as f64,
        ),
        x(
            "runtime.lane_heals",
            "count",
            whole_run.counter("runtime.lane_heals") as f64,
        ),
        x("riotbench.generate_s", "s", corpus.generate_s),
        x(
            "riotbench.bytes_per_record",
            "B",
            corpus.bytes() as f64 / corpus.records as f64,
        ),
    ];
    metrics.extend(untraced.run_quality());
    metrics.extend([
        x(
            "trace.overhead_share",
            "share",
            (ns_b(Rung::Pass).p50 - e2e) / e2e,
        ),
        x("unattributed_share", "share", median(&unattributed)),
        x("ladder.inversions", "count", inversions as f64),
        x("ladder.rounds", "count", rounds as f64),
    ]);

    Traced {
        ops,
        rounds,
        metrics,
        spans,
        untraced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_kernels_on_hand_computed_inputs() {
        assert_eq!(find_byte_hops(b"a\nbb\n\nccc"), 3);
        assert_eq!(find_byte_hops(b""), 0);
        let mut words = Vec::new();
        words.extend_from_slice(&3u64.to_le_bytes());
        words.extend_from_slice(&u64::MAX.to_le_bytes());
        words.extend_from_slice(b"tail");
        assert_eq!(ceiling_read(&words), 2);
        // `{"a":1}\n`: bytes 1..=3 are masked and bytes 1 and 3 of them
        // are specials (0b1010), plus the newline mask (bit 7).
        assert_eq!(classify_mask(b"{\"a\":1}\n"), 0b1010 + 0b1000_0000);
    }

    #[test]
    fn rungs_are_listed_in_declaration_order() {
        for (i, rung) in RUNGS.iter().enumerate() {
            assert_eq!(rung.index(), i, "{rung:?}");
        }
    }

    #[test]
    fn every_workload_attributes_its_pass_to_some_rung() {
        for kind in [
            Kind::SenmlPipeline,
            Kind::EngineFilter,
            Kind::Fused,
            Kind::ShardedXl,
            Kind::ShardedBurst,
        ] {
            let children: Vec<_> = RUNGS
                .iter()
                .filter(|r| r.parent(kind) == Some(Rung::Pass))
                .collect();
            assert!(!children.is_empty(), "{kind:?} has no child rung");
            assert_eq!(Rung::Pass.parent(kind), None);
            // Parent links form a forest: walking up always ends.
            for rung in RUNGS {
                let mut at = rung;
                let mut steps = 0;
                while let Some(p) = at.parent(kind) {
                    at = p;
                    steps += 1;
                    assert!(steps < RUNGS.len(), "{kind:?}: cycle through {rung:?}");
                }
            }
        }
        assert_eq!(
            Rung::ClassifyMask.parent(Kind::Fused),
            Some(Rung::MultiOnBlock)
        );
        assert_eq!(
            Rung::SplitRecords.parent(Kind::ShardedBurst),
            Some(Rung::RuntimeBurst)
        );
        assert_eq!(Rung::RuntimeFanout.parent(Kind::ShardedBurst), None);
    }
}
