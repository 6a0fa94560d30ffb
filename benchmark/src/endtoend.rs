//! The untraced run of one workload: set-up repetitions, the checked
//! warm rotation, then bracketed passes for the requested time.

use crate::calib::{Bracket, Calibrator};
use crate::corpus::{record_aligned_prefix, Corpus};
use crate::host::sched_wait_ns;
use crate::report::Metric;
use crate::stats::{cost, norm_duration, norm_ns_per_byte, Summary};
use crate::workloads::{
    check_pass, checked_rotation, units, Instance, Ops, PassOutput, Spec, Unit, SETUP_SLICE_BYTES,
};

/// Fresh set-up repetitions per run, spread over its whole length.
pub const SETUP_REPS: usize = 41;
/// Passes timed even if `--seconds` is already over.
const MIN_PASSES: usize = 8;

pub struct EndToEnd {
    /// Dimensionless pass costs (ns/byte ÷ calibration ns/byte).
    pub cost: Summary,
    pub raw_ns_per_byte: Summary,
    /// Normalised seconds from `Expr`s to a filter that answered once.
    pub setup_s: Summary,
    pub pass_ratio: f64,
    pub ops: Ops,
    /// `senml_pipeline`: (survivors the parser confirmed, matches found
    /// by parsing everything) over the checked rotation.
    pub hits: (usize, usize),
    /// Calibration readings around the timed passes, raw ns/byte.
    pub calibration: Summary,
    /// Share of the timed loop the main thread spent runnable but not
    /// running.
    pub sched_wait_share: f64,
    /// The warmed instance and the outputs it must keep reproducing,
    /// for the traced run's top rung.
    pub instance: Instance,
    pub expected: Vec<PassOutput>,
}

/// One fresh set-up: from the workload's `Expr`s to an object that has
/// answered `unit` once. Normalised seconds.
impl EndToEnd {
    /// How far to trust this run: raw speed, the slow tail, and how much
    /// the passes and the yardstick moved while it ran.
    pub fn run_quality(&self) -> Vec<Metric> {
        let x = Metric::exact;
        vec![
            x("mbps_raw_p50", "MB/s", 1000.0 / self.raw_ns_per_byte.p50),
            x("cost_p90", "ns/B", norm_ns_per_byte(self.cost.p90)),
            x("noise.pass_spread", "share", self.cost.spread()),
            x("noise.calib_ns_b_p50", "ns/B", self.calibration.p50),
            x("noise.calib_spread", "share", self.calibration.spread()),
            x("noise.sched_wait_share", "share", self.sched_wait_share),
        ]
    }
}

fn time_setup(
    spec: &Spec,
    unit: &Unit<'_>,
    out: &mut PassOutput,
    bracket: &mut Bracket<'_>,
    lanes: usize,
) -> f64 {
    // The instance is returned so that dropping it is not timed.
    let (_instance, t) = bracket.time(lanes, || {
        let mut instance = Instance::build(spec, lanes);
        instance
            .pass(spec, unit, out)
            .expect("a fresh runner answers a 64 KiB slice");
        instance
    });
    norm_duration(t.ns(), t.cal_ns_per_byte) / 1e9
}

pub fn run(
    spec: &Spec,
    corpus: &Corpus,
    xl: &[u8],
    cal: &Calibrator,
    lanes: usize,
    seconds: f64,
) -> EndToEnd {
    let units = units(spec.kind, corpus, xl);
    let mut instance = Instance::build(spec, lanes);
    let checked = checked_rotation(spec, &mut instance, &units, &corpus.segments[0]);
    let mut ops = checked.ops;

    let setup_unit = Unit::whole(record_aligned_prefix(
        &corpus.segments[0],
        SETUP_SLICE_BYTES,
    ));
    let mut setup_out = PassOutput::new(spec);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut out = PassOutput::new(spec);
    let mut costs = Vec::new();
    let mut raw = Vec::new();
    let wait_before = sched_wait_ns();
    let mut bracket = Bracket::new(cal);
    while costs.len() < MIN_PASSES || bracket.elapsed_s() < seconds {
        // The set-up repetitions are spread evenly over the run, so that a
        // disturbance of a few seconds cannot cover most of them.
        let due = setups.len() as f64 * seconds / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && bracket.elapsed_s() >= due {
            let s = time_setup(spec, &setup_unit, &mut setup_out, &mut bracket, lanes);
            setups.push(s);
        }
        let u = costs.len() % units.len();
        let unit = &units[u];
        let (result, t) = bracket.time(lanes, || instance.pass(spec, unit, &mut out));
        ops.add(check_pass(spec, &result, &out, &checked.expected[u]));
        costs.push(cost(t.ns(), unit.bytes.len(), t.cal_ns_per_byte));
        raw.push(t.ns() / unit.bytes.len() as f64);
    }
    let wall_ns = bracket.elapsed_s() * 1e9;
    let sched_wait_share = match (wait_before, sched_wait_ns()) {
        (Some(before), Some(after)) => (after - before) as f64 / wall_ns,
        _ => 0.0,
    };
    // A run too short to fit them all between passes tops them up.
    while setups.len() < SETUP_REPS {
        let s = time_setup(spec, &setup_unit, &mut setup_out, &mut bracket, lanes);
        setups.push(s);
    }

    EndToEnd {
        cost: Summary::of(&costs),
        raw_ns_per_byte: Summary::of(&raw),
        setup_s: Summary::of(&setups),
        pass_ratio: checked.pass_ratio,
        ops,
        hits: (
            checked.expected.iter().map(|e| e.hits).sum(),
            checked.truth_hits,
        ),
        expected: checked.expected,
        calibration: Summary::of(&bracket.cal_readings),
        sched_wait_share,
        instance,
    }
}
