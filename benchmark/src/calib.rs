//! The frozen calibration kernel and the bracketed timer built on it.
//!
//! The host this runs on flips between clock modes for seconds at a
//! time, so raw wall clock does not repeat (README, "Timing method").
//! Every timed pass is therefore bracketed by a fixed yardstick — one
//! dependent load chain `s = LUT[s ^ b]` over a fixed 256 KiB buffer —
//! and reported as a multiple of it. The chain is latency-bound: one
//! L1 load plus one xor per byte, nothing for the compiler or its flags
//! to reorder, so the yardstick moves with the machine and not with the
//! code under test.
//!
//! The LUT and the buffer are part of the metric definitions: changing
//! either rescales every number in `BENCHMARK.json`. A unit test pins
//! both by checksum.

use std::hint::black_box;
use std::time::Instant;

/// The reference machine runs the calibration chain at this rate;
/// normalised figures are quoted on that machine.
pub const CAL_REF_NS_PER_BYTE: f64 = 2.0;
/// Calibration buffer size.
pub const CAL_BYTES: usize = 256 * 1024;
/// `LUT[i] = (LUT_MUL · i + LUT_ADD) mod 256` — a full-period affine
/// permutation of the byte values.
pub const LUT_MUL: usize = 167;
pub const LUT_ADD: usize = 13;
/// Seed of the xorshift64* stream that fills the buffer.
const BUFFER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-1a, the checksum used for the calibration constants and for
/// corpus segment identities in `result.json`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn lut() -> [u8; 256] {
    std::array::from_fn(|i| ((LUT_MUL * i + LUT_ADD) % 256) as u8)
}

pub fn buffer() -> Vec<u8> {
    let mut x = BUFFER_SEED;
    (0..CAL_BYTES)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// Checksum over LUT then buffer, recorded in `result.json`.
pub fn checksum() -> u64 {
    let mut all = lut().to_vec();
    all.extend_from_slice(&buffer());
    fnv1a(&all)
}

pub struct Calibrator {
    lut: [u8; 256],
    buf: Vec<u8>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            lut: lut(),
            buf: buffer(),
        }
    }

    /// One walk of the chain on the calling thread; ns per byte.
    fn walk(&self) -> f64 {
        let t = Instant::now();
        let mut s = 0u8;
        for &b in black_box(&self.buf[..]) {
            s = self.lut[usize::from(s ^ b)];
        }
        black_box(s);
        t.elapsed().as_nanos() as f64 / CAL_BYTES as f64
    }

    /// The faster of two consecutive walks: an interrupt or a
    /// descheduling during one walk would otherwise make the pass next to
    /// it look cheap.
    fn chain(&self) -> f64 {
        self.walk().min(self.walk())
    }

    /// The yardstick for a workload that runs `lanes` threads: the chain
    /// on `lanes` scoped threads at once, slowest lane counts (a pass
    /// that fans out is as slow as its slowest core).
    pub fn run(&self, lanes: usize) -> f64 {
        if lanes <= 1 {
            return self.chain();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes).map(|_| scope.spawn(|| self.chain())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread cannot panic"))
                .fold(0.0, f64::max)
        })
    }
}

/// One bracketed timing: the pass, and the yardstick around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Offsets from the timer's origin, for spans.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Mean of the calibration runs before and after, ns/byte.
    pub cal_ns_per_byte: f64,
}

impl Timing {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Times closures between calibration runs. The run after one pass is
/// the run before the next (when both use the same lane count), so each
/// pass costs one calibration.
pub struct Bracket<'a> {
    cal: &'a Calibrator,
    origin: Instant,
    /// Lane count and reading of the latest calibration.
    last: (usize, f64),
    /// Every calibration reading taken, for the noise metrics.
    pub cal_readings: Vec<f64>,
}

impl<'a> Bracket<'a> {
    pub fn new(cal: &'a Calibrator) -> Bracket<'a> {
        // The first walk pulls the buffer and LUT into cache.
        cal.run(1);
        Bracket {
            cal,
            origin: Instant::now(),
            last: (0, 0.0),
            cal_readings: Vec::new(),
        }
    }

    fn calibrate(&mut self, lanes: usize) -> f64 {
        let reading = self.cal.run(lanes);
        self.last = (lanes, reading);
        self.cal_readings.push(reading);
        reading
    }

    /// Times `pass`, which runs `lanes` threads, against the yardstick
    /// on as many.
    pub fn time<R>(&mut self, lanes: usize, pass: impl FnOnce() -> R) -> (R, Timing) {
        let before = match self.last {
            (l, reading) if l == lanes => reading,
            _ => self.calibrate(lanes),
        };
        let start = self.origin.elapsed();
        let result = pass();
        let end = self.origin.elapsed();
        let after = self.calibrate(lanes);
        let timing = Timing {
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            cal_ns_per_byte: (before + after) / 2.0,
        };
        (result, timing)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_constants_are_pinned() {
        let l = lut();
        assert_eq!((l[0], l[1], l[2], l[255]), (13, 180, 91, 102));
        let mut seen = [false; 256];
        for &v in &l {
            seen[usize::from(v)] = true;
        }
        assert!(seen.iter().all(|&s| s), "LUT is a permutation");
        assert_eq!(buffer().len(), CAL_BYTES);
        // Values computed independently (Python) from the definitions.
        assert_eq!(fnv1a(&l), 0x78b0_30d7_de79_3125, "LUT bytes changed");
        assert_eq!(
            fnv1a(&buffer()),
            0xcc66_81b2_24b2_f6c9,
            "calibration buffer bytes changed"
        );
        assert_eq!(checksum(), 0x7257_75ce_5f0a_04c9, "checksum changed");
    }

    #[test]
    fn bracket_averages_the_surrounding_calibrations() {
        let cal = Calibrator::new();
        let mut b = Bracket::new(&cal);
        let (v, t) = b.time(1, || 7);
        assert_eq!(v, 7);
        assert!(t.end_ns >= t.start_ns);
        let r = b.cal_readings.clone();
        assert_eq!(r.len(), 2, "one reading before, one after");
        assert!((t.cal_ns_per_byte - (r[0] + r[1]) / 2.0).abs() < 1e-12);
        // Same lane count: the reading after is the next one before.
        let (_, t2) = b.time(1, || ());
        assert_eq!(b.cal_readings.len(), 3);
        assert!((t2.cal_ns_per_byte - (r[1] + b.cal_readings[2]) / 2.0).abs() < 1e-12);
        // Another lane count takes its own reading before.
        b.time(2, || ());
        assert_eq!(b.cal_readings.len(), 5);
    }
}
