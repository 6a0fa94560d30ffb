//! Order statistics and the calibration normalisation arithmetic.

use crate::calib::CAL_REF_NS_PER_BYTE;

/// Quantile `q` (0..=1) of an ascending-sorted sample, by linear
/// interpolation between the two nearest ranks (rank `q·(n−1)`).
///
/// # Panics
///
/// Panics on an empty sample — every caller times at least one pass.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Lower decile, quartiles, median and p90 of a sample, with its size.
/// p90 has ten samples beyond it only from `n ≥ 100`; `n` is always
/// reported next to it so a reader can tell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            p10: quantile(&s, 0.10),
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.50),
            p75: quantile(&s, 0.75),
            p90: quantile(&s, 0.90),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.p50
    }

    /// Every statistic multiplied by `k` (a change of unit).
    pub fn scaled(&self, k: f64) -> Summary {
        Summary {
            n: self.n,
            p10: self.p10 * k,
            p25: self.p25 * k,
            p50: self.p50 * k,
            p75: self.p75 * k,
            p90: self.p90 * k,
        }
    }
}

/// The summary of the normalised throughputs of passes whose costs have
/// summary `cost`: `norm_mbps` reverses order, so the quantiles mirror
/// (the lower decile of the cost is the p90 of the throughput).
pub fn throughput_summary(cost: &Summary) -> Summary {
    Summary {
        n: cost.n,
        p10: norm_mbps(cost.p90),
        p25: norm_mbps(cost.p75),
        p50: norm_mbps(cost.p50),
        p75: norm_mbps(cost.p25),
        p90: norm_mbps(cost.p10),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// One pass's cost: its ns/byte as a multiple of the calibration
/// kernel's ns/byte measured around it. Dimensionless.
pub fn cost(pass_ns: f64, bytes: usize, cal_ns_per_byte: f64) -> f64 {
    pass_ns / bytes as f64 / cal_ns_per_byte
}

/// A cost as ns/byte on the reference machine (calibration kernel at
/// exactly [`CAL_REF_NS_PER_BYTE`]).
pub fn norm_ns_per_byte(cost: f64) -> f64 {
    cost * CAL_REF_NS_PER_BYTE
}

/// A cost as MB/s on the reference machine: `500 / cost` at the
/// reference rate of 2 ns/byte.
pub fn norm_mbps(cost: f64) -> f64 {
    1000.0 / norm_ns_per_byte(cost)
}

/// A wall-clock duration rescaled to the reference machine.
pub fn norm_duration(ns: f64, cal_ns_per_byte: f64) -> f64 {
    ns * CAL_REF_NS_PER_BYTE / cal_ns_per_byte
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_hand_computed_samples() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        // Rank 0.9·3 = 2.7 between 30 and 40.
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.9) - 37.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_sorts_and_measures_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert!((s.p10 - 1.4).abs() < 1e-12 && (s.p90 - 4.6).abs() < 1e-12);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let t = s.scaled(2.0);
        assert_eq!((t.n, t.p25, t.p50, t.p75), (5, 4.0, 6.0, 8.0));
    }

    #[test]
    fn normalisation_on_hand_computed_inputs() {
        // 8 ns/byte while the yardstick runs at 4 ns/byte: cost 2, i.e.
        // 4 ns/byte = 250 MB/s on the 2 ns/byte reference machine.
        let c = cost(8.0 * 1024.0, 1024, 4.0);
        assert!((c - 2.0).abs() < 1e-12);
        assert!((norm_ns_per_byte(c) - 4.0).abs() < 1e-12);
        assert!((norm_mbps(c) - 250.0).abs() < 1e-12);
        // 3 ms on a machine half as fast as the reference is 1.5 ms.
        assert!((norm_duration(3e6, 4.0) - 1.5e6).abs() < 1e-6);
        // Costs 1..5 are 500..100 MB/s; the cheap decile is the fast one.
        let t = throughput_summary(&Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert!((t.p90 - 500.0 / 1.4).abs() < 1e-9 && (t.p10 - 500.0 / 4.6).abs() < 1e-9);
        assert_eq!((t.p25, t.p50, t.p75), (125.0, 500.0 / 3.0, 250.0));
    }
}
