//! Percentiles that refuse to over-claim: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, and every timing
//! is printed with its sample count.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may fall back to, highest first.
const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// One reported percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Which percentile (e.g. `99.0`).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    /// `p99 10.213 ms (n=1834, 18 beyond)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p{} {:.4} {unit} (n={}, {} beyond)",
            self.pct, self.value, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `pct` percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Pct> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Rank in integer per-mille arithmetic, so p95 of 200 is exactly 190.
    let permille = (pct * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000).max(1);
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Pct {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The highest percentile no higher than `want` that has enough samples
/// beyond it; `None` when not even the median qualifies.
pub fn tail(samples: &[f64], want: f64) -> Option<Pct> {
    LADDER
        .iter()
        .filter(|&&p| p <= want)
        .find_map(|&p| percentile(samples, p))
}

/// Median of a non-empty set (the mean of the middle two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty set");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 20 samples: the median has exactly 10 above it, p99 has none.
        let p50 = percentile(&ramp(20), 50.0).expect("10 beyond the median");
        assert_eq!((p50.value, p50.beyond, p50.samples), (10.0, 10, 20));
        assert_eq!(percentile(&ramp(20), 99.0), None, "no p99 from 20 samples");
        assert_eq!(percentile(&ramp(19), 50.0), None, "9 beyond is not enough");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        let p99 = percentile(&ramp(1000), 99.0).expect("1000 samples carry a p99");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(200), 99.0).expect("some tail");
        assert_eq!(t.pct, 95.0, "p99/p98 lack samples, p95 has 10 beyond");
        assert_eq!(t.beyond, 10);
        assert_eq!(tail(&ramp(5000), 99.0).map(|t| t.pct), Some(99.0));
        assert_eq!(tail(&ramp(12), 99.0), None, "not even a median");
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 75.0), percentile(&ramp(100), 75.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
