//! The benchmark's own statistics: medians, quartiles, the tail-percentile
//! rule and the FNV digest that pins simulated results.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads this benchmark prints match the ones its users compute.
/// A single sample is its own quartiles; `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile range as a share of the median (the benchmark's spread
/// measure). `None` when undefined (no samples or a zero median).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med.abs() > 0.0).then(|| (q3 - q1) / med.abs())
}

/// Candidate percentiles for a tail statistic, ascending.
pub const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of already-sorted `v` (1-based rank
/// `ceil(p/100 * n)`), with the number of samples strictly ranked beyond it.
fn nearest_rank(v: &[f64], p: f64) -> (f64, usize) {
    let n = v.len();
    // The epsilon keeps binary rounding of e.g. 99.9% x 10000 from
    // pushing an exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (v[rank - 1], n - rank)
}

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`.
/// `None` when even the median leaves fewer than ten (fewer than 20
/// samples): the sample does not support a tail figure.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    TAIL_PERCENTILES
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(&v, p)))
        .find(|&(_, (_, beyond))| beyond >= TAIL_MIN_BEYOND)
        .map(|(p, (value, _))| (p, value))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a, folded incrementally so a digest can span many runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// FNV-1a of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).expect("defined");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median leaves ten beyond.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 20 samples: p50 (rank 10) leaves exactly ten.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        // 40 samples: p75 = rank 30 leaves ten; p90 = rank 36 leaves four.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75.0, 30.0)));
        // 100 samples: p90 = rank 90 leaves ten; p95 leaves five.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 = rank 990 leaves ten.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
        // 10000 samples: p99.9 = rank 9990 leaves ten.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big), Some((99.9, 9990.0)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.0, Fnv::of(b"foobar"));
    }
}
