//! Order statistics for the reported figures.
//!
//! Timings are reported as a median plus the highest percentile (at most
//! the one asked for) that still has at least [`TAIL_MIN_BEYOND`] samples
//! beyond it, so a "p99" from a few hundred samples never rests on one or
//! two outliers. A failed or refused request is a sample of infinite
//! latency: it sorts last and can only push a percentile up.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Latency of a failed request.
pub const FAILED: f64 = f64::INFINITY;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for even counts); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile (infinite when it is a failure).
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The sample at percentile `want` (e.g. 99.0), lowered as far as needed
/// to keep at least [`TAIL_MIN_BEYOND`] samples beyond it. `None` when
/// there are too few samples for any percentile to qualify.
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    // Nearest-rank index of the wanted percentile, then capped so that
    // n - 1 - idx >= TAIL_MIN_BEYOND.
    let rank = ((want / 100.0) * n as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(n - 1 - TAIL_MIN_BEYOND);
    Some(Tail {
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        value: v[idx],
        beyond: n - 1 - idx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 2000 samples: p99 has 20 beyond it, so p99 itself is reported.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.percentile, 99.0);
        // 100 samples: p99 would have one sample beyond it; the reported
        // percentile drops to the 90th, which has exactly ten.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, TAIL_MIN_BEYOND);
        assert_eq!(t.percentile, 90.0);
        // Ten samples cannot have ten beyond any of them.
        assert!(tail(&v[..10], 99.0).is_none());
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 1000 fast requests plus 11 failures: the failures sit beyond
        // every finite sample, so the tail is infinite.
        let mut v = vec![100.0; 1000];
        v.extend(std::iter::repeat_n(FAILED, 11));
        assert!(tail(&v, 99.0).unwrap().value.is_infinite());
        // With ten failures the capped tail lands on the last success.
        v.pop();
        assert_eq!(tail(&v, 99.0).unwrap().value, 100.0);
        // A median can be pushed to infinity too.
        let half: Vec<f64> = vec![1.0, FAILED, FAILED];
        assert!(median(&half).unwrap().is_infinite());
    }
}
