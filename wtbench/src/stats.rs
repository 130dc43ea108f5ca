//! Order statistics over repeated samples. Every timing the benchmark
//! reports goes through [`Summary`]: a median with quartiles and the
//! sample count, never a best-of.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest ranks (the "type 7" estimator).
/// Returns 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Median, quartiles and 99th percentile of a sample, with its size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        Summary {
            n: xs.len(),
            p25: quantile(&xs, 0.25),
            p50: quantile(&xs, 0.50),
            p75: quantile(&xs, 0.75),
            p99: quantile(&xs, 0.99),
        }
    }

    /// Samples strictly above the 99th percentile: the guide for whether
    /// p99 rests on enough of a tail (at least ten) to be worth quoting.
    pub fn beyond_p99(&self) -> usize {
        self.n - (0.99 * self.n as f64).ceil() as usize
    }
}

/// The samples taken while the host was quietest: every sample whose
/// window of time had no more of the CPUs stolen by the hypervisor than
/// the least stolen `share` of all samples had at most. On a quiet host
/// that is every sample. On a shared host the steal share swings between
/// nothing and half of the CPUs within seconds, and a sample taken through
/// such a burst measures the neighbours, not the program.
pub fn quietest(samples: &[f64], steal: &[f64], share: f64) -> Vec<f64> {
    assert_eq!(samples.len(), steal.len(), "one steal share per sample");
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (samples.len() as f64 * share).ceil() as usize;
    let Some(&limit) = sorted.get(rank.clamp(1, sorted.len().max(1)) - 1) else {
        return Vec::new();
    };
    samples
        .iter()
        .zip(steal)
        .filter(|&(_, &st)| st <= limit)
        .map(|(&x, _)| x)
        .collect()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!((s.p25, s.p50, s.p75), (2.0, 3.0, 4.0));
        // 1..=1000: p99 sits between ranks 990 and 991; ten samples lie beyond it.
        let s = Summary::of((1..=1000).map(f64::from).collect());
        assert!((s.p99 - 990.01).abs() < 1e-9, "{}", s.p99);
        assert_eq!(s.beyond_p99(), 10);
        assert_eq!(Summary::of(Vec::new()).n, 0);
    }

    #[test]
    fn quietest_keeps_the_least_stolen_share() {
        let xs = [10.0, 11.0, 50.0, 12.0, 60.0, 13.0];
        let steal = [0.0, 0.01, 0.4, 0.0, 0.3, 0.01];
        assert_eq!(quietest(&xs, &steal, 0.5), vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(quietest(&xs, &steal, 0.3), vec![10.0, 12.0]);
        assert_eq!(quietest(&xs, &steal, 1.0).len(), 6);
        // A quiet host keeps every sample.
        assert_eq!(quietest(&xs, &[0.0; 6], 0.25).len(), 6);
        assert!(quietest(&[], &[], 0.5).is_empty());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
