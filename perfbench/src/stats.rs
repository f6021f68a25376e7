//! Percentiles with their sample counts.
//!
//! Every timing the benchmark reports carries the number of samples it was
//! taken from and how many samples lie strictly beyond the reported
//! percentile, so a tail read off too few samples shows as such.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Pct {
    /// `Err` unless at least [`MIN_BEYOND`] samples lie beyond the value.
    pub fn require_tail(&self, what: &str) -> Result<f64, String> {
        if self.beyond < MIN_BEYOND {
            return Err(format!(
                "{what}: only {} of {} samples lie beyond the reported percentile (need {MIN_BEYOND})",
                self.beyond, self.n
            ));
        }
        Ok(self.value)
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest value with at least `p`% of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, n) - 1];
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    Some(Pct { value, n, beyond })
}

/// The median (nearest rank) of `samples`, or `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p100 = percentile(&xs, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        let p = percentile(&xs, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (3.0, 2));
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn ties_are_not_beyond() {
        let xs = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0];
        let p = percentile(&xs, 90.0).unwrap();
        assert_eq!((p.value, p.beyond), (2.0, 1));
    }

    #[test]
    fn empty_and_single_samples() {
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[]), 0.0);
        let p = percentile(&[7.0], 90.0).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (7.0, 1, 0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90: nine samples lie beyond it.
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!(p90.beyond, 9);
        assert!(p90.require_tail("p90").is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0).unwrap().require_tail("p90"), Ok(90.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
