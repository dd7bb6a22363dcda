//! Order statistics over a handful of samples.

/// The median of `values` (mean of the two middle values for an even
/// count); 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    rfnoc::gate::median(values).unwrap_or(0.0)
}

/// What the benchmark prints beside every metric: the median over the
/// workload's reps with the extremes and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples (the reported value).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; all-zero for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let median = median(values);
        Self {
            median,
            min: values.iter().copied().fold(median, f64::min),
            max: values.iter().copied().fold(median, f64::max),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_carries_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        let empty = Summary::of(&[]);
        assert_eq!(
            (empty.median, empty.min, empty.max, empty.n),
            (0.0, 0.0, 0.0, 0)
        );
    }
}
