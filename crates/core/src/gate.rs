//! The median the repo benchmark reports over its reps.
//!
//! `benchmark/src/stats.rs` is its only caller; it stays here until the
//! benchmark carries a median of its own.

/// Median of a slice (mean of the middle two for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_parity() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }
}
