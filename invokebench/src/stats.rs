//! Percentiles of timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `v`, interpolating linearly between
/// the two nearest order statistics. Sorts `v`; NaN when `v` is empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&mut [0.0, 10.0], 0.9), 9.0);
        assert!(median(&mut []).is_nan());
    }
}
