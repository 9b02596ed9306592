//! Percentiles with linear interpolation (Hyndman–Fan type 7, the
//! NumPy/R default).

/// The `q`-quantile (`0.0..=1.0`) of `data`, which need not be sorted.
///
/// Returns `None` on empty input or when `q` is outside `[0, 1]`. NaN
/// values are rejected by a debug assertion (measurement pipelines never
/// produce them).
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = data.to_vec();
    debug_assert!(sorted.iter().all(|x| !x.is_nan()), "NaN in quantile input");
    sorted.sort_by(f64::total_cmp);
    Some(quantile_of_sorted(&sorted, q))
}

/// The `q`-quantile of already-sorted data.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `[0, 1]` (callers are
/// expected to validate; [`quantile`] is the forgiving entry point).
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let ranks = QuantileRanks::new(sorted.len(), q);
    ranks.interpolate(sorted[ranks.lo()], sorted[ranks.hi()])
}

/// The two ranks [`quantile_of_sorted`] reads for the `q`-quantile of
/// `n` sorted values, and its interpolation between them: a caller that
/// finds the two order statistics without sorting (by selection) gets
/// the same bits.
#[derive(Debug, Clone, Copy)]
pub struct QuantileRanks {
    lo: usize,
    /// `lo` or `lo + 1`.
    hi: usize,
    /// Weight of the upper rank; `None` for a single value, which is
    /// the quantile as it is.
    frac: Option<f64>,
}

impl QuantileRanks {
    /// The ranks of the `q`-quantile of `n` values.
    ///
    /// # Panics
    /// Panics if `n` is zero or `q` is outside `[0, 1]`.
    pub fn new(n: usize, q: f64) -> QuantileRanks {
        assert!(n > 0, "quantile of empty slice");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction out of range: {q}"
        );
        if n == 1 {
            return QuantileRanks {
                lo: 0,
                hi: 0,
                frac: None,
            };
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        QuantileRanks {
            lo,
            hi: pos.ceil() as usize,
            frac: Some(pos - lo as f64),
        }
    }

    /// The lower rank.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The upper rank: `lo()` or `lo() + 1`.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// The quantile from the values at ranks `lo()` and `hi()`.
    pub fn interpolate(&self, lo: f64, hi: f64) -> f64 {
        match self.frac {
            None => lo,
            Some(frac) => lo + (hi - lo) * frac,
        }
    }
}

/// The median of `data` (unsorted). `None` on empty input.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// Arithmetic mean. `None` on empty input.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        None
    } else {
        Some(data.iter().sum::<f64>() / data.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator). `None` when fewer than
/// two points.
pub fn std_dev(data: &[f64]) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
    let m = mean(data)?;
    let var = data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64;
    Some(var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn empty_and_invalid() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        let data = [1.0, 2.0, 3.0, 4.0];
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&data, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&data, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&data, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_ok() {
        let data = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&data), Some(5.0));
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(9.0));
    }

    #[test]
    fn p5_and_p95_on_uniform_grid() {
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(&data, 0.05).unwrap() - 5.0).abs() < 1e-9);
        assert!((quantile(&data, 0.95).unwrap() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(std_dev(&[1.0]), None);
        // Sample std of [2,4,4,4,5,5,7,9] is ~2.138.
        let s = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s - 2.13809).abs() < 1e-4, "{s}");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile(&data, q).unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }
}
