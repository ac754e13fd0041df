//! Order statistics for latency samples.

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, as `(value, percentile)`, but never below
/// the median. With fewer than 21 samples that percentile would not reach
/// the median, so the median is reported, as percentile 50: a maximum over
/// a handful of samples is one unrepeatable draw, not a tail.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, 100.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return (median(&v), 50.0);
    }
    // The value at sorted index k has n - 1 - k samples above it.
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// The tail over a run made of rounds of the same requests: each round's
/// [`tail`], then the median over rounds, as `(value, percentile)`. A
/// pooled tail of a long run sits at a percentile so high that a single
/// stall anywhere in the run moves it; the per-round tail stays at the
/// same percentile however long the run is. When rounds are too short to
/// have a tail of their own, the tail of the pooled sample is reported.
pub fn round_tail(rounds: &[Vec<f64>]) -> (f64, f64) {
    if rounds.is_empty() || rounds.iter().any(|r| r.len() < 21) {
        return tail(&rounds.concat());
    }
    let (values, pcts): (Vec<f64>, Vec<f64>) = rounds.iter().map(|r| tail(r)).unzip();
    (median(&values), median(&pcts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 89.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (2.0, 50.0));
        let twelve: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&twelve), (5.5, 50.0));
    }

    #[test]
    fn round_tail_is_the_median_of_per_round_tails() {
        let round = |shift: f64| -> Vec<f64> { (0..100).map(|i| f64::from(i) + shift).collect() };
        let rounds = vec![round(0.0), round(10.0), round(1.0)];
        assert_eq!(round_tail(&rounds), (90.0, 90.0));
        // Rounds too short for a tail of their own are pooled.
        let short = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(round_tail(&short), tail(&[1.0, 2.0, 3.0, 4.0]));
    }
}
