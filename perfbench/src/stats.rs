//! Order statistics used to summarise repeated measurements.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a reader recomputes from the
/// raw numbers. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Percentiles considered for a latency tail, highest last.
const TAIL_CANDIDATES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency tail: which percentile was chosen and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 90.0), or `None` when fewer than
    /// `2 × TAIL_MIN_BEYOND` samples leave no percentile with enough
    /// samples beyond it and the median stands in.
    pub percentile: Option<f64>,
    /// The sample at that percentile (nearest-rank), or the median.
    pub value: f64,
}

impl Tail {
    /// A short label such as `p90`, or one saying no tail exists.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) if p.fract() == 0.0 => format!("p{p:.0}"),
            Some(p) => format!("p{p}"),
            None => "median (too few samples for a tail percentile)".to_string(),
        }
    }
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its nearest-rank position. With too few
/// samples for even the median to qualify, the median stands in: the
/// maximum of a handful of samples swings with every outlier. `None` for
/// an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let chosen = TAIL_CANDIDATES.iter().rev().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail { percentile: Some(p), value: data[rank - 1] })
    });
    chosen.or_else(|| Some(Tail { percentile: None, value: median(&data)? }))
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 20 samples: p50 sits at rank 10 with 10 beyond; p75 would have 5.
        let data: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&data).unwrap();
        assert_eq!(t.percentile, Some(50.0));
        assert_eq!(t.value, 10.0);
        // 100 samples: p90 at rank 90 has exactly 10 beyond.
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&data).unwrap();
        assert_eq!((t.label(), t.value), ("p90".to_string(), 90.0));
        // 1000 samples: p99 at rank 990.
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&data).unwrap().label(), "p99");
        // Too few samples for any percentile: the median stands in.
        let t = tail(&[0.3, 0.1, 0.2]).unwrap();
        assert_eq!((t.percentile, t.value), (None, 0.2));
        assert!(t.label().starts_with("median"));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
