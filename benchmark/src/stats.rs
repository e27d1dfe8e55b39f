//! Order statistics for timings: medians, quartiles, and the tail
//! percentile rule.

/// A growing set of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median, 0 when empty (an absent layer reports 0).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Median, quartiles and tail of the set in one sort.
    pub fn summary(&self) -> Summary {
        let sorted = self.sorted();
        let (q1, q3) = quartiles_sorted(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median: median_sorted(&sorted),
            q3,
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile_sorted(&sorted, p))),
        }
    }
}

/// What is printed beside a timing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile that has at
    /// least ten samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(0.0, |(_, v)| v)
    }

    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.4}"),
            None => String::new(),
        };
        format!(
            "n={} q1={:.4} median={:.4} q3={:.4}{tail} {unit}",
            self.n, self.q1, self.median, self.q3
        )
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is the
/// rule the spread of a metric across runs is judged by.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    if m < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(q1, median, q3)` of values from several runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (q1, q3) = quartiles_sorted(&v);
    (q1, median_sorted(&v), q3)
}

/// The highest of the usual percentiles that still has at least ten of
/// `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000): whole numbers, so that
    // exactly ten beyond counts as ten.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (90.0, 1000),
        (50.0, 5000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond >= 10 * 10_000)
    .map(|(p, _)| p)
}

/// Value at percentile `p`: the smallest sample with at least `p`% of
/// the set at or below it (nearest rank).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn tail_value_leaves_ten_beyond() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        let sum = s.summary();
        assert_eq!(sum.tail, Some((99.0, 990.0)));
        assert_eq!(sum.median, 500.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn empty_set_reads_zero() {
        let s = Samples::default();
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.summary().tail_value(), 0.0);
    }
}
