//! One latency series, µs, in recording order: the controller's stage
//! times and the auditor's audit times are both a [`Samples`], and a
//! fleet rollup of either is `+=`, which concatenates.

/// A series of µs samples, kept whole so any percentile can be taken
/// after the fact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, us: u64) {
        self.0.push(us);
    }

    /// Every sample, in recording order.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Integer mean; `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        let n = self.0.len() as u64;
        (n > 0).then(|| self.0.iter().sum::<u64>() / n)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.0.iter().max().copied()
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
    pub fn percentile(&self, p: usize) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

impl std::ops::AddAssign for Samples {
    /// Appends the right-hand series, order kept.
    fn add_assign(&mut self, rhs: Samples) {
        self.0.extend(rhs.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for us in values {
            s.push(us);
        }
        s
    }

    #[test]
    fn empty_series_has_no_summary() {
        let s = Samples::default();
        assert!(s.as_slice().is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(99), 0);
    }

    #[test]
    fn last_mean_and_max() {
        let mut s = of([100, 300]);
        s.push(200);
        assert_eq!(s.as_slice().last(), Some(&200));
        assert_eq!(s.mean(), Some(200));
        assert_eq!(s.max(), Some(300));
        // The mean rounds down.
        assert_eq!(of([1, 2]).mean(), Some(1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(of([7]).percentile(50), 7);
        let series = of(1..=100);
        assert_eq!(series.percentile(50), 50);
        assert_eq!(series.percentile(99), 99);
        assert_eq!(series.percentile(100), 100);
        assert_eq!(series.percentile(0), 1);
        // Unsorted input is ranked, not indexed.
        assert_eq!(of([30, 10, 20]).percentile(50), 20);
    }

    #[test]
    fn add_assign_concatenates_in_order() {
        let mut a = of([3, 1]);
        a += of([2]);
        a += Samples::default();
        assert_eq!(a.as_slice(), &[3, 1, 2]);
    }
}
