//! Order statistics, the percentile picker and the FNV-1a digest.

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks — the same rule as Python's
/// `statistics.quantiles(.., method="inclusive")`. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The percentiles a latency series may be summarised at, ascending,
/// each with the share of samples beyond it in parts per thousand.
pub const PERCENTILES: [(f64, usize); 4] = [(50.0, 500), (90.0, 100), (99.0, 10), (99.9, 1)];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it in a series of `samples` values (choosing-metrics §1), or
/// `None` when even the median has fewer than ten above it.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map(|(p, _)| *p)
}

/// FNV-1a over `bytes`, truncated to 48 bits so the digest survives a
/// trip through an `f64` metric value exactly.
pub fn fnv48(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h & 0xFFFF_FFFF_FFFF
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 when
/// `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_fits_an_f64_mantissa() {
        let d = fnv48(b"switch T1\n");
        assert!(d < 1 << 48);
        assert_eq!(d as f64 as u64, d);
        assert_ne!(d, fnv48(b"switch T2\n"));
    }
}
