//! The harness's own arithmetic: nearest-rank order statistics and the
//! process's peak resident set.

/// Nearest-rank percentile over an ascending-sorted slice (`p` in
/// `[0, 100]`); 0.0 when empty. The same rule `ServingReport` uses, so
/// harness and simulator quantiles agree on ties.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Minimum, median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Nearest-rank order statistics of an unsorted sample.
pub fn quartiles(samples: &[f64]) -> Quartiles {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quartiles {
        n: sorted.len(),
        min: nearest_rank(&sorted, 0.0),
        q1: nearest_rank(&sorted, 25.0),
        median: nearest_rank(&sorted, 50.0),
        q3: nearest_rank(&sorted, 75.0),
    }
}

/// The highest percentile of the reporting ladder that still has at
/// least ten samples beyond it in a sample of `n`; 50 when none does, so
/// small samples report their median twice rather than a tail they
/// cannot support.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per-mille integers: `n * (1 - p)` in floating point loses the
    // boundary cases (100 samples at p90 have exactly ten beyond).
    const LADDER_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];
    LADDER_PERMILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// `VmHWM` (peak resident set, KiB) out of `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_rule() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 95.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_of_five_repetitions() {
        let q = quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!(
            q,
            Quartiles {
                n: 5,
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        // Even sample: nearest rank picks the lower middle, never interpolates.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]).median, 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
