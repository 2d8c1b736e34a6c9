//! Order statistics and failure accounting used by every workload.

/// The median of `values` (mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fewest samples a reported percentile must leave beyond it: a tail
/// percentile resting on fewer is noise.
pub const MIN_TAIL: usize = 10;

/// The `wanted` percentile of `values` by nearest rank, lowered to the
/// highest percentile that still leaves [`MIN_TAIL`] samples strictly
/// beyond it. `None` when there are too few samples for any such
/// percentile (fewer than `MIN_TAIL + 1`).
pub fn tail_percentile(values: &[f64], wanted: f64) -> Option<f64> {
    let n = values.len();
    if n <= MIN_TAIL {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank r (1-based) leaves n - r samples beyond it; the
    // highest admissible rank is n - MIN_TAIL.
    let rank = ((wanted / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(n - MIN_TAIL) - 1])
}

/// Failed operations as a share of those attempted.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "a run attempts at least one operation");
    assert!(failed <= attempted, "{failed} failed of {attempted} attempted");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples 1..=1000: rank 990 leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: p99 (rank 990) would leave 9 beyond, so the rank
        // drops to 989.
        assert_eq!(tail_percentile(&ramp(999), 99.0), Some(989.0));
    }

    #[test]
    fn median_rank_is_untouched_when_the_tail_is_deep() {
        assert_eq!(tail_percentile(&ramp(101), 50.0), Some(51.0));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        assert_eq!(tail_percentile(&ramp(10), 50.0), None);
        assert_eq!(
            tail_percentile(&ramp(11), 99.0),
            Some(1.0),
            "only the minimum leaves 10 beyond"
        );
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(32, 0), 0.0);
        assert_eq!(failed_share(32, 2), 0.0625);
        assert_eq!(failed_share(1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn failed_share_needs_an_attempt() {
        failed_share(0, 0);
    }
}
