//! Nearest-rank quantiles and the rule for when a percentile may be
//! reported.

use e2ebench::stats::{
    beyond, eligible, interquartile_mean, median, nearest_rank, Latency, MIN_BEYOND,
};

fn one_to(n: u32) -> Vec<f64> {
    (1..=n).map(f64::from).collect()
}

#[test]
fn nearest_rank_is_the_smallest_sample_covering_the_quantile() {
    let hundred = one_to(100);
    assert_eq!(nearest_rank(&hundred, 0.5), Some(50.0));
    assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
    assert_eq!(nearest_rank(&hundred, 1.0), Some(100.0));
    // q × n = 5.5 rounds up to rank 6; no interpolation.
    assert_eq!(nearest_rank(&one_to(10), 0.55), Some(6.0));
    assert_eq!(nearest_rank(&one_to(10), 0.5), Some(5.0));
    assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn median_sorts_its_input() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn interquartile_mean_averages_the_middle_half() {
    // 1..=8: the lowest and highest two are cut, leaving 3, 4, 5, 6.
    assert_eq!(interquartile_mean(&one_to(8)), Some(4.5));
    // An outlier in the top quarter moves it not at all.
    assert_eq!(
        interquartile_mean(&[8.0, 1000.0, 3.0, 5.0, 4.0, 6.0, 2.0, 1.0]),
        Some(4.5)
    );
    // Fewer than four samples: nothing is cut.
    assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
    assert_eq!(interquartile_mean(&[]), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(beyond(1000, 0.99), 10);
    assert!(eligible(1000, 0.99));
    assert_eq!(beyond(999, 0.99), 9);
    assert!(!eligible(999, 0.99));
    assert!(eligible(20, 0.5));
    assert!(!eligible(19, 0.5));
    assert!(!eligible(0, 0.5));
}

#[test]
fn a_summary_reports_p99_only_when_eligible() {
    let few: Vec<f64> = (0..999).map(f64::from).collect();
    let summary = Latency::of(&few);
    assert_eq!(summary.samples, 999);
    assert_eq!(summary.p50, Some(499.0));
    assert_eq!(summary.p99, None);

    let many: Vec<f64> = (0..1000).rev().map(f64::from).collect();
    let summary = Latency::of(&many);
    assert_eq!(summary.samples, 1000);
    assert_eq!(summary.p50, Some(499.0));
    assert_eq!(summary.p99, Some(989.0));
}
