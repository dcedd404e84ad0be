//! Exact statistics over raw samples held by the generator.
//!
//! Every latency the benchmark reports is computed here from the
//! per-request samples the generator timed itself — never from the
//! server's power-of-two histograms, whose buckets would round a p50 to
//! the nearest power of two.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the tail is a handful of requests, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, which must be
/// in ascending order: the smallest sample with at least `q × n` samples
/// at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples lying strictly beyond the nearest-rank `q`-quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether the `q`-quantile of `n` samples may be reported: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn eligible(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The median of unsorted values (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// The mean of the middle half of unsorted values: the samples of nearest
/// ranks `n/4 + 1` through `n - n/4`. Unlike the median it moves smoothly
/// when samples are quantised (by a polling period) or fall into two
/// modes of near-equal weight; unlike the mean it ignores a burst of
/// interference in up to a quarter of the samples. `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return None;
    }
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// A latency distribution summarised from its raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples the summary was computed from.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: Option<f64>,
    /// Nearest-rank 99th percentile, present only when at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarises raw samples (any order).
    pub fn of(samples: &[f64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Latency {
            samples: sorted.len(),
            p50: nearest_rank(&sorted, 0.5),
            p99: if eligible(sorted.len(), 0.99) {
                nearest_rank(&sorted, 0.99)
            } else {
                None
            },
        }
    }
}
