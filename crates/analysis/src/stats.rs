//! Drivers that run profilers over event streams and gather statistics.

use mhp_core::{EventProfiler, IntervalConfig, PerfectProfiler, Tuple};

use crate::compare::compare_interval;
use crate::series::ErrorSeries;
use crate::variation::variation_percent;

/// The outcome of running a hardware profiler against the perfect profiler
/// over the same event stream.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    series: ErrorSeries,
    events_fed: u64,
}

impl ComparisonResult {
    /// The per-interval error series.
    pub fn series(&self) -> &ErrorSeries {
        &self.series
    }

    /// Consumes the result, returning the series.
    pub fn into_series(self) -> ErrorSeries {
        self.series
    }

    /// Number of events fed (including any trailing partial interval).
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }
}

/// Runs `hardware` and a [`PerfectProfiler`] in lockstep over `events`,
/// comparing each completed interval (§5.5.1's methodology). Trailing events
/// that do not complete an interval are ignored, as in the paper.
///
/// # Examples
///
/// ```
/// use mhp_analysis::run_comparison;
/// use mhp_core::{IntervalConfig, MultiHashProfiler, SingleHashConfig, Tuple};
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// let interval = IntervalConfig::new(500, 0.02)?;
/// let mut hw = MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 9)?;
/// let events = (0..2_000u64).map(|i| Tuple::new(i % 20, 1));
/// let result = run_comparison(&mut hw, events);
/// assert_eq!(result.series().len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn run_comparison<P, I>(hardware: &mut P, events: I) -> ComparisonResult
where
    P: EventProfiler,
    I: IntoIterator<Item = Tuple>,
{
    let config = hardware.interval_config();
    let mut perfect = PerfectProfiler::new(config);
    let mut series = ErrorSeries::new();
    let mut events_fed = 0u64;
    for tuple in events {
        events_fed += 1;
        let exact = perfect.observe_exact(tuple);
        let profile = hardware.observe(tuple);
        match (exact, profile) {
            (Some(exact), Some(profile)) => series.push(compare_interval(&exact, &profile)),
            (None, None) => {}
            _ => unreachable!("perfect and hardware profilers tick in lockstep"),
        }
    }
    ComparisonResult { series, events_fed }
}

/// Per-interval stream statistics from a perfect profiler — the raw material
/// of Figures 4 (distinct tuples), 5 (candidate counts) and 6 (candidate
/// variation).
#[derive(Debug, Clone)]
pub struct ExactStats {
    distinct_per_interval: Vec<usize>,
    candidates_per_interval: Vec<usize>,
    variations: Vec<f64>,
}

impl ExactStats {
    /// Distinct tuples seen in each completed interval.
    pub fn distinct_per_interval(&self) -> &[usize] {
        &self.distinct_per_interval
    }

    /// Candidate tuples (count >= threshold) in each completed interval.
    pub fn candidates_per_interval(&self) -> &[usize] {
        &self.candidates_per_interval
    }

    /// Candidate variation (percent) between each pair of consecutive
    /// intervals; `variations().len() == intervals - 1`.
    pub fn variations(&self) -> &[f64] {
        &self.variations
    }

    /// Mean distinct tuples per interval (Figure 4's y-value).
    pub fn mean_distinct(&self) -> f64 {
        mean_usize(&self.distinct_per_interval)
    }

    /// Mean candidate tuples per interval (Figure 5's y-value).
    pub fn mean_candidates(&self) -> f64 {
        mean_usize(&self.candidates_per_interval)
    }

    /// Number of completed intervals observed.
    pub fn intervals(&self) -> usize {
        self.distinct_per_interval.len()
    }
}

fn mean_usize(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<usize>() as f64 / xs.len() as f64
    }
}

/// Runs a perfect profiler over `events` and gathers the per-interval
/// statistics needed by Figures 4–6.
///
/// # Examples
///
/// ```
/// use mhp_analysis::run_exact_stats;
/// use mhp_core::{IntervalConfig, Tuple};
/// let config = IntervalConfig::new(100, 0.1).unwrap();
/// let events = (0..300u64).map(|i| Tuple::new(i % 5, 0));
/// let stats = run_exact_stats(config, events);
/// assert_eq!(stats.intervals(), 3);
/// assert_eq!(stats.mean_distinct(), 5.0);
/// assert_eq!(stats.variations().len(), 2);
/// ```
pub fn run_exact_stats<I>(config: IntervalConfig, events: I) -> ExactStats
where
    I: IntoIterator<Item = Tuple>,
{
    let mut perfect = PerfectProfiler::new(config);
    let mut distinct = Vec::new();
    let mut candidates = Vec::new();
    let mut variations = Vec::new();
    let mut prev_candidates: Option<Vec<Tuple>> = None;
    for tuple in events {
        if let Some(exact) = perfect.observe_exact(tuple) {
            distinct.push(exact.distinct_tuples());
            let profile = exact.profile();
            let current: Vec<Tuple> = profile.tuples().collect();
            candidates.push(current.len());
            if let Some(prev) = prev_candidates.replace(current.clone()) {
                variations.push(variation_percent(prev, current));
            }
        }
    }
    ExactStats {
        distinct_per_interval: distinct,
        candidates_per_interval: candidates,
        variations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhp_core::{MultiHashConfig, MultiHashProfiler};

    #[test]
    fn comparison_counts_events_and_intervals() {
        let interval = IntervalConfig::new(100, 0.05).unwrap();
        let mut hw =
            MultiHashProfiler::new(interval, MultiHashConfig::new(256, 2).unwrap(), 1).unwrap();
        let events = (0..250u64).map(|i| Tuple::new(i % 10, 0));
        let result = run_comparison(&mut hw, events);
        assert_eq!(result.events_fed(), 250);
        assert_eq!(
            result.series().len(),
            2,
            "trailing partial interval ignored"
        );
    }

    #[test]
    fn easy_workload_yields_zero_error() {
        // 5 hot tuples, no noise: every profiler should be exact.
        let interval = IntervalConfig::new(100, 0.05).unwrap();
        let mut hw = MultiHashProfiler::new(interval, MultiHashConfig::best(), 1).unwrap();
        let events = (0..1_000u64).map(|i| Tuple::new(i % 5, 0));
        let result = run_comparison(&mut hw, events);
        assert_eq!(result.series().mean_total_percent(), 0.0);
    }

    #[test]
    fn exact_stats_measure_distinct_and_candidates() {
        let config = IntervalConfig::new(100, 0.2).unwrap(); // threshold 20
                                                             // 2 hot tuples (40 occurrences each) + 20 unique noise per interval.
        let events = (0..300u64).map(|i| {
            let phase = i % 100;
            if phase < 80 {
                Tuple::new(phase % 2, 0)
            } else {
                Tuple::new(1_000 + i, 0)
            }
        });
        let stats = run_exact_stats(config, events);
        assert_eq!(stats.intervals(), 3);
        assert_eq!(stats.mean_candidates(), 2.0);
        assert_eq!(stats.mean_distinct(), 22.0);
        // Same candidates every interval -> zero variation.
        assert!(stats.variations().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stats_of_empty_stream_are_empty() {
        let config = IntervalConfig::new(100, 0.2).unwrap();
        let stats = run_exact_stats(config, std::iter::empty());
        assert_eq!(stats.intervals(), 0);
        assert_eq!(stats.mean_distinct(), 0.0);
        assert_eq!(stats.mean_candidates(), 0.0);
        assert!(stats.variations().is_empty());
    }

    #[test]
    fn variation_detects_phase_change() {
        let config = IntervalConfig::new(100, 0.3).unwrap();
        // Interval 0: tuple A hot. Interval 1: tuple B hot.
        let events = (0..200u64).map(|i| {
            if i < 100 {
                Tuple::new(1, 0)
            } else {
                Tuple::new(2, 0)
            }
        });
        let stats = run_exact_stats(config, events);
        assert_eq!(stats.variations(), &[100.0]);
    }
}
