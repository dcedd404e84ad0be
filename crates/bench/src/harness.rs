//! Shared experiment plumbing: profiler construction and run options.

use mhp_analysis::{run_comparison, ErrorSeries};
use mhp_core::{IntervalConfig, MultiHashConfig, MultiHashProfiler, SingleHashConfig, Tuple};
use mhp_stratified::{PeriodicSampler, RandomSampler, StratifiedConfig, StratifiedSampler};

/// Global knobs for an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Events fed per (benchmark × configuration) run at the short interval
    /// length; long-interval runs are scaled up so that several intervals
    /// complete.
    pub events: u64,
    /// Stream seed (the same seed reproduces every number exactly).
    pub seed: u64,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Intervals dropped from the front of every error series before
    /// averaging. The paper averages hundreds of intervals per run, so its
    /// cold-start interval (empty accumulator, every candidate climbing at
    /// once) carries negligible weight; scaled-down runs drop it explicitly.
    /// Figure 13 ignores this (it plots the raw series).
    pub warmup_intervals: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            events: 2_000_000,
            seed: 0xCAFE,
            csv: false,
            warmup_intervals: 1,
        }
    }
}

impl RunOptions {
    /// Events to feed for a given interval configuration: at least
    /// `self.events`, and at least ten full intervals so that the cold-start
    /// transient of the first interval (empty accumulator, every candidate
    /// climbing through the hash tables at once) does not dominate the mean
    /// — the paper averages over hundreds of intervals.
    pub fn events_for(&self, interval: IntervalConfig) -> u64 {
        self.events.max(interval.interval_len() * 10)
    }
}

/// The profiler configurations the figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerKind {
    /// Single hash table with the paper's `P`/`R` switches (2K entries).
    SingleHash {
        /// Retaining (`P1`).
        retaining: bool,
        /// Resetting (`R1`).
        resetting: bool,
    },
    /// The paper's best single hash (`BSH` = `P1 R1`).
    BestSingleHash,
    /// Multi-hash with 2K total entries split over `tables` tables.
    MultiHash {
        /// Number of hash tables.
        tables: usize,
        /// Conservative update (`C1`).
        conservative: bool,
        /// Immediate resetting (`R1`).
        resetting: bool,
    },
    /// The stratified-sampler baseline (2K entries, tagged, aggregated).
    Stratified,
    /// A conventional periodic sampler (period 16, no hardware filtering).
    Periodic,
    /// A conventional random sampler (probability 1/16).
    Random,
}

impl ProfilerKind {
    /// Display label used in figure rows.
    pub fn label(&self) -> String {
        match *self {
            ProfilerKind::SingleHash {
                retaining,
                resetting,
            } => {
                format!("P{}, R{}", u8::from(retaining), u8::from(resetting))
            }
            ProfilerKind::BestSingleHash => "BSH".to_string(),
            ProfilerKind::MultiHash {
                tables,
                conservative,
                resetting,
            } => {
                format!(
                    "MH{tables} C{}, R{}",
                    u8::from(conservative),
                    u8::from(resetting)
                )
            }
            ProfilerKind::Stratified => "Stratified".to_string(),
            ProfilerKind::Periodic => "Periodic".to_string(),
            ProfilerKind::Random => "Random".to_string(),
        }
    }

    /// Builds the profiler and runs it against the perfect profiler over
    /// `events`, returning the error series with the first
    /// `warmup_intervals` intervals dropped.
    pub fn run_with_warmup<I>(
        &self,
        interval: IntervalConfig,
        seed: u64,
        events: I,
        warmup_intervals: usize,
    ) -> ErrorSeries
    where
        I: IntoIterator<Item = Tuple>,
    {
        let series = self.run(interval, seed, events);
        series
            .intervals()
            .iter()
            .skip(warmup_intervals)
            .cloned()
            .collect()
    }

    /// Builds the profiler and runs it against the perfect profiler over
    /// `events`, returning the full error series.
    pub fn run<I>(&self, interval: IntervalConfig, seed: u64, events: I) -> ErrorSeries
    where
        I: IntoIterator<Item = Tuple>,
    {
        match *self {
            ProfilerKind::SingleHash {
                retaining,
                resetting,
            } => {
                let config = SingleHashConfig::new(2048)
                    .expect("2048 is valid")
                    .with_retaining(retaining)
                    .with_resetting(resetting);
                let mut p = MultiHashProfiler::single_hash(interval, config, seed)
                    .expect("valid single-hash profiler");
                run_comparison(&mut p, events).into_series()
            }
            ProfilerKind::BestSingleHash => {
                let mut p =
                    MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), seed)
                        .expect("valid single-hash profiler");
                run_comparison(&mut p, events).into_series()
            }
            ProfilerKind::MultiHash {
                tables,
                conservative,
                resetting,
            } => {
                let config = MultiHashConfig::new(2048, tables)
                    .expect("2048 divides into the requested tables")
                    .with_conservative_update(conservative)
                    .with_resetting(resetting);
                let mut p = MultiHashProfiler::new(interval, config, seed)
                    .expect("valid multi-hash profiler");
                run_comparison(&mut p, events).into_series()
            }
            ProfilerKind::Stratified => {
                let config = StratifiedConfig::new(2048)
                    .expect("2048 is valid")
                    .with_sampling_threshold(16)
                    .with_tags(10, 64)
                    .with_aggregation(Default::default());
                let mut p = StratifiedSampler::new(interval, config, seed)
                    .expect("valid stratified sampler");
                run_comparison(&mut p, events).into_series()
            }
            ProfilerKind::Periodic => {
                let mut p = PeriodicSampler::new(interval, 16);
                run_comparison(&mut p, events).into_series()
            }
            ProfilerKind::Random => {
                let mut p = RandomSampler::new(interval, 16, seed);
                run_comparison(&mut p, events).into_series()
            }
        }
    }
}

/// The multi-hash design-space grid of Figures 10/11: `C{0,1} × R{0,1}` for
/// each table count.
pub fn design_space(tables: usize) -> [ProfilerKind; 4] {
    [
        ProfilerKind::MultiHash {
            tables,
            conservative: false,
            resetting: false,
        },
        ProfilerKind::MultiHash {
            tables,
            conservative: true,
            resetting: false,
        },
        ProfilerKind::MultiHash {
            tables,
            conservative: false,
            resetting: true,
        },
        ProfilerKind::MultiHash {
            tables,
            conservative: true,
            resetting: true,
        },
    ]
}

/// The paper's best multi-hash profiler (4 tables, `C1 R0`).
pub fn best_multi_hash() -> ProfilerKind {
    ProfilerKind::MultiHash {
        tables: 4,
        conservative: true,
        resetting: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhp_trace::Benchmark;

    #[test]
    fn labels_are_distinct_and_stable() {
        assert_eq!(ProfilerKind::BestSingleHash.label(), "BSH");
        assert_eq!(
            ProfilerKind::MultiHash {
                tables: 4,
                conservative: true,
                resetting: false
            }
            .label(),
            "MH4 C1, R0"
        );
        assert_eq!(
            ProfilerKind::SingleHash {
                retaining: true,
                resetting: false
            }
            .label(),
            "P1, R0"
        );
    }

    #[test]
    fn events_for_scales_to_interval_length() {
        let opts = RunOptions {
            events: 100_000,
            seed: 1,
            csv: false,
            warmup_intervals: 1,
        };
        assert_eq!(opts.events_for(IntervalConfig::short()), 100_000);
        assert_eq!(opts.events_for(IntervalConfig::long()), 10_000_000);
    }

    #[test]
    fn every_kind_runs_end_to_end() {
        let interval = IntervalConfig::new(5_000, 0.01).unwrap();
        for kind in [
            ProfilerKind::BestSingleHash,
            ProfilerKind::SingleHash {
                retaining: false,
                resetting: false,
            },
            best_multi_hash(),
            ProfilerKind::Stratified,
        ] {
            let events = Benchmark::Li.value_stream(1).take(10_000);
            let series = kind.run(interval, 1, events);
            assert_eq!(
                series.len(),
                2,
                "{} should complete 2 intervals",
                kind.label()
            );
        }
    }

    #[test]
    fn design_space_covers_all_four_combinations() {
        let grid = design_space(4);
        let labels: Vec<String> = grid.iter().map(ProfilerKind::label).collect();
        assert_eq!(labels.len(), 4);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 4);
    }
}
