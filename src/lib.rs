//! # mhp — the Multi-Hash hardware profiler
//!
//! A production-quality Rust reproduction of *"Catching Accurate Profiles in
//! Hardware"* (Narayanasamy, Sherwood, Sair, Calder, Varghese — HPCA 2003):
//! a pure-hardware profiler that captures the frequently occurring profiling
//! events of a program — load values, branch edges, or any other tuple-named
//! event — in 7–16 KB of state, with no software involvement and an average
//! error under 1 %.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | the profiler architectures: [`MultiHashProfiler`] (one table of it is the single-hash profiler, from a [`SingleHashConfig`]), [`PerfectProfiler`], hash family, accumulator table, theory model |
//! | [`trace`] | workload substrate: calibrated benchmark models and a toy instrumented CPU |
//! | [`stratified`] | the Stratified Sampler baseline (Sastry et al., ISCA 2001) |
//! | [`analysis`] | error metrics (Figure 3 / Equation 1), comparison drivers, variation analysis |
//! | [`cache`] | data-cache simulator substrate and miss-event streams (§2's prefetching motivation) |
//! | [`apps`] | run-time optimization clients consuming profiles: frequent-value cache, trace formation, multipath selection, delinquent-load targeting |
//!
//! ## Quickstart
//!
//! ```
//! use mhp::prelude::*;
//!
//! # fn main() -> Result<(), mhp::ConfigError> {
//! // The paper's best configuration: 2K counters over 4 hash tables,
//! // conservative update, retaining, no resetting; 10K-event intervals
//! // with a 1% candidate threshold.
//! let mut profiler =
//!     MultiHashProfiler::new(IntervalConfig::short(), MultiHashConfig::best(), 42)?;
//!
//! // Profile a synthetic gcc-like value stream and measure error against a
//! // perfect profiler.
//! let events = Benchmark::Gcc.value_stream(42).take(100_000);
//! let result = run_comparison(&mut profiler, events);
//! println!("mean error: {:.2}%", result.series().mean_total_percent());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mhp_analysis as analysis;
pub use mhp_apps as apps;
pub use mhp_cache as cache;
pub use mhp_core as core;
pub use mhp_stratified as stratified;
pub use mhp_trace as trace;

pub use mhp_analysis::{
    compare_interval, run_comparison, run_exact_stats, ComparisonResult, ErrorBreakdown,
    ErrorCategory, ErrorSeries, ExactStats, IntervalError,
};
pub use mhp_apps::{DelinquentLoadSet, FrequentValueTable, MultipathSelector, TraceFormer};
pub use mhp_cache::{Cache, CacheConfig, MissEvents};
pub use mhp_core::{
    AccumulatorTable, AreaModel, ConfigError, EventProfiler, IntervalConfig, IntervalProfile,
    MultiHashConfig, MultiHashProfiler, PerfectProfiler, SingleHashConfig, Tuple,
};
pub use mhp_stratified::{StratifiedConfig, StratifiedSampler};
pub use mhp_trace::Benchmark;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use mhp_analysis::{run_comparison, run_exact_stats, ErrorCategory};
    pub use mhp_core::{
        EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler, PerfectProfiler,
        SingleHashConfig, Tuple,
    };
    pub use mhp_stratified::{StratifiedConfig, StratifiedSampler};
    pub use mhp_trace::Benchmark;
}
