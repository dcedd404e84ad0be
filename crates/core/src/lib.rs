//! # mhp-core — interval-based hardware profiler architectures
//!
//! This crate implements the profiling architectures from *"Catching Accurate
//! Profiles in Hardware"* (Narayanasamy, Sherwood, Sair, Calder, Varghese —
//! HPCA 2003): a pure-hardware profiler that captures the most frequently
//! occurring profiling events of a program without any software support.
//!
//! ## Architecture overview
//!
//! Execution is divided into fixed-length **intervals** of profiling events
//! (tuples). Events whose per-interval frequency crosses a **candidate
//! threshold** (a fraction of the interval length) are *candidate tuples* and
//! should end the interval resident in a small, fully associative
//! **accumulator table** with an accurate count. Filtering which tuples get to
//! enter the accumulator is the job of one or more untagged **hash tables of
//! counters**:
//!
//! * [`MultiHashProfiler`] — the paper's headline contribution (§6): *n*
//!   independent hash tables; a tuple is promoted only when **all** of its
//!   counters cross the threshold, optionally with *conservative update*.
//!   Its one-table case is the single-hash profiler (§5), built by
//!   [`MultiHashProfiler::single_hash`] from a [`SingleHashConfig`] with the
//!   optional *retaining* and *resetting* optimizations;
//! * [`PerfectProfiler`] — an exact (unbounded) reference profiler used as
//!   ground truth when measuring error.
//!
//! All architectures implement the [`EventProfiler`] trait: feed tuples with
//! [`EventProfiler::observe`] and collect an [`IntervalProfile`] every time an
//! interval completes.
//!
//! ## Quick example
//!
//! ```
//! use mhp_core::{EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler, Tuple};
//!
//! # fn main() -> Result<(), mhp_core::ConfigError> {
//! let interval = IntervalConfig::new(10_000, 0.01)?; // 10K events, 1% threshold
//! let config = MultiHashConfig::new(2048, 4)?        // 2K counters over 4 tables
//!     .with_conservative_update(true);
//! let mut profiler = MultiHashProfiler::new(interval, config, 0xC0FFEE)?;
//!
//! let mut profiles = Vec::new();
//! for i in 0..20_000u64 {
//!     // A hot tuple every other event, noise otherwise.
//!     let tuple = if i % 2 == 0 { Tuple::new(0x400100, 7) } else { Tuple::new(i, i) };
//!     if let Some(profile) = profiler.observe(tuple) {
//!         profiles.push(profile);
//!     }
//! }
//! assert_eq!(profiles.len(), 2);
//! assert!(profiles[0].contains(Tuple::new(0x400100, 7)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod accumulator;
pub mod area;
pub mod counter;
pub mod error;
pub mod hash;
pub mod interval;
pub mod introspect;
pub mod multi_hash;
pub mod perfect;
pub mod profile;
pub mod profiler;
pub mod rank;
pub mod state;
pub mod theory;
pub mod tuple;

pub use accumulator::{AccumulatorEntry, AccumulatorTable, InsertOutcome};
pub use area::AreaModel;
pub use counter::{CounterBlock, COUNTER_MAX};
pub use error::{ConfigError, MergeError};
pub use hash::{HashFamily, TupleHasher};
pub use interval::IntervalConfig;
pub use introspect::{CollectingSink, IntrospectionSink, SinkHandle, SketchSnapshot};
pub use multi_hash::{MultiHashConfig, MultiHashProfiler, SingleHashConfig};
pub use perfect::{ExactCounts, PerfectProfiler};
pub use profile::{Candidate, IntervalProfile};
pub use profiler::EventProfiler;
pub use rank::top_k_by_count;
pub use state::{
    put_profile, take_profile, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use tuple::{Pc, Tuple, Value};
