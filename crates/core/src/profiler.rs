//! The common interface every profiling architecture implements.

use std::sync::Arc;

use crate::interval::IntervalConfig;
use crate::introspect::IntrospectionSink;
use crate::profile::{Candidate, IntervalProfile};
use crate::state::SnapshotError;
use crate::tuple::Tuple;

/// An interval-based profiler that consumes a stream of tuples and emits an
/// [`IntervalProfile`] each time a profile interval completes.
///
/// Implemented by [`MultiHashProfiler`](crate::MultiHashProfiler) (which
/// also models the single-hash profiler, as its one-table case),
/// [`PerfectProfiler`](crate::PerfectProfiler) and the stratified-sampler
/// baseline in `mhp-stratified`.
///
/// # Examples
///
/// Driving any profiler generically:
///
/// ```
/// use mhp_core::{EventProfiler, IntervalConfig, PerfectProfiler, Tuple};
///
/// fn run<P: EventProfiler>(profiler: &mut P, events: &[Tuple]) -> usize {
///     events
///         .iter()
///         .filter_map(|&t| profiler.observe(t))
///         .count()
/// }
///
/// let mut perfect = PerfectProfiler::new(IntervalConfig::new(4, 0.5).unwrap());
/// let events = vec![Tuple::new(1, 1); 8];
/// assert_eq!(run(&mut perfect, &events), 2); // two complete 4-event intervals
/// ```
pub trait EventProfiler {
    /// The interval configuration this profiler was built with.
    fn interval_config(&self) -> IntervalConfig;

    /// Feeds one profiling event. Returns `Some(profile)` exactly when this
    /// event completes a profile interval.
    fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile>;

    /// Feeds a run of events, returning the profiles of every interval the
    /// batch completed (usually none for externally-cut shard profilers, in
    /// which case no allocation happens at all).
    ///
    /// Semantically identical — bit-for-bit — to calling
    /// [`observe`](Self::observe) per event and collecting the `Some`
    /// results; the profiler architectures override the default with
    /// branch-hoisted loops that resolve their configuration switches once
    /// per batch instead of once per event. This is the ingest hot path of
    /// the sharded engine (`mhp-pipeline`), which also uses the single
    /// per-batch virtual call to avoid dynamic dispatch per event.
    fn observe_batch(&mut self, batch: &[Tuple]) -> Vec<IntervalProfile> {
        batch
            .iter()
            .filter_map(|&tuple| self.observe(tuple))
            .collect()
    }

    /// Ends the current interval immediately, as if the configured number of
    /// events had elapsed, and returns the profile gathered so far.
    ///
    /// Two callers need this: sharded ingestion engines, which cut intervals
    /// on the *global* event count rather than any one shard's local count
    /// (see `mhp-pipeline`), and end-of-stream flushing of a trailing
    /// partial interval. End-of-interval bookkeeping (counter clearing,
    /// retention, interval-index advance) happens exactly as it would on a
    /// natural boundary.
    fn finish_interval(&mut self) -> IntervalProfile;

    /// Clears all profiling state (hash counters, accumulator contents and
    /// the position within the current interval), as if freshly constructed.
    fn reset(&mut self);

    /// The `k` hottest tuples the profiler is tracking *right now*, within
    /// the current incomplete interval, highest count first (ties broken by
    /// ascending tuple order).
    ///
    /// This is the live-query view a profiling service serves between
    /// interval boundaries: for the hardware architectures it is the current
    /// contents of the accumulator table
    /// ([`AccumulatorTable::top_k`](crate::AccumulatorTable::top_k)); for
    /// the perfect profiler it is the exact count map. Reading it never
    /// disturbs profiling state. The default implementation returns an empty
    /// list for profilers with no queryable mid-interval state.
    fn hot_tuples(&self, _k: usize) -> Vec<Candidate> {
        Vec::new()
    }

    /// Number of events observed within the *current*, incomplete interval.
    fn events_in_current_interval(&self) -> u64;

    /// Index of the interval currently being gathered (completed intervals
    /// are numbered `0..interval_index()`).
    fn interval_index(&self) -> u64;

    /// Installs (or, with `None`, removes) an [`IntrospectionSink`] that
    /// receives one [`SketchSnapshot`](crate::SketchSnapshot) per completed
    /// interval.
    ///
    /// The default implementation ignores the sink — profilers with no
    /// sketch state to introspect (e.g. the perfect reference profiler)
    /// simply never report. The hardware architectures override this; with
    /// no sink installed their hot path stays free of any per-event
    /// introspection cost beyond a few plain register increments.
    fn set_introspection_sink(&mut self, sink: Option<Arc<dyn IntrospectionSink>>) {
        let _ = sink;
    }

    /// Serializes the profiler's complete state — counters, accumulator
    /// contents, interval position and configuration fingerprint — into a
    /// versioned, CRC-guarded snapshot (see [`crate::state`]).
    ///
    /// A profiler restored from the snapshot via
    /// [`restore_state`](Self::restore_state) and fed the remainder of an
    /// event stream produces results bit-identical to one that ran
    /// uninterrupted. The default implementation reports
    /// [`SnapshotError::Unsupported`] for profilers with no durable state.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if this profiler cannot snapshot.
    fn save_state(&self) -> Result<Vec<u8>, SnapshotError> {
        Err(SnapshotError::Unsupported)
    }

    /// Replaces the profiler's state with the contents of a snapshot
    /// previously produced by [`save_state`](Self::save_state) on a profiler
    /// with the *same* configuration (interval, sketch geometry, seed).
    ///
    /// On any error the profiler's current state is left untouched. The
    /// default implementation reports [`SnapshotError::Unsupported`].
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`]s: bad magic, unsupported version, truncation,
    /// CRC mismatch, kind or configuration mismatch, or corrupt field
    /// values.
    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported)
    }

    /// Feeds every event from `events`, collecting the completed interval
    /// profiles.
    fn observe_all<I>(&mut self, events: I) -> Vec<IntervalProfile>
    where
        I: IntoIterator<Item = Tuple>,
        Self: Sized,
    {
        events
            .into_iter()
            .filter_map(|tuple| self.observe(tuple))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfect::PerfectProfiler;

    #[test]
    fn trait_is_object_safe() {
        let config = IntervalConfig::new(2, 0.5).unwrap();
        let mut profiler: Box<dyn EventProfiler> = Box::new(PerfectProfiler::new(config));
        assert!(profiler.observe(Tuple::new(1, 1)).is_none());
        assert!(profiler.observe(Tuple::new(1, 1)).is_some());
    }

    #[test]
    fn finish_interval_flushes_partial_interval() {
        let config = IntervalConfig::new(100, 0.01).unwrap();
        let mut profiler = PerfectProfiler::new(config);
        for _ in 0..5 {
            assert!(profiler.observe(Tuple::new(1, 1)).is_none());
        }
        let profile = profiler.finish_interval();
        assert_eq!(profile.interval_index(), 0);
        assert_eq!(profile.count_of(Tuple::new(1, 1)), Some(5));
        assert_eq!(profiler.events_in_current_interval(), 0);
        assert_eq!(profiler.interval_index(), 1);
    }

    #[test]
    fn externally_cut_profiler_never_self_cuts() {
        let config = IntervalConfig::new(4, 0.5).unwrap().with_external_cut();
        let mut profiler = PerfectProfiler::new(config);
        for _ in 0..10 {
            assert!(profiler.observe(Tuple::new(1, 1)).is_none());
        }
        let profile = profiler.finish_interval();
        assert_eq!(profile.count_of(Tuple::new(1, 1)), Some(10));
    }

    #[test]
    fn hot_tuples_sees_the_current_partial_interval() {
        let config = IntervalConfig::new(1_000, 0.01).unwrap();
        let mut profiler = PerfectProfiler::new(config);
        for i in 0..10u64 {
            profiler.observe(Tuple::new(i % 3, 0));
        }
        let hot = profiler.hot_tuples(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].tuple, Tuple::new(0, 0)); // 4 occurrences
        assert_eq!(hot[0].count, 4);
        assert_eq!(hot[1].count, 3);
        // Querying does not disturb the interval position.
        assert_eq!(profiler.events_in_current_interval(), 10);
    }

    #[test]
    fn default_observe_batch_matches_per_event() {
        let config = IntervalConfig::new(3, 0.5).unwrap();
        let events = vec![Tuple::new(1, 1); 10];
        let mut per_event = PerfectProfiler::new(config);
        let expected: Vec<IntervalProfile> = events
            .iter()
            .filter_map(|&t| per_event.observe(t))
            .collect();
        // Drive the *default* implementation through a trait object (the
        // perfect profiler overrides it; a plain `dyn` call through a shim
        // type would not, so test via the trait's default directly).
        struct Shim(PerfectProfiler);
        impl EventProfiler for Shim {
            fn interval_config(&self) -> IntervalConfig {
                self.0.interval_config()
            }
            fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
                self.0.observe(tuple)
            }
            fn finish_interval(&mut self) -> IntervalProfile {
                self.0.finish_interval()
            }
            fn reset(&mut self) {
                self.0.reset()
            }
            fn events_in_current_interval(&self) -> u64 {
                self.0.events_in_current_interval()
            }
            fn interval_index(&self) -> u64 {
                self.0.interval_index()
            }
        }
        let mut batched: Box<dyn EventProfiler> = Box::new(Shim(PerfectProfiler::new(config)));
        assert_eq!(batched.observe_batch(&events), expected);
        assert_eq!(batched.events_in_current_interval(), 1);
    }

    #[test]
    fn observe_all_collects_completed_intervals() {
        let config = IntervalConfig::new(3, 0.5).unwrap();
        let mut profiler = PerfectProfiler::new(config);
        let events = vec![Tuple::new(1, 1); 10];
        let profiles = profiler.observe_all(events);
        assert_eq!(profiles.len(), 3); // 10 events -> 3 complete 3-event intervals
        assert_eq!(profiler.events_in_current_interval(), 1);
        assert_eq!(profiler.interval_index(), 3);
    }
}
