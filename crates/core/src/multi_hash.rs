//! The multi-hash interval profiler (§6) — the paper's main contribution.
//!
//! Instead of one hash table, the profiler keeps *n* smaller tables indexed
//! by *n* independent hash functions. A tuple is promoted to the accumulator
//! only when **all** of its counters cross the candidate threshold. Two
//! tuples that alias in one table will, with high probability, map to
//! different counters in at least one other table — so false positives fall
//! roughly as `(100·n / (t·Z))^n` (see [`crate::theory`]).
//!
//! Options (§6.1, §6.3):
//!
//! * **conservative update** (`C1`, borrowed from Estan & Varghese's traffic
//!   measurement work): only the counter(s) holding the *minimum* value among
//!   the tuple's n counters are incremented. When there is no aliasing all n
//!   counters agree, so nothing is lost; when there is aliasing the inflated
//!   counters stop growing, sharply cutting error.
//! * **immediate resetting** (`R1`): all n counters are zeroed when the tuple
//!   is promoted. The paper finds this *hurts* multi-hash (it wipes counts
//!   that aliasing neighbours had legitimately accumulated), so the best
//!   configuration is `C1 R0` with 4 tables.
//!
//! The single-hash profiler of §5 is the n = 1 case, built by
//! [`MultiHashProfiler::single_hash`] from a [`SingleHashConfig`]. With one
//! untagged table, distinct tuples that hash to the same counter *alias*:
//! their combined count can promote a tuple that is not a candidate (a false
//! positive). Conservative update over one counter is a plain increment, and
//! the paper's single-hash switches attack the aliasing directly:
//!
//! * **shielding** (always on, §5.2) — accumulated tuples stop feeding the
//!   hash table, lowering pressure;
//! * **resetting** (`R1`, §5.4.2) — the counter is zeroed when its tuple is
//!   promoted, so aliasing followers do not inherit a hot counter;
//! * **retaining** (`P1`, §5.4.1) — last interval's candidates stay resident
//!   (and shielded) into the next interval.

use std::sync::Arc;

use crate::accumulator::AccumulatorTable;
use crate::counter::{CounterBlock, COUNTER_MAX};
use crate::error::ConfigError;
use crate::hash::{HashFamily, TupleHasher};
use crate::interval::IntervalConfig;
use crate::introspect::{IntervalTally, IntrospectionSink, SinkHandle, SketchSnapshot};
use crate::profile::{Candidate, IntervalProfile};
use crate::profiler::EventProfiler;
use crate::state::{
    self, SnapshotError, SnapshotReader, SnapshotWriter, KIND_MULTI_HASH, KIND_SINGLE_HASH,
};
use crate::tuple::Tuple;

/// Configuration of a [`MultiHashProfiler`]: total counter budget, number of
/// tables, and the paper's `C` (conservative update) / `R` (resetting)
/// switches. Retaining is on by default (the paper uses it for every
/// multi-hash result; §6.3).
///
/// # Examples
///
/// ```
/// use mhp_core::MultiHashConfig;
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// // The paper's best configuration: 2K counters over 4 tables, C1 R0.
/// let best = MultiHashConfig::best();
/// assert_eq!(best.num_tables(), 4);
/// assert_eq!(best.table_entries(), 512);
/// assert!(best.conservative_update() && !best.resetting());
///
/// let custom = MultiHashConfig::new(2048, 8)?.with_conservative_update(false);
/// assert_eq!(custom.table_entries(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiHashConfig {
    total_entries: usize,
    num_tables: usize,
    conservative_update: bool,
    resetting: bool,
    retaining: bool,
    shielding: bool,
}

impl MultiHashConfig {
    /// Creates a configuration splitting `total_entries` counters evenly over
    /// `num_tables` hash tables, with conservative update **on**, resetting
    /// **off** and retaining **on** (the paper's preferred `C1 R0`).
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroTables`] if `num_tables == 0`;
    /// * [`ConfigError::EntriesNotDivisible`] if the split is uneven;
    /// * [`ConfigError::EntriesNotPowerOfTwo`] if the per-table size is not a
    ///   power of two of at least 2.
    pub fn new(total_entries: usize, num_tables: usize) -> Result<Self, ConfigError> {
        if num_tables == 0 {
            return Err(ConfigError::ZeroTables);
        }
        if !total_entries.is_multiple_of(num_tables) {
            return Err(ConfigError::EntriesNotDivisible {
                total: total_entries,
                tables: num_tables,
            });
        }
        let per_table = total_entries / num_tables;
        if per_table < 2 || !per_table.is_power_of_two() {
            return Err(ConfigError::EntriesNotPowerOfTwo(per_table));
        }
        Ok(MultiHashConfig {
            total_entries,
            num_tables,
            conservative_update: true,
            resetting: false,
            retaining: true,
            shielding: true,
        })
    }

    /// The paper's best multi-hash configuration: 2K total counters over 4
    /// tables, conservative update, no resetting, retaining (§6.4).
    pub fn best() -> Self {
        MultiHashConfig::new(2048, 4).expect("paper constants are valid")
    }

    /// Enables or disables conservative update (`C`).
    pub fn with_conservative_update(mut self, on: bool) -> Self {
        self.conservative_update = on;
        self
    }

    /// Enables or disables immediate resetting on promotion (`R`).
    pub fn with_resetting(mut self, on: bool) -> Self {
        self.resetting = on;
        self
    }

    /// Enables or disables retaining across intervals.
    pub fn with_retaining(mut self, on: bool) -> Self {
        self.retaining = on;
        self
    }

    /// Enables or disables shielding (§5.2). The paper's designs always
    /// shield; turning it off exists for ablation studies only.
    pub fn with_shielding(mut self, on: bool) -> Self {
        self.shielding = on;
        self
    }

    /// Total number of counters across all tables.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Number of hash tables.
    #[inline]
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Counters per table.
    #[inline]
    pub fn table_entries(&self) -> usize {
        self.total_entries / self.num_tables
    }

    /// Whether conservative update (`C1`) is enabled.
    #[inline]
    pub fn conservative_update(&self) -> bool {
        self.conservative_update
    }

    /// Whether immediate resetting (`R1`) is enabled.
    #[inline]
    pub fn resetting(&self) -> bool {
        self.resetting
    }

    /// Whether retaining is enabled.
    #[inline]
    pub fn retaining(&self) -> bool {
        self.retaining
    }

    /// Whether shielding is enabled (always on in the paper's designs).
    #[inline]
    pub fn shielding(&self) -> bool {
        self.shielding
    }

    /// A compact label in the paper's notation, e.g. `"C1, R0"`.
    pub fn label(&self) -> String {
        format!(
            "C{}, R{}",
            u8::from(self.conservative_update),
            u8::from(self.resetting)
        )
    }
}

/// Configuration of a single-hash profiler (§5), built by
/// [`MultiHashProfiler::single_hash`]: hash-table size and the paper's `P`
/// (retaining) / `R` (resetting) switches.
///
/// # Examples
///
/// ```
/// use mhp_core::SingleHashConfig;
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// // The paper's "best single hash" (BSH): 2K entries, P1 R1.
/// let best = SingleHashConfig::best();
/// assert_eq!(best.entries(), 2048);
/// assert!(best.retaining() && best.resetting());
///
/// // The plain P0 R0 baseline:
/// let plain = SingleHashConfig::new(2048)?;
/// assert!(!plain.retaining() && !plain.resetting());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleHashConfig {
    entries: usize,
    resetting: bool,
    retaining: bool,
    shielding: bool,
}

impl SingleHashConfig {
    /// Creates a configuration with a hash table of `entries` counters and
    /// both optimizations off (the paper's `P0 R0`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EntriesNotPowerOfTwo`] if `entries` is not a
    /// power of two of at least 2.
    pub fn new(entries: usize) -> Result<Self, ConfigError> {
        if entries < 2 || !entries.is_power_of_two() {
            return Err(ConfigError::EntriesNotPowerOfTwo(entries));
        }
        Ok(SingleHashConfig {
            entries,
            resetting: false,
            retaining: false,
            shielding: true,
        })
    }

    /// The paper's best single-hash configuration (`BSH`): 2K entries with
    /// retaining and resetting enabled (`P1 R1`).
    pub fn best() -> Self {
        SingleHashConfig::new(2048)
            .expect("2048 is a power of two")
            .with_resetting(true)
            .with_retaining(true)
    }

    /// Enables or disables the resetting optimization (`R`).
    pub fn with_resetting(mut self, resetting: bool) -> Self {
        self.resetting = resetting;
        self
    }

    /// Enables or disables the retaining optimization (`P`).
    pub fn with_retaining(mut self, retaining: bool) -> Self {
        self.retaining = retaining;
        self
    }

    /// Enables or disables shielding (§5.2). The paper's designs always
    /// shield; turning it off exists for ablation studies only — resident
    /// tuples then keep hammering the hash table.
    pub fn with_shielding(mut self, shielding: bool) -> Self {
        self.shielding = shielding;
        self
    }

    /// Number of hash-table counters.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether resetting (`R1`) is enabled.
    #[inline]
    pub fn resetting(&self) -> bool {
        self.resetting
    }

    /// Whether retaining (`P1`) is enabled.
    #[inline]
    pub fn retaining(&self) -> bool {
        self.retaining
    }

    /// Whether shielding is enabled (always on in the paper's designs).
    #[inline]
    pub fn shielding(&self) -> bool {
        self.shielding
    }

    /// A compact label in the paper's notation, e.g. `"P1, R0"`.
    pub fn label(&self) -> String {
        format!(
            "P{}, R{}",
            u8::from(self.retaining),
            u8::from(self.resetting)
        )
    }
}

/// One snapshot configuration-fingerprint field: its live value, the label
/// a truncation error names, and the context a mismatch reports.
enum Field {
    Size(u64, &'static str, &'static str),
    Flag(bool, &'static str, &'static str),
}

/// The multi-hash hardware profiler of §6 (Figure 8); with one table, built
/// by [`single_hash`](Self::single_hash), the single-hash profiler of §5
/// (Figure 2).
///
/// # Examples
///
/// ```
/// use mhp_core::{EventProfiler, IntervalConfig, MultiHashConfig, MultiHashProfiler, Tuple};
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// let mut profiler = MultiHashProfiler::new(
///     IntervalConfig::new(1_000, 0.01)?,
///     MultiHashConfig::best(),
///     42,
/// )?;
/// let hot = Tuple::new(0x400100, 3);
/// let mut last = None;
/// for i in 0..1_000u64 {
///     let t = if i % 10 == 0 { hot } else { Tuple::new(i, i) };
///     if let Some(p) = profiler.observe(t) {
///         last = Some(p);
///     }
/// }
/// assert!(last.expect("one full interval").contains(hot));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiHashProfiler {
    interval: IntervalConfig,
    config: MultiHashConfig,
    family: HashFamily,
    /// All n tables' counters, flattened into one contiguous block (table
    /// `t` at flat offset `t * table_entries`) so a tuple's n counters land
    /// on predictable cache lines.
    block: CounterBlock,
    accumulator: AccumulatorTable,
    threshold: u64,
    /// The hash-family seed, kept for the snapshot configuration
    /// fingerprint (the family itself is fully derived from it).
    seed: u64,
    /// Built by [`single_hash`](Self::single_hash): snapshots carry the
    /// single-hash kind and fingerprint.
    single_hash: bool,
    events: u64,
    interval_idx: u64,
    /// Scratch buffer holding the current tuple's *flat* block indices
    /// (avoids an allocation on every event).
    scratch: Vec<usize>,
    /// Scratch buffer holding the counter values read at those indices, so
    /// the conservative-update path reads each counter exactly once.
    vals: Vec<u32>,
    /// Per-interval introspection tallies (plain register adds; folded
    /// into a [`SketchSnapshot`] only when a sink is installed).
    tally: IntervalTally,
    /// Optional per-interval introspection sink.
    sink: SinkHandle,
}

impl MultiHashProfiler {
    /// Builds a profiler. The `seed` selects the family of independent
    /// hardwired hash functions.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the hash family and accumulator
    /// construction.
    pub fn new(
        interval: IntervalConfig,
        config: MultiHashConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let family = HashFamily::new(config.num_tables(), config.table_entries(), seed)?;
        Self::with_family(interval, config, family, seed, false)
    }

    /// Builds the single-hash profiler of §5 (Figure 2): one table of
    /// `config.entries()` counters with plain update, hashed by
    /// `TupleHasher::new(entries, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the hasher and accumulator
    /// construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use mhp_core::{EventProfiler, IntervalConfig, MultiHashProfiler, SingleHashConfig, Tuple};
    /// # fn main() -> Result<(), mhp_core::ConfigError> {
    /// let interval = IntervalConfig::new(1_000, 0.01)?;
    /// let mut profiler =
    ///     MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 42)?;
    /// assert_eq!(profiler.config().num_tables(), 1);
    /// let hot = Tuple::new(0x400100, 3);
    /// let mut last = None;
    /// for i in 0..1_000u64 {
    ///     let t = if i % 10 == 0 { hot } else { Tuple::new(i, i) };
    ///     if let Some(p) = profiler.observe(t) {
    ///         last = Some(p);
    ///     }
    /// }
    /// assert!(last.expect("one full interval").contains(hot));
    /// # Ok(())
    /// # }
    /// ```
    pub fn single_hash(
        interval: IntervalConfig,
        config: SingleHashConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let sketch = MultiHashConfig::new(config.entries(), 1)?
            .with_conservative_update(false)
            .with_resetting(config.resetting())
            .with_retaining(config.retaining())
            .with_shielding(config.shielding());
        let family = HashFamily::from_hashers(vec![TupleHasher::new(config.entries(), seed)?]);
        Self::with_family(interval, sketch, family, seed, true)
    }

    fn with_family(
        interval: IntervalConfig,
        config: MultiHashConfig,
        family: HashFamily,
        seed: u64,
        single_hash: bool,
    ) -> Result<Self, ConfigError> {
        let block = CounterBlock::new(config.num_tables(), config.table_entries());
        let accumulator = AccumulatorTable::new(interval.accumulator_capacity())?;
        Ok(MultiHashProfiler {
            interval,
            config,
            family,
            block,
            accumulator,
            threshold: interval.threshold_count(),
            seed,
            single_hash,
            events: 0,
            interval_idx: 0,
            scratch: vec![0; config.num_tables()],
            vals: vec![0; config.num_tables()],
            tally: IntervalTally::default(),
            sink: SinkHandle::none(),
        })
    }

    /// This profiler's sketch configuration.
    #[inline]
    pub fn config(&self) -> MultiHashConfig {
        self.config
    }

    /// Read-only view of the accumulator table.
    #[inline]
    pub fn accumulator(&self) -> &AccumulatorTable {
        &self.accumulator
    }

    /// The flattened counter block: all n tables in one contiguous
    /// allocation, table `t` at [`CounterBlock::table`]`(t)`.
    #[inline]
    pub fn counters(&self) -> &CounterBlock {
        &self.block
    }

    /// Counter values of table `t`, in slot order — the per-table view over
    /// the flat [`counters`](Self::counters) block.
    #[inline]
    pub fn table_values(&self, t: usize) -> &[u32] {
        self.block.table(t)
    }

    /// The hash-function family in use.
    #[inline]
    pub fn hash_family(&self) -> &HashFamily {
        &self.family
    }

    /// The minimum counter value this tuple currently sees across all tables
    /// — the sketch's (over-)estimate of its count this interval.
    pub fn sketch_estimate(&self, tuple: Tuple) -> u64 {
        self.family
            .indices(tuple)
            .enumerate()
            .map(|(t, idx)| u64::from(self.block.get(self.block.flat_index(t, idx))))
            .min()
            .unwrap_or(0)
    }

    /// Total hardware storage modelled, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.block.storage_bytes() + self.accumulator.storage_bytes()
    }

    fn end_interval(&mut self) -> IntervalProfile {
        // Occupancy is scanned only when someone is listening; the scan
        // must happen before the flush below wipes the tables.
        let introspecting = self.sink.is_installed();
        let (counters_occupied, accumulator_len) = if introspecting {
            (self.block.occupied() as u64, self.accumulator.len() as u64)
        } else {
            (0, 0)
        };
        let events = self.events;
        let candidates = self
            .accumulator
            .finish_interval(self.config.retaining, self.threshold);
        self.block.clear();
        if introspecting {
            let retained = if self.config.retaining {
                candidates.len() as u64
            } else {
                0
            };
            self.sink.emit(&SketchSnapshot {
                interval_index: self.interval_idx,
                events,
                shield_hits: self.tally.shield_hits,
                promotions: self.tally.promotions,
                promotions_dropped: self.tally.promotions_dropped,
                evictions: self.tally.evictions,
                saturations: self.tally.saturations,
                retained,
                counters_occupied,
                counters_total: self.block.len() as u64,
                accumulator_len,
                accumulator_capacity: self.accumulator.capacity() as u64,
            });
        }
        self.tally.reset();
        let profile =
            IntervalProfile::from_candidates(self.interval_idx, self.interval, candidates);
        self.interval_idx += 1;
        self.events = 0;
        profile
    }

    /// The snapshot kind and configuration fingerprint. A profiler built by
    /// [`single_hash`](Self::single_hash) keeps the §5 layout: entries, `R`,
    /// `P`, shielding, seed.
    fn fingerprint(&self) -> (u8, Vec<Field>) {
        let c = &self.config;
        let (kind, mut fields) = if self.single_hash {
            let entries = Field::Size(
                c.total_entries() as u64,
                "table entries",
                "hash-table entries",
            );
            (KIND_SINGLE_HASH, vec![entries])
        } else {
            let fields = vec![
                Field::Size(
                    c.total_entries() as u64,
                    "total entries",
                    "total counter entries",
                ),
                Field::Size(c.num_tables() as u64, "table count", "number of tables"),
                Field::Flag(
                    c.conservative_update(),
                    "conservative flag",
                    "conservative update",
                ),
            ];
            (KIND_MULTI_HASH, fields)
        };
        fields.extend([
            Field::Flag(c.resetting(), "resetting flag", "resetting"),
            Field::Flag(c.retaining(), "retaining flag", "retaining"),
            Field::Flag(c.shielding(), "shielding flag", "shielding"),
            Field::Size(self.seed, "hash seed", "hash seed"),
        ]);
        (kind, fields)
    }

    /// Writes the tuple's *flat* block indices into `scratch`.
    #[inline]
    fn fill_scratch(&mut self, tuple: Tuple) {
        self.family.indices_into(tuple, &mut self.scratch);
        let stride = self.block.stride();
        for (t, slot) in self.scratch.iter_mut().enumerate() {
            *slot += t * stride;
        }
    }

    /// Conservative update (Estan & Varghese): increment only the counter(s)
    /// holding the minimum value; ties mean all minima move. Reads every
    /// counter exactly once (values are cached in `vals`), and short-circuits
    /// when the minimum is already saturated — at [`COUNTER_MAX`] every tie
    /// is a "minimum", so without the short-circuit a fully saturated tuple
    /// would touch all n counters on every event for no effect.
    ///
    /// Returns the post-update minimum. Requires `scratch` to be filled.
    #[inline]
    fn bump_conservative(&mut self) -> u64 {
        let mut min = u32::MAX;
        for (&flat, val) in self.scratch.iter().zip(self.vals.iter_mut()) {
            let v = self.block.get(flat);
            *val = v;
            min = min.min(v);
        }
        if min >= COUNTER_MAX {
            return u64::from(COUNTER_MAX);
        }
        // Every counter equal to `min` moves to `min + 1`; every other
        // counter already exceeds it, so the new minimum is exactly
        // `min + 1` — no second read of the block needed.
        let new_min = min + 1;
        for (&flat, &val) in self.scratch.iter().zip(self.vals.iter()) {
            if val == min {
                self.block.store(flat, new_min);
            }
        }
        u64::from(new_min)
    }

    /// Plain update: increment all n counters, return the new minimum.
    /// Requires `scratch` to be filled.
    #[inline]
    fn bump_plain(&mut self) -> u64 {
        let mut new_min = u32::MAX;
        for &flat in &self.scratch {
            new_min = new_min.min(self.block.increment(flat));
        }
        u64::from(new_min)
    }

    /// Applies the update function to the tuple's counters and returns the
    /// post-update minimum counter value.
    fn update_counters(&mut self, tuple: Tuple) -> u64 {
        self.fill_scratch(tuple);
        if self.config.conservative_update {
            self.bump_conservative()
        } else {
            self.bump_plain()
        }
    }

    /// The batched hot path, monomorphized per configuration corner so the
    /// `conservative` / `resetting` / `shielding` branches are resolved at
    /// compile time instead of per event. Bit-for-bit identical to calling
    /// [`EventProfiler::observe`] on every element of `batch`.
    fn batch_loop<const CONSERVATIVE: bool, const RESETTING: bool, const SHIELDING: bool>(
        &mut self,
        batch: &[Tuple],
        out: &mut Vec<IntervalProfile>,
    ) {
        let threshold = self.threshold;
        for &tuple in batch {
            let resident = self.accumulator.observe(tuple, threshold);
            if !resident {
                self.fill_scratch(tuple);
                let min_after = if CONSERVATIVE {
                    self.bump_conservative()
                } else {
                    self.bump_plain()
                };
                self.tally.saturations += u64::from(min_after >= u64::from(COUNTER_MAX));
                if min_after >= threshold {
                    let outcome = self.accumulator.insert_tracked(tuple, threshold);
                    self.tally.note_insert(outcome);
                    if RESETTING && outcome.inserted() {
                        // `scratch` still holds this tuple's flat indices.
                        for &flat in &self.scratch {
                            self.block.reset(flat);
                        }
                    }
                }
            } else {
                self.tally.shield_hits += 1;
                if !SHIELDING {
                    // Ablation mode: resident tuples still update the hash
                    // tables (but are never re-promoted — already resident).
                    self.fill_scratch(tuple);
                    let min_after = if CONSERVATIVE {
                        self.bump_conservative()
                    } else {
                        self.bump_plain()
                    };
                    self.tally.saturations += u64::from(min_after >= u64::from(COUNTER_MAX));
                }
            }
            self.events += 1;
            if self.interval.is_boundary(self.events) {
                out.push(self.end_interval());
            }
        }
    }
}

impl EventProfiler for MultiHashProfiler {
    fn interval_config(&self) -> IntervalConfig {
        self.interval
    }

    fn observe(&mut self, tuple: Tuple) -> Option<IntervalProfile> {
        // Shielding: resident tuples are counted in the accumulator only.
        let resident = self.accumulator.observe(tuple, self.threshold);
        if resident {
            self.tally.shield_hits += 1;
            if !self.config.shielding {
                // Ablation mode: resident tuples still update the hash
                // tables (but are never re-promoted — already resident).
                let min_after = self.update_counters(tuple);
                self.tally.saturations += u64::from(min_after >= u64::from(COUNTER_MAX));
            }
        } else {
            let min_after = self.update_counters(tuple);
            self.tally.saturations += u64::from(min_after >= u64::from(COUNTER_MAX));
            // Promotion requires *every* counter at or above the threshold,
            // i.e. the minimum crossed it.
            if min_after >= self.threshold {
                let outcome = self.accumulator.insert_tracked(tuple, self.threshold);
                self.tally.note_insert(outcome);
                if outcome.inserted() && self.config.resetting {
                    // `scratch` still holds this tuple's flat indices.
                    for &flat in &self.scratch {
                        self.block.reset(flat);
                    }
                }
            }
        }
        self.events += 1;
        if self.interval.is_boundary(self.events) {
            Some(self.end_interval())
        } else {
            None
        }
    }

    fn observe_batch(&mut self, batch: &[Tuple]) -> Vec<IntervalProfile> {
        let mut out = Vec::new();
        // One three-way branch per batch selects the monomorphized loop.
        match (
            self.config.conservative_update,
            self.config.resetting,
            self.config.shielding,
        ) {
            (false, false, false) => self.batch_loop::<false, false, false>(batch, &mut out),
            (false, false, true) => self.batch_loop::<false, false, true>(batch, &mut out),
            (false, true, false) => self.batch_loop::<false, true, false>(batch, &mut out),
            (false, true, true) => self.batch_loop::<false, true, true>(batch, &mut out),
            (true, false, false) => self.batch_loop::<true, false, false>(batch, &mut out),
            (true, false, true) => self.batch_loop::<true, false, true>(batch, &mut out),
            (true, true, false) => self.batch_loop::<true, true, false>(batch, &mut out),
            (true, true, true) => self.batch_loop::<true, true, true>(batch, &mut out),
        }
        out
    }

    fn finish_interval(&mut self) -> IntervalProfile {
        self.end_interval()
    }

    fn hot_tuples(&self, k: usize) -> Vec<Candidate> {
        self.accumulator
            .top_k(k)
            .into_iter()
            .map(|e| Candidate::new(e.tuple, e.count))
            .collect()
    }

    fn reset(&mut self) {
        self.block.clear();
        self.accumulator.clear();
        self.events = 0;
        self.interval_idx = 0;
        self.tally.reset();
    }

    fn events_in_current_interval(&self) -> u64 {
        self.events
    }

    fn interval_index(&self) -> u64 {
        self.interval_idx
    }

    fn set_introspection_sink(&mut self, sink: Option<Arc<dyn IntrospectionSink>>) {
        self.sink.set(sink);
    }

    fn save_state(&self) -> Result<Vec<u8>, SnapshotError> {
        let (kind, fingerprint) = self.fingerprint();
        let mut w = SnapshotWriter::new(kind);
        for field in fingerprint {
            match field {
                Field::Size(value, ..) => w.put_u64(value),
                Field::Flag(value, ..) => w.put_bool(value),
            }
        }
        state::put_interval(&mut w, &self.interval);
        // Dynamic state.
        w.put_u64(self.events);
        w.put_u64(self.interval_idx);
        state::put_tally(&mut w, &self.tally);
        state::put_counters(&mut w, &self.block);
        state::put_accumulator(&mut w, &self.accumulator);
        Ok(w.finish())
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let (kind, fingerprint) = self.fingerprint();
        let mut r = SnapshotReader::open(snapshot, kind)?;
        for field in fingerprint {
            let (matches, context) = match field {
                Field::Size(live, label, context) => (r.take_u64(label)? == live, context),
                Field::Flag(live, label, context) => (r.take_bool(label)? == live, context),
            };
            if !matches {
                return Err(SnapshotError::ConfigMismatch { context });
            }
        }
        state::check_interval(&mut r, &self.interval)?;
        let (events, interval_idx) = state::take_position(&mut r, &self.interval)?;
        let tally = state::take_tally(&mut r)?;
        let counters = state::take_counters(&mut r, self.block.len())?;
        let entries = state::take_accumulator(&mut r, self.accumulator.capacity())?;
        r.expect_end()?;
        // All fields validated: commit (errors above leave state untouched).
        self.events = events;
        self.interval_idx = interval_idx;
        self.tally = tally;
        self.block.load(counters);
        self.accumulator.restore_entries(entries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler(len: u64, frac: f64, cfg: MultiHashConfig) -> MultiHashProfiler {
        MultiHashProfiler::new(IntervalConfig::new(len, frac).unwrap(), cfg, 7).unwrap()
    }

    #[test]
    fn config_validates_inputs() {
        assert!(matches!(
            MultiHashConfig::new(2048, 0),
            Err(ConfigError::ZeroTables)
        ));
        assert!(matches!(
            MultiHashConfig::new(2048, 3),
            Err(ConfigError::EntriesNotDivisible { .. })
        ));
        // 2044 / 4 = 511 — the split is even, so it must be the
        // power-of-two check (with the exact per-table size) that fires.
        assert!(matches!(
            MultiHashConfig::new(2044, 4),
            Err(ConfigError::EntriesNotPowerOfTwo(511))
        ));
        // 2045 / 4 genuinely does not divide: the divisibility check fires
        // first, reporting the inputs as given.
        assert!(matches!(
            MultiHashConfig::new(2045, 4),
            Err(ConfigError::EntriesNotDivisible {
                total: 2045,
                tables: 4
            })
        ));
        assert!(MultiHashConfig::new(2048, 16).is_ok()); // 128 per table
    }

    #[test]
    fn best_config_matches_paper() {
        let best = MultiHashConfig::best();
        assert_eq!(best.total_entries(), 2048);
        assert_eq!(best.num_tables(), 4);
        assert!(best.conservative_update());
        assert!(!best.resetting());
        assert!(best.retaining());
        assert_eq!(best.label(), "C1, R0");
    }

    #[test]
    fn single_table_multi_hash_degenerates_to_single_hash_filtering() {
        // n = 1 must behave like a single hash table (sanity anchor used by
        // the design-space figures).
        let cfg = MultiHashConfig::new(2048, 1)
            .unwrap()
            .with_conservative_update(false);
        let mut p = profiler(1_000, 0.01, cfg);
        let hot = Tuple::new(1, 1);
        for _ in 0..10 {
            p.observe(hot);
        }
        assert!(p.accumulator().contains(hot));
    }

    #[test]
    fn hot_tuple_promoted_exactly_at_threshold() {
        let mut p = profiler(1_000, 0.01, MultiHashConfig::best());
        let hot = Tuple::new(1, 1);
        for i in 0..9 {
            p.observe(hot);
            assert!(!p.accumulator().contains(hot), "not yet at occurrence {i}");
        }
        p.observe(hot);
        assert!(p.accumulator().contains(hot));
        assert_eq!(p.accumulator().count_of(hot), Some(10));
    }

    #[test]
    fn conservative_update_increments_only_minima() {
        let cfg = MultiHashConfig::new(64, 4).unwrap(); // tiny tables, C1
        let mut p = profiler(10_000, 0.01, cfg);
        let t = Tuple::new(5, 5);
        p.observe(t);
        // With no prior aliasing all four counters were 0 (the minimum), so
        // all four got incremented to 1.
        let values: Vec<u32> = p
            .family
            .indices(t)
            .enumerate()
            .map(|(table, idx)| p.table_values(table)[idx])
            .collect();
        assert_eq!(values, vec![1, 1, 1, 1]);
        assert_eq!(p.sketch_estimate(t), 1);
    }

    #[test]
    fn conservative_update_never_undercounts() {
        let cfg = MultiHashConfig::new(64, 4).unwrap();
        let mut p = profiler(100_000, 0.01, cfg);
        // Noise from many tuples, then check a tracked tuple's estimate.
        let tracked = Tuple::new(77, 77);
        let mut true_count = 0u64;
        for i in 0..5_000u64 {
            if i % 7 == 0 {
                p.observe(tracked);
                true_count += 1;
            } else {
                p.observe(Tuple::new(i, i * 3));
            }
            if p.accumulator().contains(tracked) {
                break; // promoted; sketch no longer tracks it
            }
            assert!(
                p.sketch_estimate(tracked) >= true_count,
                "sketch undercounted: est {} < true {}",
                p.sketch_estimate(tracked),
                true_count
            );
        }
    }

    #[test]
    fn conservative_update_bounds_counts_below_plain_update() {
        let seed = 99;
        let interval = IntervalConfig::new(100_000, 0.01).unwrap();
        let mk = |conservative| {
            MultiHashProfiler::new(
                interval,
                MultiHashConfig::new(64, 4)
                    .unwrap()
                    .with_conservative_update(conservative),
                seed,
            )
            .unwrap()
        };
        let mut plain = mk(false);
        let mut cons = mk(true);
        for i in 0..5_000u64 {
            let t = Tuple::new(i % 97, i % 13);
            plain.observe(t);
            cons.observe(t);
        }
        // Counter-by-counter, conservative update never exceeds plain update.
        for (vp, vc) in plain.counters().iter().zip(cons.counters().iter()) {
            assert!(vc <= vp, "conservative {vc} > plain {vp}");
        }
    }

    #[test]
    fn promotion_requires_all_tables_not_just_one() {
        // Artificially heat one table's counter via an aliasing tuple, then
        // verify the victim is not promoted on its first occurrences.
        let cfg = MultiHashConfig::new(32, 2)
            .unwrap()
            .with_conservative_update(false);
        let p0 = profiler(100_000, 0.0001, cfg); // threshold = 10
                                                 // Find tuples a, b aliasing in table 0 but not table 1.
        let a = Tuple::new(0x10, 1);
        let h = p0.family.hashers();
        let mut b = None;
        for i in 0..100_000u64 {
            let cand = Tuple::new(0x9000 + i, i);
            if h[0].index(cand) == h[0].index(a) && h[1].index(cand) != h[1].index(a) {
                b = Some(cand);
                break;
            }
        }
        let b = b.expect("aliasing tuple in table 0 only");
        let mut p = p0;
        for _ in 0..10 {
            p.observe(a); // saturates the shared table-0 counter past 10
        }
        p.observe(b);
        assert!(
            !p.accumulator().contains(b),
            "one hot table must not suffice for promotion"
        );
    }

    #[test]
    fn resetting_zeroes_all_of_the_tuples_counters() {
        let cfg = MultiHashConfig::best()
            .with_resetting(true)
            .with_conservative_update(false);
        let mut p = profiler(1_000, 0.01, cfg);
        let hot = Tuple::new(1, 1);
        for _ in 0..10 {
            p.observe(hot);
        }
        assert!(p.accumulator().contains(hot));
        for (table, idx) in p.family.indices(hot).enumerate() {
            assert_eq!(
                p.table_values(table)[idx],
                0,
                "R1 must zero every table's counter"
            );
        }
    }

    #[test]
    fn interval_boundary_flushes_all_tables() {
        let mut p = profiler(100, 0.1, MultiHashConfig::best());
        for i in 0..100u64 {
            p.observe(Tuple::new(i % 5, 0));
        }
        assert!(
            p.counters().iter().all(|c| c == 0),
            "tables flushed at interval end"
        );
        assert_eq!(p.interval_index(), 1);
    }

    #[test]
    fn disabling_shielding_keeps_hash_counters_growing() {
        let cfg = MultiHashConfig::best().with_shielding(false);
        let mut p = profiler(1_000, 0.01, cfg);
        let hot = Tuple::new(1, 1);
        for _ in 0..60 {
            p.observe(hot);
        }
        // Promotion happened at 10; without shielding all four counters kept
        // counting the remaining 50 occurrences.
        for (table, idx) in p.family.indices(hot).enumerate() {
            let value = p.table_values(table)[idx];
            assert!(
                value >= 60,
                "counter {value} should keep growing without shielding"
            );
        }
        assert_eq!(p.accumulator().count_of(hot), Some(60));
    }

    #[test]
    fn retaining_carries_candidates_into_next_interval() {
        let mut p = profiler(100, 0.1, MultiHashConfig::best());
        let hot = Tuple::new(1, 1);
        let mut profiles = Vec::new();
        for i in 0..200u64 {
            let t = if i % 2 == 0 {
                hot
            } else {
                Tuple::new(100 + i, i)
            };
            if let Some(pr) = p.observe(t) {
                profiles.push(pr);
            }
        }
        assert_eq!(
            profiles[1].count_of(hot),
            Some(50),
            "retained => exact count"
        );
    }

    #[test]
    fn hot_tuples_reports_accumulator_contents_mid_interval() {
        let mut p = profiler(10_000, 0.01, MultiHashConfig::best());
        let hot = Tuple::new(1, 1);
        let warm = Tuple::new(2, 2);
        for _ in 0..300 {
            p.observe(hot);
        }
        for _ in 0..150 {
            p.observe(warm);
        }
        let top = p.hot_tuples(8);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].tuple, hot);
        assert_eq!(top[0].count, 300);
        assert_eq!(top[1].tuple, warm);
        assert_eq!(p.hot_tuples(1).len(), 1);
    }

    #[test]
    fn storage_bytes_match_paper_budget() {
        let p = profiler(10_000, 0.01, MultiHashConfig::best());
        assert_eq!(p.storage_bytes(), 6 * 1024 + 1_000); // 6 KB sketch + 1 KB accumulator
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = profiler(1_000, 0.01, MultiHashConfig::best());
        for i in 0..500u64 {
            p.observe(Tuple::new(i % 3, 0));
        }
        p.reset();
        assert_eq!(p.events_in_current_interval(), 0);
        assert_eq!(p.interval_index(), 0);
        assert!(p.accumulator().is_empty());
        assert!(p.counters().iter().all(|c| c == 0));
    }

    #[test]
    fn counter_block_is_contiguous_with_per_table_offsets() {
        let p = profiler(1_000, 0.01, MultiHashConfig::best());
        let block = p.counters();
        assert_eq!(block.tables(), 4);
        assert_eq!(block.stride(), 512);
        assert_eq!(block.len(), 2048);
        // Flat index arithmetic matches the per-table views.
        assert_eq!(block.flat_index(3, 511), 2047);
    }

    #[test]
    fn saturated_minima_short_circuit_under_c1() {
        // Threshold far above COUNTER_MAX: the tuple can never be promoted,
        // so every occurrence keeps driving the (saturating) counters.
        let interval = IntervalConfig::new(1 << 33, 0.5).unwrap();
        let cfg = MultiHashConfig::new(64, 4).unwrap(); // C1
        let mut p = MultiHashProfiler::new(interval, cfg, 7).unwrap();
        let t = Tuple::new(42, 42);

        // Preset the tuple's four counters just below saturation.
        let flats: Vec<usize> = {
            let mut scratch = vec![0usize; 4];
            p.hash_family().indices_into(t, &mut scratch);
            scratch
                .iter()
                .enumerate()
                .map(|(table, &idx)| p.counters().flat_index(table, idx))
                .collect()
        };
        for &flat in &flats {
            p.block.values_mut()[flat] = COUNTER_MAX - 2;
        }

        let mut true_count = u64::from(COUNTER_MAX - 2);
        for _ in 0..10 {
            assert!(p.observe(t).is_none());
            true_count += 1;
            // The estimate must never undercount, up to the hardware
            // counters' saturation ceiling.
            assert_eq!(
                p.sketch_estimate(t),
                true_count.min(u64::from(COUNTER_MAX)),
                "sketch undercounted at true count {true_count}"
            );
        }
        // All four counters pinned at saturation — ties at COUNTER_MAX are
        // all "minima", and the short-circuit leaves them untouched.
        for &flat in &flats {
            assert_eq!(p.counters().get(flat), COUNTER_MAX);
        }
        assert!(!p.accumulator().contains(t), "threshold above COUNTER_MAX");
    }

    #[test]
    fn observe_batch_matches_per_event_for_every_corner() {
        // Deterministic cross-check over all C×R×shielding corners; the
        // randomized version lives in tests/batch_equivalence.rs.
        let stream: Vec<Tuple> = (0..3_000u64).map(|i| Tuple::new(i % 37, i % 5)).collect();
        for conservative in [false, true] {
            for resetting in [false, true] {
                for shielding in [false, true] {
                    let cfg = MultiHashConfig::new(64, 4)
                        .unwrap()
                        .with_conservative_update(conservative)
                        .with_resetting(resetting)
                        .with_shielding(shielding);
                    let mut a = profiler(500, 0.05, cfg);
                    let mut b = a.clone();
                    let expected: Vec<IntervalProfile> =
                        stream.iter().filter_map(|&t| a.observe(t)).collect();
                    let mut got = Vec::new();
                    for chunk in stream.chunks(257) {
                        got.extend(b.observe_batch(chunk));
                    }
                    assert_eq!(got, expected, "C{conservative} R{resetting} S{shielding}");
                    assert_eq!(a.counters(), b.counters());
                    assert_eq!(
                        a.accumulator().top_k(usize::MAX),
                        b.accumulator().top_k(usize::MAX)
                    );
                    assert_eq!(
                        a.events_in_current_interval(),
                        b.events_in_current_interval()
                    );
                }
            }
        }
    }

    /// The single-hash profiler of §5: a one-table sketch with plain update.
    mod single_hash {
        use super::*;

        fn interval(len: u64, frac: f64) -> IntervalConfig {
            IntervalConfig::new(len, frac).unwrap()
        }

        fn profiler(len: u64, frac: f64, cfg: SingleHashConfig) -> MultiHashProfiler {
            MultiHashProfiler::single_hash(interval(len, frac), cfg, 7).unwrap()
        }

        /// The tuple's counter in the one table.
        fn slot(p: &MultiHashProfiler, tuple: Tuple) -> usize {
            p.hash_family().hashers()[0].index(tuple)
        }

        /// Finds two distinct tuples that alias to the same hash bucket.
        fn aliasing_pair(p: &MultiHashProfiler) -> (Tuple, Tuple) {
            let a = Tuple::new(0x1000, 1);
            let target = slot(p, a);
            for i in 0..100_000u64 {
                let b = Tuple::new(0x2000 + i * 8, i);
                if b != a && slot(p, b) == target {
                    return (a, b);
                }
            }
            panic!("no aliasing pair found");
        }

        #[test]
        fn config_rejects_bad_sizes() {
            assert!(SingleHashConfig::new(0).is_err());
            assert!(SingleHashConfig::new(1000).is_err());
            assert!(SingleHashConfig::new(1024).is_ok());
        }

        #[test]
        fn config_label_uses_paper_notation() {
            assert_eq!(SingleHashConfig::best().label(), "P1, R1");
            assert_eq!(SingleHashConfig::new(2048).unwrap().label(), "P0, R0");
        }

        #[test]
        fn builds_one_plain_update_table_seeded_like_a_lone_hasher() {
            let cfg = SingleHashConfig::best().with_shielding(false);
            let p = profiler(1_000, 0.01, cfg);
            let sketch = p.config();
            assert_eq!(
                (sketch.num_tables(), sketch.total_entries()),
                (1, cfg.entries())
            );
            assert!(!sketch.conservative_update());
            assert!(sketch.resetting() && sketch.retaining() && !sketch.shielding());
            // Not `HashFamily::new(1, ..)`, which would offset the seed.
            let lone = TupleHasher::new(cfg.entries(), 7).unwrap();
            let mut flat = [0usize];
            for i in 0..1_000u64 {
                let t = Tuple::new(0x40_0000 + i * 8, i % 13);
                p.hash_family().indices_into(t, &mut flat);
                assert_eq!(flat[0], lone.index(t));
            }
        }

        #[test]
        fn hot_tuple_is_captured() {
            let mut p = profiler(1_000, 0.01, SingleHashConfig::new(2048).unwrap());
            let hot = Tuple::new(0x400100, 7);
            let mut profiles = Vec::new();
            for i in 0..1_000u64 {
                let t = if i % 5 == 0 {
                    hot
                } else {
                    Tuple::new(0x500000 + i, i)
                };
                if let Some(pr) = p.observe(t) {
                    profiles.push(pr);
                }
            }
            assert_eq!(profiles.len(), 1);
            // 200 occurrences, threshold 10: captured, with f_h >= threshold.
            let count = profiles[0].count_of(hot).expect("hot tuple captured");
            assert!(count >= 10);
            assert!(count <= 200 + 10, "count {count} wildly inflated");
        }

        #[test]
        fn cold_stream_produces_no_candidates() {
            let mut p = profiler(1_000, 0.05, SingleHashConfig::new(4096).unwrap());
            let mut profiles = Vec::new();
            for i in 0..1_000u64 {
                // Every tuple unique: none can reach 5% = 50 occurrences, and
                // with a 4K table aliasing to 50 is implausible.
                if let Some(pr) = p.observe(Tuple::new(i * 8, i)) {
                    profiles.push(pr);
                }
            }
            assert_eq!(profiles.len(), 1);
            assert!(profiles[0].is_empty());
        }

        #[test]
        fn promotion_initializes_count_at_threshold() {
            let mut p = profiler(100, 0.1, SingleHashConfig::new(2048).unwrap());
            let hot = Tuple::new(1, 1);
            // Exactly 10 occurrences (= threshold), then 90 unique fillers.
            for _ in 0..10 {
                p.observe(hot);
            }
            assert_eq!(p.accumulator().count_of(hot), Some(10));
        }

        #[test]
        fn shielding_stops_hash_updates_after_promotion() {
            let mut p = profiler(1_000, 0.01, SingleHashConfig::new(2048).unwrap());
            let hot = Tuple::new(1, 1);
            for _ in 0..10 {
                p.observe(hot);
            }
            let idx = slot(&p, hot);
            let counter_at_promotion = p.counters().get(idx);
            for _ in 0..50 {
                p.observe(hot);
            }
            assert_eq!(
                p.counters().get(idx),
                counter_at_promotion,
                "shielded tuple must not touch the hash table"
            );
            assert_eq!(p.accumulator().count_of(hot), Some(60));
        }

        #[test]
        fn resetting_clears_the_promoted_counter() {
            let mut p = profiler(
                1_000,
                0.01,
                SingleHashConfig::new(2048).unwrap().with_resetting(true),
            );
            let hot = Tuple::new(1, 1);
            for _ in 0..10 {
                p.observe(hot);
            }
            let idx = slot(&p, hot);
            assert_eq!(
                p.counters().get(idx),
                0,
                "R1 must zero the counter on promotion"
            );
        }

        #[test]
        fn without_resetting_alias_rides_the_hot_counter() {
            // R0: after tuple A saturates a counter past the threshold, a
            // single occurrence of aliasing tuple B promotes B — the
            // false-positive mechanism the paper describes.
            let cfg = SingleHashConfig::new(2048).unwrap();
            let mut p = profiler(10_000, 0.001, cfg);
            let (a, b) = aliasing_pair(&p);
            for _ in 0..10 {
                p.observe(a); // threshold is 10; A promoted, counter stays at 10
            }
            p.observe(b);
            assert!(
                p.accumulator().contains(b),
                "alias must be falsely promoted under R0"
            );
        }

        #[test]
        fn with_resetting_alias_must_earn_promotion() {
            let cfg = SingleHashConfig::new(2048).unwrap().with_resetting(true);
            let mut p = profiler(10_000, 0.001, cfg);
            let (a, b) = aliasing_pair(&p);
            for _ in 0..10 {
                p.observe(a);
            }
            p.observe(b);
            assert!(
                !p.accumulator().contains(b),
                "R1 zeroed the counter, so one occurrence of the alias cannot promote"
            );
        }

        #[test]
        fn disabling_shielding_keeps_hash_counters_growing() {
            let cfg = SingleHashConfig::new(2048).unwrap().with_shielding(false);
            let mut p = profiler(1_000, 0.01, cfg);
            let hot = Tuple::new(1, 1);
            for _ in 0..10 {
                p.observe(hot);
            }
            let idx = slot(&p, hot);
            let at_promotion = p.counters().get(idx);
            for _ in 0..50 {
                p.observe(hot);
            }
            assert_eq!(
                p.counters().get(idx),
                at_promotion + 50,
                "without shielding, resident tuples keep updating the table"
            );
            // The accumulator count stays exact regardless.
            assert_eq!(p.accumulator().count_of(hot), Some(60));
        }

        #[test]
        fn retaining_keeps_candidates_across_intervals() {
            let cfg = SingleHashConfig::new(2048).unwrap().with_retaining(true);
            let mut p = profiler(100, 0.1, cfg);
            let hot = Tuple::new(1, 1);
            let mut profiles = Vec::new();
            for i in 0..200u64 {
                let t = if i % 2 == 0 {
                    hot
                } else {
                    Tuple::new(100 + i, i)
                };
                if let Some(pr) = p.observe(t) {
                    profiles.push(pr);
                }
            }
            assert_eq!(profiles.len(), 2);
            // Second interval: hot was retained, so its count is exact (50),
            // not threshold-initialized.
            assert_eq!(profiles[1].count_of(hot), Some(50));
        }

        #[test]
        fn without_retaining_accumulator_starts_interval_empty() {
            let cfg = SingleHashConfig::new(2048).unwrap();
            let mut p = profiler(100, 0.1, cfg);
            let hot = Tuple::new(1, 1);
            for _ in 0..100 {
                p.observe(hot);
            }
            assert!(p.accumulator().is_empty(), "P0 flushes at interval end");
        }

        #[test]
        fn interval_profile_counts_are_at_least_threshold() {
            let mut p = profiler(1_000, 0.01, SingleHashConfig::best());
            let mut profile = None;
            for i in 0..1_000u64 {
                let t = Tuple::new(i % 17, 0); // several hot tuples
                if let Some(pr) = p.observe(t) {
                    profile = Some(pr);
                }
            }
            let profile = profile.unwrap();
            assert!(!profile.is_empty());
            for c in profile.candidates() {
                assert!(c.count >= 10);
            }
        }

        #[test]
        fn reset_restores_fresh_state() {
            let mut p = profiler(1_000, 0.01, SingleHashConfig::best());
            for i in 0..500u64 {
                p.observe(Tuple::new(i % 3, 0));
            }
            p.reset();
            assert_eq!(p.events_in_current_interval(), 0);
            assert_eq!(p.interval_index(), 0);
            assert!(p.accumulator().is_empty());
            assert!(p.counters().iter().all(|c| c == 0));
        }

        #[test]
        fn observe_batch_matches_per_event_for_every_corner() {
            let stream: Vec<Tuple> = (0..3_000u64).map(|i| Tuple::new(i % 37, i % 5)).collect();
            for resetting in [false, true] {
                for shielding in [false, true] {
                    let cfg = SingleHashConfig::new(256)
                        .unwrap()
                        .with_resetting(resetting)
                        .with_shielding(shielding);
                    let mut a = profiler(500, 0.05, cfg);
                    let mut b = a.clone();
                    let expected: Vec<IntervalProfile> =
                        stream.iter().filter_map(|&t| a.observe(t)).collect();
                    let mut got = Vec::new();
                    for chunk in stream.chunks(257) {
                        got.extend(b.observe_batch(chunk));
                    }
                    assert_eq!(got, expected, "R{resetting} S{shielding}");
                    assert_eq!(a.counters(), b.counters());
                    assert_eq!(
                        a.accumulator().top_k(usize::MAX),
                        b.accumulator().top_k(usize::MAX)
                    );
                    assert_eq!(
                        a.events_in_current_interval(),
                        b.events_in_current_interval()
                    );
                }
            }
        }

        #[test]
        fn storage_bytes_match_paper_for_best_config() {
            // 2K entries * 3 B = 6 KB hash table, 100-entry accumulator = 1 KB.
            let p = profiler(10_000, 0.01, SingleHashConfig::best());
            assert_eq!(p.storage_bytes(), 6 * 1024 + 1_000);
        }
    }
}
