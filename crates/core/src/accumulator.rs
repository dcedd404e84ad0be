//! The fully associative accumulator table (§5.2, §5.4).
//!
//! The accumulator is the small tagged table that holds the tuples the hash
//! filter has promoted. Once a tuple is resident it is **shielded**: every
//! subsequent occurrence is counted here (accurately) and never touches the
//! hash tables again, which reduces hash-table pressure.
//!
//! End-of-interval behaviour implements the paper's **retaining**
//! optimization (§5.4.1): entries that finished the interval at or above the
//! candidate threshold may be *retained* into the next interval — counter
//! cleared, marked *replaceable* — so that recurring candidates keep their
//! shield. A retained entry un-marks itself as replaceable as soon as it
//! re-crosses the threshold. Allocation prefers empty slots, then evicts the
//! coldest replaceable entry; if neither exists the promotion is dropped.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

use crate::error::ConfigError;
use crate::profile::Candidate;
use crate::tuple::Tuple;

/// The accumulator's map hasher: one random 64-bit key per table, and the
/// tuple's two words mixed by a single folded 64×64→128 multiply.
///
/// Hardware searches the table with one tag match, and the batched hot
/// path looks the map up once per event, so the std default (SipHash-1-3,
/// built to resist chosen keys) would be one of its largest costs. A fast
/// keyed hash is safe here because no result depends on the map's
/// iteration order (eviction takes the least `(count, tuple)`; candidates,
/// top-k and snapshots are sorted) and the table never holds more than
/// `capacity` entries, so even colliding tuples only lengthen probes
/// within a bounded table.
#[derive(Clone)]
struct TupleKeyState {
    key: u64,
}

impl TupleKeyState {
    fn new() -> Self {
        TupleKeyState {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for TupleKeyState {
    type Hasher = TupleKeyHasher;

    #[inline]
    fn build_hasher(&self) -> TupleKeyHasher {
        TupleKeyHasher {
            key: self.key,
            hash: self.key,
            pending: None,
        }
    }
}

/// Pairs up the words it is fed and folds each pair into the running hash
/// with one multiply. A `Tuple` writes exactly two words (`pc`, `value`), so
/// after inlining its hash is `fold(pc ^ key, value ^ key')`.
struct TupleKeyHasher {
    key: u64,
    hash: u64,
    pending: Option<u64>,
}

/// An odd constant with well-spread bits (the fractional digits of π) that
/// decorrelates the second word's key from the first's.
const SECOND_WORD_SALT: u64 = 0x243F_6A88_85A3_08D3;

/// The high and low halves of the 128-bit product, XOR-ed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for TupleKeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        match self.pending.take() {
            None => self.pending = Some(word),
            Some(first) => {
                self.hash = folded_multiply(first ^ self.hash, word ^ self.key ^ SECOND_WORD_SALT);
            }
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        match self.pending {
            None => self.hash,
            Some(odd) => folded_multiply(odd ^ self.hash, self.key ^ SECOND_WORD_SALT),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryState {
    count: u64,
    replaceable: bool,
}

/// How an [`AccumulatorTable::insert_tracked`] promotion was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The tuple took an empty slot.
    InsertedEmpty,
    /// The tuple evicted the coldest replaceable resident entry.
    InsertedEvicting,
    /// The table was full of non-replaceable entries; the promotion was
    /// dropped.
    Dropped,
}

impl InsertOutcome {
    /// Whether the tuple is now resident.
    #[inline]
    pub fn inserted(self) -> bool {
        !matches!(self, InsertOutcome::Dropped)
    }
}

/// A read-only view of one accumulator entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccumulatorEntry {
    /// The resident tuple.
    pub tuple: Tuple,
    /// Occurrences counted for this tuple since it entered (or, for a
    /// retained entry, since the interval began).
    pub count: u64,
    /// Whether the entry may be evicted to make room for a new promotion.
    pub replaceable: bool,
}

/// The fully associative accumulator table.
///
/// # Examples
///
/// ```
/// use mhp_core::{AccumulatorTable, Tuple};
/// # fn main() -> Result<(), mhp_core::ConfigError> {
/// let mut acc = AccumulatorTable::new(2)?;
/// let hot = Tuple::new(0x400100, 7);
/// assert!(!acc.observe(hot, 100));     // not resident yet
/// assert!(acc.insert(hot, 100));       // promoted with the threshold count
/// assert!(acc.observe(hot, 100));      // now shielded
/// assert_eq!(acc.count_of(hot), Some(101));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AccumulatorTable {
    capacity: usize,
    entries: HashMap<Tuple, EntryState, TupleKeyState>,
}

impl AccumulatorTable {
    /// Creates an accumulator with room for `capacity` tuples.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroAccumulatorCapacity`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroAccumulatorCapacity);
        }
        Ok(AccumulatorTable {
            capacity,
            entries: HashMap::with_capacity_and_hasher(capacity, TupleKeyState::new()),
        })
    }

    /// Maximum number of resident tuples.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no tuple is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `tuple` is resident (and therefore shielded).
    #[inline]
    pub fn contains(&self, tuple: Tuple) -> bool {
        self.entries.contains_key(&tuple)
    }

    /// The accumulated count for `tuple`, if resident.
    #[inline]
    pub fn count_of(&self, tuple: Tuple) -> Option<u64> {
        self.entries.get(&tuple).map(|e| e.count)
    }

    /// Presents one occurrence of `tuple` to the accumulator.
    ///
    /// If the tuple is resident its counter is incremented and `true` is
    /// returned — the event is *shielded* and must not be fed to the hash
    /// tables. A retained (replaceable) entry whose count re-crosses
    /// `threshold_count` becomes non-replaceable for the rest of the interval
    /// (§5.4.1). Returns `false` if the tuple is not resident.
    #[inline]
    pub fn observe(&mut self, tuple: Tuple, threshold_count: u64) -> bool {
        match self.entries.get_mut(&tuple) {
            Some(entry) => {
                entry.count += 1;
                if entry.replaceable && entry.count >= threshold_count {
                    entry.replaceable = false;
                }
                true
            }
            None => false,
        }
    }

    /// Promotes `tuple` into the accumulator with an initial count of
    /// `init_count` (the threshold count at which its hash counters
    /// crossed), marked non-replaceable for the rest of the interval.
    ///
    /// Allocation policy (§5.4.1): an empty slot if one exists, otherwise the
    /// coldest replaceable entry is evicted (ties broken by tuple order, for
    /// determinism). Returns `false` — and drops the promotion — if the table
    /// is full of non-replaceable entries.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tuple` is already resident (callers must
    /// check [`observe`](Self::observe) first; a resident tuple is shielded).
    pub fn insert(&mut self, tuple: Tuple, init_count: u64) -> bool {
        self.insert_tracked(tuple, init_count).inserted()
    }

    /// Like [`insert`](Self::insert), but reports *how* the slot was found
    /// — empty, by eviction, or not at all — so introspection can count
    /// evictions and dropped promotions separately.
    pub fn insert_tracked(&mut self, tuple: Tuple, init_count: u64) -> InsertOutcome {
        debug_assert!(
            !self.entries.contains_key(&tuple),
            "insert of resident tuple {tuple}; shielding should have caught it"
        );
        if self.entries.len() < self.capacity {
            self.entries.insert(
                tuple,
                EntryState {
                    count: init_count,
                    replaceable: false,
                },
            );
            return InsertOutcome::InsertedEmpty;
        }
        // Evict the coldest replaceable entry; deterministic tie-break.
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.replaceable)
            .map(|(&t, e)| (e.count, t))
            .min();
        match victim {
            Some((_, victim_tuple)) => {
                self.entries.remove(&victim_tuple);
                self.entries.insert(
                    tuple,
                    EntryState {
                        count: init_count,
                        replaceable: false,
                    },
                );
                InsertOutcome::InsertedEvicting
            }
            None => InsertOutcome::Dropped,
        }
    }

    /// Ends the current interval: reports every entry whose count reached
    /// `threshold_count` as a candidate, then either retains those
    /// candidates (count reset to 0, marked replaceable) or flushes the whole
    /// table, according to `retaining`.
    pub fn finish_interval(&mut self, retaining: bool, threshold_count: u64) -> Vec<Candidate> {
        let candidates: Vec<Candidate> = self
            .entries
            .iter()
            .filter(|(_, e)| e.count >= threshold_count)
            .map(|(&tuple, e)| Candidate::new(tuple, e.count))
            .collect();
        if retaining {
            self.entries.retain(|_, e| e.count >= threshold_count);
            for e in self.entries.values_mut() {
                e.count = 0;
                e.replaceable = true;
            }
        } else {
            self.entries.clear();
        }
        candidates
    }

    /// Clears all entries unconditionally.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The `k` hottest resident entries, highest count first.
    ///
    /// Ties are broken by ascending tuple order, so the result is fully
    /// deterministic — the ordering rule shared with
    /// [`IntervalProfile`](crate::IntervalProfile) candidates (see
    /// [`rank::top_k_by_count`](crate::rank::top_k_by_count)). This is the
    /// mid-interval "what is hot right now" view a live query service
    /// serves; it does not disturb any profiling state.
    pub fn top_k(&self, k: usize) -> Vec<AccumulatorEntry> {
        let pairs: Vec<(Tuple, u64)> = self.entries.iter().map(|(&t, e)| (t, e.count)).collect();
        crate::rank::top_k_by_count(pairs, k)
            .into_iter()
            .map(|(tuple, count)| AccumulatorEntry {
                tuple,
                count,
                replaceable: self.entries[&tuple].replaceable,
            })
            .collect()
    }

    /// Iterates over resident entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = AccumulatorEntry> + '_ {
        self.entries.iter().map(|(&tuple, e)| AccumulatorEntry {
            tuple,
            count: e.count,
            replaceable: e.replaceable,
        })
    }

    /// Bytes of hardware storage this table represents. The paper's budget
    /// (§7) works out to ~10 bytes per entry (tuple tag plus counter): 1 KB
    /// for 100 entries, 10 KB for 1,000 entries.
    pub fn storage_bytes(&self) -> usize {
        self.capacity * 10
    }

    /// Rebuilds the table's exact residency state from a snapshot — counts
    /// *and* replaceable flags, bypassing the promotion-time invariants of
    /// [`insert_tracked`](Self::insert_tracked) (a retained entry is
    /// legitimately resident at count 0 and replaceable). Crate-internal:
    /// callers validate capacity and uniqueness first.
    pub(crate) fn restore_entries(
        &mut self,
        entries: impl IntoIterator<Item = (Tuple, u64, bool)>,
    ) {
        self.entries.clear();
        for (tuple, count, replaceable) in entries {
            self.entries
                .insert(tuple, EntryState { count, replaceable });
        }
        debug_assert!(self.entries.len() <= self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Tuple {
        Tuple::new(n, n)
    }

    #[test]
    fn each_table_draws_its_own_hash_key() {
        let (a, b) = (TupleKeyState::new(), TupleKeyState::new());
        assert_ne!(a.key, b.key);
        let hot = Tuple::new(0x40_0100, 7);
        assert_eq!(a.hash_one(hot), a.hash_one(hot));
        assert_ne!(a.hash_one(hot), b.hash_one(hot));
    }

    #[test]
    fn tuple_hash_separates_nearby_tuples() {
        // Dense PCs × small values, the shape of real value profiles.
        let state = TupleKeyState::new();
        let mut hashes: Vec<u64> = (0..64u64)
            .flat_map(|pc| (0..64u64).map(move |v| Tuple::new(0x40_0000 + 4 * pc, v)))
            .map(|t| state.hash_one(t))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64 * 64);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(matches!(
            AccumulatorTable::new(0),
            Err(ConfigError::ZeroAccumulatorCapacity)
        ));
    }

    #[test]
    fn observe_misses_until_insert() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        assert!(!acc.observe(t(1), 10));
        acc.insert(t(1), 10);
        assert!(acc.observe(t(1), 10));
        assert_eq!(acc.count_of(t(1)), Some(11));
    }

    #[test]
    fn insert_fills_empty_slots_first() {
        let mut acc = AccumulatorTable::new(2).unwrap();
        assert!(acc.insert(t(1), 5));
        assert!(acc.insert(t(2), 5));
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn full_table_without_replaceables_drops_promotion() {
        let mut acc = AccumulatorTable::new(1).unwrap();
        assert!(acc.insert(t(1), 5));
        assert!(!acc.insert(t(2), 5), "no empty or replaceable slot");
        assert!(acc.contains(t(1)));
        assert!(!acc.contains(t(2)));
    }

    #[test]
    fn insert_tracked_distinguishes_every_outcome() {
        let mut acc = AccumulatorTable::new(1).unwrap();
        assert_eq!(acc.insert_tracked(t(1), 10), InsertOutcome::InsertedEmpty);
        assert_eq!(acc.insert_tracked(t(2), 10), InsertOutcome::Dropped);
        acc.finish_interval(true, 10); // t(1) retained, replaceable
        assert_eq!(
            acc.insert_tracked(t(3), 10),
            InsertOutcome::InsertedEvicting
        );
        assert!(acc.contains(t(3)));
        assert!(InsertOutcome::InsertedEmpty.inserted());
        assert!(InsertOutcome::InsertedEvicting.inserted());
        assert!(!InsertOutcome::Dropped.inserted());
    }

    #[test]
    fn eviction_prefers_coldest_replaceable() {
        let mut acc = AccumulatorTable::new(2).unwrap();
        acc.insert(t(1), 100);
        acc.insert(t(2), 100);
        // Interval ends; both retained as replaceable.
        acc.finish_interval(true, 100);
        // t(2) warms up a little.
        acc.observe(t(2), 100);
        // New promotion must evict t(1), the colder replaceable entry.
        assert!(acc.insert(t(3), 100));
        assert!(!acc.contains(t(1)));
        assert!(acc.contains(t(2)));
        assert!(acc.contains(t(3)));
    }

    #[test]
    fn retained_entry_unmarks_replaceable_at_threshold() {
        let mut acc = AccumulatorTable::new(1).unwrap();
        acc.insert(t(1), 3);
        acc.finish_interval(true, 3);
        assert!(
            acc.iter().next().unwrap().replaceable,
            "retained => replaceable"
        );
        // Two occurrences: still below the threshold of 3.
        acc.observe(t(1), 3);
        acc.observe(t(1), 3);
        assert!(
            acc.iter().next().unwrap().replaceable,
            "2 < 3: still replaceable"
        );
        // Third occurrence re-crosses the threshold inside the accumulator.
        acc.observe(t(1), 3);
        assert!(!acc.iter().next().unwrap().replaceable);
        // Now non-replaceable: a promotion cannot evict it.
        assert!(!acc.insert(t(2), 3));
        assert!(acc.contains(t(1)));
    }

    #[test]
    fn finish_interval_reports_only_entries_at_threshold() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        acc.insert(t(1), 100); // at threshold
        acc.insert(t(2), 100);
        acc.finish_interval(true, 100); // both retained at count 0
        acc.observe(t(1), 100); // count 1 < 100
        let candidates = acc.finish_interval(true, 100);
        assert!(
            candidates.is_empty(),
            "retained-but-cold entries not reported"
        );
    }

    #[test]
    fn finish_interval_without_retaining_flushes_everything() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        acc.insert(t(1), 100);
        let candidates = acc.finish_interval(false, 100);
        assert_eq!(candidates.len(), 1);
        assert!(acc.is_empty());
    }

    #[test]
    fn finish_interval_with_retaining_keeps_candidates_shielding() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        acc.insert(t(1), 100);
        acc.insert(t(2), 50); // below threshold: promoted but decayed? (can't happen in
                              // practice — promotions init at threshold — but the table
                              // must still handle it)
        let candidates = acc.finish_interval(true, 100);
        assert_eq!(candidates.len(), 1);
        assert!(acc.contains(t(1)), "candidate retained");
        assert!(!acc.contains(t(2)), "non-candidate flushed");
        assert_eq!(acc.count_of(t(1)), Some(0), "retained counter cleared");
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut acc = AccumulatorTable::new(3).unwrap();
        for i in 0..10 {
            acc.insert(t(i), 1);
        }
        assert!(acc.len() <= 3);
    }

    #[test]
    fn eviction_tie_breaks_by_tuple_order() {
        let mut acc = AccumulatorTable::new(2).unwrap();
        acc.insert(t(9), 10);
        acc.insert(t(4), 10);
        acc.finish_interval(true, 10); // both replaceable, both count 0
        assert!(acc.insert(t(1), 10));
        // Equal counts: the smaller tuple t(4) is the deterministic victim.
        assert!(!acc.contains(t(4)));
        assert!(acc.contains(t(9)));
    }

    #[test]
    fn storage_matches_paper_budget() {
        // §7: 1 KB at 1% (100 entries), 10 KB at 0.1% (1,000 entries).
        assert_eq!(AccumulatorTable::new(100).unwrap().storage_bytes(), 1_000);
        assert_eq!(
            AccumulatorTable::new(1_000).unwrap().storage_bytes(),
            10_000
        );
    }

    #[test]
    fn top_k_ranks_hottest_first_with_deterministic_ties() {
        let mut acc = AccumulatorTable::new(8).unwrap();
        acc.insert(t(1), 30);
        acc.insert(t(2), 50);
        acc.insert(t(3), 30);
        acc.insert(t(4), 10);
        let top = acc.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].tuple, t(2));
        assert_eq!(top[0].count, 50);
        // 30-count tie broken by ascending tuple order.
        assert_eq!(top[1].tuple, t(1));
        assert_eq!(top[2].tuple, t(3));
    }

    #[test]
    fn top_k_clamps_to_len_and_preserves_flags() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        acc.insert(t(1), 100);
        acc.finish_interval(true, 100); // retained => replaceable, count 0
        let top = acc.top_k(10);
        assert_eq!(top.len(), 1);
        assert!(top[0].replaceable);
        assert_eq!(top[0].count, 0);
        assert!(acc.top_k(0).is_empty());
    }

    #[test]
    fn top_k_does_not_disturb_state() {
        let mut acc = AccumulatorTable::new(4).unwrap();
        acc.insert(t(1), 10);
        acc.observe(t(1), 10);
        let before: Vec<_> = {
            let mut v: Vec<_> = acc.iter().collect();
            v.sort_by_key(|e| e.tuple);
            v
        };
        let _ = acc.top_k(4);
        let after: Vec<_> = {
            let mut v: Vec<_> = acc.iter().collect();
            v.sort_by_key(|e| e.tuple);
            v
        };
        assert_eq!(before, after);
    }

    #[test]
    fn clear_empties_table() {
        let mut acc = AccumulatorTable::new(2).unwrap();
        acc.insert(t(1), 1);
        acc.clear();
        assert!(acc.is_empty());
    }
}
