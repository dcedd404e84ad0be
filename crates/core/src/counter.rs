//! Saturating hardware counters.
//!
//! The paper's hardware budget (§7) uses 3-byte counters: a 2K-entry hash
//! table costs 6 KB. Counters therefore saturate at `2^24 - 1` instead of
//! wrapping — a wrapped counter would silently forget a hot event, while a
//! saturated counter merely stops distinguishing "very hot" from "extremely
//! hot", which is harmless above the candidate threshold.

/// Saturation limit of a 3-byte (24-bit) hardware counter.
pub const COUNTER_MAX: u32 = (1 << 24) - 1;

/// A bank of `tables × stride` saturating counters in **one contiguous
/// allocation**, table `t` occupying the half-open range
/// `t*stride .. (t+1)*stride`.
///
/// This is the storage layout of the multi-hash profiler's hot path: a
/// tuple's n counters live at n *flat* indices into the same block, so the
/// per-event walk touches one predictable allocation instead of chasing n
/// separate `Vec` headers. Flat indices come from
/// [`flat_index`](Self::flat_index) (or equivalently `t * stride + slot`).
///
/// # Examples
///
/// ```
/// use mhp_core::CounterBlock;
/// let mut block = CounterBlock::new(4, 512);
/// let flat = block.flat_index(2, 17);
/// assert_eq!(block.increment(flat), 1);
/// assert_eq!(block.table(2)[17], 1);
/// assert_eq!(block.table(0)[17], 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBlock {
    values: Vec<u32>,
    tables: usize,
    stride: usize,
}

impl CounterBlock {
    /// Creates `tables` tables of `stride` counters each, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `tables` or `stride` is zero.
    pub fn new(tables: usize, stride: usize) -> Self {
        assert!(tables > 0, "a counter block needs at least one table");
        assert!(stride > 0, "a counter table needs at least one counter");
        CounterBlock {
            values: vec![0; tables * stride],
            tables,
            stride,
        }
    }

    /// Number of tables.
    #[inline]
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Counters per table.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total number of counters across all tables.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the block has no counters (never true for a
    /// constructed block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The flat index of slot `slot` in table `table`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both coordinates are in range.
    #[inline]
    pub fn flat_index(&self, table: usize, slot: usize) -> usize {
        debug_assert!(table < self.tables && slot < self.stride);
        table * self.stride + slot
    }

    /// Current value of the counter at `flat`.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of bounds.
    #[inline]
    pub fn get(&self, flat: usize) -> u32 {
        self.values[flat]
    }

    /// Increments the counter at `flat`, saturating at [`COUNTER_MAX`];
    /// returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of bounds.
    #[inline]
    pub fn increment(&mut self, flat: usize) -> u32 {
        let c = &mut self.values[flat];
        if *c < COUNTER_MAX {
            *c += 1;
        }
        *c
    }

    /// Stores a value the caller already proved is `<= COUNTER_MAX` (the
    /// conservative-update fast path writes `min + 1` after reading every
    /// counter exactly once).
    #[inline]
    pub(crate) fn store(&mut self, flat: usize, value: u32) {
        debug_assert!(value <= COUNTER_MAX);
        self.values[flat] = value;
    }

    /// Resets the counter at `flat` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of bounds.
    #[inline]
    pub fn reset(&mut self, flat: usize) {
        self.values[flat] = 0;
    }

    /// Zeroes every counter in every table (one `memset` over the block —
    /// the end-of-interval flush).
    #[inline]
    pub fn clear(&mut self) {
        self.values.fill(0);
    }

    /// The counter values of table `table`, as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[inline]
    pub fn table(&self, table: usize) -> &[u32] {
        assert!(table < self.tables, "table {table} out of range");
        &self.values[table * self.stride..(table + 1) * self.stride]
    }

    /// Iterates over all counter values, table 0 first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.values.iter().copied()
    }

    /// Number of counters (across all tables) holding a non-zero value —
    /// the sketch's occupancy, reported by introspection at interval end.
    pub fn occupied(&self) -> usize {
        self.values.iter().filter(|&&c| c > 0).count()
    }

    /// Direct mutable access for tests that need to preset counters (e.g.
    /// saturation scenarios that would otherwise take 2^24 increments).
    #[cfg(test)]
    pub(crate) fn values_mut(&mut self) -> &mut [u32] {
        &mut self.values
    }

    /// Bytes of hardware storage this block represents (3 bytes per
    /// counter, per the paper's area accounting).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 3
    }

    /// Overwrites every counter from a snapshot (the crate-internal restore
    /// path; callers validate length and saturation bounds first).
    pub(crate) fn load(&mut self, values: Vec<u32>) {
        debug_assert_eq!(values.len(), self.values.len());
        debug_assert!(values.iter().all(|&v| v <= COUNTER_MAX));
        self.values = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_is_contiguous_per_table() {
        let mut block = CounterBlock::new(3, 4);
        assert_eq!(block.len(), 12);
        assert_eq!(block.flat_index(2, 3), 11);
        block.increment(block.flat_index(1, 0));
        assert_eq!(block.table(1), &[1, 0, 0, 0]);
        assert_eq!(block.table(0), &[0, 0, 0, 0]);
        assert_eq!(block.iter().sum::<u32>(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn block_rejects_zero_tables() {
        CounterBlock::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn block_rejects_zero_stride() {
        CounterBlock::new(4, 0);
    }

    #[test]
    fn block_increment_saturates_and_reset_clears() {
        let mut block = CounterBlock::new(1, 2);
        block.values_mut()[0] = COUNTER_MAX - 1;
        assert_eq!(block.increment(0), COUNTER_MAX);
        assert_eq!(block.increment(0), COUNTER_MAX, "must saturate, not wrap");
        block.increment(1);
        block.reset(0);
        assert_eq!(block.get(0), 0);
        assert_eq!(block.get(1), 1);
        block.clear();
        assert!(block.iter().all(|v| v == 0));
    }

    #[test]
    fn block_storage_matches_paper_budget() {
        // The paper's best multi-hash sketch: 4 tables × 512 counters = 6 KB.
        let block = CounterBlock::new(4, 512);
        assert_eq!(block.storage_bytes(), 6 * 1024);
    }
}
