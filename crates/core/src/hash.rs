//! The hash-function family used to index the counter tables (§5.3).
//!
//! For a tuple `<pc, value>` the paper computes the table index as
//!
//! ```text
//! npc   = flip(randomize(pc));
//! nv    = randomize(value);
//! index = xor_fold(npc ^ nv, index_bits);
//! ```
//!
//! * `randomize` substitutes every byte of its input through a 256-entry
//!   random byte table — a hardwired S-box that magnifies the small
//!   bit-variation between temporally close PCs and values;
//! * `flip` reverses the byte order, moving the PC's low-byte variation into
//!   the high bytes so that xor-ing with the value mixes both ends;
//! * `xor_fold` folds the 64-bit result down to an `index_bits`-bit table
//!   index by xor-ing successive chunks.
//!
//! The multi-hash architecture needs *independent* hash functions; following
//! the paper, independence comes from giving each function its own random
//! byte tables ([`HashFamily`]).
//!
//! The byte tables here are random **permutations** of `0..=255`, which makes
//! `randomize` a bijection on `u64` (a byte-wise substitution cipher) and
//! therefore preserves the even index distribution the paper reports.
//!
//! ## The precomputed-fold fast path
//!
//! `xor_fold` is XOR-linear (`fold(a ^ b) == fold(a) ^ fold(b)`) and `flip`
//! is a byte permutation, so the paper's pipeline distributes over the eight
//! input bytes independently:
//!
//! ```text
//! index = ⊕ᵢ fold(flip(S_pc[pcᵢ] << 8i))  ⊕  ⊕ᵢ fold(S_v[vᵢ] << 8i)
//! ```
//!
//! Each term depends only on (byte position, byte value), so a hasher
//! precomputes two 8×256 *fold-contribution* tables at construction and
//! [`TupleHasher::index`] becomes 16 table loads XOR-ed together — no fold
//! loop, no byte swap, no data-dependent branches. [`HashFamily`] goes one
//! step further: when every hasher's index fits a 16-bit lane and there are
//! at most four tables, the per-hasher contributions are packed into one
//! `u64` entry per (position, byte), and [`HashFamily::indices_into`]
//! computes *all* indices with the same 16 loads — the gather-friendly
//! shape the hardware proposal implies. Both paths are bit-identical to the
//! reference formulation (asserted by tests).

use crate::tuple::Tuple;

/// Maximum number of index bits `xor_fold` supports (the input is 64 bits;
/// folding to >= 64 bits would be the identity and tables that large defeat
/// the point of a hardware profiler).
pub const MAX_INDEX_BITS: u32 = 32;

/// A deterministic 64-bit split-mix generator used to derive the random byte
/// tables from a seed. Small, fast and reproducible across platforms — the
/// hardware analogue is a table burned in at design time.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` via rejection-free multiply-shift.
    fn next_below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A 256-entry random byte-substitution table (one S-box).
#[derive(Clone)]
struct ByteTable {
    table: [u8; 256],
}

impl ByteTable {
    /// Builds a random permutation of `0..=255` from the generator.
    fn random(rng: &mut SplitMix64) -> Self {
        let mut table = [0u8; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = i as u8;
        }
        // Fisher-Yates shuffle.
        for i in (1..256usize).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            table.swap(i, j);
        }
        ByteTable { table }
    }

    /// Substitutes every byte of `v` through the table ("randomize" in the
    /// paper).
    #[inline]
    fn randomize(&self, v: u64) -> u64 {
        let bytes = v.to_le_bytes();
        let mut out = [0u8; 8];
        for (o, b) in out.iter_mut().zip(bytes.iter()) {
            *o = self.table[*b as usize];
        }
        u64::from_le_bytes(out)
    }
}

impl std::fmt::Debug for ByteTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteTable([{}, {}, ..])", self.table[0], self.table[1])
    }
}

/// Reverses the byte order of `v` (the paper's `flip`).
#[inline]
pub fn flip(v: u64) -> u64 {
    v.swap_bytes()
}

/// Folds `v` down to `bits` bits by xor-ing successive `bits`-wide chunks
/// (the paper's `xor-fold`).
///
/// # Panics
///
/// Panics if `bits` is zero or greater than [`MAX_INDEX_BITS`].
///
/// # Examples
///
/// ```
/// use mhp_core::hash::xor_fold;
/// assert_eq!(xor_fold(0xFF00_FF00_FF00_FF00, 8), 0);       // chunks cancel
/// assert!(xor_fold(0x1234_5678_9ABC_DEF0, 11) < (1 << 11)); // in range
/// ```
#[inline]
pub fn xor_fold(v: u64, bits: u32) -> u64 {
    assert!(
        (1..=MAX_INDEX_BITS).contains(&bits),
        "xor_fold requires 1..={MAX_INDEX_BITS} bits, got {bits}"
    );
    let mask = (1u64 << bits) - 1;
    let mut acc = 0u64;
    let mut x = v;
    while x != 0 {
        acc ^= x & mask;
        x >>= bits;
    }
    acc
}

/// One hardwired tuple-to-index hash function (§5.3).
///
/// Each `TupleHasher` owns two byte-substitution tables (one for the PC, one
/// for the value) and produces indices in `0..table_size` where `table_size`
/// is a power of two.
///
/// # Examples
///
/// ```
/// use mhp_core::{hash::TupleHasher, Tuple};
/// let hasher = TupleHasher::new(2048, 1).unwrap();
/// let idx = hasher.index(Tuple::new(0x400100, 42));
/// assert!(idx < 2048);
/// // Deterministic for the same seed:
/// let again = TupleHasher::new(2048, 1).unwrap();
/// assert_eq!(idx, again.index(Tuple::new(0x400100, 42)));
/// ```
#[derive(Debug, Clone)]
pub struct TupleHasher {
    pc_table: ByteTable,
    value_table: ByteTable,
    /// `pc_fold[i][b]` = `xor_fold(flip(S_pc[b] placed at byte i), bits)`:
    /// the finished index contribution of PC byte value `b` at position `i`.
    pc_fold: Box<FoldTable>,
    /// Same, for the value's (un-flipped) substitution table.
    value_fold: Box<FoldTable>,
    index_bits: u32,
    table_size: usize,
}

/// Per-(byte position, byte value) fold contributions; `u32` entries cover
/// every legal `index_bits` (≤ [`MAX_INDEX_BITS`]).
type FoldTable = [[u32; 256]; 8];

/// Builds the fold-contribution table for one substitution table.
/// `flipped` selects the PC side, whose substituted bytes pass through
/// `flip` before folding.
fn fold_table(table: &ByteTable, index_bits: u32, flipped: bool) -> Box<FoldTable> {
    let mut out: Box<FoldTable> = Box::new([[0u32; 256]; 8]);
    for (i, row) in out.iter_mut().enumerate() {
        for (b, slot) in row.iter_mut().enumerate() {
            let substituted = u64::from(table.table[b]) << (8 * i);
            let placed = if flipped {
                flip(substituted)
            } else {
                substituted
            };
            *slot = xor_fold(placed, index_bits) as u32;
        }
    }
    out
}

impl TupleHasher {
    /// Creates a hasher producing indices in `0..table_size`.
    ///
    /// The `seed` selects the random byte tables; two hashers with different
    /// seeds behave as independent hash functions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EntriesNotPowerOfTwo`] if `table_size` is not a
    /// power of two of at least 2.
    ///
    /// [`ConfigError::EntriesNotPowerOfTwo`]: crate::ConfigError::EntriesNotPowerOfTwo
    pub fn new(table_size: usize, seed: u64) -> Result<Self, crate::ConfigError> {
        if table_size < 2 || !table_size.is_power_of_two() {
            return Err(crate::ConfigError::EntriesNotPowerOfTwo(table_size));
        }
        let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let pc_table = ByteTable::random(&mut rng);
        let value_table = ByteTable::random(&mut rng);
        let index_bits = table_size.trailing_zeros();
        let pc_fold = fold_table(&pc_table, index_bits, true);
        let value_fold = fold_table(&value_table, index_bits, false);
        Ok(TupleHasher {
            pc_table,
            value_table,
            pc_fold,
            value_fold,
            index_bits,
            table_size,
        })
    }

    /// Number of counters this hasher indexes.
    #[inline]
    pub fn table_size(&self) -> usize {
        self.table_size
    }

    /// Number of bits in a produced index.
    #[inline]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Computes the counter-table index for `tuple`.
    ///
    /// Uses the precomputed fold-contribution tables: 16 loads XOR-ed
    /// together, bit-identical to [`index_reference`](Self::index_reference).
    #[inline]
    pub fn index(&self, tuple: Tuple) -> usize {
        let pc = tuple.pc().as_u64().to_le_bytes();
        let value = tuple.value().as_u64().to_le_bytes();
        let mut acc = 0u32;
        for i in 0..8 {
            acc ^= self.pc_fold[i][pc[i] as usize];
            acc ^= self.value_fold[i][value[i] as usize];
        }
        acc as usize
    }

    /// The paper's formulation computed literally —
    /// `xor_fold(flip(randomize(pc)) ^ randomize(value))` — kept as the
    /// correctness reference for the fold-table fast path.
    pub fn index_reference(&self, tuple: Tuple) -> usize {
        let npc = flip(self.pc_table.randomize(tuple.pc().as_u64()));
        let nv = self.value_table.randomize(tuple.value().as_u64());
        xor_fold(npc ^ nv, self.index_bits) as usize
    }
}

/// A family of independent hash functions for the multi-hash architecture.
///
/// Per §5.3: *"We obtained such independent hash functions by just choosing
/// different random number tables used by the function randomize."*
///
/// # Examples
///
/// ```
/// use mhp_core::{hash::HashFamily, Tuple};
/// let family = HashFamily::new(4, 512, 7).unwrap();
/// assert_eq!(family.len(), 4);
/// let t = Tuple::new(0x400100, 42);
/// let indices: Vec<usize> = family.indices(t).collect();
/// assert_eq!(indices.len(), 4);
/// assert!(indices.iter().all(|&i| i < 512));
/// ```
#[derive(Debug, Clone)]
pub struct HashFamily {
    hashers: Vec<TupleHasher>,
    /// Lane-packed fold tables covering *every* hasher at once, present
    /// when the family fits the packing limits (≤ 4 tables of ≤ 16 index
    /// bits — which includes every configuration the paper evaluates).
    packed: Option<PackedFold>,
}

/// All hashers' fold contributions packed into 16-bit lanes of one `u64`
/// per (byte position, byte value): XOR-ing the 16 entries a tuple selects
/// yields every table index in one accumulator.
#[derive(Debug, Clone)]
struct PackedFold {
    pc: Box<[[u64; 256]; 8]>,
    value: Box<[[u64; 256]; 8]>,
}

/// Width of one packed index lane, in bits.
const PACKED_LANE_BITS: u32 = 16;
/// Most hashers a packed `u64` can hold.
const PACKED_MAX_LANES: usize = 4;

impl PackedFold {
    fn build(hashers: &[TupleHasher]) -> Option<Self> {
        if hashers.is_empty()
            || hashers.len() > PACKED_MAX_LANES
            || hashers.iter().any(|h| h.index_bits() > PACKED_LANE_BITS)
        {
            return None;
        }
        let mut pc: Box<[[u64; 256]; 8]> = Box::new([[0u64; 256]; 8]);
        let mut value: Box<[[u64; 256]; 8]> = Box::new([[0u64; 256]; 8]);
        for (lane, hasher) in hashers.iter().enumerate() {
            let shift = PACKED_LANE_BITS * lane as u32;
            for i in 0..8 {
                for b in 0..256 {
                    pc[i][b] |= u64::from(hasher.pc_fold[i][b]) << shift;
                    value[i][b] |= u64::from(hasher.value_fold[i][b]) << shift;
                }
            }
        }
        Some(PackedFold { pc, value })
    }

    /// XORs the 16 entries `tuple` selects; lane `h` of the result is
    /// hasher `h`'s index.
    #[inline]
    fn lanes(&self, tuple: Tuple) -> u64 {
        let pc = tuple.pc().as_u64().to_le_bytes();
        let value = tuple.value().as_u64().to_le_bytes();
        let mut acc = 0u64;
        for i in 0..8 {
            acc ^= self.pc[i][pc[i] as usize];
            acc ^= self.value[i][value[i] as usize];
        }
        acc
    }
}

impl HashFamily {
    /// Creates `num_tables` independent hashers, each indexing a table of
    /// `table_size` counters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroTables`] if `num_tables` is zero, or
    /// [`ConfigError::EntriesNotPowerOfTwo`] if `table_size` is invalid.
    ///
    /// [`ConfigError::ZeroTables`]: crate::ConfigError::ZeroTables
    /// [`ConfigError::EntriesNotPowerOfTwo`]: crate::ConfigError::EntriesNotPowerOfTwo
    pub fn new(
        num_tables: usize,
        table_size: usize,
        seed: u64,
    ) -> Result<Self, crate::ConfigError> {
        if num_tables == 0 {
            return Err(crate::ConfigError::ZeroTables);
        }
        let hashers = (0..num_tables)
            .map(|i| TupleHasher::new(table_size, seed.wrapping_add(0x9E37 * (i as u64 + 1))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HashFamily::from_hashers(hashers))
    }

    /// A family over hashers seeded by the caller — how the single-hash
    /// profiler keeps its one table's `TupleHasher::new(entries, seed)`.
    pub(crate) fn from_hashers(hashers: Vec<TupleHasher>) -> Self {
        let packed = PackedFold::build(&hashers);
        HashFamily { hashers, packed }
    }

    /// Number of hash functions in the family.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashers.len()
    }

    /// Returns `true` if the family contains no hashers (never true for a
    /// successfully constructed family).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashers.is_empty()
    }

    /// The hashers in table order.
    #[inline]
    pub fn hashers(&self) -> &[TupleHasher] {
        &self.hashers
    }

    /// Computes `tuple`'s index in every table, in table order.
    #[inline]
    pub fn indices(&self, tuple: Tuple) -> impl Iterator<Item = usize> + '_ {
        self.hashers.iter().map(move |h| h.index(tuple))
    }

    /// Writes `tuple`'s index in every table into `out`, in table order —
    /// the allocation-free twin of [`indices`](Self::indices) used by the
    /// profiler hot path (the caller owns a scratch buffer sized once at
    /// construction).
    ///
    /// When the family fits the lane-packing limits (every configuration
    /// from the paper does), all indices come from 16 shared table loads;
    /// otherwise each hasher's own fold tables are consulted in turn.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn indices_into(&self, tuple: Tuple, out: &mut [usize]) {
        assert_eq!(
            out.len(),
            self.hashers.len(),
            "scratch buffer must hold one index per table"
        );
        if let Some(packed) = &self.packed {
            let lanes = packed.lanes(tuple);
            for (h, slot) in out.iter_mut().enumerate() {
                *slot = ((lanes >> (PACKED_LANE_BITS * h as u32)) & u64::from(u16::MAX)) as usize;
            }
        } else {
            for (slot, hasher) in out.iter_mut().zip(&self.hashers) {
                *slot = hasher.index(tuple);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn byte_table_is_a_permutation() {
        let mut rng = SplitMix64::new(1);
        let t = ByteTable::random(&mut rng);
        let mut seen = [false; 256];
        for &b in t.table.iter() {
            assert!(!seen[b as usize], "duplicate byte {b}");
            seen[b as usize] = true;
        }
    }

    #[test]
    fn randomize_is_bijective_per_byte() {
        let mut rng = SplitMix64::new(2);
        let t = ByteTable::random(&mut rng);
        // Distinct single-byte inputs must stay distinct.
        let outs: Vec<u64> = (0..256u64).map(|v| t.randomize(v)).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256);
    }

    #[test]
    fn flip_reverses_bytes() {
        assert_eq!(flip(0x0102_0304_0506_0708), 0x0807_0605_0403_0201);
        assert_eq!(flip(flip(0xdead_beef)), 0xdead_beef);
    }

    #[test]
    fn xor_fold_stays_in_range() {
        for bits in 1..=16 {
            for v in [0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
                assert!(xor_fold(v, bits) < (1 << bits));
            }
        }
    }

    #[test]
    fn xor_fold_of_zero_is_zero() {
        assert_eq!(xor_fold(0, 11), 0);
    }

    #[test]
    #[should_panic(expected = "xor_fold requires")]
    fn xor_fold_rejects_zero_bits() {
        xor_fold(1, 0);
    }

    #[test]
    fn hasher_rejects_non_power_of_two() {
        assert!(TupleHasher::new(0, 1).is_err());
        assert!(TupleHasher::new(1, 1).is_err());
        assert!(TupleHasher::new(3, 1).is_err());
        assert!(TupleHasher::new(2049, 1).is_err());
        assert!(TupleHasher::new(2048, 1).is_ok());
    }

    #[test]
    fn hasher_is_deterministic_and_seed_sensitive() {
        let a = TupleHasher::new(1024, 5).unwrap();
        let b = TupleHasher::new(1024, 5).unwrap();
        let c = TupleHasher::new(1024, 6).unwrap();
        let mut differs = false;
        for i in 0..64u64 {
            let t = Tuple::new(0x400000 + i * 4, i);
            assert_eq!(a.index(t), b.index(t));
            if a.index(t) != c.index(t) {
                differs = true;
            }
        }
        assert!(differs, "different seeds should give different functions");
    }

    #[test]
    fn hasher_distributes_sequential_pcs_evenly() {
        // The whole point of randomize/flip: temporally close PCs with small
        // variation must spread across the table. Chi-square-ish check: no
        // bucket should get more than ~8x its fair share.
        let size = 256;
        let h = TupleHasher::new(size, 99).unwrap();
        let n = 64 * size;
        let mut histogram = vec![0u32; size];
        for i in 0..n {
            let t = Tuple::new(0x400000 + (i as u64) * 4, 7);
            histogram[h.index(t)] += 1;
        }
        let expected = (n / size) as u32;
        let max = *histogram.iter().max().unwrap();
        assert!(
            max < expected * 8,
            "max bucket {max} vs expected {expected}: distribution too skewed"
        );
    }

    #[test]
    fn family_members_are_pairwise_distinct_functions() {
        let family = HashFamily::new(4, 512, 11).unwrap();
        let probes: Vec<Tuple> = (0..256u64).map(|i| Tuple::new(i * 8, i)).collect();
        for a in 0..family.len() {
            for b in (a + 1)..family.len() {
                let same = probes
                    .iter()
                    .filter(|&&t| family.hashers()[a].index(t) == family.hashers()[b].index(t))
                    .count();
                // Random collisions happen at rate 1/512; all-equal means the
                // functions are not independent.
                assert!(
                    same < probes.len() / 8,
                    "hashers {a} and {b} too correlated: {same}"
                );
            }
        }
    }

    #[test]
    fn family_rejects_zero_tables() {
        assert!(matches!(
            HashFamily::new(0, 512, 1),
            Err(crate::ConfigError::ZeroTables)
        ));
    }

    #[test]
    fn family_indices_match_individual_hashers() {
        let family = HashFamily::new(3, 128, 3).unwrap();
        let t = Tuple::new(0x1000, 55);
        let via_iter: Vec<usize> = family.indices(t).collect();
        let via_hashers: Vec<usize> = family.hashers().iter().map(|h| h.index(t)).collect();
        assert_eq!(via_iter, via_hashers);
    }

    #[test]
    fn indices_into_matches_indices() {
        let family = HashFamily::new(4, 256, 9).unwrap();
        let mut scratch = [0usize; 4];
        for i in 0..64u64 {
            let t = Tuple::new(0x400000 + i * 4, i);
            family.indices_into(t, &mut scratch);
            let via_iter: Vec<usize> = family.indices(t).collect();
            assert_eq!(scratch.as_slice(), via_iter.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "one index per table")]
    fn indices_into_rejects_wrong_scratch_len() {
        let family = HashFamily::new(4, 256, 9).unwrap();
        let mut scratch = [0usize; 3];
        family.indices_into(Tuple::new(1, 1), &mut scratch);
    }

    /// An adversarial-ish tuple set for equivalence sweeps: byte-diverse
    /// PCs and values, plus the extremes.
    fn probe_tuples() -> Vec<Tuple> {
        let mut rng = SplitMix64::new(0xF01D);
        let mut tuples: Vec<Tuple> = (0..512)
            .map(|_| Tuple::new(rng.next_u64(), rng.next_u64()))
            .collect();
        tuples.extend([
            Tuple::new(0, 0),
            Tuple::new(u64::MAX, u64::MAX),
            Tuple::new(0x0400_0100, 42),
            Tuple::new(u64::MAX, 0),
            Tuple::new(0, u64::MAX),
        ]);
        tuples
    }

    #[test]
    fn fold_table_index_matches_the_reference_formulation() {
        // The fast path must be bit-identical to the paper's literal
        // randomize/flip/xor-fold pipeline, for every table size.
        for (size, seed) in [(2usize, 1u64), (256, 99), (2048, 5), (1 << 20, 7)] {
            let h = TupleHasher::new(size, seed).unwrap();
            for &t in &probe_tuples() {
                assert_eq!(
                    h.index(t),
                    h.index_reference(t),
                    "size {size} seed {seed} tuple {t:?}"
                );
            }
        }
    }

    #[test]
    fn packed_family_indices_match_per_hasher_indices() {
        // Packing limits: ≤ 4 lanes, ≤ 16 index bits. Sweep configurations
        // inside the limits (packed) and outside them (fallback); both must
        // agree with the per-hasher reference exactly.
        for (tables, size) in [
            (1usize, 512usize),
            (2, 2048),
            (4, 512),
            (4, 1 << 16),
            (6, 512),
        ] {
            let family = HashFamily::new(tables, size, 31).unwrap();
            let mut scratch = vec![0usize; tables];
            for &t in &probe_tuples() {
                family.indices_into(t, &mut scratch);
                let expected: Vec<usize> = family
                    .hashers()
                    .iter()
                    .map(|h| h.index_reference(t))
                    .collect();
                assert_eq!(scratch, expected, "{tables} tables of {size}");
            }
        }
    }
}
