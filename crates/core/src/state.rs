//! Versioned, CRC-guarded binary snapshots of profiler state.
//!
//! A production profiling service must survive restarts without losing the
//! interval it is half-way through. This module defines the on-disk/on-wire
//! envelope every profiler snapshot shares, plus the typed errors a restore
//! can fail with. The profilers themselves serialize their state through
//! [`EventProfiler::save_state`](crate::EventProfiler::save_state) /
//! [`EventProfiler::restore_state`](crate::EventProfiler::restore_state);
//! this module only owns the framing.
//!
//! ## Envelope layout
//!
//! All integers are little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "MHPSNAP\n"
//! 8       2     snapshot format version (currently 1)
//! 10      1     kind byte (which state the payload describes)
//! 11      n     payload (kind-specific)
//! 11+n    4     CRC-32 (IEEE) over bytes [0, 11+n)
//! ```
//!
//! The trailing CRC guards the *whole* snapshot including the header, so a
//! flipped kind byte or version is caught even before the kind-specific
//! parser runs. Restores are strict: trailing bytes after the declared
//! payload are rejected rather than ignored.

use std::fmt;

/// Leading magic of every snapshot (`MHPSNAP\n`).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MHPSNAP\n";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Envelope overhead: magic + version + kind in front, CRC-32 behind.
pub const SNAPSHOT_OVERHEAD: usize = 8 + 2 + 1 + 4;

/// Kind byte of a single-hash profiler snapshot (a
/// [`MultiHashProfiler`](crate::MultiHashProfiler) built by
/// [`single_hash`](crate::MultiHashProfiler::single_hash)).
pub const KIND_SINGLE_HASH: u8 = 1;
/// Kind byte of a [`MultiHashProfiler`](crate::MultiHashProfiler) snapshot.
pub const KIND_MULTI_HASH: u8 = 2;
/// Kind byte of a [`PerfectProfiler`](crate::PerfectProfiler) snapshot.
pub const KIND_PERFECT: u8 = 3;
/// Kind byte reserved for a sharded-engine session envelope (`mhp-pipeline`).
pub const KIND_ENGINE_SESSION: u8 = 16;
/// Kind byte reserved for a server session checkpoint (`mhp-server`).
pub const KIND_SERVER_SESSION: u8 = 17;
/// Kind byte reserved for an aggregator checkpoint (`mhp-agg`).
pub const KIND_AGGREGATOR: u8 = 18;

/// Why a snapshot could not be produced or restored.
///
/// Restore errors are *typed* so callers can distinguish "this file is from
/// a different build" ([`UnsupportedVersion`](Self::UnsupportedVersion))
/// from "this file is damaged" ([`CrcMismatch`](Self::CrcMismatch)) from
/// "this file belongs to a differently-configured profiler"
/// ([`ConfigMismatch`](Self::ConfigMismatch)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The snapshot does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot's format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The snapshot ended before the named field could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The trailing CRC-32 does not match the snapshot contents.
    CrcMismatch {
        /// CRC stored in the snapshot.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
    /// The snapshot describes a different kind of state than expected.
    KindMismatch {
        /// Kind byte the caller expected.
        expected: u8,
        /// Kind byte found in the snapshot.
        found: u8,
    },
    /// The snapshot was taken under a different configuration than the live
    /// profiler's (it would restore into nonsense, so it is refused).
    ConfigMismatch {
        /// Which configuration field disagreed.
        context: &'static str,
    },
    /// A field decoded but holds an impossible value (e.g. a counter above
    /// the hardware saturation limit, or duplicate accumulator entries).
    Corrupt {
        /// What was found to be invalid.
        context: &'static str,
    },
    /// This profiler does not implement snapshots.
    Unsupported,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a profiler snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::CrcMismatch { expected, actual } => write!(
                f,
                "snapshot crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
            ),
            SnapshotError::KindMismatch { expected, found } => write!(
                f,
                "snapshot kind mismatch: expected kind {expected}, found kind {found}"
            ),
            SnapshotError::ConfigMismatch { context } => {
                write!(
                    f,
                    "snapshot was taken under a different configuration ({context})"
                )
            }
            SnapshotError::Corrupt { context } => write!(f, "snapshot is corrupt: {context}"),
            SnapshotError::Unsupported => {
                write!(f, "snapshots are not supported by this profiler")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Builds the slicing-by-8 tables of CRC-32 (IEEE, reflected, polynomial
/// `0xEDB8_8320`). `tables[0]` is the classic byte-at-a-time table;
/// `tables[k][b]` is the CRC register after byte `b` followed by `k` zero
/// bytes, so eight loads advance the register by eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE, reflected: the zlib/PNG/Ethernet checksum) of `bytes`.
///
/// This is the workspace's only CRC-32: snapshot envelopes here and the
/// trace format's chunk headers in `mhp-pipeline` both use it. The body
/// runs slicing-by-8, eight bytes per step; the tail of fewer than eight
/// bytes goes through `tables[0]` one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let v = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Builds one snapshot: envelope header up front, CRC appended by
/// [`finish`](Self::finish). All integers are written little-endian.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot of the given kind.
    pub fn new(kind: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(kind);
        SnapshotWriter { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Seals the snapshot: computes the CRC over everything written so far
    /// and appends it.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Validates a snapshot's envelope and reads its payload field by field.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Checks magic, version, CRC and kind, returning a reader positioned at
    /// the start of the payload.
    pub fn open(bytes: &'a [u8], expected_kind: u8) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() {
            return Err(SnapshotError::Truncated { context: "magic" });
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < SNAPSHOT_OVERHEAD {
            return Err(SnapshotError::Truncated {
                context: "envelope",
            });
        }
        // CRC first: it covers the version and kind bytes too, so corruption
        // there is reported as corruption rather than a confusing mismatch.
        let body_len = bytes.len() - 4;
        let expected = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
        let actual = crc32(&bytes[..body_len]);
        if expected != actual {
            return Err(SnapshotError::CrcMismatch { expected, actual });
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let found = bytes[10];
        if found != expected_kind {
            return Err(SnapshotError::KindMismatch {
                expected: expected_kind,
                found,
            });
        }
        Ok(SnapshotReader {
            payload: &bytes[11..body_len],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.payload.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool byte, rejecting anything other than 0 or 1.
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { context }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Reads a `u64` length prefix and then that many raw bytes.
    pub fn take_bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_u64(context)?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt { context })?;
        self.take(len, context)
    }

    /// Reads a `u64` element count, rejecting counts that could not possibly
    /// fit in the remaining payload (each element needs at least
    /// `min_elem_bytes` bytes) — so a corrupt length cannot drive a huge
    /// allocation before the per-element reads fail.
    pub fn take_count(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapshotError> {
        let count = self.take_u64(context)?;
        let count = usize::try_from(count).map_err(|_| SnapshotError::Corrupt { context })?;
        let remaining = self.payload.len() - self.pos;
        if count
            .checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > remaining)
        {
            return Err(SnapshotError::Truncated { context });
        }
        Ok(count)
    }

    /// Asserts the payload has been fully consumed.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                context: "trailing bytes after payload",
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Shared codec helpers.
// ---------------------------------------------------------------------------

use crate::accumulator::AccumulatorTable;
use crate::counter::{CounterBlock, COUNTER_MAX};
use crate::interval::IntervalConfig;
use crate::introspect::IntervalTally;
use crate::profile::{Candidate, IntervalProfile};
use crate::tuple::Tuple;

/// Serializes one [`IntervalProfile`] into a snapshot payload.
///
/// This is the interchange form every layer that persists or ships merged
/// profiles uses: engine-session snapshots (`mhp-pipeline`), server session
/// checkpoints (`mhp-server`) and aggregator checkpoints (`mhp-agg`).
/// Candidates are stored hottest-first with deterministic tie-breaking
/// (descending count, then ascending tuple), so equal profiles always
/// serialize to equal bytes.
pub fn put_profile(w: &mut SnapshotWriter, profile: &IntervalProfile) {
    w.put_u64(profile.interval_index());
    let config = profile.config();
    w.put_u64(config.interval_len());
    w.put_f64(config.threshold_fraction());
    w.put_bool(config.external_cut());
    w.put_u64(profile.len() as u64);
    for c in profile.candidates() {
        w.put_u64(c.tuple.pc().as_u64());
        w.put_u64(c.tuple.value().as_u64());
        w.put_u64(c.count);
    }
}

/// Reads back one [`IntervalProfile`] written by [`put_profile`].
///
/// The rebuilt profile is value-equal to the one serialized: candidates pass
/// through [`IntervalProfile::from_candidates`], which re-establishes the
/// same deterministic ordering the writer emitted, so a
/// put-profile/take-profile round trip is the identity.
pub fn take_profile(r: &mut SnapshotReader<'_>) -> Result<IntervalProfile, SnapshotError> {
    let interval_index = r.take_u64("profile interval index")?;
    let interval_len = r.take_u64("profile interval length")?;
    let threshold = r.take_f64("profile threshold fraction")?;
    let external_cut = r.take_bool("profile external-cut flag")?;
    let mut config =
        IntervalConfig::new(interval_len, threshold).map_err(|_| SnapshotError::Corrupt {
            context: "profile interval configuration",
        })?;
    if external_cut {
        config = config.with_external_cut();
    }
    let count = r.take_count(24, "profile candidates")?;
    let mut candidates = Vec::with_capacity(count);
    for _ in 0..count {
        let pc = r.take_u64("candidate pc")?;
        let value = r.take_u64("candidate value")?;
        let count = r.take_u64("candidate count")?;
        candidates.push(Candidate::new(Tuple::new(pc, value), count));
    }
    Ok(IntervalProfile::from_candidates(
        interval_index,
        config,
        candidates,
    ))
}

pub(crate) fn put_interval(w: &mut SnapshotWriter, interval: &IntervalConfig) {
    w.put_u64(interval.interval_len());
    w.put_f64(interval.threshold_fraction());
    w.put_bool(interval.external_cut());
}

/// Reads the interval fingerprint and checks it against the live profiler's.
pub(crate) fn check_interval(
    r: &mut SnapshotReader<'_>,
    live: &IntervalConfig,
) -> Result<(), SnapshotError> {
    let interval_len = r.take_u64("interval length")?;
    let threshold = r.take_f64("threshold fraction")?;
    let external_cut = r.take_bool("external-cut flag")?;
    if interval_len != live.interval_len() {
        return Err(SnapshotError::ConfigMismatch {
            context: "interval length",
        });
    }
    if threshold.to_bits() != live.threshold_fraction().to_bits() {
        return Err(SnapshotError::ConfigMismatch {
            context: "threshold fraction",
        });
    }
    if external_cut != live.external_cut() {
        return Err(SnapshotError::ConfigMismatch {
            context: "external-cut flag",
        });
    }
    Ok(())
}

/// Reads a profiler's stream position: events in the current interval, then
/// the interval index. A profiler that cuts its own intervals ends one the
/// moment its count reaches the interval length, so a count at or past it
/// could never reach a boundary again and is refused.
pub(crate) fn take_position(
    r: &mut SnapshotReader<'_>,
    interval: &IntervalConfig,
) -> Result<(u64, u64), SnapshotError> {
    let events = r.take_u64("event count")?;
    let interval_idx = r.take_u64("interval index")?;
    if !interval.external_cut() && events >= interval.interval_len() {
        return Err(SnapshotError::Corrupt {
            context: "event count at or past the interval length",
        });
    }
    Ok((events, interval_idx))
}

pub(crate) fn put_counters(w: &mut SnapshotWriter, counters: &CounterBlock) {
    w.put_u64(counters.len() as u64);
    for v in counters.iter() {
        w.put_u32(v);
    }
}

/// Reads a counter array whose length must match the live sketch geometry
/// (already validated against the config fingerprint) and whose values must
/// respect the hardware saturation limit.
pub(crate) fn take_counters(
    r: &mut SnapshotReader<'_>,
    expected_len: usize,
) -> Result<Vec<u32>, SnapshotError> {
    let count = r.take_count(4, "counter values")?;
    if count != expected_len {
        return Err(SnapshotError::Corrupt {
            context: "counter count disagrees with configuration",
        });
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        let v = r.take_u32("counter value")?;
        if v > COUNTER_MAX {
            return Err(SnapshotError::Corrupt {
                context: "counter value above saturation limit",
            });
        }
        values.push(v);
    }
    Ok(values)
}

pub(crate) fn put_accumulator(w: &mut SnapshotWriter, table: &AccumulatorTable) {
    // Sorted by tuple so equal state always snapshots to equal bytes.
    let mut entries: Vec<_> = table.iter().collect();
    entries.sort_by_key(|e| e.tuple);
    w.put_u64(entries.len() as u64);
    for e in entries {
        let (pc, value) = e.tuple.into();
        w.put_u64(pc);
        w.put_u64(value);
        w.put_u64(e.count);
        w.put_bool(e.replaceable);
    }
}

/// Reads accumulator entries, validating occupancy against `capacity` and
/// rejecting duplicate tuples.
pub(crate) fn take_accumulator(
    r: &mut SnapshotReader<'_>,
    capacity: usize,
) -> Result<Vec<(Tuple, u64, bool)>, SnapshotError> {
    let count = r.take_count(25, "accumulator entries")?;
    if count > capacity {
        return Err(SnapshotError::Corrupt {
            context: "accumulator occupancy above capacity",
        });
    }
    let mut entries = Vec::with_capacity(count);
    let mut last: Option<Tuple> = None;
    for _ in 0..count {
        let pc = r.take_u64("accumulator entry pc")?;
        let value = r.take_u64("accumulator entry value")?;
        let count = r.take_u64("accumulator entry count")?;
        let replaceable = r.take_bool("accumulator entry flag")?;
        let tuple = Tuple::new(pc, value);
        // Written sorted; anything out of order (or equal) is corruption.
        if last.is_some_and(|prev| prev >= tuple) {
            return Err(SnapshotError::Corrupt {
                context: "accumulator entries out of order",
            });
        }
        last = Some(tuple);
        entries.push((tuple, count, replaceable));
    }
    Ok(entries)
}

pub(crate) fn put_tally(w: &mut SnapshotWriter, tally: &IntervalTally) {
    w.put_u64(tally.shield_hits);
    w.put_u64(tally.promotions);
    w.put_u64(tally.promotions_dropped);
    w.put_u64(tally.evictions);
    w.put_u64(tally.saturations);
}

pub(crate) fn take_tally(r: &mut SnapshotReader<'_>) -> Result<IntervalTally, SnapshotError> {
    Ok(IntervalTally {
        shield_hits: r.take_u64("tally shield hits")?,
        promotions: r.take_u64("tally promotions")?,
        promotions_dropped: r.take_u64("tally dropped promotions")?,
        evictions: r.take_u64("tally evictions")?,
        saturations: r.take_u64("tally saturations")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(kind: u8) -> Vec<u8> {
        let mut w = SnapshotWriter::new(kind);
        w.put_u64(0xDEAD_BEEF);
        w.put_bool(true);
        w.put_f64(0.25);
        w.put_bytes(b"abc");
        w.finish()
    }

    #[test]
    fn round_trips_every_field_type() {
        let bytes = sealed(KIND_MULTI_HASH);
        let mut r = SnapshotReader::open(&bytes, KIND_MULTI_HASH).unwrap();
        assert_eq!(r.take_u64("a").unwrap(), 0xDEAD_BEEF);
        assert!(r.take_bool("b").unwrap());
        assert_eq!(r.take_f64("c").unwrap(), 0.25);
        assert_eq!(r.take_bytes("d").unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn profile_round_trips_and_is_byte_deterministic() {
        let config = IntervalConfig::short().with_external_cut();
        let profile = |order: &[(u64, u64)]| {
            IntervalProfile::from_candidates(
                5,
                config,
                order
                    .iter()
                    .map(|&(pc, n)| Candidate::new(Tuple::new(pc, pc), n))
                    .collect(),
            )
        };
        let a = profile(&[(1, 100), (2, 300), (3, 100)]);
        let mut w = SnapshotWriter::new(KIND_AGGREGATOR);
        put_profile(&mut w, &a);
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes, KIND_AGGREGATOR).unwrap();
        let back = take_profile(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, a);
        assert_eq!(back.config(), config);

        // Equal profiles built from different input orders serialize to
        // equal bytes — the property aggregator checkpoints rely on.
        let b = profile(&[(3, 100), (1, 100), (2, 300)]);
        let mut w = SnapshotWriter::new(KIND_AGGREGATOR);
        put_profile(&mut w, &b);
        assert_eq!(w.finish(), bytes);
    }

    #[test]
    fn crc_matches_known_vector() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // The trace format's all-zero end marker relies on this.
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sealed(1);
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::open(&bytes, 1).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn any_flipped_byte_fails_the_crc() {
        let good = sealed(1);
        // Every byte past the magic (a magic flip reports BadMagic instead).
        for i in SNAPSHOT_MAGIC.len()..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let err = SnapshotReader::open(&bad, 1).unwrap_err();
            assert!(
                matches!(err, SnapshotError::CrcMismatch { .. }),
                "byte {i}: expected crc mismatch, got {err}"
            );
        }
    }

    #[test]
    fn unsupported_version_is_detected() {
        // Re-seal with a bumped version so the CRC stays valid.
        let mut bytes = sealed(1);
        bytes.truncate(bytes.len() - 4);
        bytes[8] = 0x2A;
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            SnapshotReader::open(&bytes, 1).unwrap_err(),
            SnapshotError::UnsupportedVersion(0x2A)
        );
    }

    #[test]
    fn kind_mismatch_is_detected() {
        let bytes = sealed(KIND_PERFECT);
        assert_eq!(
            SnapshotReader::open(&bytes, KIND_SINGLE_HASH).unwrap_err(),
            SnapshotError::KindMismatch {
                expected: KIND_SINGLE_HASH,
                found: KIND_PERFECT,
            }
        );
    }

    #[test]
    fn every_truncation_length_is_rejected() {
        let good = sealed(1);
        for len in 0..good.len() {
            let err = SnapshotReader::open(&good[..len], 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::CrcMismatch { .. }
                ),
                "length {len}: got {err}"
            );
        }
    }

    #[test]
    fn payload_truncation_is_reported_with_context() {
        let mut w = SnapshotWriter::new(1);
        w.put_u32(7);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, 1).unwrap();
        assert_eq!(r.take_u32("first").unwrap(), 7);
        assert_eq!(
            r.take_u64("second"),
            Err(SnapshotError::Truncated { context: "second" })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = sealed(1);
        let mut r = SnapshotReader::open(&bytes, 1).unwrap();
        let _ = r.take_u64("a").unwrap();
        assert!(matches!(r.expect_end(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn bogus_bool_is_corrupt() {
        let mut w = SnapshotWriter::new(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, 1).unwrap();
        assert_eq!(
            r.take_bool("flag"),
            Err(SnapshotError::Corrupt { context: "flag" })
        );
    }

    #[test]
    fn absurd_count_is_rejected_before_allocation() {
        let mut w = SnapshotWriter::new(1);
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, 1).unwrap();
        assert!(r.take_count(24, "entries").is_err());
    }

    #[test]
    fn error_messages_are_lowercase_and_nonempty() {
        let errors = [
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::Truncated { context: "x" },
            SnapshotError::CrcMismatch {
                expected: 1,
                actual: 2,
            },
            SnapshotError::KindMismatch {
                expected: 1,
                found: 2,
            },
            SnapshotError::ConfigMismatch { context: "seed" },
            SnapshotError::Corrupt { context: "x" },
            SnapshotError::Unsupported,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing period: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotError>();
    }
}
