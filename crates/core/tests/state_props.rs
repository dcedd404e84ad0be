//! Checkpoint round-trip properties: `save_state` → `restore_state` →
//! continue must be indistinguishable — bit for bit — from an uninterrupted
//! run, for every profiler architecture, at any stream position, including
//! cuts landing mid-interval. Plus adversarial snapshot tests: truncation,
//! bit flips, version/kind/config mismatches all fail with typed errors and
//! leave the live profiler untouched.

use mhp_core::state::{crc32, SNAPSHOT_MAGIC};
use mhp_core::{
    Candidate, EventProfiler, IntervalConfig, IntervalProfile, MultiHashConfig, MultiHashProfiler,
    PerfectProfiler, SingleHashConfig, SingleHashProfiler, SnapshotError, Tuple,
};
use proptest::prelude::*;

const SEED: u64 = 0xFEED_FACE;

/// The three profiler specs the service supports: single-hash (best, P1 R1),
/// multi-hash (C1 R0 — the paper's preferred corner) and the perfect
/// reference.
fn build(spec: u8) -> Box<dyn EventProfiler> {
    let interval = IntervalConfig::new(50, 0.1).unwrap();
    match spec % 3 {
        0 => Box::new(SingleHashProfiler::new(interval, SingleHashConfig::best(), SEED).unwrap()),
        1 => Box::new(
            MultiHashProfiler::new(interval, MultiHashConfig::new(64, 4).unwrap(), SEED).unwrap(),
        ),
        _ => Box::new(PerfectProfiler::new(interval)),
    }
}

/// Feeds `events`, forcing an external mid-interval cut after every position
/// listed in `cuts`; returns every completed interval profile.
fn drive(
    profiler: &mut dyn EventProfiler,
    events: &[(u64, u64)],
    cuts: &[usize],
) -> Vec<IntervalProfile> {
    let mut out = Vec::new();
    for (i, &(pc, value)) in events.iter().enumerate() {
        if let Some(p) = profiler.observe(Tuple::new(pc, value)) {
            out.push(p);
        }
        if cuts.contains(&i) {
            out.push(profiler.finish_interval());
        }
    }
    out
}

fn final_state(profiler: &mut dyn EventProfiler) -> (Vec<Candidate>, u64, u64, IntervalProfile) {
    let top = profiler.hot_tuples(16);
    let events = profiler.events_in_current_interval();
    let idx = profiler.interval_index();
    let flush = profiler.finish_interval();
    (top, events, idx, flush)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn save_restore_continue_equals_uninterrupted(
        spec in 0u8..3,
        raw in prop::collection::vec((0u64..16, 0u64..4), 1..400),
        cuts in prop::collection::vec(0usize..400, 0..4),
        split in 0usize..400,
    ) {
        let split = split % raw.len();

        // Reference: one uninterrupted run.
        let mut uninterrupted = build(spec);
        let expected = drive(uninterrupted.as_mut(), &raw, &cuts);
        let expected_final = final_state(uninterrupted.as_mut());

        // Interrupted run: prefix, snapshot, restore into a fresh profiler
        // of the same configuration, suffix.
        let mut first = build(spec);
        let mut got = drive(first.as_mut(), &raw[..split], &cuts);
        let snapshot = first.save_state().unwrap();
        prop_assert_eq!(
            &first.save_state().unwrap(),
            &snapshot,
            "saving twice must produce identical bytes"
        );

        let mut second = build(spec);
        second.restore_state(&snapshot).unwrap();
        prop_assert_eq!(
            &second.save_state().unwrap(),
            &snapshot,
            "a restored profiler must re-snapshot to the same bytes"
        );
        let tail_cuts: Vec<usize> = cuts
            .iter()
            .filter(|&&c| c >= split)
            .map(|&c| c - split)
            .collect();
        got.extend(drive(second.as_mut(), &raw[split..], &tail_cuts));

        prop_assert_eq!(got, expected);
        prop_assert_eq!(final_state(second.as_mut()), expected_final);
    }
}

/// CRC-32 computed one bit at a time straight from the reflected IEEE
/// polynomial: the oracle for the table-driven [`crc32`].
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// Lengths 0..=300 cover the 8-byte body and every tail length; the
    /// `start` filler bytes in front put the input at every alignment.
    #[test]
    fn crc32_matches_bitwise_oracle(
        data in prop::collection::vec(any::<u8>(), 0..301),
        start in 0usize..8,
    ) {
        let mut buf = vec![0xA5u8; start];
        buf.extend_from_slice(&data);
        prop_assert_eq!(crc32(&buf[start..]), crc32_bitwise(&data));
    }
}

/// A multi-hash checkpoint (16-entry tables × 2, 83 events of a 3-PC ×
/// 5-value cycle) as an earlier build wrote it. Its CRC must still
/// validate, and today's build must write the same bytes for the same run:
/// neither the checksum nor the accumulator's map order may leak into a
/// checkpoint.
const PINNED_MULTI_HASH_CHECKPOINT: &str = "\
    4d4850534e41500a0100021000000000000000020000000000000001000101cefaedfe00\
    00000032000000000000009a9999999999b93f0021000000000000000100000000000000\
    090000000000000000000000000000000000000000000000000000000000000000000000\
    000000001000000000000000030000000200000002000000030000000000000003000000\
    020000000200000003000000030000000000000002000000030000000000000002000000\
    030000000400000000000000000040000000000003000000000000000200000000000000\
    010000400000000000040000000000000002000000000000000108004000000000000100\
    000000000000020000000000000001100040000000000000000000000000000300000000\
    00000001a3ff6801";

fn pinned_run() -> MultiHashProfiler {
    let interval = IntervalConfig::new(50, 0.1).unwrap();
    let mut p =
        MultiHashProfiler::new(interval, MultiHashConfig::new(16, 2).unwrap(), SEED).unwrap();
    for i in 0..83u64 {
        p.observe(Tuple::new(0x40_0000 + 8 * (i % 3), i % 5));
    }
    p
}

#[test]
fn pinned_checkpoint_validates_and_is_rewritten_identically() {
    let pinned: Vec<u8> = (0..PINNED_MULTI_HASH_CHECKPOINT.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&PINNED_MULTI_HASH_CHECKPOINT[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(pinned.len(), 296);

    let live = pinned_run();
    assert_eq!(live.save_state().unwrap(), pinned);

    let interval = IntervalConfig::new(50, 0.1).unwrap();
    let mut restored =
        MultiHashProfiler::new(interval, MultiHashConfig::new(16, 2).unwrap(), SEED).unwrap();
    restored.restore_state(&pinned).unwrap();
    assert_eq!(restored.save_state().unwrap(), pinned);
    assert_eq!(restored.hot_tuples(8), live.hot_tuples(8));
}

/// Builds a mid-stream snapshot with non-trivial counter and accumulator
/// state for the corruption tests.
fn busy_snapshot(spec: u8) -> (Box<dyn EventProfiler>, Vec<u8>) {
    let mut p = build(spec);
    for i in 0..137u64 {
        p.observe(Tuple::new(i % 9, i % 3));
    }
    let snap = p.save_state().unwrap();
    (p, snap)
}

#[test]
fn every_truncation_fails_typed_and_leaves_state_untouched() {
    for spec in 0..3u8 {
        let (mut p, snap) = busy_snapshot(spec);
        let before = p.hot_tuples(16);
        for len in 0..snap.len() {
            let err = p.restore_state(&snap[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::CrcMismatch { .. }
                ),
                "spec {spec} len {len}: got {err}"
            );
        }
        assert_eq!(p.hot_tuples(16), before, "failed restore must not mutate");
    }
}

#[test]
fn every_bit_flip_fails_typed() {
    for spec in 0..3u8 {
        let (mut p, snap) = busy_snapshot(spec);
        // Step through the snapshot; every flipped byte must be caught by
        // the magic check or the CRC.
        for i in (0..snap.len()).step_by(7) {
            let mut bad = snap.clone();
            bad[i] ^= 0x20;
            let err = p.restore_state(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic | SnapshotError::CrcMismatch { .. }
                ),
                "spec {spec} byte {i}: got {err}"
            );
        }
    }
}

/// Re-seals snapshot bytes with a fresh CRC so tampered fields get past the
/// integrity check and must be caught by the semantic validation.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.truncate(bytes.len() - 4);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn version_bump_is_rejected() {
    let (mut p, snap) = busy_snapshot(0);
    let mut bad = snap;
    bad[SNAPSHOT_MAGIC.len()] = 99;
    assert_eq!(
        p.restore_state(&reseal(bad)).unwrap_err(),
        SnapshotError::UnsupportedVersion(99)
    );
}

#[test]
fn wrong_profiler_kind_is_rejected() {
    let (_, single_snap) = busy_snapshot(0);
    let mut multi = build(1);
    assert!(matches!(
        multi.restore_state(&single_snap).unwrap_err(),
        SnapshotError::KindMismatch { .. }
    ));
}

#[test]
fn config_mismatches_are_rejected() {
    let interval = IntervalConfig::new(50, 0.1).unwrap();
    let (_, snap) = busy_snapshot(0);

    // Different seed, same geometry.
    let mut other_seed =
        SingleHashProfiler::new(interval, SingleHashConfig::best(), SEED ^ 1).unwrap();
    assert_eq!(
        other_seed.restore_state(&snap).unwrap_err(),
        SnapshotError::ConfigMismatch {
            context: "hash seed"
        }
    );

    // Different table size.
    let mut other_size = SingleHashProfiler::new(
        interval,
        SingleHashConfig::new(4096)
            .unwrap()
            .with_resetting(true)
            .with_retaining(true),
        SEED,
    )
    .unwrap();
    assert!(matches!(
        other_size.restore_state(&snap).unwrap_err(),
        SnapshotError::ConfigMismatch { .. }
    ));

    // Different interval length.
    let mut other_interval = SingleHashProfiler::new(
        IntervalConfig::new(60, 0.1).unwrap(),
        SingleHashConfig::best(),
        SEED,
    )
    .unwrap();
    assert_eq!(
        other_interval.restore_state(&snap).unwrap_err(),
        SnapshotError::ConfigMismatch {
            context: "interval length"
        }
    );

    // Different option flags.
    let mut other_flags =
        SingleHashProfiler::new(interval, SingleHashConfig::new(2048).unwrap(), SEED).unwrap();
    assert!(matches!(
        other_flags.restore_state(&snap).unwrap_err(),
        SnapshotError::ConfigMismatch { .. }
    ));
}

#[test]
fn profilers_without_snapshot_support_report_unsupported() {
    struct Opaque;
    impl EventProfiler for Opaque {
        fn interval_config(&self) -> IntervalConfig {
            IntervalConfig::short()
        }
        fn observe(&mut self, _tuple: Tuple) -> Option<IntervalProfile> {
            None
        }
        fn finish_interval(&mut self) -> IntervalProfile {
            IntervalProfile::from_candidates(0, IntervalConfig::short(), Vec::new())
        }
        fn reset(&mut self) {}
        fn events_in_current_interval(&self) -> u64 {
            0
        }
        fn interval_index(&self) -> u64 {
            0
        }
    }
    let mut p = Opaque;
    assert_eq!(p.save_state().unwrap_err(), SnapshotError::Unsupported);
    assert_eq!(
        p.restore_state(&[]).unwrap_err(),
        SnapshotError::Unsupported
    );
}
