//! Property test for partition-while-decoding: the engine's chunked
//! ingest, which routes each record to its shard straight out of the
//! decoder, must match per-event pushes for all three profiler specs.

use mhp_core::Tuple;
use mhp_pipeline::{encode_chunk, EngineConfig, ProfilerSpec, ShardedEngine};
use mhp_trace::{Benchmark, StreamKind, StreamSpec};
use proptest::prelude::*;

proptest! {
    // Each case spins up several multi-threaded engines; a few cases cover
    // the chunk-size/seed space without dominating the suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn chunked_ingest_matches_per_event_push_for_every_spec(
        stream_seed in any::<u64>(),
        chunk_size in 50usize..400,
    ) {
        let events: Vec<Tuple> = StreamSpec::new(Benchmark::Li, StreamKind::Value, stream_seed)
            .events()
            .take(4_000)
            .collect();
        let interval = mhp_core::IntervalConfig::new(1_100, 0.02).unwrap();
        for spec in ["multi-hash", "single-hash", "perfect"] {
            let spec: ProfilerSpec = spec.parse().unwrap();
            let engine = ShardedEngine::new(
                EngineConfig::new(3).with_batch_events(128),
                interval,
                spec,
                0xBEEF,
            );

            let mut reference = engine.start().unwrap();
            reference.push_all(events.iter().copied()).unwrap();
            let expected = reference.finish().unwrap();

            let mut chunked = engine.start().unwrap();
            for run in events.chunks(chunk_size) {
                let chunk = encode_chunk(run);
                let consumed = chunked.ingest_chunk(&chunk).unwrap();
                prop_assert_eq!(consumed, chunk.len());
            }
            let report = chunked.finish().unwrap();
            prop_assert_eq!(&report.profiles, &expected.profiles, "{}", spec);
            prop_assert_eq!(report.events, expected.events);
            prop_assert_eq!(report.intervals, expected.intervals);
            // Routing statistics agree too: partition-while-decoding sends
            // every tuple to the same shard the per-event path does.
            for (a, b) in report.shards.iter().zip(expected.shards.iter()) {
                prop_assert_eq!(a.events, b.events);
            }
        }
    }
}
