//! # mhp-pipeline — sharded streaming ingestion with binary trace record/replay
//!
//! The paper's profilers (`mhp-core`) consume one event at a time on one
//! thread. This crate scales that up to the shape of a production profiling
//! backend, in two pieces:
//!
//! * **Binary traces** ([`format`](mod@format)) — a compact, checksummed on-disk format
//!   for `<pc, value>` event streams ([`TraceWriter`] / [`TraceReader`]),
//!   so a workload is captured once and replayed deterministically through
//!   any profiler configuration.
//! * **Sharded ingestion** ([`engine`]) — a [`ShardedEngine`] that
//!   hash-partitions the stream across worker threads over per-shard
//!   bounded SPSC batch rings ([`ring`]), recycles batch buffers back from
//!   the workers, cuts intervals on the *global* event count, and merges the
//!   per-shard [`IntervalProfile`](mhp_core::IntervalProfile)s into output
//!   equal in meaning to a single-threaded run (see
//!   [`IntervalProfile::merge`](mhp_core::IntervalProfile::merge) for the
//!   exact semantics).
//!
//! The `mhp-pipeline` binary exposes both as `record`, `replay`, `bench`
//! and `info` subcommands.
//!
//! ## Quick example
//!
//! Record a synthetic workload to an in-memory trace, then replay it
//! through a 4-shard multi-hash engine:
//!
//! ```
//! use mhp_core::{IntervalConfig, MultiHashConfig};
//! use mhp_pipeline::{EngineConfig, ProfilerSpec, ShardedEngine, TraceReader, TraceWriter};
//! use mhp_trace::{Benchmark, StreamKind, StreamSpec};
//!
//! # fn main() -> Result<(), mhp_pipeline::Error> {
//! let spec = StreamSpec::new(Benchmark::Gcc, StreamKind::Value, 42);
//! let mut writer = TraceWriter::new(Vec::new(), spec.kind.into());
//! writer.write_all(spec.events().take(50_000))?;
//! let trace = writer.finish()?;
//!
//! let interval = IntervalConfig::new(10_000, 0.01)?;
//! let engine = ShardedEngine::new(
//!     EngineConfig::new(4),
//!     interval,
//!     ProfilerSpec::MultiHash(MultiHashConfig::best()),
//!     0xC0FFEE,
//! );
//! let report = engine.run_results(TraceReader::new(trace.as_slice())?)?;
//! assert_eq!(report.intervals, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod format;
pub mod ring;
pub mod telemetry;

pub use engine::{
    shard_of, EngineConfig, EngineReport, EngineSession, ProfilerSpec, ShardStats, ShardedEngine,
};
pub use error::Error;
pub use format::{
    crc32, declared_chunk_len, decode_chunk, decode_chunk_into, decode_chunk_partitioned,
    encode_chunk, ChunkDecoder, TraceKind, TraceReader, TraceWriter, CHUNK_HEADER_BYTES,
    DEFAULT_CHUNK_EVENTS, FORMAT_VERSION, MAGIC, MAX_CHUNK_BYTES,
};
pub use telemetry::{EngineTelemetry, RegistrySink};
