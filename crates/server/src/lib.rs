//! # mhp-server — multi-client TCP profiling service
//!
//! Turns the sharded ingestion engine (`mhp-pipeline`) into a long-running
//! network service. Clients open *named sessions* — each a live
//! [`EngineSession`](mhp_pipeline::EngineSession) running the profiler of
//! their choice — stream `<pc, value>` event chunks into them, and query
//! them while the stream is still flowing:
//!
//! * `snapshot` — the merged [`IntervalProfile`](mhp_core::IntervalProfile)
//!   of any completed interval;
//! * `topk` — the hottest tuples of the *current partial* interval,
//!   straight from the accumulators;
//! * `cut` — force the global interval to end now;
//! * `stats` — server metrics as legacy `key value` text;
//! * `metrics` — the full server/engine/sketch metric registry in
//!   Prometheus text exposition format (see `mhp-telemetry`).
//!
//! Sessions are server-resident: a recorder process can stream chunks
//! while a dashboard process attaches to the same session by name and
//! polls `topk`. Ingest frames carry [`mhp_pipeline::encode_chunk`] bytes
//! verbatim, CRC and all, so recorded trace files replay onto a server
//! without re-encoding.
//!
//! The `mhp-server` binary serves, one handler thread per connection; the
//! `mhp-client` binary records, queries, verifies and load-tests (its
//! multiplexed generator, [`mux_loadgen`], holds thousands of sessions
//! from one thread). See [`protocol`] for the wire format.
//!
//! ## Quick example
//!
//! ```
//! use mhp_server::{Client, Server, ServerConfig, SessionConfig};
//! use mhp_trace::{Benchmark, StreamKind, StreamSpec};
//!
//! # fn main() -> Result<(), mhp_server::ServerError> {
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! client.open_session("demo", SessionConfig::default_multi_hash())?;
//!
//! let events: Vec<_> = StreamSpec::new(Benchmark::Gcc, StreamKind::Value, 42)
//!     .events()
//!     .take(25_000)
//!     .collect();
//! for chunk in events.chunks(4_096) {
//!     client.ingest(chunk)?;
//! }
//! let profile = client.snapshot(u64::MAX)?.expect("two intervals done");
//! assert_eq!(profile.interval_index, 1);
//! let hot = client.top_k(5)?; // live view of the partial third interval
//! assert!(hot.len() <= 5);
//! client.shutdown_server()?;
//! server.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod error;
pub mod metrics;
pub mod mux;
pub mod protocol;
pub mod server;

pub use client::{backoff, Client, ReconnectingClient, DEFAULT_MAX_RETRIES};
pub use error::{ErrorCode, ServerError};
pub use metrics::{stat_value, Counter, Gauge, Histogram, Metrics};
pub use mux::{mux_loadgen, MuxConfig, MuxReport};
pub use protocol::{
    BreakerPhase, FrameDecoder, ProfileData, ProfilerKind, Request, Response, SessionConfig,
    SessionInfo, UpstreamHealth, MAX_FRAME_BYTES,
};
pub use server::{tenant_of, RunningServer, Server, ServerConfig, TenantQuotas, SERVER_STAGES};
