//! # mhp-telemetry — workspace-wide metrics and request tracing
//!
//! Every layer of the profiler stack (sketches in `mhp-core`, the sharded
//! engine in `mhp-pipeline`, the TCP service in `mhp-server`) wants to
//! report the same three shapes of number:
//!
//! * **counters** — monotonically increasing event tallies;
//! * **gauges** — levels that go up and down (queue depth, live
//!   connections, table occupancy);
//! * **histograms** — fixed-bucket log₂ distributions of durations or
//!   sizes, with wait-free recording and upper-bound quantiles.
//!
//! This crate provides those as cheap cloneable handles backed by relaxed
//! atomics, a [`Registry`] that names them and renders the whole set in
//! Prometheus text-exposition format ([`Registry::render_prometheus`]) or
//! as one-line JSON snapshots ([`Registry::snapshot_json`]), and a
//! [`Tracer`] that breaks each request into per-stage durations: every
//! finished [`Trace`] feeds one histogram per stage, and the slowest
//! whole traces render as JSONL.
//!
//! Nothing here allocates on the record path: counters and gauges are one
//! relaxed `fetch_add`, histograms are three, and a trace allocates only
//! when it is sampled.
//!
//! ## Quick example
//!
//! ```
//! use mhp_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("server_requests_total");
//! let latency = registry.histogram("server_request_latency_us");
//! requests.incr();
//! latency.record(180);
//! let text = registry.render_prometheus();
//! assert!(text.contains("# TYPE server_requests_total counter"));
//! assert!(text.contains("server_requests_total 1"));
//! assert!(text.contains("server_request_latency_us_count 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use registry::{stat_value, Counter, CounterVec, Gauge, MetricKind, Registry};
pub use trace::{StageSummary, StageTimer, Trace, TraceConfig, TraceRecord, Tracer, MAX_STAGES};
