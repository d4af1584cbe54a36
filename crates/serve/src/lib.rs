//! # flowtree-serve — sharded online simulation service
//!
//! Everything else in the workspace simulates a *known* [`Instance`]
//! (flowtree_sim::Instance) from `t = 0`; this crate runs the simulator as
//! a *service*: arrivals stream in asynchronously, get routed across a pool
//! of engine shards, and every drained shard persists its certified
//! [`RunSummary`](flowtree_analysis::RunSummary) into an append-only results
//! store that the CLI can trend across runs.
//!
//! The pieces, bottom-up:
//!
//! * [`source`] — where arrivals come from: replayed traces
//!   ([`ReplaySource`]), lazily sampled workload scenarios
//!   ([`GeneratorSource`]), or an external thread feeding a channel
//!   ([`ChannelSource`]).
//! * [`shard`] — one worker thread per shard driving a streaming
//!   [`Session`](flowtree_sim::Session) with the live monitor stack
//!   (`LowerBound` + `InvariantMonitor` + `RunHistograms`) attached as a
//!   probe tuple.
//! * [`pool`] — the [`ShardPool`] router: bounded queues, consistent-hash or
//!   least-loaded placement, and an explicit overload policy (block /
//!   drop). Correctness across shards rests on an **event-time
//!   watermark**: a shard simulates step `t` only once it knows no arrival
//!   with release `<= t` can still reach it, so a one-shard pool reproduces
//!   the batch engine's `RunReport` bit for bit (pinned by the differential
//!   tests). A **control plane** rides on the same channels
//!   ([`ShardCmd`](shard::ShardCmd)): runtime operations — offer, live
//!   scheduler hot-swap ([`PoolHandle::swap`]), synchronous quiesce,
//!   snapshots, drain requests — go through a cloneable [`PoolHandle`], and
//!   every offered arrival is accounted for in [`IngestStats`].
//! * [`telemetry`] — always-on observability for the pool: a lock-light
//!   metrics registry (per-shard atomic latency histograms for
//!   arrival→admit, admit→first-dispatch, and arrival→completion, plus
//!   live `max_flow`/lower-bound gauges), a Prometheus-style text
//!   exposition endpoint ([`serve_metrics`]) served over std TCP, and a
//!   bounded per-shard **flight recorder** of control-plane events (swap,
//!   watermark skip/retry, drop, quiesce, drain, panic) dumped as JSONL
//!   next to the results store. The shard probe stack is a 4-tuple:
//!   `LowerBound` + `InvariantMonitor` + `RunHistograms` + [`LatencyProbe`].
//! * [`store`] — append-only JSONL store of [`StoreRecord`]s (run id, git
//!   describe, shard, summary) under a directory like `results/store/`.
//! * [`trend`] — cross-run trend tables over store records (ratio,
//!   throughput, tail flow per scheduler × scenario).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod shard;
pub mod source;
pub mod store;
pub mod telemetry;
pub mod trend;

pub use pool::{
    IngestStats, OverloadPolicy, PoolHandle, PoolSnapshot, Routing, ServeConfig,
    ServeConfigBuilder, ServeError, ShardPool,
};
pub use shard::{Arrival, ShardResult, ShardSnapshot, SwapEvent};
pub use source::{channel_source, ArrivalSource, ChannelSource, GeneratorSource, ReplaySource};
pub use store::{
    gc_store, git_describe, load_records, ls_store, prune_history, run_id, GcFileReport, GcReport,
    LsFileReport, LsReport, PruneLimits, PruneReport, ResultsStore, StoreRecord, HISTORY_FILE,
    HISTORY_META_FILE,
};
pub use telemetry::{
    load_flight_jsonl, scrape_metrics, serve_metrics, serve_metrics_with, write_flight_jsonl,
    AtomicHisto, FlightEvent, FlightKind, FlightRecorder, LatencyProbe, MetricsExtra,
    MetricsServer, MetricsSnapshot, ScrapeError, ShardMetrics, ShardTelemetry, Telemetry,
};
pub use trend::{render_trend, render_trend_plots, trend_tables};
