//! The shard pool: bounded-queue routing of an arrival stream across N
//! engine shards, with a control plane for live scheduler hot-swap,
//! explicit overload behavior, and graceful drain.
//!
//! Each shard is a worker thread (see [`crate::shard`]) behind a bounded
//! channel of [`ShardCmd`]s. Every offer takes one path: under the router
//! lock, each arrival has its rare out-of-order release clamped forward
//! (counted in [`IngestStats::reordered`]) and is placed on a shard
//! ([`Routing`]); same-shard placements then coalesce into one
//! [`ShardCmd::Admit`] (one queue slot, one channel op), delivered under
//! the configured [`OverloadPolicy`], and event time is flushed at the
//! batch boundary. [`PoolHandle::offer`] is a batch of one. Sources feed
//! batches through [`PoolHandle::run_source`] via
//! [`ArrivalSource::next_batch`], bounded by
//! [`ServeConfig::ingest_batch`] jobs and a release-span flush rule tied to
//! [`ServeConfig::watermark_stride`], so batching never changes event-time
//! semantics — only how many channel ops they cost.
//!
//! Event time propagates to the other shards as *watermarks*, amortized two
//! ways: the router remembers the highest watermark each shard is known to
//! have (never re-sending a value that cannot advance it), and
//! [`ServeConfig::watermark_stride`] suppresses per-arrival broadcasts
//! until the frontier has advanced at least that far. Batch boundaries,
//! [`quiesce`](PoolHandle::quiesce), and drain always flush regardless, so
//! a shard's safe time lags the frontier by less than one stride while
//! arrivals flow, and not at all at synchronization points. Broadcasts use
//! `try_send` and skip full queues (counted in [`IngestStats::wm_skipped`],
//! surfaced in the CLI drain table): a full queue already holds a command
//! whose eventual processing advances that shard at least as far, so
//! skipping cannot deadlock or stall a shard forever — and the dedup
//! ledger retries the skipped value on the next broadcast anyway.
//!
//! Runtime control (offer / swap / snapshot / quiesce / drain request) is
//! a [`PoolHandle`]: a cheap clone that external front doors can drive
//! without owning the pool. [`ShardPool`] owns the worker threads and is
//! the only way to [`drain`](ShardPool::drain) and join them.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender, TrySendError};
use flowtree_core::SchedulerSpec;
use flowtree_dag::Time;
use flowtree_sim::JobSpec;

use crate::shard::{
    run_shard, Arrival, ShardCmd, ShardCtx, ShardResult, ShardSnapshot, SwapDirective,
};
use crate::source::ArrivalSource;
use crate::telemetry::{FlightEvent, FlightKind, MetricsSnapshot, Telemetry};

/// Everything that can go wrong launching or driving a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration failed validation (message says which field).
    InvalidConfig(String),
    /// A worker thread could not be spawned.
    Spawn(String),
    /// The pool's workers are gone (already drained or panicked); the
    /// handle can no longer deliver commands.
    PoolClosed,
    /// These shard workers panicked during drain; surviving shards'
    /// results are lost but the pool's telemetry (including each shard's
    /// flight ring, which records the panic) remains readable through any
    /// [`PoolHandle`].
    ShardPanicked(Vec<usize>),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Spawn(msg) => write!(f, "failed to spawn shard worker: {msg}"),
            ServeError::PoolClosed => f.write_str("pool is closed (shards already drained)"),
            ServeError::ShardPanicked(shards) => {
                write!(f, "shard worker(s) panicked during drain: {shards:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for String {
    fn from(e: ServeError) -> String {
        e.to_string()
    }
}

/// What to do with an arrival whose target shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Apply backpressure: block the ingest thread until there is room
    /// (never loses work; the default).
    Block,
    /// Shed load: drop the arriving jobs bound for a full shard — the whole
    /// per-shard command, the same unit [`Block`](Self::Block) waits on
    /// (counted in [`IngestStats::dropped`]); their releases still advance
    /// watermarks.
    DropNewest,
}

impl OverloadPolicy {
    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::DropNewest => "drop",
        }
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "drop" => Ok(OverloadPolicy::DropNewest),
            other => Err(format!("unknown overload policy '{other}'; known: block, drop")),
        }
    }
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the router picks a shard for each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Multiplicative hash of the arrival sequence number — stateless and
    /// uniform, like consistent hashing over a fixed ring.
    Hash,
    /// The shard with the fewest jobs assigned by the router so far (ties
    /// go to the lowest index). The ledger counts delivered placements, so
    /// under [`OverloadPolicy::Block`] placement is a pure function of the
    /// arrival sequence, never of shard timing; that determinism is what
    /// lets the differential suite compare batched and per-event ingest bit
    /// for bit under this routing too.
    LeastLoaded,
}

impl Routing {
    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Routing::Hash => "hash",
            Routing::LeastLoaded => "least-loaded",
        }
    }
}

impl std::str::FromStr for Routing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(Routing::Hash),
            "least-loaded" => Ok(Routing::LeastLoaded),
            other => Err(format!("unknown routing '{other}'; known: hash, least-loaded")),
        }
    }
}

impl std::fmt::Display for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a [`ShardPool`]. Build one with
/// [`ServeConfig::builder`] (validated) or [`ServeConfig::new`] (the
/// always-valid single-shard default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of engine shards (worker threads).
    pub shards: usize,
    /// Processors per shard.
    pub m: usize,
    /// Scheduler to run on every shard.
    pub spec: SchedulerSpec,
    /// Scenario label carried into summaries and store records.
    pub scenario: String,
    /// Bounded queue capacity per shard.
    pub queue_cap: usize,
    /// What to do when a shard queue is full.
    pub policy: OverloadPolicy,
    /// How arrivals are placed.
    pub routing: Routing,
    /// Safety horizon per shard (a stalling scheduler errors out instead of
    /// spinning forever).
    pub max_horizon: Time,
    /// Most arrivals one ingest batch may carry
    /// ([`run_source`](PoolHandle::run_source) /
    /// [`offer_batch`](PoolHandle::offer_batch)); 1 degenerates to
    /// per-event ingest.
    pub ingest_batch: usize,
    /// Watermark granularity. While arrivals flow, a shard is only told
    /// about frontier advances of at least this much (0 = every advance);
    /// the same value bounds how much event time one ingest batch may span.
    /// Batch boundaries, quiesce, and drain flush the exact frontier
    /// regardless, and watermarks never affect final results — only how
    /// eagerly shards may simulate ahead.
    pub watermark_stride: Time,
    /// Capacity of each shard's control-plane flight ring (structured
    /// swap/watermark/overload events kept for diagnosis; oldest evicted when
    /// full).
    pub flight_capacity: usize,
}

impl ServeConfig {
    /// A single-shard, blocking, hash-routed pool — the configuration whose
    /// behavior is bit-for-bit the batch engine's.
    pub fn new(spec: SchedulerSpec, m: usize) -> Self {
        ServeConfig {
            shards: 1,
            m,
            spec,
            scenario: "serve".to_string(),
            queue_cap: 1024,
            policy: OverloadPolicy::Block,
            routing: Routing::Hash,
            max_horizon: 100_000_000,
            ingest_batch: 32,
            watermark_stride: 0,
            flight_capacity: 256,
        }
    }

    /// Start a validated configuration.
    pub fn builder(spec: SchedulerSpec, m: usize) -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: ServeConfig::new(spec, m) }
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.shards < 1 {
            return Err(ServeError::InvalidConfig("need at least one shard".into()));
        }
        if self.m < 1 {
            return Err(ServeError::InvalidConfig("need at least one processor per shard".into()));
        }
        if self.queue_cap < 1 {
            return Err(ServeError::InvalidConfig("queues must hold at least one command".into()));
        }
        if self.ingest_batch < 1 {
            return Err(ServeError::InvalidConfig(
                "ingest batches must carry at least one arrival".into(),
            ));
        }
        if self.flight_capacity < 1 {
            return Err(ServeError::InvalidConfig(
                "flight rings must hold at least one event".into(),
            ));
        }
        if self.max_horizon < 1 || self.max_horizon >= Time::MAX / 2 {
            return Err(ServeError::InvalidConfig(format!(
                "max_horizon must be in [1, {}), got {}",
                Time::MAX / 2,
                self.max_horizon
            )));
        }
        Ok(())
    }
}

/// Chained, validated construction of a [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Number of engine shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Scenario label for summaries and store records.
    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.cfg.scenario = scenario.into();
        self
    }

    /// Bounded queue capacity per shard.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.cfg.queue_cap = cap;
        self
    }

    /// Full-queue behavior.
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Shard placement.
    pub fn routing(mut self, routing: Routing) -> Self {
        self.cfg.routing = routing;
        self
    }

    /// Per-shard safety horizon.
    pub fn max_horizon(mut self, horizon: Time) -> Self {
        self.cfg.max_horizon = horizon;
        self
    }

    /// Most arrivals one ingest batch may carry (1 = per-event ingest).
    pub fn ingest_batch(mut self, max: usize) -> Self {
        self.cfg.ingest_batch = max;
        self
    }

    /// Watermark granularity (see [`ServeConfig::watermark_stride`]).
    pub fn watermark_stride(mut self, stride: Time) -> Self {
        self.cfg.watermark_stride = stride;
        self
    }

    /// Per-shard flight-ring capacity (see [`ServeConfig::flight_capacity`]).
    pub fn flight_capacity(mut self, cap: usize) -> Self {
        self.cfg.flight_capacity = cap;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Ingest-side counters (what happened to offered arrivals).
///
/// The books must always balance: `delivered + dropped == offered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Arrivals offered to the pool.
    pub offered: u64,
    /// Arrivals delivered to some shard.
    pub delivered: u64,
    /// Arrivals shed under [`OverloadPolicy::DropNewest`].
    pub dropped: u64,
    /// Arrivals whose release went backwards and was clamped forward.
    pub reordered: u64,
    /// Watermark broadcasts skipped because a shard's queue was full. Not
    /// part of the balance equation: a full queue already holds a command
    /// that advances the shard at least as far, and the router's dedup
    /// ledger retries the value on the next broadcast.
    pub wm_skipped: u64,
}

serde::impl_serde_struct!(IngestStats { offered, delivered, dropped, reordered, wm_skipped });

impl IngestStats {
    /// Field-wise difference `self - earlier`. Counters only grow, so the
    /// saturation never fires between two snapshots of the same ledger;
    /// it just keeps a misuse from panicking. A gateway uses this to tell
    /// each client exactly what *its* command did to the pool-wide books.
    pub fn delta_since(&self, earlier: &IngestStats) -> IngestStats {
        IngestStats {
            offered: self.offered.saturating_sub(earlier.offered),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            reordered: self.reordered.saturating_sub(earlier.reordered),
            wm_skipped: self.wm_skipped.saturating_sub(earlier.wm_skipped),
        }
    }
}

/// A point-in-time view of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Per-shard progress, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Ingest counters at snapshot time.
    pub ingest: IngestStats,
}

impl PoolSnapshot {
    /// Jobs admitted across all shards.
    pub fn total_admitted(&self) -> usize {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Subjobs dispatched across all shards.
    pub fn total_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.dispatched).sum()
    }

    /// Whether every offered arrival is accounted for:
    /// `delivered + dropped == offered`.
    pub fn accounting_balanced(&self) -> bool {
        self.ingest.delivered + self.ingest.dropped == self.ingest.offered
    }

    /// One human-readable stats line (the CLI's periodic heartbeat).
    pub fn line(&self) -> String {
        let now = self.shards.iter().map(|s| s.now).min().unwrap_or(0);
        let queued: usize = self.shards.iter().map(|s| s.queue_len).sum();
        let lb = self.shards.iter().map(|s| s.lower_bound).max().unwrap_or(0);
        format!(
            "t>={now} admitted={} dispatched={} queued={queued} lb>={lb} dropped={}",
            self.total_admitted(),
            self.total_dispatched(),
            self.ingest.dropped,
        )
    }
}

/// Router state: everything the ingest path mutates, behind one lock.
#[derive(Debug)]
struct Router {
    seq: u64,
    last_release: Time,
    ingest: IngestStats,
    /// Highest watermark each shard is known to have seen (via an admit or
    /// an accepted broadcast). A broadcast that cannot advance a shard past
    /// this value is skipped — it would be a no-op channel op.
    wm_known: Vec<Time>,
    /// Whether the last watermark broadcast to each shard was skipped on a
    /// full queue — the next successful send is recorded as a flight
    /// `wm-retry` event.
    wm_skip: Vec<bool>,
    /// Jobs delivered to each shard by the router so far — the load ledger
    /// behind [`Routing::LeastLoaded`]. Drops count nowhere.
    assigned: Vec<u64>,
}

/// Shared pool state: what both the owning [`ShardPool`] and every cloned
/// [`PoolHandle`] see.
#[derive(Debug)]
struct PoolCore {
    cfg: ServeConfig,
    txs: Vec<Sender<ShardCmd>>,
    tel: Arc<Telemetry>,
    router: Mutex<Router>,
}

/// A cloneable runtime-control handle onto a running pool.
///
/// Handles carry every operation that does not require owning the worker
/// threads: [`offer`](Self::offer), [`swap`](Self::swap),
/// [`snapshot`](Self::snapshot), [`quiesce`](Self::quiesce), and
/// [`request_drain`](Self::request_drain). Joining the workers and
/// collecting [`ShardResult`]s stays with [`ShardPool::drain`].
#[derive(Debug, Clone)]
pub struct PoolHandle {
    core: Arc<PoolCore>,
}

impl PoolHandle {
    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.cfg
    }

    /// Ingest counters so far.
    pub fn ingest(&self) -> IngestStats {
        self.router().ingest
    }

    fn router(&self) -> MutexGuard<'_, Router> {
        self.core.router.lock().expect("pool router lock")
    }

    fn pick_shard(&self, r: &Router) -> usize {
        match self.core.cfg.routing {
            Routing::Hash => {
                (r.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.core.txs.len()
            }
            Routing::LeastLoaded => (0..self.core.txs.len())
                .min_by_key(|&i| r.assigned[i])
                .expect("at least one shard"),
        }
    }

    /// Place every arrival, then deliver one [`ShardCmd::Admit`] per shard
    /// under the configured policy, updating the load and watermark
    /// ledgers. This is the pool's only ingest path. Callers broadcast the
    /// frontier afterwards, so the router lock is held across the batch.
    fn deliver(
        &self,
        r: &mut Router,
        specs: impl Iterator<Item = JobSpec>,
        offered_us: u64,
    ) -> Result<(), ServeError> {
        let mut buckets: Vec<Vec<Arrival>> = (0..self.core.txs.len()).map(|_| Vec::new()).collect();
        for mut spec in specs {
            r.ingest.offered += 1;
            if spec.release < r.last_release {
                spec.release = r.last_release;
                r.ingest.reordered += 1;
            }
            r.last_release = spec.release;
            let target = self.pick_shard(r);
            r.seq = r.seq.wrapping_add(1);
            r.assigned[target] += 1;
            buckets[target].push(Arrival { spec, offered_us });
        }
        for (i, bucket) in buckets.into_iter().enumerate() {
            let Some(last) = bucket.last().map(|a| a.spec.release) else {
                continue;
            };
            let count = bucket.len() as u64;
            let tx = &self.core.txs[i];
            let sent = match self.core.cfg.policy {
                OverloadPolicy::Block => {
                    tx.send(ShardCmd::Admit(bucket)).map_err(|_| ServeError::PoolClosed)?;
                    true
                }
                OverloadPolicy::DropNewest => match tx.try_send(ShardCmd::Admit(bucket)) {
                    Ok(()) => true,
                    Err(TrySendError::Full(_)) => false,
                    Err(TrySendError::Disconnected(_)) => return Err(ServeError::PoolClosed),
                },
            };
            if sent {
                r.ingest.delivered += count;
                // The admit itself carries the release: once the shard
                // processes it, its safe time is at least this far along.
                r.wm_known[i] = r.wm_known[i].max(last);
            } else {
                r.ingest.dropped += count;
                r.assigned[i] -= count;
                self.core.tel.shard(i).flight.record(FlightEvent {
                    us: self.core.tel.now_us(),
                    shard: i,
                    kind: FlightKind::Drop,
                    t: last,
                    detail: format!("x{count}"),
                });
            }
        }
        Ok(())
    }

    /// Send frontier watermarks to shards that need them. `force` flushes
    /// every advance (batch boundaries, quiesce); otherwise
    /// [`ServeConfig::watermark_stride`] suppresses a broadcast until the
    /// frontier has advanced at least one stride past what the shard is
    /// known to have seen.
    fn broadcast_frontier(&self, r: &mut Router, force: bool) {
        let w = r.last_release;
        let stride = self.core.cfg.watermark_stride;
        for (i, tx) in self.core.txs.iter().enumerate() {
            if w <= r.wm_known[i] {
                continue;
            }
            if !force && w < r.wm_known[i].saturating_add(stride) {
                continue;
            }
            match tx.try_send(ShardCmd::Watermark(w)) {
                Ok(()) => {
                    r.wm_known[i] = w;
                    if r.wm_skip[i] {
                        r.wm_skip[i] = false;
                        self.core.tel.shard(i).flight.record(FlightEvent {
                            us: self.core.tel.now_us(),
                            shard: i,
                            kind: FlightKind::WmRetry,
                            t: w,
                            detail: String::new(),
                        });
                    }
                }
                // A full queue already holds commands that advance this
                // shard at least as far; the dedup ledger retries the value
                // on the next broadcast.
                Err(TrySendError::Full(_)) => {
                    r.ingest.wm_skipped += 1;
                    if !r.wm_skip[i] {
                        r.wm_skip[i] = true;
                        self.core.tel.shard(i).flight.record(FlightEvent {
                            us: self.core.tel.now_us(),
                            shard: i,
                            kind: FlightKind::WmSkip,
                            t: w,
                            detail: String::new(),
                        });
                    }
                }
                // Workers gone: drain already started; nothing left to pace.
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// Route one arrival: a batch of one. A release earlier than the last
    /// offered one is clamped forward (counted in
    /// [`IngestStats::reordered`]) so shard sessions always see admissible
    /// order. Unlike a batch, a single offer leaves the frontier to the
    /// [`ServeConfig::watermark_stride`] rule.
    pub fn offer(&self, spec: JobSpec) -> Result<(), ServeError> {
        let offered_us = self.core.tel.now_us();
        let r = &mut *self.router();
        self.deliver(r, std::iter::once(spec), offered_us)?;
        self.broadcast_frontier(r, false);
        Ok(())
    }

    /// Route a whole ingest batch under one router lock. Same-shard
    /// placements coalesce into a single [`ShardCmd::Admit`] — one queue
    /// slot, one channel op — and the event-time frontier is flushed at the
    /// batch boundary. Drains `specs` so the caller can reuse the buffer.
    /// Placement is identical to offering the same jobs one at a time; only
    /// the channel traffic differs.
    pub fn offer_batch(&self, specs: &mut Vec<JobSpec>) -> Result<(), ServeError> {
        self.offer_batch_stamped(specs, self.core.tel.now_us()).map(|_| ())
    }

    /// [`offer_batch`](Self::offer_batch) with an explicit arrival stamp
    /// (microseconds on the pool clock, see [`now_us`](Self::now_us)) and
    /// an exact per-command ledger delta in the reply. Front doors stamp at
    /// decode time so arrival→admit latency covers queueing behind the
    /// router lock, and the delta — computed under that lock — is exact
    /// even with any number of concurrent offering clients.
    pub fn offer_batch_stamped(
        &self,
        specs: &mut Vec<JobSpec>,
        offered_us: u64,
    ) -> Result<IngestStats, ServeError> {
        if specs.is_empty() {
            return Ok(IngestStats::default());
        }
        let r = &mut *self.router();
        let before = r.ingest;
        self.deliver(r, specs.drain(..), offered_us)?;
        self.broadcast_frontier(r, true);
        Ok(r.ingest.delta_since(&before))
    }

    /// Microseconds since the pool launched — the clock every telemetry
    /// stamp and flight event is measured on. Front doors stamp remote
    /// offers with this before handing them to
    /// [`offer_batch_stamped`](Self::offer_batch_stamped).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.core.tel.now_us()
    }

    /// Free admission slots across every shard queue right now. An
    /// approximation for backpressure decisions — queues also hold
    /// control-plane commands and other clients race for the same room —
    /// but a conservative front door can turn "not enough room for this
    /// batch" into a retry-later reply instead of blocking a connection
    /// handler inside [`offer_batch`](Self::offer_batch).
    pub fn ingress_room(&self) -> usize {
        self.core
            .txs
            .iter()
            .map(|tx| self.core.cfg.queue_cap.saturating_sub(tx.len()))
            .sum()
    }

    /// Advance the event-time frontier to `t` without offering a job, as if
    /// an arrival with release `t` had been observed: later offers with
    /// earlier releases are clamped forward (and counted reordered), and
    /// shards are told they may simulate up to `t`. A no-op if the frontier
    /// is already at or past `t`. Returns the ledger delta (only
    /// `wm_skipped` can move). This is the remote `Watermark` verb: a
    /// client that knows no arrival before `t` is coming lets idle shards
    /// simulate ahead instead of stalling at the last release.
    pub fn advance_frontier(&self, t: Time) -> Result<IngestStats, ServeError> {
        let r = &mut *self.router();
        let before = r.ingest;
        if t > r.last_release {
            r.last_release = t;
            self.broadcast_frontier(r, true);
        }
        Ok(r.ingest.delta_since(&before))
    }

    /// Record a control-plane event that originated *outside* the router —
    /// e.g. a network front door's connection lifecycle — into shard
    /// `shard`'s flight ring, stamped with the pool clock. Errors if the
    /// shard index is out of range.
    pub fn record_flight(
        &self,
        shard: usize,
        kind: FlightKind,
        t: Time,
        detail: String,
    ) -> Result<(), ServeError> {
        if shard >= self.core.txs.len() {
            return Err(ServeError::InvalidConfig(format!(
                "shard {shard} out of range (pool has {})",
                self.core.txs.len()
            )));
        }
        self.core.tel.shard(shard).flight.record(FlightEvent {
            us: self.core.tel.now_us(),
            shard,
            kind,
            t,
            detail,
        });
        Ok(())
    }

    /// Pump `source` dry in ingest batches (bounded by
    /// [`ServeConfig::ingest_batch`] and the stride-sized release span),
    /// calling `progress` with a fresh snapshot roughly every `every`
    /// arrivals (0 disables). Returns the number of arrivals offered.
    pub fn run_source_with(
        &self,
        source: &mut dyn ArrivalSource,
        every: u64,
        progress: &mut dyn FnMut(&PoolSnapshot),
    ) -> Result<u64, ServeError> {
        let (max, span) = (self.core.cfg.ingest_batch, self.core.cfg.watermark_stride);
        let mut batch = Vec::with_capacity(max);
        let mut n = 0u64;
        let mut next_beat = every;
        while source.next_batch(max, span, &mut batch) > 0 {
            n += batch.len() as u64;
            self.offer_batch(&mut batch)?;
            if every > 0 && n >= next_beat {
                progress(&self.snapshot());
                while next_beat <= n {
                    next_beat += every;
                }
            }
        }
        Ok(n)
    }

    /// Pump `source` dry without progress reporting.
    pub fn run_source(&self, source: &mut dyn ArrivalSource) -> Result<u64, ServeError> {
        self.run_source_with(source, 0, &mut |_| {})
    }

    /// Request a live scheduler hot-swap at event time `at` on one shard
    /// (`Some(i)`) or every shard (`None`). The swap applies once the
    /// shard's simulation reaches `at` (immediately if already past it);
    /// the drained [`ShardResult`] records it as a
    /// [`SwapEvent`](crate::SwapEvent).
    pub fn swap(
        &self,
        shard: Option<usize>,
        at: Time,
        spec: SchedulerSpec,
    ) -> Result<(), ServeError> {
        let directive = SwapDirective { at, spec };
        let targets: Vec<usize> = match shard {
            Some(i) if i >= self.core.txs.len() => {
                return Err(ServeError::InvalidConfig(format!(
                    "shard {i} out of range (pool has {})",
                    self.core.txs.len()
                )));
            }
            Some(i) => vec![i],
            None => (0..self.core.txs.len()).collect(),
        };
        for i in targets {
            self.core.txs[i]
                .send(ShardCmd::Swap(directive))
                .map_err(|_| ServeError::PoolClosed)?;
        }
        Ok(())
    }

    /// A point-in-time view of every shard plus ingest counters. Reads the
    /// progress counters in the shards' telemetry cells — no shard-side
    /// lock, so a snapshot never stalls the hot loop.
    pub fn snapshot(&self) -> PoolSnapshot {
        let r = self.router();
        let shards = self
            .core
            .tel
            .shards()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut snap = t.progress();
                snap.queue_len = self.core.txs[i].len();
                snap
            })
            .collect();
        PoolSnapshot { shards, ingest: r.ingest }
    }

    /// Synchronous barrier: every shard finishes all in-flight work up to
    /// its current watermark, then reports. Returns settled snapshots in
    /// shard order.
    pub fn quiesce(&self) -> Result<Vec<ShardSnapshot>, ServeError> {
        {
            // Flush the exact frontier first: a shard must not settle short
            // of event time just because strided broadcasts lagged behind.
            let r = &mut *self.router();
            let w = r.last_release;
            for (i, tx) in self.core.txs.iter().enumerate() {
                if w > r.wm_known[i] {
                    tx.send(ShardCmd::Watermark(w)).map_err(|_| ServeError::PoolClosed)?;
                    r.wm_known[i] = w;
                }
            }
        }
        let mut replies = Vec::with_capacity(self.core.txs.len());
        for tx in &self.core.txs {
            let (reply_tx, reply_rx) = channel::bounded(1);
            tx.send(ShardCmd::Quiesce(reply_tx)).map_err(|_| ServeError::PoolClosed)?;
            replies.push(reply_rx);
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| ServeError::PoolClosed))
            .collect()
    }

    /// Tell every shard to run dry. After this the pool accepts no more
    /// work; join the workers with [`ShardPool::drain`].
    pub fn request_drain(&self) -> Result<(), ServeError> {
        for tx in &self.core.txs {
            tx.send(ShardCmd::Drain).map_err(|_| ServeError::PoolClosed)?;
        }
        Ok(())
    }

    /// A full telemetry snapshot: ingest counters, per-shard engine
    /// snapshots, and per-shard latency histograms plus theory gauges.
    /// Lock-light — safe to call from a scrape thread mid-run.
    pub fn metrics(&self) -> MetricsSnapshot {
        let snap = self.snapshot();
        MetricsSnapshot {
            uptime_us: self.core.tel.now_us(),
            ingest: snap.ingest,
            shards: snap.shards,
            telemetry: self
                .core
                .tel
                .shards()
                .iter()
                .enumerate()
                .map(|(i, t)| t.metrics(i))
                .collect(),
        }
    }

    /// Every control-plane flight-recorder event captured so far, merged
    /// across shards and ordered by wall-clock timestamp. Readable even
    /// after a worker panic — the rings outlive the workers.
    pub fn flight(&self) -> Vec<FlightEvent> {
        self.core.tel.flight_events()
    }
}

/// A running pool of engine shards consuming an arrival stream.
///
/// Feed it with [`offer`](Self::offer) (or [`run_source`](Self::run_source)
/// to pump an [`ArrivalSource`] dry), watch it with
/// [`snapshot`](Self::snapshot), control it through a cloned
/// [`handle`](Self::handle), and finish with [`drain`](Self::drain), which
/// returns one [`ShardResult`] per shard.
#[derive(Debug)]
pub struct ShardPool {
    handle: PoolHandle,
    handles: Vec<JoinHandle<ShardResult>>,
}

impl ShardPool {
    /// Validate `cfg`, spawn the shard workers, and return the pool ready
    /// for arrivals.
    pub fn launch(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let tel = Arc::new(Telemetry::new(cfg.shards, cfg.flight_capacity));
        let mut txs = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = channel::bounded(cfg.queue_cap);
            let ctx = ShardCtx {
                shard,
                m: cfg.m,
                spec: cfg.spec,
                scenario: cfg.scenario.clone(),
                max_horizon: cfg.max_horizon,
                tel: Arc::clone(tel.shard(shard)),
            };
            let handle = std::thread::Builder::new()
                .name(format!("flowtree-shard-{shard}"))
                .spawn(move || run_shard(ctx, rx))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            txs.push(tx);
            handles.push(handle);
        }
        let shards = cfg.shards;
        let core = PoolCore {
            cfg,
            txs,
            tel,
            router: Mutex::new(Router {
                seq: 0,
                last_release: 0,
                ingest: IngestStats::default(),
                wm_known: vec![0; shards],
                wm_skip: vec![false; shards],
                assigned: vec![0; shards],
            }),
        };
        Ok(ShardPool { handle: PoolHandle { core: Arc::new(core) }, handles })
    }

    /// A cloneable runtime-control handle onto this pool.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        self.handle.config()
    }

    /// Ingest counters so far.
    pub fn ingest(&self) -> IngestStats {
        self.handle.ingest()
    }

    /// Route one arrival (see [`PoolHandle::offer`]).
    pub fn offer(&self, spec: JobSpec) -> Result<(), ServeError> {
        self.handle.offer(spec)
    }

    /// Route a whole ingest batch (see [`PoolHandle::offer_batch`]).
    pub fn offer_batch(&self, specs: &mut Vec<JobSpec>) -> Result<(), ServeError> {
        self.handle.offer_batch(specs)
    }

    /// Pump `source` dry with progress reporting (see
    /// [`PoolHandle::run_source_with`]).
    pub fn run_source_with(
        &self,
        source: &mut dyn ArrivalSource,
        every: u64,
        progress: &mut dyn FnMut(&PoolSnapshot),
    ) -> Result<u64, ServeError> {
        self.handle.run_source_with(source, every, progress)
    }

    /// Pump `source` dry (see [`PoolHandle::run_source`]).
    pub fn run_source(&self, source: &mut dyn ArrivalSource) -> Result<u64, ServeError> {
        self.handle.run_source(source)
    }

    /// Request a scheduler hot-swap (see [`PoolHandle::swap`]).
    pub fn swap(
        &self,
        shard: Option<usize>,
        at: Time,
        spec: SchedulerSpec,
    ) -> Result<(), ServeError> {
        self.handle.swap(shard, at, spec)
    }

    /// A point-in-time view of every shard plus ingest counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        self.handle.snapshot()
    }

    /// Graceful shutdown: tell every shard to run dry,
    /// wait for all of them, and return their results ordered by shard
    /// index. If any worker panicked, the surviving results are discarded
    /// and [`ServeError::ShardPanicked`] lists the dead shards; their
    /// flight rings stay readable through a [`PoolHandle`] cloned before
    /// the drain, so the post-mortem trail survives the crash.
    pub fn drain(self) -> Result<Vec<ShardResult>, ServeError> {
        self.handle.request_drain()?;
        let tel = Arc::clone(&self.handle.core.tel);
        let mut results = Vec::with_capacity(self.handles.len());
        let mut panicked = Vec::new();
        for (shard, h) in self.handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results.push(res),
                Err(_) => {
                    tel.shard(shard).flight.record(FlightEvent {
                        us: tel.now_us(),
                        shard,
                        kind: FlightKind::Panic,
                        t: 0,
                        detail: "joined dead worker".to_string(),
                    });
                    panicked.push(shard);
                }
            }
        }
        if !panicked.is_empty() {
            return Err(ServeError::ShardPanicked(panicked));
        }
        results.sort_by_key(|r| r.shard);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, star};

    fn fifo() -> SchedulerSpec {
        "fifo".parse().expect("fifo parses")
    }

    #[test]
    fn policy_and_routing_names_roundtrip() {
        for p in [OverloadPolicy::Block, OverloadPolicy::DropNewest] {
            assert_eq!(p.name().parse::<OverloadPolicy>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        for r in [Routing::Hash, Routing::LeastLoaded] {
            assert_eq!(r.name().parse::<Routing>(), Ok(r));
            assert_eq!(r.to_string(), r.name());
        }
        assert!("yolo".parse::<OverloadPolicy>().is_err());
        assert!("ring".parse::<Routing>().is_err());
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(ServeConfig::builder(fifo(), 2).shards(2).queue_cap(8).build().is_ok());
        for bad in [
            ServeConfig::builder(fifo(), 2).shards(0).build(),
            ServeConfig::builder(fifo(), 0).build(),
            ServeConfig::builder(fifo(), 2).queue_cap(0).build(),
            ServeConfig::builder(fifo(), 2).max_horizon(0).build(),
            ServeConfig::builder(fifo(), 2).max_horizon(Time::MAX).build(),
        ] {
            match bad {
                Err(ServeError::InvalidConfig(msg)) => assert!(!msg.is_empty()),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        assert!(
            ShardPool::launch(ServeConfig { shards: 0, ..ServeConfig::new(fifo(), 1) }).is_err()
        );
    }

    #[test]
    fn out_of_order_releases_are_clamped_and_counted() {
        let cfg = ServeConfig::builder(fifo(), 2)
            .scenario("reorder")
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        pool.offer(JobSpec { graph: chain(2), release: 5 }).expect("offer");
        pool.offer(JobSpec { graph: star(2), release: 3 }).expect("offer"); // late straggler
        assert_eq!(pool.ingest().reordered, 1);
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary.jobs, 2);
        // Both jobs run with release 5 after the clamp.
        assert_eq!(results[0].instance.last_release(), 5);
        assert!(results[0].summary.invariants_clean);
        assert!(results[0].swaps.is_empty());
    }

    #[test]
    fn hash_routing_spreads_across_shards() {
        let cfg = ServeConfig::builder(fifo(), 1).shards(4).build().expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let mut hit = vec![false; 4];
        for seq in 0u64..64 {
            hit[(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % 4] = true;
        }
        assert!(hit.iter().all(|&h| h), "hash leaves a shard cold: {hit:?}");
        let results = pool.drain().expect("drain"); // zero-job drain is clean
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.summary.jobs, 0);
            assert_eq!(r.summary.max_flow, 0);
        }
    }

    #[test]
    fn snapshot_reports_progress_and_queues() {
        let cfg = ServeConfig::builder(fifo(), 2).shards(2).build().expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        for t in 0..6 {
            pool.offer(JobSpec { graph: chain(3), release: t }).expect("offer");
        }
        let snap = pool.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.ingest.offered, 6);
        assert_eq!(snap.ingest.delivered, 6);
        assert!(snap.accounting_balanced(), "{:?}", snap.ingest);
        let line = snap.line();
        assert!(line.contains("admitted="), "{line}");
        assert!(line.contains("dropped=0"), "{line}");
        let results = pool.drain().expect("drain");
        let total: usize = results.iter().map(|r| r.summary.jobs).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn hot_swap_records_event_and_relabels_summary() {
        let cfg = ServeConfig::builder(fifo(), 2).scenario("swap").build().expect("valid");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        handle.swap(None, 4, "lpf".parse().expect("lpf parses")).expect("swap queued");
        for t in 0..8 {
            pool.offer(JobSpec { graph: chain(3), release: t }).expect("offer");
        }
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary.jobs, 8);
        assert_eq!(results[0].summary.scheduler, "lpf");
        assert_eq!(results[0].swaps.len(), 1);
        let ev = &results[0].swaps[0];
        assert_eq!((ev.from.as_str(), ev.to.as_str()), ("fifo", "lpf"));
        assert!(ev.t >= 4, "swap applied before its directive time: {ev:?}");
        assert!(results[0].summary.invariants_clean);
    }

    #[test]
    fn swap_on_out_of_range_shard_is_rejected() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let err = pool.swap(Some(7), 0, fifo()).expect_err("out of range");
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        pool.drain().expect("drain");
    }

    #[test]
    fn quiesce_settles_all_shards_to_the_watermark() {
        let cfg = ServeConfig::builder(fifo(), 2).shards(2).build().expect("valid");
        let pool = ShardPool::launch(cfg).expect("launch");
        for t in 0..10 {
            pool.offer(JobSpec { graph: chain(2), release: t }).expect("offer");
        }
        let settled = pool.handle().quiesce().expect("quiesce");
        assert_eq!(settled.len(), 2);
        let admitted: usize = settled.iter().map(|s| s.admitted).sum();
        assert_eq!(admitted, 10, "quiesce replies before processing the backlog");
        pool.drain().expect("drain");
    }

    #[test]
    fn stamped_batches_report_exact_deltas() {
        let cfg = ServeConfig::builder(fifo(), 2).shards(2).build().expect("valid");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        let mut batch = vec![
            JobSpec { graph: chain(2), release: 3 },
            JobSpec { graph: star(2), release: 1 }, // goes backwards: clamped
        ];
        let delta = handle.offer_batch_stamped(&mut batch, handle.now_us()).expect("offer");
        assert_eq!((delta.offered, delta.delivered, delta.reordered), (2, 2, 1));
        let mut empty = Vec::new();
        let delta = handle.offer_batch_stamped(&mut empty, 0).expect("empty offer");
        assert_eq!(delta, IngestStats::default());
        assert_eq!(handle.ingest().offered, 2, "cumulative ledger unaffected by deltas");
        pool.drain().expect("drain");
    }

    #[test]
    fn advance_frontier_clamps_later_offers() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        handle.advance_frontier(50).expect("advance");
        handle.advance_frontier(10).expect("monotone no-op");
        pool.offer(JobSpec { graph: chain(2), release: 20 }).expect("offer");
        assert_eq!(handle.ingest().reordered, 1, "pre-frontier release clamps forward");
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].instance.last_release(), 50);
    }

    #[test]
    fn external_flight_events_land_in_the_ring() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        handle
            .record_flight(0, FlightKind::ConnOpen, 0, "127.0.0.1:9".to_string())
            .expect("record");
        assert!(handle.record_flight(9, FlightKind::ConnClose, 0, String::new()).is_err());
        let events = handle.flight();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FlightKind::ConnOpen);
        assert_eq!(events[0].detail, "127.0.0.1:9");
        pool.drain().expect("drain");
    }

    #[test]
    fn ingest_stats_serde_and_delta_roundtrip() {
        let a = IngestStats {
            offered: 10,
            delivered: 8,
            dropped: 2,
            ..IngestStats::default()
        };
        let line = serde_json::to_string(&a).expect("serializes");
        let back: IngestStats = serde_json::from_str(&line).expect("roundtrips");
        assert_eq!(back, a);
        let b = IngestStats {
            offered: 14,
            delivered: 11,
            dropped: 3,
            ..IngestStats::default()
        };
        let d = b.delta_since(&a);
        assert_eq!((d.offered, d.delivered, d.dropped), (4, 3, 1));
    }

    #[test]
    fn handle_outlives_drain_and_reports_closed() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        pool.drain().expect("drain");
        let err = handle.offer(JobSpec { graph: chain(2), release: 0 }).expect_err("closed");
        assert_eq!(err, ServeError::PoolClosed);
        assert!(handle.quiesce().is_err());
    }
}
