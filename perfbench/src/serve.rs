//! `serve-open` and `gateway-open`: one seeded stream of small out-trees
//! offered to a two-shard `ShardPool`, either in process or through a
//! loopback `Gateway`, in closed loop and in open loop at fixed rates.
//!
//! Every segment of a phase sets up afresh (stream generation, pool and
//! gateway launch, client connect: the `setup_s` metric), runs the whole
//! stream, drains, appends the drained results to a temporary
//! `ResultsStore`, and is checked outside the clock.

use crate::calib::{host_factor, Calibrated};
use crate::latency::{latencies_us, Completion, PollLog};
use crate::stats::{peak_rss_mb, poisson_due_ns};
use crate::stream::{fingerprints, Shape};
use crate::trace::{Layer, Tracer};
use crate::{Phase, Plan, Tally};
use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    ClientOptions, Gateway, GatewayClient, GatewayConfig, SubmitOutcome, WireCodec,
};
use flowtree_serve::{
    OverloadPolicy, PoolHandle, ResultsStore, Routing, ServeConfig, ShardPool, ShardResult,
    StoreRecord,
};
use flowtree_sim::{Engine, JobSpec, Time};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// 16-subjob trees, 8 per tick, ticks 12 steps apart: 128 subjobs per 12
/// steps against 2 × 8 processors is about ⅔ of the pool's event-time
/// capacity, so max flow stays near 16 steps however long the stream.
pub const SERVE: Shape = Shape { jobs: 8192, job_size: 16, per_tick: 8, tick_gap: 12 };

/// Shards of the measured pool.
pub const SHARDS: usize = 2;

/// Processors per shard.
pub const SHARD_M: usize = 8;

/// The gateway's stream: the first 2048 jobs of [`SERVE`]'s, so one
/// open-loop segment at the gateway's far lower rates still fits a phase.
pub const GATEWAY: Shape = Shape { jobs: 2048, ..SERVE };

/// Open-loop offered rates (jobs/s) at `low` and `high`, in process.
pub const SERVE_RATES: [f64; 2] = [20_000.0, 80_000.0];
/// Open-loop rates through the gateway. Each tick costs a stop-and-wait
/// submit plus a watermark round trip, and an idle gateway worker sleeps
/// 1 ms between polls, so one connection pair sustains only about 1000
/// ticks/s; these rates keep it at an eighth and a quarter of that.
pub const GATEWAY_RATES: [f64; 2] = [1_000.0, 2_000.0];

/// Jobs per gateway frame in the closed loop (one tick).
const GATEWAY_BATCH: usize = 8;
/// Ack window the gateway clients negotiate.
const GATEWAY_WINDOW: u64 = 32;

/// Minimum gap between snapshot polls (ns): bounds the poll log's size.
const POLL_GAP_NS: u64 = 10_000;
/// Gap between `metrics()` reads, as a monitoring client would make.
const METRICS_GAP_NS: u64 = 2_000_000;
/// Polls kept after the last job is dispatched, so a shard clock
/// published just after its dispatch count is still observed.
const TAIL_GRACE: Duration = Duration::from_micros(500);

/// The frontier sent after the last tick: far past any completion.
pub fn end_frontier() -> Time {
    SERVE.release(SERVE.ticks()) + 1_000_000
}

/// Which front door a workload offers through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `PoolHandle::offer_batch` in process.
    Serve,
    /// `GatewayClient` over loopback, alternating a binary and a JSON
    /// connection tick by tick.
    Gateway,
}

/// How one segment offers its ticks.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// As fast as possible; timed from the first offer to the appended
    /// store records.
    Closed,
    /// Ticks due as a Poisson process at a fixed rate (jobs/s), its
    /// schedule seeded by the second field; every job timed from its due
    /// time to the first poll that saw it complete.
    Open(f64, u64),
}

/// The pool shape every segment launches with `shards` shards of `m`.
pub fn pool_config(shards: usize, m: usize) -> ServeConfig {
    let spec = SchedulerSpec::from_name_with_half("fifo", 8).expect("fifo is registered");
    ServeConfig::builder(spec, m)
        .shards(shards)
        .scenario("perfbench")
        .policy(OverloadPolicy::Block)
        .routing(Routing::Hash)
        .max_horizon(1_000_000_000)
        .build()
        .expect("valid pool config")
}

/// A launched segment: the stream cut into ticks plus everything serving it.
pub struct Segment {
    ticks: Vec<Vec<JobSpec>>,
    fps: Vec<u64>,
    total_work: u64,
    pool: ShardPool,
    handle: PoolHandle,
    gateway: Option<(Gateway, Vec<GatewayClient>)>,
    store: ResultsStore,
}

impl Front {
    /// The stream this front door is measured with.
    pub fn shape(self) -> Shape {
        match self {
            Front::Serve => SERVE,
            Front::Gateway => GATEWAY,
        }
    }
}

impl Segment {
    /// Generate the stream and launch the pool (and gateway + clients).
    pub fn launch(
        front: Front,
        seed: u64,
        store_dir: &Path,
        tr: &mut Tracer,
    ) -> Result<Segment, String> {
        let shape = front.shape();
        let inst = tr.span("workloads.generate", Layer::Workloads, 0, || shape.instance(seed));
        let fps = fingerprints(inst.jobs());
        let total_work = inst.total_work();
        let mut jobs = inst.jobs().to_vec().into_iter();
        let ticks = (0..shape.ticks())
            .map(|k| jobs.by_ref().take(shape.tick_jobs(k).len()).collect())
            .collect();
        let pool = ShardPool::launch(pool_config(SHARDS, SHARD_M)).map_err(|e| e.to_string())?;
        let handle = pool.handle();
        let gateway = match front {
            Front::Serve => None,
            Front::Gateway => {
                let gw = Gateway::launch("127.0.0.1:0", handle.clone(), GatewayConfig::default())
                    .map_err(|e| format!("gateway launch: {e}"))?;
                let addr = gw.addr().to_string();
                let mut clients = Vec::new();
                for (name, codec) in [("bin", WireCodec::Binary), ("json", WireCodec::Json)] {
                    let opts = ClientOptions { codec, window: GATEWAY_WINDOW };
                    let mut c = GatewayClient::connect_with(&addr, name, opts)
                        .map_err(|e| format!("connect {name}: {e}"))?;
                    // A watermark at 0 is a no-op on the pool but forces
                    // the dial and handshake now, outside the clock.
                    c.watermark(0).map_err(|e| format!("handshake {name}: {e}"))?;
                    clients.push(c);
                }
                Some((gw, clients))
            }
        };
        let store = ResultsStore::open(store_dir).map_err(|e| format!("store: {e}"))?;
        Ok(Segment { ticks, fps, total_work, pool, handle, gateway, store })
    }
}

/// Everything one segment measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs offered.
    pub jobs: u64,
    /// Closed loop: first offer to appended store records (s).
    pub wall_s: f64,
    /// Open loop: due-to-observed latency per job (µs).
    pub lat_us: Vec<f64>,
    /// How late each tick was sent (µs).
    pub late_us: Vec<f64>,
    /// Gaps between snapshot polls (µs).
    pub poll_gap_us: Vec<f64>,
    /// Worst shard's max flow over its lower bound.
    pub ratio: f64,
    /// `metrics()` call times (µs).
    pub metrics_us: Vec<f64>,
    /// `snapshot()` call times (µs).
    pub snapshot_us: Vec<f64>,
    /// Queue lengths seen by `metrics()` reads.
    pub queue_len: Vec<f64>,
    /// Offer (or submit) call times per tick (µs), by connection.
    pub offer_us: [Vec<f64>; 2],
    /// Frontier-advance (or watermark) call times (µs).
    pub advance_us: Vec<f64>,
    /// Ticks at which ingress room was short of the tick's jobs.
    pub blocked_ticks: u64,
    /// Busy replies from the gateway.
    pub busy: u64,
    /// Gateway client redials.
    pub reconnects: u64,
    /// Watermarks skipped on full shard queues.
    pub wm_skipped: u64,
    /// Max shard admissions over the mean.
    pub shard_skew: f64,
    /// Drain time (ms).
    pub drain_ms: f64,
    /// Store append time for all shards (ms).
    pub store_ms: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Offer tick `k` through the front door and advance the frontier to the
/// next tick's release.
fn send_tick(
    seg: &mut Segment,
    k: usize,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<(), String> {
    let jobs = std::mem::take(&mut seg.ticks[k]);
    let n = jobs.len();
    let next = SERVE.release(k + 1);
    let tick = k as u32;
    match &mut seg.gateway {
        None => {
            if seg.handle.ingress_room() < n {
                out.blocked_ticks += 1;
            }
            let mut jobs = jobs;
            let t = Instant::now();
            tr.span("pool.offer_batch", Layer::Pool, tick, || seg.handle.offer_batch(&mut jobs))
                .map_err(|e| format!("offer: {e}"))?;
            out.offer_us[0].push(us(t.elapsed()));
            let t = Instant::now();
            tr.span("pool.advance_frontier", Layer::Pool, tick, || {
                seg.handle.advance_frontier(next)
            })
            .map_err(|e| format!("advance: {e}"))?;
            out.advance_us.push(us(t.elapsed()));
        }
        Some((_, clients)) => {
            let c = k % clients.len();
            let client = &mut clients[c];
            loop {
                let t = Instant::now();
                let name = if c == 0 {
                    "gateway.submit.bin"
                } else {
                    "gateway.submit.json"
                };
                // `submit_batch` consumes its batch, and a busy reply needs
                // the jobs again.
                let reply = tr
                    .span(name, Layer::Gateway, tick, || client.submit_batch(jobs.clone()))
                    .map_err(|e| format!("submit: {e}"))?;
                out.offer_us[c].push(us(t.elapsed()));
                match reply {
                    SubmitOutcome::Accepted { .. } => break,
                    SubmitOutcome::Busy { .. } => {
                        out.busy += 1;
                        std::thread::yield_now();
                    }
                }
            }
            let t = Instant::now();
            tr.span("gateway.watermark", Layer::Gateway, tick, || client.watermark(next))
                .map_err(|e| format!("watermark: {e}"))?;
            out.advance_us.push(us(t.elapsed()));
        }
    }
    out.jobs += n as u64;
    Ok(())
}

/// The whole closed-loop stream through the gateway: pipelined
/// `submit_all`, alternating connections half by half so the offer order
/// (and so the hash routing) is the stream's.
fn submit_all_gateway(seg: &mut Segment, out: &mut Outcome, tr: &mut Tracer) -> Result<(), String> {
    let (_, clients) = seg.gateway.as_mut().expect("gateway segment");
    let all: Vec<JobSpec> = seg.ticks.drain(..).flatten().collect();
    let half = all.len().div_ceil(2).next_multiple_of(SERVE.per_tick);
    for (c, (part, client)) in all.chunks(half).zip(clients.iter_mut()).enumerate() {
        let name = if c == 0 {
            "gateway.submit_all.bin"
        } else {
            "gateway.submit_all.json"
        };
        let stats = tr
            .span(name, Layer::Gateway, 0, || client.submit_all(part, GATEWAY_BATCH))
            .map_err(|e| format!("submit_all: {e}"))?;
        out.busy += stats.busy_retries;
        out.jobs += stats.submitted;
        if stats.submitted != part.len() as u64 {
            return Err(format!("submit_all took {} of {} jobs", stats.submitted, part.len()));
        }
    }
    let client = &mut clients[0];
    tr.span("gateway.watermark", Layer::Gateway, 0, || client.watermark(end_frontier()))
        .map_err(|e| format!("watermark: {e}"))?;
    Ok(())
}

/// A `metrics()` read, as a monitoring client makes every few ms.
fn read_metrics(seg: &Segment, out: &mut Outcome, tr: &mut Tracer) {
    let t = Instant::now();
    let m = tr.span("telemetry.metrics", Layer::Telemetry, 0, || seg.handle.metrics());
    out.metrics_us.push(us(t.elapsed()));
    out.queue_len.extend(m.shards.iter().map(|s| s.queue_len as f64));
    std::hint::black_box(&m);
}

/// Run one launched segment to completion; `tally` collects the checks.
pub fn run_segment(
    mut seg: Segment,
    mode: Mode,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ticks = seg.ticks.len();
    let mut log = PollLog::new(SHARDS);
    let mut due_ns = Vec::new();
    let root = tr.open("segment", Layer::Bench, 0);
    let epoch = Instant::now();
    let ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
    let mut next_poll = 0u64;
    let mut next_metrics = METRICS_GAP_NS;

    let poll = |seg: &Segment, out: &mut Outcome, log: &mut PollLog, tr: &mut Tracer| {
        let t = Instant::now();
        let snap = tr.span("telemetry.snapshot", Layer::Telemetry, 0, || seg.handle.snapshot());
        let at = ns(epoch);
        out.snapshot_us.push(us(t.elapsed()));
        log.record(at, snap.shards.iter().map(|s| s.now));
        snap.total_dispatched()
    };

    match mode {
        Mode::Closed if seg.gateway.is_some() => submit_all_gateway(&mut seg, &mut out, tr)?,
        Mode::Closed => {
            for k in 0..ticks {
                send_tick(&mut seg, k, &mut out, tr)?;
                if ns(epoch) >= next_metrics {
                    read_metrics(&seg, &mut out, tr);
                    next_metrics = ns(epoch) + METRICS_GAP_NS;
                }
            }
            let h = &seg.handle;
            tr.span("pool.advance_frontier", Layer::Pool, 0, || h.advance_frontier(end_frontier()))
                .map_err(|e| format!("advance: {e}"))?;
        }
        Mode::Open(rate, schedule) => {
            due_ns = poisson_due_ns(schedule, rate / SERVE.per_tick as f64, ticks);
            for (k, &due) in due_ns.iter().enumerate() {
                let wait = tr.open("gen.wait", Layer::Idle, k as u32);
                let mut now = ns(epoch);
                while now < due {
                    if now >= next_poll {
                        poll(&seg, &mut out, &mut log, tr);
                        next_poll = now + POLL_GAP_NS;
                    } else if now >= next_metrics {
                        read_metrics(&seg, &mut out, tr);
                        next_metrics = now + METRICS_GAP_NS;
                    } else {
                        std::thread::yield_now();
                    }
                    now = ns(epoch);
                }
                tr.close(wait);
                out.late_us.push((now - due) as f64 / 1e3);
                send_tick(&mut seg, k, &mut out, tr)?;
            }
            match &mut seg.gateway {
                None => seg
                    .handle
                    .advance_frontier(end_frontier())
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                Some((_, clients)) => {
                    clients[0].watermark(end_frontier()).map(|_| ()).map_err(|e| e.to_string())
                }
            }
            .map_err(|e| format!("final frontier: {e}"))?;
            // Keep polling until every subjob is dispatched, then a little
            // longer so the last clock advances are seen too.
            let wait = tr.open("gen.wait", Layer::Idle, ticks as u32);
            let mut done_at: Option<Instant> = None;
            let give_up = Instant::now() + Duration::from_secs(30);
            while done_at.is_none_or(|d| d.elapsed() < TAIL_GRACE) {
                if poll(&seg, &mut out, &mut log, tr) >= seg.total_work && done_at.is_none() {
                    done_at = Some(Instant::now());
                }
                if Instant::now() > give_up {
                    // The checks after the drain report what went missing.
                    tally.fail("open loop: pool never dispatched the whole stream".into());
                    break;
                }
                std::thread::yield_now();
            }
            tr.close(wait);
        }
    }

    // The ledger and ingest counters are read before the drain.
    let snap = seg.handle.snapshot();
    let ingest = snap.ingest;
    out.wm_skipped = ingest.wm_skipped;
    if let Some((gw, clients)) = seg.gateway.take() {
        out.reconnects = clients.iter().map(GatewayClient::reconnects).sum();
        let stats = gw.stats();
        out.busy = out.busy.max(stats.busy_replies.load(std::sync::atomic::Ordering::Relaxed));
        drop(clients);
        gw.shutdown();
    }
    let t = Instant::now();
    let results = tr
        .span("pool.drain", Layer::Pool, 0, || seg.pool.drain())
        .map_err(|e| format!("drain: {e}"))?;
    out.drain_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let store = &seg.store;
    tr.span("store.append", Layer::Store, 0, || append_all(store, &results))?;
    out.store_ms = t.elapsed().as_secs_f64() * 1e3;
    out.wall_s = epoch.elapsed().as_secs_f64();
    tr.close(root);

    // Everything below is outside the clock.
    let admitted: Vec<f64> = results.iter().map(|r| r.instance.num_jobs() as f64).collect();
    let mean = admitted.iter().sum::<f64>() / admitted.len() as f64;
    out.shard_skew = admitted.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
    if !snap.accounting_balanced() {
        tally.fail(format!("ledger does not balance: {}", snap.line()));
    }
    if ingest.offered != out.jobs || ingest.dropped != 0 || ingest.reordered != 0 {
        tally.fail(format!(
            "ingest: offered {} of {} sent, dropped {}, reordered {}",
            ingest.offered, out.jobs, ingest.dropped, ingest.reordered
        ));
    }
    out.ratio = check_results(&seg.fps, seg.total_work, &results, tally);
    if let Mode::Open(..) = mode {
        let completions = completions(&results, &due_ns);
        match latencies_us(&log, &completions) {
            Ok(l) => out.lat_us = l,
            Err(e) => tally.fail(e),
        }
        out.poll_gap_us = log.gaps_ns().into_iter().map(|g| g / 1e3).collect();
    }
    tally.attempted += out.jobs;
    Ok(out)
}

/// Append every drained shard result to the store.
fn append_all(store: &ResultsStore, results: &[ShardResult]) -> Result<(), String> {
    for r in results {
        let record = StoreRecord {
            run_id: "perfbench".to_string(),
            git: "perfbench".to_string(),
            shard: r.shard,
            shards: results.len(),
            summary: r.summary.clone(),
            swaps: r.swaps.clone(),
        };
        store.append(&record).map_err(|e| format!("store append: {e}"))?;
    }
    Ok(())
}

/// Every drained job's completion with the due time of its tick.
fn completions(results: &[ShardResult], due_ns: &[u64]) -> Vec<Completion> {
    let mut out = Vec::new();
    for r in results {
        let c = &r.report.counters;
        for (spec, step) in r.instance.jobs().iter().zip(&c.completions) {
            let tick = (spec.release / SERVE.tick_gap) as usize;
            if let (Some(step), Some(&due_ns)) = (step, due_ns.get(tick)) {
                out.push(Completion { shard: r.shard, step: *step, due_ns });
            }
        }
    }
    out
}

/// The per-run correctness checks on drained results; returns the worst
/// shard's max-flow ratio.
pub fn check_results(
    fps: &[u64],
    total_work: u64,
    results: &[ShardResult],
    tally: &mut Tally,
) -> f64 {
    // Exactly once: the drained jobs are the offered jobs, as a multiset,
    // and every one of them completed.
    let drained = fingerprints(results.iter().flat_map(|r| r.instance.jobs()));
    if drained != fps {
        tally.fail(format!(
            "drained {} jobs, offered {}: not exactly once",
            drained.len(),
            fps.len()
        ));
    }
    let dispatched: u64 = results.iter().map(|r| r.report.counters.dispatched).sum();
    if dispatched != total_work {
        tally.fail(format!("dispatched {dispatched} subjobs of {total_work}"));
    }
    let mut ratio: f64 = 0.0;
    for r in results {
        let c = &r.report.counters;
        if c.completions.iter().any(Option::is_none) {
            tally.fail(format!("shard {}: a job never completed", r.shard));
        }
        // Streaming must equal batch: re-run the shard's drained instance
        // through Engine::run under the same scheduler.
        let spec = SchedulerSpec::from_name_with_half("fifo", 8).expect("fifo");
        let mut sched = spec.build();
        match Engine::new(r.summary.m).run(&r.instance, sched.as_mut()) {
            Ok(batch) if batch.stats.max_flow == r.summary.max_flow => {}
            Ok(batch) => tally.fail(format!(
                "shard {}: streaming max flow {} != Engine::run {}",
                r.shard, r.summary.max_flow, batch.stats.max_flow
            )),
            Err(e) => tally.fail(format!("shard {}: Engine::run: {e}", r.shard)),
        }
        if r.summary.max_flow < r.summary.lower_bound {
            tally.fail(format!(
                "shard {}: max flow {} below its lower bound {}",
                r.shard, r.summary.max_flow, r.summary.lower_bound
            ));
        }
        ratio = ratio.max(r.summary.max_flow as f64 / r.summary.lower_bound.max(1) as f64);
    }
    ratio
}

/// Results of one serve-open or gateway-open run.
#[derive(Debug, Default)]
pub struct PoolResult {
    /// Set-up time of every segment (s).
    pub setup_s: Calibrated,
    /// Closed-loop jobs/s of every closed segment.
    pub jobs_per_s: Calibrated,
    /// Latency samples (µs) at `low` and `high`, one list per segment.
    pub lat_us: [Vec<Vec<f64>>; 2],
    /// Every segment's outcome, in run order.
    pub outcomes: Vec<Outcome>,
    /// Max-flow ratio (identical on every segment, or a check fails).
    pub ratio: f64,
    /// Peak RSS (MB) from process start to the end of the first segment.
    pub peak_rss_mb: f64,
}

/// Scratch store directory for this process.
pub fn store_dir() -> PathBuf {
    PathBuf::from(".perfbench").join(format!("store-{}", std::process::id()))
}

/// Run a pool workload under `plan`.
pub fn run(
    front: Front,
    plan: &Plan,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<PoolResult, String> {
    let rates = match front {
        Front::Serve => SERVE_RATES,
        Front::Gateway => GATEWAY_RATES,
    };
    let dir = store_dir();
    let mut res = PoolResult::default();
    let mut first_ratio: Option<f64> = None;
    for (phase, budget) in plan.schedule() {
        let mode = match phase {
            Phase::Closed => Mode::Closed,
            Phase::Low => Mode::Open(rates[0], 0),
            Phase::High => Mode::Open(rates[1], 0),
        };
        let deadline = Instant::now() + budget;
        loop {
            let n = res.outcomes.len() as u64;
            // The pool's shard threads run in parallel, so the kernel runs
            // on as many threads.
            let factor = tr.span("calib.kernel", Layer::Calib, 0, || host_factor(SHARDS, n));
            let t = Instant::now();
            let seg = Segment::launch(front, plan.seed, &dir, tr)?;
            res.setup_s.push(t.elapsed().as_secs_f64(), factor);
            // Each segment gets its own arrival schedule, fixed by the seed.
            let mode = match mode {
                Mode::Open(rate, _) => Mode::Open(rate, plan.seed ^ (n + 1) << 40),
                closed => closed,
            };
            let mut out = run_segment(seg, mode, tr, tally)?;
            if res.outcomes.is_empty() {
                // Only the first segment runs in a fresh process: later ones
                // start on whatever the allocator kept from earlier ones,
                // which moved their peaks by a quarter between runs.
                res.peak_rss_mb = peak_rss_mb();
            }
            match first_ratio {
                None => first_ratio = Some(out.ratio),
                Some(r) if r != out.ratio => tally.fail(format!(
                    "max flow ratio {} differs from {r} on the same stream",
                    out.ratio
                )),
                Some(_) => {}
            }
            match mode {
                Mode::Closed => res.jobs_per_s.push(out.jobs as f64 / out.wall_s, factor),
                Mode::Open(..) => {
                    let i = usize::from(phase == Phase::High);
                    res.lat_us[i].push(std::mem::take(&mut out.lat_us));
                }
            }
            res.outcomes.push(out);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    res.ratio = first_ratio.unwrap_or(0.0);
    Ok(res)
}
