//! The traced run's per-layer cost model.
//!
//! A closed-loop **ladder** pushes the `serve-open` stream through each
//! rung in turn, every rung adding one layer over the one below it, with
//! the same 16 processors throughout (one machine of 16, or two shards
//! of 8): `Engine::run` → `Session` with `NullProbe` → `Session` with the
//! shard monitor stack → pool with 1 shard → pool with 2 shards → gateway
//! binary → gateway JSON. A rung's ns/job minus the rung below is that
//! layer's cost per job. Probes beside the ladder time the engine and the
//! schedulers on the `batch-paper` stream, and the pool, telemetry, store
//! and gateway calls on single `serve-open` segments.

use crate::batch::{TimedScheduler, PAPER, PAPER_M, SCHEDULERS};
use crate::serve::{
    end_frontier, pool_config, run_segment, store_dir, Front, Mode, Segment, SERVE, SERVE_RATES,
    SHARDS, SHARD_M,
};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Metrics, Tally};
use flowtree_core::SchedulerSpec;
use flowtree_gateway::{ClientOptions, Gateway, GatewayClient, GatewayConfig, WireCodec};
use flowtree_serve::ShardPool;
use flowtree_sim::monitor::{InvariantMonitor, LowerBound};
use flowtree_sim::{Engine, Instance, JobSpec, Probe, RunHistograms, Session, Time};
use std::time::{Duration, Instant};

/// Rung names, bottom to top.
pub const RUNGS: [&str; 7] = [
    "engine",
    "session",
    "session-monitors",
    "pool-s1",
    "pool-s2",
    "gw-bin",
    "gw-json",
];

/// Total processors on every rung.
const LADDER_M: usize = SHARDS * SHARD_M;

fn fifo() -> SchedulerSpec {
    SchedulerSpec::from_name_with_half("fifo", 8).expect("fifo is registered")
}

/// Session rung timings (ns) of one pass.
#[derive(Default)]
struct SessionPass {
    admit_ns: u64,
    run_ns: u64,
}

/// Stream the instance tick by tick through a session with `probe`.
fn session_pass<P: Probe>(inst: &Instance, probe: P, tally: &mut Tally) -> SessionPass {
    let mut sched = fifo().build();
    let mut s = Session::new(LADDER_M).with_probe(probe);
    let mut pass = SessionPass::default();
    let mut jobs = inst.jobs().to_vec().into_iter();
    for k in 0..SERVE.ticks() {
        let tick: Vec<JobSpec> = jobs.by_ref().take(SERVE.tick_jobs(k).len()).collect();
        let t = Instant::now();
        let admitted = s.admit_batch(tick);
        pass.admit_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let ran = s.run_until(SERVE.release(k + 1), sched.as_mut());
        pass.run_ns += t.elapsed().as_nanos() as u64;
        if let Err(e) = admitted.map_err(|e| e.to_string()).and(ran.map_err(|e| e.to_string())) {
            tally.fail(format!("session rung: {e}"));
            return pass;
        }
    }
    let t = Instant::now();
    let ran = s.run_until(Time::MAX, sched.as_mut());
    let (report, _) = s.finish();
    pass.run_ns += t.elapsed().as_nanos() as u64;
    if ran.is_err() || report.counters.dispatched != inst.total_work() {
        tally.fail("session rung lost work".to_string());
    }
    pass
}

/// Offer the instance tick by tick to a fresh pool of `shards` × `m`
/// and drain it; returns ns of offer-through-drain.
fn pool_pass(inst: &Instance, shards: usize, m: usize, tally: &mut Tally) -> Result<u64, String> {
    let ticks = tick_batches(inst);
    let pool = ShardPool::launch(pool_config(shards, m)).map_err(|e| e.to_string())?;
    let h = pool.handle();
    let t = Instant::now();
    for (k, mut tick) in ticks.into_iter().enumerate() {
        h.offer_batch(&mut tick).map_err(|e| e.to_string())?;
        h.advance_frontier(SERVE.release(k + 1)).map_err(|e| e.to_string())?;
    }
    h.advance_frontier(end_frontier()).map_err(|e| e.to_string())?;
    let results = pool.drain().map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as u64;
    let dispatched: u64 = results.iter().map(|r| r.report.counters.dispatched).sum();
    if dispatched != inst.total_work() {
        tally.fail(format!("pool rung s{shards}: dispatched {dispatched}"));
    }
    Ok(ns)
}

/// Pipelined `submit_all` of the whole instance over one connection of
/// `codec` into a fresh two-shard pool, then drain.
fn gateway_pass(inst: &Instance, codec: WireCodec, tally: &mut Tally) -> Result<u64, String> {
    let pool = ShardPool::launch(pool_config(SHARDS, SHARD_M)).map_err(|e| e.to_string())?;
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .map_err(|e| e.to_string())?;
    let opts = ClientOptions { codec, window: 32 };
    let mut client = GatewayClient::connect_with(&gw.addr().to_string(), "ladder", opts)
        .map_err(|e| e.to_string())?;
    client.watermark(0).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let stats = client.submit_all(inst.jobs(), SERVE.per_tick).map_err(|e| e.to_string())?;
    client.watermark(end_frontier()).map_err(|e| e.to_string())?;
    drop(client);
    gw.shutdown();
    let results = pool.drain().map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as u64;
    let dispatched: u64 = results.iter().map(|r| r.report.counters.dispatched).sum();
    if stats.submitted != inst.num_jobs() as u64 || dispatched != inst.total_work() {
        tally.fail(format!("gateway rung {}: lost work", codec.name()));
    }
    Ok(ns)
}

fn tick_batches(inst: &Instance) -> Vec<Vec<JobSpec>> {
    let mut jobs = inst.jobs().to_vec().into_iter();
    (0..SERVE.ticks())
        .map(|k| jobs.by_ref().take(SERVE.tick_jobs(k).len()).collect())
        .collect()
}

/// Run the ladder and the layer probes within `budget`, adding every
/// per-layer metric to `out`.
pub fn run(
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let inst = SERVE.instance(seed);
    let jobs = inst.num_jobs() as f64;
    let subjobs = inst.total_work() as f64;
    let rung_budget = budget.mul_f64(0.7 / RUNGS.len() as f64);

    let mut per_job = Vec::new();
    let mut session_admit = Vec::new();
    let mut session_run = Vec::new();
    for (r, rung) in RUNGS.iter().enumerate() {
        let deadline = Instant::now() + rung_budget;
        let mut reps = Vec::new();
        while reps.len() < 3 || Instant::now() < deadline {
            let ns = match r {
                0 => {
                    let mut sched = fifo().build();
                    let t = Instant::now();
                    let report = Engine::new(LADDER_M).run(&inst, sched.as_mut());
                    let ns = t.elapsed().as_nanos() as u64;
                    if report.map(|r| r.counters.dispatched) != Ok(inst.total_work()) {
                        tally.fail("engine rung lost work".to_string());
                    }
                    ns
                }
                1 => {
                    let p = session_pass(&inst, flowtree_sim::NullProbe, tally);
                    session_admit.push(p.admit_ns as f64 / jobs);
                    session_run.push(p.run_ns as f64 / subjobs);
                    p.admit_ns + p.run_ns
                }
                2 => {
                    let mut lb = LowerBound::streaming();
                    let mut inv = InvariantMonitor::streaming(fifo().invariants());
                    let mut histos = RunHistograms::new();
                    let p = session_pass(&inst, (&mut lb, &mut inv, &mut histos), tally);
                    p.admit_ns + p.run_ns
                }
                3 => pool_pass(&inst, 1, LADDER_M, tally)?,
                4 => pool_pass(&inst, SHARDS, SHARD_M, tally)?,
                5 => gateway_pass(&inst, WireCodec::Binary, tally)?,
                _ => gateway_pass(&inst, WireCodec::Json, tally)?,
            };
            reps.push(ns as f64 / jobs);
        }
        let ns_per_job = median(&reps);
        out.push(format!("ladder.{rung}.ns_per_job"), ns_per_job, "ns");
        if let Some(&below) = per_job.last() {
            out.push(format!("ladder.{rung}.delta_ns_per_job"), ns_per_job - below, "ns");
        }
        per_job.push(ns_per_job);
    }
    out.push("session.admit_ns_per_job", median(&session_admit), "ns");
    out.push("session.run_ns_per_subjob", median(&session_run), "ns");
    out.push("monitor.ns_per_subjob", (per_job[2] - per_job[1]) * jobs / subjobs, "ns");

    engine_probe(seed, out, tally);
    layer_probes(seed, out, tally)
}

/// `Engine::run` on the batch-paper stream under each scheduler, with
/// every `select` timed by the benchmark's wrapper.
fn engine_probe(seed: u64, out: &mut Metrics, tally: &mut Tally) {
    let inst = PAPER.instance(seed);
    let subjobs = inst.total_work() as f64;
    let (mut select_ns, mut run_ns) = (0u64, 0u64);
    for name in SCHEDULERS {
        let mut sched = TimedScheduler::new(name, true);
        let t = Instant::now();
        let report = Engine::new(PAPER_M).run(&inst, &mut sched);
        let ns = t.elapsed().as_nanos() as u64;
        if report.map(|r| r.counters.dispatched) != Ok(inst.total_work()) {
            tally.fail(format!("engine probe {name}: lost work"));
        }
        out.push(format!("engine.ns_per_subjob.{name}"), ns as f64 / subjobs, "ns");
        out.push(
            format!("sched.select_ns_per_step.{name}"),
            sched.select_ns as f64 / sched.selects.max(1) as f64,
            "ns",
        );
        select_ns += sched.select_ns;
        run_ns += ns;
    }
    out.push("sched.select_share", select_ns as f64 / run_ns.max(1) as f64, "ratio");
}

/// Single segments of the measured pool, in process at the `high` rate
/// and through the gateway stop-and-wait, for the pool, telemetry, store
/// and gateway call costs.
fn layer_probes(seed: u64, out: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let mut off = Tracer::new(false, 0);
    let dir = store_dir();
    let seg = Segment::launch(Front::Serve, seed, &dir, &mut off)?;
    let o = run_segment(seg, Mode::Open(SERVE_RATES[1], seed), &mut off, tally)?;
    let ticks = o.offer_us[0].len().max(1) as f64;
    out.push(
        "pool.offer_ns_per_job",
        median(&o.offer_us[0]) * 1e3 / SERVE.per_tick as f64,
        "ns",
    );
    out.push("pool.offer_blocked_frac", o.blocked_ticks as f64 / ticks, "ratio");
    let mut q = o.queue_len.clone();
    q.sort_by(f64::total_cmp);
    out.push(
        "pool.queue_len_p90",
        if q.is_empty() { 0.0 } else { quantile(&q, 0.9) },
        "count",
    );
    out.push("pool.shard_skew", o.shard_skew, "ratio");
    out.push("pool.wm_skipped", o.wm_skipped as f64, "count");
    out.push("pool.drain_ms", o.drain_ms, "ms");
    out.push("telemetry.metrics_call_us", median(&o.metrics_us), "us");
    out.push("telemetry.snapshot_call_us", median(&o.snapshot_us), "us");
    out.push("store.append_ms", o.store_ms, "ms");

    // Stop-and-wait through the gateway, back to back: every tick is due
    // at once, so each call's time is its round trip.
    let seg = Segment::launch(Front::Gateway, seed, &dir, &mut off)?;
    let g = run_segment(seg, Mode::Open(f64::INFINITY, seed), &mut off, tally)?;
    let _ = std::fs::remove_dir_all(&dir);
    let frames = (g.offer_us[0].len() + g.offer_us[1].len()).max(1) as f64;
    out.push("gateway.submit_rtt_us.bin", median(&g.offer_us[0]), "us");
    out.push("gateway.submit_rtt_us.json", median(&g.offer_us[1]), "us");
    out.push("gateway.watermark_rtt_us", median(&g.advance_us), "us");
    out.push("gateway.busy_frac", g.busy as f64 / frames, "ratio");
    out.push("gateway.reconnects", g.reconnects as f64, "count");
    Ok(())
}
