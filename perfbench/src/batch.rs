//! `batch-paper`: the researcher's experiment loop. `Engine::run` on a
//! dense seeded out-tree stream under FIFO, LPF and Algorithm 𝒜 in turn.
//! No pool, no gateway: the engine and the schedulers do all the work.

use crate::calib::{host_factor, Calibrated};
use crate::stream::{fingerprints, Shape};
use crate::trace::{Layer, Tracer};
use crate::{Phase, Plan, Tally};
use flowtree_core::{SchedulerSpec, DEFAULT_HALF};
use flowtree_sim::{
    Clairvoyance, Engine, Instance, JobId, OnlineScheduler, Selection, SimView, Time,
};
use std::time::{Duration, Instant};

/// 256-subjob recursive trees, one every 8 steps, on m = 64: half the
/// machine's capacity, so queues stay short and flows stay bounded.
pub const PAPER: Shape = Shape { jobs: 48, job_size: 256, per_tick: 1, tick_gap: 8 };

/// Processors of every batch-paper run.
pub const PAPER_M: usize = 64;

/// Instances in the set each run cycles through.
pub const INSTANCES: usize = 8;

/// Times a run generates its instance set before it starts, and again at
/// the start of each closed-loop slot, so that the median `setup_s`
/// samples the host over the whole run.
const SETUPS: usize = 5;

/// Requests until every (instance, scheduler) pairing has run once.
const ROUND: u64 = (INSTANCES * SCHEDULERS.len()) as u64;

/// Schedulers each experiment request rotates through.
pub const SCHEDULERS: [&str; 3] = ["fifo", "lpf", "algo-a"];

/// Open-loop experiment-request rates (requests/s) at `low` and `high`: a
/// tenth and a fifth of one core's capacity, so that a slow spell of a
/// shared host does not build a queue.
pub const RATES: [f64; 2] = [60.0, 120.0];

/// A benchmark-owned wrapper that times every `select` call of the
/// scheduler it wraps (only when `timed`, so untraced runs pay nothing).
pub struct TimedScheduler {
    inner: Box<dyn OnlineScheduler + Send>,
    timed: bool,
    /// Nanoseconds spent in `select`.
    pub select_ns: u64,
    /// `select` calls (one per non-idle step).
    pub selects: u64,
}

impl TimedScheduler {
    /// Build the registry scheduler `name`.
    pub fn new(name: &str, timed: bool) -> Self {
        let spec =
            SchedulerSpec::from_name_with_half(name, DEFAULT_HALF).expect("registry scheduler");
        TimedScheduler { inner: spec.build(), timed, select_ns: 0, selects: 0 }
    }
}

impl OnlineScheduler for TimedScheduler {
    fn clairvoyance(&self) -> Clairvoyance {
        self.inner.clairvoyance()
    }

    fn on_arrival(&mut self, t: Time, job: JobId, view: &SimView<'_>) {
        self.inner.on_arrival(t, job, view);
    }

    fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
        if self.timed {
            let start = Instant::now();
            self.inner.select(t, view, sel);
            self.select_ns += start.elapsed().as_nanos() as u64;
            self.selects += 1;
        } else {
            self.inner.select(t, view, sel);
        }
    }
}

/// One instance of the set with its facts, fixed by its first run under
/// each scheduler and checked against every later run.
struct Case {
    inst: Instance,
    lower_bound: u64,
    max_flow: [Option<u64>; 3],
}

/// The instance set for `seed`: [`INSTANCES`] streams of [`PAPER`]'s shape.
pub fn instances(seed: u64) -> Vec<Instance> {
    (0..INSTANCES as u64)
        .map(|i| PAPER.instance(seed.wrapping_mul(INSTANCES as u64) + i))
        .collect()
}

/// Experiment request `r`: instance `r % INSTANCES` under scheduler
/// `r % 3`; the two counts are coprime, so every pairing recurs each
/// [`ROUND`] requests.
fn experiment(cases: &mut [Case], r: u64, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let case = &mut cases[(r % INSTANCES as u64) as usize];
    let k = (r % SCHEDULERS.len() as u64) as usize;
    let tick = r as u32;
    let mut sched = TimedScheduler::new(SCHEDULERS[k], tr.on());
    let span = tr.open("engine.run", Layer::Engine, tick);
    let start = Instant::now();
    let report = Engine::new(PAPER_M).run(&case.inst, &mut sched);
    let wall = start.elapsed().as_secs_f64();
    tr.child_time("sched.select", Layer::Sched, tick, sched.select_ns);
    tr.close(span);
    tally.attempted += 1;
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("{}: engine error: {e}", SCHEDULERS[k]));
            return wall;
        }
    };
    let c = &report.counters;
    let completed = c.completions.iter().filter(|x| x.is_some()).count();
    if c.dispatched != case.inst.total_work() || completed != case.inst.num_jobs() {
        tally.fail(format!(
            "{}: dispatched {} of {} subjobs, completed {completed} of {} jobs",
            SCHEDULERS[k],
            c.dispatched,
            case.inst.total_work(),
            case.inst.num_jobs()
        ));
    }
    let max_flow = report.stats.max_flow;
    match case.max_flow[k] {
        None => {
            if let Err(e) = report.verify(&case.inst) {
                tally.fail(format!("{}: infeasible schedule: {e}", SCHEDULERS[k]));
            }
            if max_flow < case.lower_bound {
                tally.fail(format!("{}: max flow {max_flow} < LB", SCHEDULERS[k]));
            }
            case.max_flow[k] = Some(max_flow);
        }
        Some(first) if first != max_flow => tally.fail(format!(
            "{}: max flow {max_flow} differs from the first run's {first}",
            SCHEDULERS[k]
        )),
        Some(_) => {}
    }
    wall
}

/// Measured results of one batch-paper run.
pub struct BatchResult {
    /// Time of every generation of the instance set (s).
    pub setup_s: Calibrated,
    /// Simulated jobs per second of every closed-loop round.
    pub jobs_per_s: Calibrated,
    /// Latency samples (µs) at `low` and `high`, one list per phase slot.
    pub lat_us: [Vec<Vec<f64>>; 2],
    /// How late each request was started (µs), both rates.
    pub late_us: Vec<f64>,
    /// Worst max-flow / lower-bound over instances and schedulers.
    pub max_flow_ratio: f64,
}

/// Run the workload under `plan`.
pub fn run(plan: &Plan, tr: &mut Tracer, tally: &mut Tally) -> BatchResult {
    // Set-up is generating the instance set; repeat it so its median is
    // steady.
    let mut setups = Calibrated::default();
    let mut generate = |tr: &mut Tracer| {
        let mut set = Vec::new();
        for _ in 0..SETUPS {
            let factor = tr
                .span("calib.kernel", Layer::Calib, 0, || host_factor(1, setups.raw.len() as u64));
            let start = Instant::now();
            set = tr.span("workloads.generate", Layer::Workloads, 0, || instances(plan.seed));
            setups.push(start.elapsed().as_secs_f64(), factor);
        }
        set
    };
    let set = generate(tr);
    let fps: Vec<Vec<u64>> = set.iter().map(|i| fingerprints(i.jobs())).collect();
    let mut cases: Vec<Case> = set
        .into_iter()
        .map(|inst| Case {
            lower_bound: flowtree_opt::combined_lower_bound(&inst, PAPER_M as u64).max(1),
            inst,
            max_flow: [None; 3],
        })
        .collect();
    let round_jobs: usize =
        (0..ROUND).map(|r| cases[(r % INSTANCES as u64) as usize].inst.num_jobs()).sum();

    let mut rates = Calibrated::default();
    let mut lat_us = [Vec::new(), Vec::new()];
    let mut late_us = Vec::new();
    let mut r = 0u64;
    for (phase, budget) in plan.schedule() {
        let deadline = Instant::now() + budget;
        if phase == Phase::Closed {
            // The same seed must give the same inputs.
            let again = generate(tr);
            if again.iter().map(|i| fingerprints(i.jobs())).ne(fps.iter().cloned()) {
                tally.fail("the instance set differs between generations of one seed".into());
            }
            // Closed loop: rounds of every (instance, scheduler) pair, back
            // to back.
            let root = tr.open("batch.closed", Layer::Bench, 0);
            loop {
                let factor = tr.span("calib.kernel", Layer::Calib, 0, || host_factor(1, r));
                let mut wall = 0.0;
                for _ in 0..ROUND {
                    wall += experiment(&mut cases, r, tr, tally);
                    r += 1;
                }
                rates.push(round_jobs as f64 / wall, factor);
                if Instant::now() >= deadline {
                    break;
                }
            }
            tr.close(root);
            continue;
        }
        // Open loop: experiment requests due at a fixed interval (nothing
        // in this workload sleeps periodically, so a regular schedule
        // cannot lock in phase with the system under test). A request
        // starts when due or when the previous one ends, whichever is
        // later, and its latency runs from its due time to its result.
        let p = usize::from(phase == Phase::High);
        let mut samples = Vec::new();
        let epoch = Instant::now();
        let root = tr.open("batch.open", Layer::Bench, 0);
        for i in 0u64.. {
            let due = Duration::from_secs_f64(i as f64 / RATES[p]);
            if due >= budget && i > 0 {
                break;
            }
            let wait = tr.open("gen.wait", Layer::Idle, r as u32);
            let mut now = epoch.elapsed();
            // Spin rather than sleep: waking a halted vCPU on a shared host
            // takes a varying time that would land in the latency.
            while now < due {
                std::hint::spin_loop();
                now = epoch.elapsed();
            }
            tr.close(wait);
            late_us.push((now - due).as_secs_f64() * 1e6);
            experiment(&mut cases, r, tr, tally);
            samples.push((epoch.elapsed() - due).as_secs_f64() * 1e6);
            r += 1;
        }
        tr.close(root);
        lat_us[p].push(samples);
    }

    let max_flow_ratio = cases
        .iter()
        .flat_map(|c| c.max_flow.iter().map(|f| f.unwrap_or(0) as f64 / c.lower_bound as f64))
        .fold(0.0, f64::max);
    BatchResult {
        setup_s: setups,
        jobs_per_s: rates,
        lat_us,
        late_us,
        max_flow_ratio,
    }
}
