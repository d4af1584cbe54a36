//! The online simulation loop — the only one in the crate.
//!
//! [`Engine::run`] drives an [`OnlineScheduler`] over an [`Instance`]:
//!
//! ```text
//! t = 0
//! loop:
//!   release jobs with r_i <= t, calling on_arrival for each
//!   scheduler selects <= m ready subjobs      (runs during step t+1)
//!   engine validates and applies the selection
//!   t += 1
//! until all jobs complete
//! ```
//!
//! The loop itself lives in the crate-private `StepLoop`, which borrows
//! its instance per call. [`Engine::run`] drives it once over the caller's
//! instance; a streaming [`Session`](crate::Session) drives the same loop
//! piecewise over the instance it grows by admission, so the two cannot
//! drift apart.
//!
//! Every selection is validated online (readiness, distinctness — capacity
//! is enforced by [`Selection`] itself), so scheduler bugs surface as
//! [`EngineError`]s at the offending step instead of as corrupt results.
//!
//! A run returns a [`RunReport`]: the recorded [`Schedule`] plus
//! [`FlowStats`] and the engine's internal [`Counters`], so callers no
//! longer recompute flow statistics ad hoc. Attach a custom
//! [`Probe`](crate::probe::Probe) with [`Engine::with_probe`] to observe
//! per-step events (tracing, custom instrumentation).

use crate::instance::Instance;
use crate::metrics::FlowStats;
use crate::probe::{Counters, NullProbe, Probe, StepStat};
use crate::schedule::Schedule;
use crate::scheduler::{OnlineScheduler, Selection, SimView};
use crate::state::SimState;
use flowtree_dag::{JobId, NodeId, Time};

/// Errors raised while driving a scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduler selected a subjob that is not ready (unreleased job,
    /// incomplete predecessor, or already-complete subjob).
    NotReady {
        /// Time of the offending selection.
        t: Time,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// The scheduler selected the same subjob twice in one step.
    DuplicateSelection {
        /// Time of the offending selection.
        t: Time,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// The simulation exceeded the safety horizon — the scheduler is
    /// stalling (e.g. selecting nothing while work remains).
    HorizonExceeded {
        /// The safety cap that was hit.
        horizon: Time,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotReady { t, job, node } => {
                write!(f, "t={t}: scheduler selected unready subjob {job}/{node}")
            }
            EngineError::DuplicateSelection { t, job, node } => {
                write!(f, "t={t}: scheduler selected {job}/{node} twice")
            }
            EngineError::HorizonExceeded { horizon } => {
                write!(f, "simulation exceeded safety horizon {horizon}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of a completed [`Engine::run`]: the recorded schedule plus the
/// metrics every caller used to recompute by hand.
///
/// Dereferences to its [`Schedule`], so schedule accessors (`horizon`,
/// `load`, `at`, `verify`, `completion_times`, …) work directly on the
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The recorded feasible schedule.
    pub schedule: Schedule,
    /// Flow statistics of the completed schedule (what
    /// [`metrics::flow_stats`](crate::metrics::flow_stats) computes).
    pub stats: FlowStats,
    /// The engine's internal per-step counters.
    pub counters: Counters,
}

impl std::ops::Deref for RunReport {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        &self.schedule
    }
}

/// Simulation driver. Construct with the machine size, optionally attach a
/// [`Probe`] via [`with_probe`](Self::with_probe), then [`run`](Self::run).
#[derive(Debug, Clone)]
pub struct Engine<P: Probe = NullProbe> {
    m: usize,
    /// Hard cap on simulated steps; `None` derives a generous default from
    /// the instance (every scheduler that never idles unnecessarily finishes
    /// well below it).
    max_horizon: Option<Time>,
    probe: P,
}

impl Engine<NullProbe> {
    /// An engine over `m` identical processors, with no instrumentation
    /// (the [`NullProbe`] hooks compile away).
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one processor");
        Engine { m, max_horizon: None, probe: NullProbe }
    }
}

impl<P: Probe> Engine<P> {
    /// Attach `probe`; its hooks fire at every step of subsequent runs.
    /// Pass `&mut probe` to keep ownership for inspection after the run.
    pub fn with_probe<Q: Probe>(self, probe: Q) -> Engine<Q> {
        Engine { m: self.m, max_horizon: self.max_horizon, probe }
    }

    /// Override the safety horizon (default: `last_release + total_work +
    /// max_span + 4`, enough for any scheduler that makes progress whenever
    /// possible — even one running a single subjob per busy step).
    pub fn with_max_horizon(mut self, horizon: Time) -> Self {
        self.max_horizon = Some(horizon);
        self
    }

    /// Machine size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Drive `scheduler` over `instance` to completion. Returns the recorded
    /// schedule bundled with its flow statistics and step counters. The
    /// caller should usually also run [`Schedule::verify`] (via the report's
    /// deref).
    pub fn run(
        &mut self,
        instance: &Instance,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<RunReport, EngineError> {
        let horizon = self.max_horizon.unwrap_or_else(|| {
            instance.last_release() + instance.total_work() + instance.max_span() + 4
        });
        let mut run = StepLoop::new(self.m, horizon, instance);
        run.start(&mut self.probe, instance.num_jobs());
        run.run_until(instance, Time::MAX, scheduler, &mut self.probe)?;
        Ok(run.finish(&mut self.probe))
    }
}

/// The online step loop and all it owns: state, schedule, counters, stamp
/// arrays, [`Selection`] scratch and clock. It borrows its [`Instance`] per
/// call. Outside this module, callers only read `m`, `state`, `counters`
/// and `t`, and set `horizon`.
#[derive(Debug)]
pub(crate) struct StepLoop {
    pub(crate) m: usize,
    /// Safety cap: stepping past it is [`EngineError::HorizonExceeded`].
    pub(crate) horizon: Time,
    pub(crate) state: SimState,
    schedule: Schedule,
    pub(crate) counters: Counters,
    /// `node_off[j]` is where job `j`'s slice of the flat node array
    /// starts. A stamp equal to `t + 1` marks "seen during step t"; stamps
    /// increase strictly across steps, so no clearing between steps is
    /// needed.
    node_off: Vec<usize>,
    node_stamp: Vec<Time>,
    job_stamp: Vec<Time>,
    sel: Selection,
    pub(crate) t: Time,
}

impl StepLoop {
    /// A loop over `m` processors at time 0 that knows every job of
    /// `instance`.
    pub(crate) fn new(m: usize, horizon: Time, instance: &Instance) -> Self {
        let mut node_off: Vec<usize> = Vec::with_capacity(instance.num_jobs() + 1);
        node_off.push(0);
        for spec in instance.jobs() {
            node_off.push(node_off.last().unwrap() + spec.graph.n());
        }
        StepLoop {
            m,
            horizon,
            state: SimState::new(instance),
            schedule: Schedule::new(m),
            counters: Counters::default(),
            node_stamp: vec![0; *node_off.last().unwrap()],
            job_stamp: vec![0; instance.num_jobs()],
            node_off,
            sel: Selection::new(m),
            t: 0,
        }
    }

    /// Make room for `jobs` more jobs holding `nodes` subjobs between them.
    pub(crate) fn reserve(&mut self, jobs: usize, nodes: usize) {
        self.node_off.reserve(jobs);
        self.node_stamp.reserve(nodes);
        self.job_stamp.reserve(jobs);
    }

    /// Track the next job appended to `instance` since the loop last saw it
    /// (streaming admission; call once per [`Instance::push_job`]).
    pub(crate) fn push_job(&mut self, instance: &Instance) {
        let n = instance.jobs()[self.job_stamp.len()].graph.n();
        self.state.push_job(instance);
        self.node_off.push(self.node_off.last().unwrap() + n);
        self.node_stamp.resize(self.node_stamp.len() + n, 0);
        self.job_stamp.push(0);
    }

    /// Fire `on_start` with `num_jobs` known jobs (0 for a streaming run).
    pub(crate) fn start<P: Probe>(&mut self, probe: &mut P, num_jobs: usize) {
        self.counters.on_start(self.m, num_jobs);
        probe.on_start(self.m, num_jobs);
    }

    /// Simulate until `t_end`, or until every known job has finished and
    /// none is pending, whichever comes first.
    ///
    /// The loop allocates nothing per step: the [`Selection`] scratch is
    /// cleared and reused, its picks are copied straight into the CSR
    /// [`Schedule`], releases are peeked one at a time, and selection
    /// validation uses the stamp arrays (O(picks) per step rather than
    /// O(picks²)). When no job is alive the clock fast-forwards to the next
    /// release (or `t_end`), emitting a [`Probe::on_idle_gap`] that is
    /// observationally equivalent to stepwise idling; `select` is *not*
    /// called during such gaps (nothing is ready, so only an empty
    /// selection could be valid). A gap split across calls replays as the
    /// same event stream as one whole gap.
    pub(crate) fn run_until<P: Probe>(
        &mut self,
        instance: &Instance,
        t_end: Time,
        scheduler: &mut dyn OnlineScheduler,
        probe: &mut P,
    ) -> Result<(), EngineError> {
        let clair = scheduler.clairvoyance();
        let m = self.m;
        // The stamp arrays as local slices, so their headers stay in
        // registers across the scheduler's calls.
        let node_off = &self.node_off[..];
        let node_stamp = &mut self.node_stamp[..];
        let job_stamp = &mut self.job_stamp[..];
        while self.t < t_end {
            if self.state.all_done() {
                break;
            }
            let t = self.t;
            if t > self.horizon {
                return Err(EngineError::HorizonExceeded { horizon: self.horizon });
            }

            while let Some(job) = self.state.release_one(instance, t) {
                self.counters.on_release(t, job);
                probe.on_release(t, job);
                let view = SimView::new(instance, &self.state, m, clair);
                scheduler.on_arrival(t, job, &view);
            }

            // Idle-gap fast-forward: no alive job means nothing is ready and
            // no non-empty selection could be valid, so jump to the next
            // release. The gap is capped at `horizon + 1` so a release
            // beyond the safety cap still surfaces as `HorizonExceeded`
            // (with the same probe events the stepwise loop emitted first).
            if self.state.alive().is_empty() {
                let next = self
                    .state
                    .next_release_time(instance)
                    .expect("no job alive and none pending, yet not all done");
                debug_assert!(next > t, "a release due now was not applied");
                let end = next.min(t_end).min(self.horizon + 1);
                let gap = end - t;
                self.counters.on_idle_gap(t, gap, m);
                probe.on_idle_gap(t, gap, m);
                self.schedule.push_empty_steps(gap);
                self.t = end;
                continue;
            }

            let ready_depth = self.state.total_ready();
            self.sel.clear();
            {
                let view = SimView::new(instance, &self.state, m, clair);
                scheduler.select(t, &view, &mut self.sel);
            }
            let picks = self.sel.picks();

            // Validate: in-bounds, pairwise distinct, ready. The stamp
            // catches duplicates in O(1) per pick; readiness in SimState is
            // only cleared on completion and completions apply after this
            // loop, so `is_ready` is checked against the start-of-step state
            // exactly as the pre-stamp quadratic scan did.
            let stamp = t + 1; // nonzero, unique per step
            for &(j, v) in picks {
                if j.index() >= instance.num_jobs() || v.index() >= instance.graph(j).n() {
                    return Err(EngineError::NotReady { t, job: j, node: v });
                }
                let slot = &mut node_stamp[node_off[j.index()] + v.index()];
                if *slot == stamp {
                    return Err(EngineError::DuplicateSelection { t, job: j, node: v });
                }
                *slot = stamp;
                if !self.state.is_ready(j, v) {
                    return Err(EngineError::NotReady { t, job: j, node: v });
                }
            }

            self.counters.on_select(t, picks);
            probe.on_select(t, picks);
            for &(j, v) in picks {
                probe.on_dispatch(t, j, v);
                self.state.complete(instance, j, v, t + 1);
            }

            let stat = StepStat {
                scheduled: picks.len(),
                idle_procs: m - picks.len(),
                ready_depth,
            };
            self.counters.on_step(t, stat);
            probe.on_step(t, stat);

            // A job completes at t+1 when this step ran its last subjob.
            // Fire once per job — the job stamp replaces the old quadratic
            // "first pick of this job?" rescan.
            let mut any_finished = false;
            for &(j, _) in picks {
                if self.state.unfinished(j) == 0 && job_stamp[j.index()] != stamp {
                    job_stamp[j.index()] = stamp;
                    any_finished = true;
                    self.counters.on_complete(t + 1, j);
                    probe.on_complete(t + 1, j);
                }
            }

            if any_finished {
                self.state.prune_alive();
            }
            self.schedule.extend_step(picks);
            self.t = t + 1;
        }
        Ok(())
    }

    /// Fire `on_finish` and bundle the report. The flow statistics come
    /// from the counters alone in O(jobs) — no second pass over the
    /// schedule, so an uninstrumented run costs the same as returning the
    /// bare schedule did.
    pub(crate) fn finish<P: Probe>(mut self, probe: &mut P) -> RunReport {
        self.counters.on_finish(self.t);
        probe.on_finish(self.t);
        let stats = self.counters.flow_stats();
        RunReport { schedule: self.schedule, stats, counters: self.counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::JobSpec;
    use crate::scheduler::testing::{Greedy, Lazy};
    use crate::scheduler::Clairvoyance;
    use flowtree_dag::builder::{chain, star};

    /// A buggy scheduler that selects node 1 of job 0 immediately (not ready
    /// at t=0 for a chain).
    struct Eager;
    impl OnlineScheduler for Eager {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, sel: &mut Selection) {
            sel.push(JobId(0), NodeId(1));
        }
    }

    /// A buggy scheduler that selects the same subjob twice.
    struct Doubler;
    impl OnlineScheduler for Doubler {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            if let Some(&job) = view.alive().first() {
                if let Some(&v) = view.ready(job).first() {
                    sel.push(job, NodeId(v));
                    sel.push(job, NodeId(v));
                }
            }
        }
    }

    fn two_job_instance() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(3), release: 1 },
        ])
    }

    #[test]
    fn greedy_completes_and_verifies() {
        let inst = two_job_instance();
        let s = Engine::new(2).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        let c = s.completion_times(&inst);
        assert_eq!(c[0], Some(3)); // chain(3) released at 0 runs 1,2,3
        assert!(c[1].unwrap() >= 3); // star needs root + 2 steps of leaves on m=2
    }

    #[test]
    fn greedy_single_processor() {
        let inst = two_job_instance();
        let s = Engine::new(1).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 7); // 7 subjobs, one per step, no forced idles
    }

    #[test]
    fn many_processors_run_wide() {
        let inst = Instance::single(star(10));
        let s = Engine::new(16).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 2); // root, then all 10 leaves at once
        assert_eq!(s.load(2), 10);
    }

    #[test]
    fn idle_gap_before_late_arrival() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 5 },
        ]);
        let s = Engine::new(4).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 6);
        for t in 2..=5 {
            assert_eq!(s.load(t), 0);
        }
    }

    #[test]
    fn fast_forward_emits_stepwise_equivalent_events() {
        // chain(1) at t=0, then nothing until t=7: steps 1..=6 are a
        // fast-forwarded gap. Counters and the JSONL trace must look exactly
        // like stepwise idling.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 7 },
        ]);
        let mut trace = crate::probe::JsonlTrace::new(Vec::new());
        let report = Engine::new(3).with_probe(&mut trace).run(&inst, &mut Greedy).unwrap();
        report.verify(&inst).unwrap();

        let c = &report.counters;
        assert_eq!(c.steps, 8);
        assert_eq!(c.dispatched, 2);
        assert_eq!(c.idle_slots, 2 + 6 * 3 + 2);
        assert_eq!(c.idle_steps, 8);

        let text = String::from_utf8(trace.finish().unwrap()).unwrap();
        // One step record per simulated step, gap steps included.
        let steps: Vec<&str> = text.lines().filter(|l| l.contains("\"ev\":\"step\"")).collect();
        assert_eq!(steps.len(), 8);
        assert!(text.contains(r#"{"ev":"step","t":3,"picks":[],"idle":3,"ready":0}"#));
        assert!(text.lines().last().unwrap().contains(r#""ev":"finish","horizon":8"#));
    }

    #[test]
    fn fast_forward_respects_horizon_cap() {
        // Second release far beyond the horizon: the gap must stop at the
        // cap and report HorizonExceeded, like the stepwise loop did — in
        // one batch run and in a streaming session alike.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 1_000 },
        ]);
        let batch = Engine::new(2).with_max_horizon(10).run(&inst, &mut Greedy).map(drop);
        let mut session = crate::Session::new(2).with_max_horizon(10);
        session.admit_batch(inst.jobs().to_vec()).unwrap();
        let streaming = session.run_until(Time::MAX, &mut Greedy);
        assert_eq!(session.now(), 11, "the gap stops at horizon + 1");
        for run in [batch, streaming] {
            assert_eq!(run, Err(EngineError::HorizonExceeded { horizon: 10 }));
        }
    }

    #[test]
    fn lazy_scheduler_hits_horizon() {
        let inst = two_job_instance();
        let err = Engine::new(2).with_max_horizon(50).run(&inst, &mut Lazy).unwrap_err();
        assert_eq!(err, EngineError::HorizonExceeded { horizon: 50 });
    }

    #[test]
    fn unready_selection_rejected() {
        let inst = two_job_instance();
        let err = Engine::new(2).run(&inst, &mut Eager).unwrap_err();
        assert_eq!(err, EngineError::NotReady { t: 0, job: JobId(0), node: NodeId(1) });
    }

    #[test]
    fn duplicate_selection_rejected() {
        let inst = two_job_instance();
        let err = Engine::new(2).run(&inst, &mut Doubler).unwrap_err();
        assert_eq!(err, EngineError::DuplicateSelection { t: 0, job: JobId(0), node: NodeId(0) });
    }

    #[test]
    fn arrival_hook_called_once_per_job() {
        struct Counting {
            arrivals: Vec<(Time, JobId)>,
        }
        impl OnlineScheduler for Counting {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::NonClairvoyant
            }
            fn on_arrival(&mut self, t: Time, job: JobId, _v: &SimView<'_>) {
                self.arrivals.push((t, job));
            }
            fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
                Greedy.select(t, view, sel);
            }
        }
        let inst = two_job_instance();
        let mut s = Counting { arrivals: vec![] };
        Engine::new(2).run(&inst, &mut s).unwrap();
        assert_eq!(s.arrivals, vec![(0, JobId(0)), (1, JobId(1))]);
    }
}
