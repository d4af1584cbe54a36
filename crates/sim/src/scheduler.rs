//! The online scheduler interface.
//!
//! At each time `t` the [`Engine`](crate::engine::Engine) hands the scheduler
//! a read-only [`SimView`] and a [`Selection`] sink; the scheduler pushes up
//! to `m` ready subjobs to run during step `t+1`. Clairvoyance (Section 3 of
//! the paper) is modelled by what the view exposes:
//!
//! * **non-clairvoyant** schedulers may call only the ready-set accessors
//!   ([`SimView::ready`], [`SimView::alive`], ...) — a subjob is revealed
//!   when its predecessors complete;
//! * **clairvoyant** schedulers may additionally call [`SimView::graph`],
//!   which returns the full DAG of a *released* job (the paper's clairvoyant
//!   scheduler learns `G_i` at `r_i`, never earlier).
//!
//! A scheduler declares its class via [`OnlineScheduler::clairvoyance`]; the
//! view enforces the declaration at runtime by panicking if a scheduler that
//! declared [`Clairvoyance::NonClairvoyant`] asks for a graph.

use crate::instance::Instance;
use crate::state::SimState;
use flowtree_dag::{JobGraph, JobId, NodeId, Time};

/// What the scheduler is allowed to learn about a job at its release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clairvoyance {
    /// Learns the full DAG `G_i` at release time `r_i` (Section 5's setting).
    Clairvoyant,
    /// Learns a subjob only when it becomes ready (Section 6's setting).
    NonClairvoyant,
}

/// Read-only view of the simulation handed to the scheduler each step.
pub struct SimView<'a> {
    instance: &'a Instance,
    state: &'a SimState,
    m: usize,
    clairvoyance: Clairvoyance,
}

impl<'a> SimView<'a> {
    /// Assemble a view over explicit simulation state. The engine builds one
    /// per scheduler callback; reference engines and differential tests
    /// driving a [`SimState`](crate::state::SimState) by hand can too.
    pub fn new(
        instance: &'a Instance,
        state: &'a SimState,
        m: usize,
        clairvoyance: Clairvoyance,
    ) -> Self {
        SimView { instance, state, m, clairvoyance }
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Released, unfinished jobs in arrival (FIFO) order.
    pub fn alive(&self) -> &[JobId] {
        self.state.alive()
    }

    /// Ready subjobs of `job` (arbitrary order; pair with
    /// [`ready_seq`](Self::ready_seq) for became-ready order).
    pub fn ready(&self, job: JobId) -> &[u32] {
        self.state.ready(job)
    }

    /// Global became-ready stamp of a node (smaller = became ready earlier;
    /// unique across the simulation).
    pub fn ready_seq(&self, job: JobId, node: NodeId) -> u64 {
        self.state.ready_seq(job, node)
    }

    /// Is this specific subjob ready?
    pub fn is_ready(&self, job: JobId, node: NodeId) -> bool {
        self.state.is_ready(job, node)
    }

    /// Number of unfinished subjobs of `job`.
    pub fn unfinished(&self, job: JobId) -> u32 {
        self.state.unfinished(job)
    }

    /// Completion time of a subjob, if complete.
    pub fn completion(&self, job: JobId, node: NodeId) -> Option<Time> {
        self.state.completion(job, node)
    }

    /// Release time of a *released* job (FIFO needs arrival order, which is
    /// public information once the job has arrived).
    pub fn release(&self, job: JobId) -> Time {
        assert!(
            self.state.is_released(job),
            "release time of an unreleased job is not observable"
        );
        self.instance.release(job)
    }

    /// Total ready subjobs over all alive jobs.
    pub fn total_ready(&self) -> usize {
        self.state.total_ready()
    }

    /// Full DAG of a released job — clairvoyant schedulers only.
    ///
    /// # Panics
    /// If the scheduler declared itself non-clairvoyant, or the job has not
    /// been released yet (no scheduler may peek into the future).
    pub fn graph(&self, job: JobId) -> &'a JobGraph {
        assert!(
            self.clairvoyance == Clairvoyance::Clairvoyant,
            "non-clairvoyant scheduler attempted to read a job DAG"
        );
        assert!(
            self.state.is_released(job),
            "scheduler attempted to read the DAG of an unreleased job"
        );
        self.instance.graph(job)
    }
}

/// Sink for the subjobs the scheduler wants to run this step. The engine
/// validates every push (readiness, distinctness) and the total count.
#[derive(Debug)]
pub struct Selection {
    picks: Vec<(JobId, NodeId)>,
    capacity: usize,
}

impl Selection {
    /// An empty selection with room for `capacity` picks. The engine keeps
    /// one per run and [`clear`](Self::clear)s it each step, so the hot loop
    /// never allocates; external drivers can construct their own.
    pub fn new(capacity: usize) -> Self {
        Selection { picks: Vec::new(), capacity }
    }

    /// Drop all picks, keeping the allocation (capacity is unchanged).
    pub fn clear(&mut self) {
        self.picks.clear();
    }

    /// The picks pushed so far, in push order.
    pub fn picks(&self) -> &[(JobId, NodeId)] {
        &self.picks
    }

    /// Schedule `(job, node)` for the coming step. Returns `false` (and
    /// ignores the push) if capacity is already full.
    pub fn push(&mut self, job: JobId, node: NodeId) -> bool {
        if self.picks.len() >= self.capacity {
            return false;
        }
        self.picks.push((job, node));
        true
    }

    /// Processors still unassigned.
    pub fn remaining(&self) -> usize {
        self.capacity - self.picks.len()
    }

    /// Number of subjobs selected so far.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// Nothing selected yet?
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }
}

/// An online scheduler: selects ready subjobs each step.
pub trait OnlineScheduler {
    /// Which information class the scheduler needs. The engine builds the
    /// [`SimView`] accordingly.
    fn clairvoyance(&self) -> Clairvoyance;

    /// Called once per job at its release time, before `select` at that time.
    /// `view.graph(job)` is available here for clairvoyant schedulers.
    fn on_arrival(&mut self, _t: Time, _job: JobId, _view: &SimView<'_>) {}

    /// Select up to `m` ready subjobs to run during step `t+1` by pushing
    /// into `sel`. The engine validates readiness and distinctness and will
    /// return an error on any violation.
    fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection);

    /// Human-readable name used in experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>().to_string()
    }
}

/// Schedulers shared by the crate's unit tests (the real ones live in
/// `flowtree-core`, downstream of this crate).
#[cfg(test)]
pub(crate) mod testing {
    use super::{Clairvoyance, OnlineScheduler, Selection, SimView};
    use flowtree_dag::{NodeId, Time};

    /// Greedy work-conserving scheduler: take ready subjobs from alive jobs
    /// in FIFO order until processors run out.
    pub(crate) struct Greedy;

    impl OnlineScheduler for Greedy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            for &job in view.alive() {
                for &v in view.ready(job) {
                    if !sel.push(job, NodeId(v)) {
                        return;
                    }
                }
            }
        }
    }

    /// A scheduler that always does nothing (to exercise the horizon guard).
    pub(crate) struct Lazy;

    impl OnlineScheduler for Lazy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, _s: &mut Selection) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, JobSpec};
    use flowtree_dag::builder::chain;

    fn view_fixture(clair: Clairvoyance) -> (Instance, SimState) {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(2), release: 10 },
        ]);
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        let _ = clair;
        (inst, st)
    }

    #[test]
    fn clairvoyant_view_exposes_graph() {
        let (inst, st) = view_fixture(Clairvoyance::Clairvoyant);
        let v = SimView::new(&inst, &st, 4, Clairvoyance::Clairvoyant);
        assert_eq!(v.graph(JobId(0)).work(), 2);
        assert_eq!(v.m(), 4);
        assert_eq!(v.alive(), &[JobId(0)]);
        assert_eq!(v.release(JobId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "non-clairvoyant")]
    fn non_clairvoyant_graph_access_panics() {
        let (inst, st) = view_fixture(Clairvoyance::NonClairvoyant);
        let v = SimView::new(&inst, &st, 4, Clairvoyance::NonClairvoyant);
        let _ = v.graph(JobId(0));
    }

    #[test]
    #[should_panic(expected = "unreleased")]
    fn future_job_graph_access_panics() {
        let (inst, st) = view_fixture(Clairvoyance::Clairvoyant);
        let v = SimView::new(&inst, &st, 4, Clairvoyance::Clairvoyant);
        let _ = v.graph(JobId(1)); // releases at t=10, we are at t=0
    }

    #[test]
    #[should_panic(expected = "unreleased")]
    fn future_release_time_not_observable() {
        let (inst, st) = view_fixture(Clairvoyance::Clairvoyant);
        let v = SimView::new(&inst, &st, 4, Clairvoyance::Clairvoyant);
        let _ = v.release(JobId(1));
    }

    #[test]
    fn selection_capacity_enforced() {
        let mut sel = Selection::new(2);
        assert!(sel.push(JobId(0), NodeId(0)));
        assert_eq!(sel.remaining(), 1);
        assert!(sel.push(JobId(0), NodeId(1)));
        assert!(!sel.push(JobId(0), NodeId(2)));
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.remaining(), 0);
        assert_eq!(sel.picks(), &[(JobId(0), NodeId(0)), (JobId(0), NodeId(1))]);
        sel.clear();
        assert!(sel.is_empty());
        assert_eq!(sel.remaining(), 2); // capacity survives a clear
    }

    #[test]
    fn selection_empty_state() {
        let sel = Selection::new(3);
        assert!(sel.is_empty());
        assert_eq!(sel.remaining(), 3);
    }
}
