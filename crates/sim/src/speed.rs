//! Speed augmentation — the relaxed analysis model this paper deliberately
//! avoids, implemented so experiments can *show* what it hides.
//!
//! An `s`-speed processor completes `s` unit subjobs per time step, possibly
//! in sequence (so a chain shortens by a factor of `s` too). Prior work
//! ([4] in the paper) proves FIFO is `(1+ε)`-speed O(1)-competitive for
//! maximum flow; the paper's Section 4 shows that at speed 1 FIFO is
//! Ω(log m) — augmentation "assumes away the existence of the hard
//! instances where the optimal schedule is tightly packed".
//!
//! For unit subjobs and integer `s`, an `s`-speed schedule is exactly a
//! unit-speed schedule on a time axis refined `s`-fold: releases move to
//! `s · r_i`, the scheduler runs on micro-steps, and a job completing at
//! micro-step `C` has macro flow `ceil((C - s·r_i)/s)`. [`run_with_speed`]
//! implements that reduction on top of the ordinary [`Engine`].

use crate::engine::{Engine, EngineError};
use crate::instance::{Instance, JobSpec};
use crate::metrics::FlowStats;
use crate::scheduler::OnlineScheduler;
use flowtree_dag::Time;

/// Result of a speed-augmented run.
#[derive(Debug, Clone)]
pub struct SpeedRun {
    /// The micro-step schedule (against the release-scaled instance).
    pub micro_schedule: crate::schedule::Schedule,
    /// The release-scaled instance the schedule is feasible for.
    pub scaled_instance: Instance,
    /// Per-job flows measured in *macro* (original) time units.
    pub flows: Vec<Time>,
    /// Maximum macro flow.
    pub max_flow: Time,
}

/// Run `scheduler` with `s`-speed processors on `instance` (`s >= 1`).
///
/// Only time-scale-invariant schedulers (FIFO and the other non-parametric
/// policies) give meaningful results: the scheduler sees micro-time.
pub fn run_with_speed(
    instance: &Instance,
    m: usize,
    s: u64,
    scheduler: &mut dyn OnlineScheduler,
    max_horizon: Option<Time>,
) -> Result<SpeedRun, EngineError> {
    assert!(s >= 1, "speed must be at least 1");
    let scaled = Instance::new(
        instance
            .jobs()
            .iter()
            .map(|j| JobSpec { graph: j.graph.clone(), release: j.release * s })
            .collect(),
    );
    let mut engine = Engine::new(m);
    if let Some(h) = max_horizon {
        engine = engine.with_max_horizon(h);
    }
    let micro = engine.run(&scaled, scheduler)?.schedule;
    debug_assert_eq!(micro.verify(&scaled), Ok(()));

    let completions = micro.completion_times(&scaled);
    let mut flows = Vec::with_capacity(instance.num_jobs());
    for (id, spec) in instance.iter() {
        let c = completions[id.index()].expect("complete schedule");
        let micro_flow = c - spec.release * s;
        flows.push(micro_flow.div_ceil(s));
    }
    let max_flow = flows.iter().copied().max().unwrap_or(0);
    Ok(SpeedRun {
        micro_schedule: micro,
        scaled_instance: scaled,
        flows,
        max_flow,
    })
}

impl SpeedRun {
    /// Micro-level statistics (utilization etc.) of the underlying run.
    pub fn micro_stats(&self) -> FlowStats {
        crate::metrics::flow_stats(&self.scaled_instance, &self.micro_schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::Greedy;
    use flowtree_dag::builder::{chain, star};

    #[test]
    fn speed_one_equals_normal_run() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(5), release: 0 },
            JobSpec { graph: star(6), release: 2 },
        ]);
        let speed = run_with_speed(&inst, 2, 1, &mut Greedy, None).unwrap();
        let normal = Engine::new(2).run(&inst, &mut Greedy).unwrap();
        let stats = crate::metrics::flow_stats(&inst, &normal);
        assert_eq!(speed.flows, stats.flows);
        assert_eq!(speed.max_flow, stats.max_flow);
    }

    #[test]
    fn chain_speeds_up_linearly() {
        // A lone chain of 9 at speed 3 finishes in ceil(9/3) = 3 macro steps.
        let inst = Instance::single(chain(9));
        let r = run_with_speed(&inst, 1, 3, &mut Greedy, None).unwrap();
        assert_eq!(r.max_flow, 3);
    }

    #[test]
    fn speed_rounds_up_partial_steps() {
        // chain(4) at speed 3: 4 micro steps -> ceil(4/3) = 2.
        let inst = Instance::single(chain(4));
        let r = run_with_speed(&inst, 1, 3, &mut Greedy, None).unwrap();
        assert_eq!(r.max_flow, 2);
    }

    #[test]
    fn releases_respected_in_macro_time() {
        // Job released at 5 cannot have flow benefits from earlier idle
        // capacity: its first subjob completes at micro > 5s.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(2), release: 5 },
        ]);
        let s = 2;
        let r = run_with_speed(&inst, 4, s, &mut Greedy, None).unwrap();
        assert_eq!(r.flows[1], 1); // 2 micro-steps = 1 macro step
        let completions = r.micro_schedule.completion_times(&r.scaled_instance);
        assert!(completions[1].unwrap() > 5 * s);
    }

    #[test]
    fn higher_speed_never_hurts_greedy() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(9), release: 0 },
            JobSpec { graph: chain(6), release: 1 },
            JobSpec { graph: star(5), release: 3 },
        ]);
        let mut prev = u64::MAX;
        for s in 1..=4 {
            let r = run_with_speed(&inst, 2, s, &mut Greedy, None).unwrap();
            assert!(r.max_flow <= prev, "speed {s} regressed: {} > {prev}", r.max_flow);
            prev = r.max_flow;
        }
    }
}
