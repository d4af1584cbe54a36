//! Arrival sources: where streamed jobs come from.
//!
//! A source is a plain `Iterator<Item = JobSpec>` yielding arrivals in
//! nondecreasing release order — the same contract
//! [`Session::admit`](flowtree_sim::Session) enforces. Two implementations
//! cover the serving use cases: replaying a recorded trace
//! ([`ReplaySource`]) and sampling a workload scenario lazily at a target
//! arrival rate ([`GeneratorSource`]).
//! [`PoolHandle::run_source`](crate::PoolHandle::run_source) pumps any such
//! iterator into a pool.

use std::collections::VecDeque;

use flowtree_dag::{JobGraph, Time};
use flowtree_sim::{Instance, JobSpec};
use flowtree_workloads::mix::{Scenario, Shape};
use flowtree_workloads::Rng;
use rand::Rng as _;

/// Replays a recorded instance (or JSONL trace) job by job.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    jobs: VecDeque<JobSpec>,
}

impl ReplaySource {
    /// Replay the jobs of `instance` in arrival order.
    pub fn from_instance(instance: &Instance) -> Self {
        ReplaySource { jobs: instance.jobs().iter().cloned().collect() }
    }

    /// Parse a trace: either one JSON [`Instance`] document, or JSONL with
    /// one [`JobSpec`] per line (releases must be nondecreasing).
    pub fn from_json(text: &str) -> Result<Self, String> {
        if let Ok(inst) = serde_json::from_str::<Instance>(text) {
            return Ok(Self::from_instance(&inst));
        }
        let mut jobs: VecDeque<JobSpec> = VecDeque::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let spec: JobSpec = serde_json::from_str(line)
                .map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
            if let Some(last) = jobs.back() {
                if spec.release < last.release {
                    return Err(format!(
                        "trace line {}: release {} goes backwards (after {})",
                        lineno + 1,
                        spec.release,
                        last.release
                    ));
                }
            }
            jobs.push_back(spec);
        }
        if jobs.is_empty() {
            return Err("trace contains no jobs".to_string());
        }
        Ok(ReplaySource { jobs })
    }

    /// Arrivals not yet replayed.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Is the trace exhausted?
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl Iterator for ReplaySource {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        self.jobs.pop_front()
    }
}

/// Samples jobs from a [`Scenario`] blend lazily, arriving as a Bernoulli
/// process at a target rate of `rate` expected jobs per step (the same
/// thinning [`flowtree_workloads`] uses for load-targeted streams), until a
/// fixed job budget is spent.
#[derive(Debug, Clone)]
pub struct GeneratorSource {
    blend: Vec<(Shape, u32)>,
    total_weight: u32,
    rng: Rng,
    rate: f64,
    remaining: usize,
    t: Time,
    pending: VecDeque<JobSpec>,
}

impl GeneratorSource {
    /// A source emitting `jobs` samples of `scenario`'s shape blend at
    /// `rate` expected arrivals per step, seeded for reproducibility.
    pub fn new(scenario: &Scenario, rate: f64, jobs: usize, seed: u64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        assert!(!scenario.blend.is_empty(), "scenario blend must be nonempty");
        let total_weight: u32 = scenario.blend.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0, "blend weights must not all be zero");
        GeneratorSource {
            blend: scenario.blend.clone(),
            total_weight,
            rng: flowtree_workloads::rng(seed),
            rate,
            remaining: jobs,
            t: 0,
            pending: VecDeque::new(),
        }
    }

    /// Jobs still to be emitted (pending + unsampled).
    pub fn remaining(&self) -> usize {
        self.remaining + self.pending.len()
    }

    fn sample_shape(&mut self) -> JobGraph {
        let mut roll = self.rng.gen_range(0..self.total_weight);
        for &(shape, w) in &self.blend {
            if roll < w {
                return shape.sample(&mut self.rng);
            }
            roll -= w;
        }
        unreachable!("weights cover the roll")
    }
}

impl Iterator for GeneratorSource {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        while self.pending.is_empty() && self.remaining > 0 {
            let release = self.t;
            // Rates above 1 split into unit Bernoulli trials per step, so
            // every burst shares one release time (order stays valid).
            let mut expected = self.rate;
            while expected > 0.0 && self.remaining > 0 {
                let p = expected.min(1.0);
                if self.rng.gen_bool(p) {
                    let graph = self.sample_shape();
                    self.pending.push_back(JobSpec { graph, release });
                    self.remaining -= 1;
                }
                expected -= 1.0;
            }
            self.t += 1;
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::chain;

    #[test]
    fn replay_preserves_instance_order() {
        let inst = Scenario::service(10).instantiate(&mut flowtree_workloads::rng(3));
        let mut src = ReplaySource::from_instance(&inst);
        assert_eq!(src.len(), 10);
        let got: Vec<JobSpec> = src.by_ref().collect();
        assert!(src.is_empty());
        assert_eq!(got, inst.jobs());
    }

    #[test]
    fn replay_parses_instance_json_and_jsonl() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(3), release: 4 },
        ]);
        let doc = serde_json::to_string(&inst).unwrap();
        let mut a = ReplaySource::from_json(&doc).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.next().unwrap().release, 0);

        let jsonl = inst
            .jobs()
            .iter()
            .map(|j| serde_json::to_string(j).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        let b = ReplaySource::from_json(&jsonl).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn replay_rejects_backwards_and_empty_traces() {
        let a = serde_json::to_string(&JobSpec { graph: chain(2), release: 5 }).unwrap();
        let b = serde_json::to_string(&JobSpec { graph: chain(2), release: 3 }).unwrap();
        let err = ReplaySource::from_json(&format!("{a}\n{b}")).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        assert!(ReplaySource::from_json("").is_err());
        assert!(ReplaySource::from_json("not json").is_err());
    }

    #[test]
    fn generator_emits_exactly_the_budget_in_release_order() {
        let scenario = Scenario::analytics(1); // blend only; jobs field unused
        let src = GeneratorSource::new(&scenario, 1.5, 25, 9);
        assert_eq!(src.remaining(), 25);
        let mut releases = Vec::new();
        for spec in src {
            assert!(spec.graph.n() >= 1);
            releases.push(spec.release);
        }
        assert_eq!(releases.len(), 25);
        assert!(releases.windows(2).all(|w| w[0] <= w[1]), "{releases:?}");
    }

    #[test]
    fn generator_is_reproducible() {
        let scenario = Scenario::service(1);
        let collect = |seed| GeneratorSource::new(&scenario, 0.5, 12, seed).collect::<Vec<_>>();
        assert_eq!(collect(4), collect(4));
    }
}
