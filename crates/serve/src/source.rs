//! Arrival sources: where streamed jobs come from.
//!
//! An [`ArrivalSource`] yields [`JobSpec`]s one at a time in nondecreasing
//! release order — the same contract [`Session::admit`](flowtree_sim::Session)
//! enforces. Three implementations cover the serving use cases: replaying a
//! recorded trace ([`ReplaySource`]), sampling a workload scenario lazily at
//! a target arrival rate ([`GeneratorSource`]), and pulling from a channel
//! fed by another thread ([`ChannelSource`]).

use std::collections::VecDeque;

use crossbeam::channel;
use flowtree_dag::{JobGraph, Time};
use flowtree_sim::{Instance, JobSpec};
use flowtree_workloads::mix::{Scenario, Shape};
use flowtree_workloads::Rng;
use rand::Rng as _;

/// A stream of job arrivals in nondecreasing release order.
///
/// `None` ends the stream; a pool reading the source then drains its shards.
/// Sources must be `Send` so a caller may pump one from a dedicated thread.
pub trait ArrivalSource: Send {
    /// The next arrival, or `None` when the stream is exhausted. May block
    /// (e.g. [`ChannelSource`] waits for its producer).
    fn next_arrival(&mut self) -> Option<JobSpec>;

    /// Append the next ingest batch to `out` (callers pass it empty): up to
    /// `max` arrivals whose releases stay within `span` of the first one.
    /// Returns how many were appended; 0 ends the stream. The span rule
    /// keeps batching from changing event-time semantics — a batch never
    /// spans more frontier than one watermark stride would. The default
    /// forwards a single [`next_arrival`](Self::next_arrival); sources
    /// override it to hand over bursts without per-job dispatch.
    fn next_batch(&mut self, max: usize, span: Time, out: &mut Vec<JobSpec>) -> usize {
        let _ = (max, span);
        match self.next_arrival() {
            Some(spec) => {
                out.push(spec);
                1
            }
            None => 0,
        }
    }
}

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

impl ArrivalSource for ReplaySource {
    fn next_arrival(&mut self) -> Option<JobSpec> {
        self.jobs.pop_front()
    }

    fn next_batch(&mut self, max: usize, span: Time, out: &mut Vec<JobSpec>) -> usize {
        let Some(first) = self.jobs.pop_front() else {
            return 0;
        };
        let cutoff = first.release.saturating_add(span);
        out.push(first);
        while out.len() < max {
            match self.jobs.front() {
                Some(job) if job.release <= cutoff => {
                    let job = self.jobs.pop_front().expect("front peeked");
                    out.push(job);
                }
                _ => break,
            }
        }
        out.len()
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

impl ArrivalSource for GeneratorSource {
    fn next_arrival(&mut self) -> Option<JobSpec> {
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

    fn next_batch(&mut self, max: usize, span: Time, out: &mut Vec<JobSpec>) -> usize {
        let Some(first) = self.next_arrival() else {
            return 0;
        };
        let cutoff = first.release.saturating_add(span);
        out.push(first);
        while out.len() < max {
            match self.pending.front() {
                Some(job) if job.release <= cutoff => {
                    let job = self.pending.pop_front().expect("front peeked");
                    out.push(job);
                }
                Some(_) => break,
                None => {
                    // Sample the next step; an out-of-span arrival goes back
                    // to the front of the pending queue for the next batch.
                    let Some(job) = self.next_arrival() else {
                        break;
                    };
                    if job.release <= cutoff {
                        out.push(job);
                    } else {
                        self.pending.push_front(job);
                        break;
                    }
                }
            }
        }
        out.len()
    }
}

/// Pulls arrivals from a channel fed by an external producer thread; the
/// stream ends when every [`Sender`](channel::Sender) is dropped.
#[derive(Debug)]
pub struct ChannelSource {
    rx: channel::Receiver<JobSpec>,
    /// An arrival pulled while batching that fell outside the batch's
    /// release span; it leads the next batch instead.
    lookahead: Option<JobSpec>,
}

/// An unbounded arrival channel: feed [`JobSpec`]s through the sender (from
/// any thread) and hand the [`ChannelSource`] to a
/// [`ShardPool`](crate::ShardPool). Senders are responsible for
/// nondecreasing release order; the pool clamps stragglers (counting them)
/// rather than erroring.
pub fn channel_source() -> (channel::Sender<JobSpec>, ChannelSource) {
    let (tx, rx) = channel::unbounded();
    (tx, ChannelSource { rx, lookahead: None })
}

impl ArrivalSource for ChannelSource {
    fn next_arrival(&mut self) -> Option<JobSpec> {
        self.lookahead.take().or_else(|| self.rx.recv().ok())
    }

    fn next_batch(&mut self, max: usize, span: Time, out: &mut Vec<JobSpec>) -> usize {
        // Block for the batch's first arrival, then absorb whatever the
        // producer already queued — never wait for a batch to fill.
        let Some(first) = self.next_arrival() else {
            return 0;
        };
        let cutoff = first.release.saturating_add(span);
        out.push(first);
        while out.len() < max {
            let Some(job) = self.rx.try_recv() else {
                break;
            };
            if job.release <= cutoff {
                out.push(job);
            } else {
                self.lookahead = Some(job);
                break;
            }
        }
        out.len()
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
        let mut got = Vec::new();
        while let Some(spec) = src.next_arrival() {
            got.push(spec);
        }
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
        assert_eq!(a.next_arrival().unwrap().release, 0);

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
        let mut src = GeneratorSource::new(&scenario, 1.5, 25, 9);
        assert_eq!(src.remaining(), 25);
        let mut releases = Vec::new();
        while let Some(spec) = src.next_arrival() {
            assert!(spec.graph.n() >= 1);
            releases.push(spec.release);
        }
        assert_eq!(releases.len(), 25);
        assert!(releases.windows(2).all(|w| w[0] <= w[1]), "{releases:?}");
    }

    #[test]
    fn generator_is_reproducible() {
        let scenario = Scenario::service(1);
        let collect = |seed| {
            let mut src = GeneratorSource::new(&scenario, 0.5, 12, seed);
            std::iter::from_fn(move || src.next_arrival()).collect::<Vec<_>>()
        };
        assert_eq!(collect(4), collect(4));
    }

    #[test]
    fn replay_batches_respect_max_and_release_span() {
        let releases = [0, 0, 0, 2, 2, 5];
        let inst = Instance::new(
            releases.iter().map(|&release| JobSpec { graph: chain(2), release }).collect(),
        );
        // span 0: only same-release bursts coalesce.
        let mut src = ReplaySource::from_instance(&inst);
        let mut sizes = Vec::new();
        let mut out = Vec::new();
        while src.next_batch(16, 0, &mut out) > 0 {
            sizes.push(out.len());
            out.clear();
        }
        assert_eq!(sizes, vec![3, 2, 1]);
        // span 2 merges [0,2] but not 5; max caps the first batch.
        let mut src = ReplaySource::from_instance(&inst);
        let mut out = Vec::new();
        assert_eq!(src.next_batch(4, 2, &mut out), 4);
        assert_eq!(out.last().unwrap().release, 2);
        out.clear();
        assert_eq!(src.next_batch(4, 2, &mut out), 1);
        out.clear();
        assert_eq!(src.next_batch(4, 2, &mut out), 1);
        assert_eq!(out[0].release, 5);
        out.clear();
        assert_eq!(src.next_batch(4, 2, &mut out), 0);
    }

    #[test]
    fn batching_yields_the_same_stream_as_single_arrivals() {
        let scenario = Scenario::service(1);
        let single: Vec<JobSpec> = {
            let mut src = GeneratorSource::new(&scenario, 1.5, 40, 7);
            std::iter::from_fn(move || src.next_arrival()).collect()
        };
        let mut batched = Vec::new();
        let mut src = GeneratorSource::new(&scenario, 1.5, 40, 7);
        let mut out = Vec::new();
        while src.next_batch(8, 3, &mut out) > 0 {
            assert!(out.len() <= 8);
            let first = out[0].release;
            assert!(out.iter().all(|j| j.release <= first + 3), "span violated");
            batched.append(&mut out);
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn channel_batches_never_block_and_keep_stragglers() {
        let (tx, mut src) = channel_source();
        for release in [1, 1, 4] {
            tx.send(JobSpec { graph: chain(2), release }).unwrap();
        }
        let mut out = Vec::new();
        // Span 0 stops at release 4, which becomes the lookahead...
        assert_eq!(src.next_batch(8, 0, &mut out), 2);
        out.clear();
        // ...and leads the next batch even with the producer idle.
        assert_eq!(src.next_batch(8, 0, &mut out), 1);
        assert_eq!(out[0].release, 4);
        out.clear();
        drop(tx);
        assert_eq!(src.next_batch(8, 0, &mut out), 0);
    }

    #[test]
    fn channel_source_drains_then_ends() {
        let (tx, mut src) = channel_source();
        tx.send(JobSpec { graph: chain(2), release: 0 }).unwrap();
        tx.send(JobSpec { graph: chain(2), release: 1 }).unwrap();
        drop(tx);
        assert_eq!(src.next_arrival().unwrap().release, 0);
        assert_eq!(src.next_arrival().unwrap().release, 1);
        assert!(src.next_arrival().is_none());
    }
}
