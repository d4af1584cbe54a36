//! Seeded job streams and the job fingerprint used for exactly-once checks.

use flowtree_sim::{Instance, JobSpec, Time};
use std::ops::Range;

/// A stream of random recursive out-trees released in equal ticks.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Jobs in the stream.
    pub jobs: usize,
    /// Subjobs per job.
    pub job_size: usize,
    /// Jobs released together in one tick.
    pub per_tick: usize,
    /// Event-time steps between ticks.
    pub tick_gap: Time,
}

impl Shape {
    /// Number of ticks.
    pub fn ticks(&self) -> usize {
        self.jobs.div_ceil(self.per_tick)
    }

    /// Release of tick `k`.
    pub fn release(&self, k: usize) -> Time {
        k as Time * self.tick_gap
    }

    /// Job indices of tick `k`.
    pub fn tick_jobs(&self, k: usize) -> Range<usize> {
        k * self.per_tick..((k + 1) * self.per_tick).min(self.jobs)
    }

    /// The stream for `seed`.
    pub fn instance(&self, seed: u64) -> Instance {
        let mut rng = flowtree_workloads::rng(seed);
        let jobs = (0..self.jobs)
            .map(|i| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(self.job_size, &mut rng),
                release: self.release(i / self.per_tick),
            })
            .collect();
        Instance::new(jobs)
    }
}

/// 64-bit FNV-1a over a job's release and parent lists: equal for equal
/// jobs, so comparing sorted fingerprint lists compares job multisets.
pub fn fingerprint(spec: &JobSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(spec.release);
    eat(spec.graph.n() as u64);
    for v in spec.graph.nodes() {
        for &p in spec.graph.parents(v) {
            eat(u64::from(p));
        }
        eat(u64::MAX);
    }
    h
}

/// Sorted fingerprints of a job list.
pub fn fingerprints<'a>(jobs: impl IntoIterator<Item = &'a JobSpec>) -> Vec<u64> {
    let mut v: Vec<u64> = jobs.into_iter().map(fingerprint).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let shape = Shape { jobs: 20, job_size: 16, per_tick: 8, tick_gap: 12 };
        let a = shape.instance(3);
        let b = shape.instance(3);
        let c = shape.instance(4);
        assert_eq!(fingerprints(a.jobs()), fingerprints(b.jobs()));
        assert_ne!(fingerprints(a.jobs()), fingerprints(c.jobs()));
        assert_eq!(shape.ticks(), 3);
        assert_eq!(shape.tick_jobs(2), 16..20);
        assert_eq!(a.jobs()[19].release, 24);
    }
}
