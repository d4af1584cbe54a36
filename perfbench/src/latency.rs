//! Wall-clock latency from event-time completions.
//!
//! A shard reports when a job completed only in event time (the step
//! `C` in `ShardResult.report.counters.completions`). The open-loop generator
//! polls `PoolHandle::snapshot()` while it runs and logs each shard's clock
//! `now`; a job completed at step `C` was first *observed* complete at the
//! first poll whose `now` for its shard had reached `C`. Its latency is that
//! poll's wall time minus the job's due time. The gap between polls bounds
//! the resolution, so the log also keeps every poll's time.

use flowtree_sim::Time;

/// Every snapshot poll of one open-loop run.
#[derive(Debug, Clone, Default)]
pub struct PollLog {
    /// Wall time of every poll (ns since the run's epoch), ascending.
    polls_ns: Vec<u64>,
    /// Per shard: the polls at which its clock moved, as
    /// `(wall ns, now)` with `now` strictly increasing. A first-reach
    /// query only ever lands on such a change point, so unchanged polls
    /// need not be stored per shard.
    changes: Vec<Vec<(u64, Time)>>,
}

impl PollLog {
    /// An empty log over `shards` shard clocks.
    pub fn new(shards: usize) -> Self {
        PollLog { polls_ns: Vec::new(), changes: vec![Vec::new(); shards] }
    }

    /// Record one poll taken at `t_ns` that read the shard clocks `now`.
    pub fn record(&mut self, t_ns: u64, now: impl IntoIterator<Item = Time>) {
        self.polls_ns.push(t_ns);
        for (series, now) in self.changes.iter_mut().zip(now) {
            if series.last().is_none_or(|&(_, last)| now > last) {
                series.push((t_ns, now));
            }
        }
    }

    /// Number of polls taken.
    #[cfg(test)]
    pub fn polls(&self) -> usize {
        self.polls_ns.len()
    }

    /// Wall time at which shard `shard` was first seen at or past step
    /// `step`; `None` if no poll saw it there.
    pub fn first_reach(&self, shard: usize, step: Time) -> Option<u64> {
        let series = self.changes.get(shard)?;
        let i = series.partition_point(|&(_, now)| now < step);
        series.get(i).map(|&(t, _)| t)
    }

    /// Gaps between consecutive polls (ns): the observation resolution.
    pub fn gaps_ns(&self) -> Vec<f64> {
        self.polls_ns.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
    }
}

/// One completed job as the drain reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Shard that ran it.
    pub shard: usize,
    /// Event-time completion step.
    pub step: Time,
    /// Wall time (ns since the run's epoch) it was due to be sent.
    pub due_ns: u64,
}

/// Due-to-observed latency (µs) of every completion. Errors if a
/// completion was never observed by a poll, or was observed before it was
/// due — either means the poll log and the drain disagree.
pub fn latencies_us(log: &PollLog, completions: &[Completion]) -> Result<Vec<f64>, String> {
    completions
        .iter()
        .map(|c| {
            let seen = log.first_reach(c.shard, c.step).ok_or_else(|| {
                format!("shard {} completion at step {} never observed", c.shard, c.step)
            })?;
            if seen < c.due_ns {
                return Err(format!(
                    "shard {} step {} observed at {seen} ns, before its due time {} ns",
                    c.shard, c.step, c.due_ns
                ));
            }
            Ok((seen - c.due_ns) as f64 / 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    /// A synthetic run: two shards whose clocks advance one step per
    /// 10 µs poll (shard 1 lags shard 0 by 3 steps), and 100 jobs on
    /// known steps, so every latency and quantile is known in closed form.
    #[test]
    fn extractor_matches_known_quantiles() {
        let mut log = PollLog::new(2);
        for p in 0..200u64 {
            log.record(p * 10_000, [p, p.saturating_sub(3)]);
        }
        assert_eq!(log.polls(), 200);
        // Shard 1 repeats step 0 for its first four polls: only the first
        // is a change point, and it is where step 0 is first reached.
        assert_eq!(log.first_reach(1, 0), Some(0));
        assert_eq!(log.first_reach(1, 1), Some(40_000));
        assert_eq!(log.first_reach(0, 250), None);

        // Job k completes on shard k%2 at step k+1, due at time 0, so its
        // latency is the wall time of its first-reach poll.
        let jobs: Vec<Completion> = (0..100u64)
            .map(|k| Completion { shard: (k % 2) as usize, step: k + 1, due_ns: 0 })
            .collect();
        let mut lat = latencies_us(&log, &jobs).unwrap();
        assert_eq!(lat.len(), 100);
        // Shard 0 jobs (even k) are seen at poll k+1, shard 1 jobs (odd k)
        // at poll k+4: latency in µs is 10 × that poll index.
        for (k, &l) in lat.iter().enumerate() {
            let poll = if k % 2 == 0 { k + 1 } else { k + 4 };
            assert_eq!(l, 10.0 * poll as f64, "job {k}");
        }
        lat.sort_by(f64::total_cmp);
        assert_eq!(quantile(&lat, 0.0), 10.0);
        assert_eq!(quantile(&lat, 1.0), 1030.0);
        // In units of 10 µs the even jobs give {1, 3, …, 99} and the odd
        // ones {5, 7, …, 103}: 50 values are ≤ 51 and 52 are ≤ 53, so the
        // 50th and 51st sorted latencies are 510 and 530 µs.
        assert_eq!(quantile(&lat, 0.5), 520.0);

        // The resolution is the poll gap: uniformly 10 µs here.
        let gaps = log.gaps_ns();
        assert_eq!(gaps.len(), 199);
        assert!(gaps.iter().all(|&g| g == 10_000.0));
    }

    #[test]
    fn extractor_times_from_due_not_send() {
        let mut log = PollLog::new(1);
        log.record(1_000, [0]);
        log.record(5_000, [7]);
        // Due at 500 ns, completes at step 7: first seen at 5 µs.
        let lat = latencies_us(&log, &[Completion { shard: 0, step: 7, due_ns: 500 }]).unwrap();
        assert_eq!(lat, vec![4.5]);
    }

    #[test]
    fn extractor_rejects_unobserved_or_early() {
        let mut log = PollLog::new(1);
        log.record(1_000, [3]);
        let never = Completion { shard: 0, step: 4, due_ns: 0 };
        assert!(latencies_us(&log, &[never]).is_err());
        let early = Completion { shard: 0, step: 3, due_ns: 2_000 };
        assert!(latencies_us(&log, &[early]).is_err());
        let bad_shard = Completion { shard: 1, step: 1, due_ns: 0 };
        assert!(latencies_us(&log, &[bad_shard]).is_err());
    }
}
