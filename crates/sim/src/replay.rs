//! Parse [`JsonlTrace`](crate::probe::JsonlTrace) streams back into events,
//! schedules, and metrics.
//!
//! A trace is self-contained for schedule reconstruction: the `start` record
//! carries the machine size, each `step` record carries that step's picks,
//! and `release`/`complete` records carry per-job times. [`Replay`] rebuilds
//! a [`Schedule`] and per-job flows from those records, and
//! [`Replay::gantt`] renders the reconstructed schedule through the regular
//! [`gantt`](crate::gantt) renderer.

use crate::gantt::{self, GanttOptions};
use crate::instance::Instance;
use crate::schedule::Schedule;
use flowtree_dag::{JobId, NodeId, Time};
use serde::Value;

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Run started on `m` processors over `jobs` jobs.
    Start {
        /// Machine size.
        m: usize,
        /// Number of jobs in the instance.
        jobs: usize,
    },
    /// A job was released.
    Release {
        /// Release time.
        t: Time,
        /// The released job.
        job: JobId,
    },
    /// One simulation step with its validated picks and summary stats.
    Step {
        /// Step start time (the picks run during `(t, t+1]`).
        t: Time,
        /// Dispatched subjobs.
        picks: Vec<(JobId, NodeId)>,
        /// Idle processors this step.
        idle: usize,
        /// Ready-pool size the scheduler chose from.
        ready: usize,
    },
    /// A compact fast-forwarded idle gap: `steps` consecutive all-idle
    /// steps starting at `t0` (emitted only by
    /// [`JsonlTrace::compact_idle`](crate::probe::JsonlTrace::compact_idle)
    /// mode; the default stream spells gaps out as empty `step` records).
    IdleGap {
        /// First idle step.
        t0: Time,
        /// Number of consecutive idle steps.
        steps: Time,
    },
    /// A job ran its last subjob and completes at `t`.
    Complete {
        /// Completion time `C_i`.
        t: Time,
        /// The completed job.
        job: JobId,
    },
    /// The run finished with the given schedule horizon.
    Finish {
        /// Total steps simulated.
        horizon: Time,
    },
}

/// Errors produced while parsing or validating a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A line was not valid JSON or lacked required fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The stream did not begin with a `start` record.
    MissingStart,
    /// Records after parsing were inconsistent (e.g. step times out of
    /// order, job ids out of range).
    Inconsistent(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            ReplayError::MissingStart => write!(f, "trace does not begin with a start record"),
            ReplayError::Inconsistent(msg) => write!(f, "inconsistent trace: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

fn field<'v>(v: &'v Value, key: &str, line: usize) -> Result<&'v Value, ReplayError> {
    v.get(key)
        .ok_or_else(|| ReplayError::Malformed { line, reason: format!("missing field `{key}`") })
}

fn uint_field(v: &Value, key: &str, line: usize) -> Result<u64, ReplayError> {
    field(v, key, line)?.as_u64().ok_or_else(|| ReplayError::Malformed {
        line,
        reason: format!("field `{key}` is not an unsigned integer"),
    })
}

/// Parse one JSONL line into a [`TraceEvent`].
fn parse_line(text: &str, line: usize) -> Result<TraceEvent, ReplayError> {
    let v: Value = serde_json::from_str(text)
        .map_err(|e| ReplayError::Malformed { line, reason: e.to_string() })?;
    let ev = field(&v, "ev", line)?
        .as_str()
        .ok_or_else(|| ReplayError::Malformed { line, reason: "`ev` is not a string".into() })?
        .to_string();
    match ev.as_str() {
        "start" => Ok(TraceEvent::Start {
            m: uint_field(&v, "m", line)? as usize,
            jobs: uint_field(&v, "jobs", line)? as usize,
        }),
        "release" => Ok(TraceEvent::Release {
            t: uint_field(&v, "t", line)?,
            job: JobId(uint_field(&v, "job", line)? as u32),
        }),
        "step" => {
            let picks_v = field(&v, "picks", line)?.as_array().ok_or_else(|| {
                ReplayError::Malformed { line, reason: "`picks` is not an array".into() }
            })?;
            let mut picks = Vec::with_capacity(picks_v.len());
            for p in picks_v {
                let pair = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    ReplayError::Malformed { line, reason: "pick is not a [job, node] pair".into() }
                })?;
                let j = pair[0].as_u64().ok_or_else(|| ReplayError::Malformed {
                    line,
                    reason: "pick job is not an unsigned integer".into(),
                })?;
                let n = pair[1].as_u64().ok_or_else(|| ReplayError::Malformed {
                    line,
                    reason: "pick node is not an unsigned integer".into(),
                })?;
                picks.push((JobId(j as u32), NodeId(n as u32)));
            }
            Ok(TraceEvent::Step {
                t: uint_field(&v, "t", line)?,
                picks,
                idle: uint_field(&v, "idle", line)? as usize,
                ready: uint_field(&v, "ready", line)? as usize,
            })
        }
        "idle" => Ok(TraceEvent::IdleGap {
            t0: uint_field(&v, "t0", line)?,
            steps: uint_field(&v, "steps", line)?,
        }),
        "complete" => Ok(TraceEvent::Complete {
            t: uint_field(&v, "t", line)?,
            job: JobId(uint_field(&v, "job", line)? as u32),
        }),
        "finish" => Ok(TraceEvent::Finish { horizon: uint_field(&v, "horizon", line)? }),
        other => Err(ReplayError::Malformed { line, reason: format!("unknown event `{other}`") }),
    }
}

/// Parse a whole trace (blank lines ignored) into its event sequence.
pub fn parse(trace: &str) -> Result<Vec<TraceEvent>, ReplayError> {
    trace
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l, i + 1))
        .collect()
}

/// A validated, replayed trace: the reconstructed schedule plus per-job
/// release/completion times as recorded in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Machine size from the `start` record.
    pub m: usize,
    /// Number of jobs from the `start` record.
    pub num_jobs: usize,
    /// The schedule reconstructed from the `step` records.
    pub schedule: Schedule,
    /// Per-job release times from `release` records.
    pub releases: Vec<Option<Time>>,
    /// Per-job completion times from `complete` records.
    pub completions: Vec<Option<Time>>,
}

impl Replay {
    /// Replay a parsed event sequence.
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, ReplayError> {
        let (m, num_jobs) = match events.first() {
            Some(&TraceEvent::Start { m, jobs }) => (m, jobs),
            _ => return Err(ReplayError::MissingStart),
        };
        let mut schedule = Schedule::new(m);
        let mut releases = vec![None; num_jobs];
        let mut completions = vec![None; num_jobs];
        let mut next_t: Time = 0;
        let mut finished: Option<Time> = None;

        let job_slot = |v: &mut Vec<Option<Time>>, job: JobId| -> Result<usize, ReplayError> {
            let i = job.index();
            if i >= v.len() {
                return Err(ReplayError::Inconsistent(format!(
                    "job {job} out of range (jobs = {})",
                    v.len()
                )));
            }
            Ok(i)
        };

        for ev in &events[1..] {
            match ev {
                TraceEvent::Start { .. } => {
                    return Err(ReplayError::Inconsistent("duplicate start record".into()));
                }
                TraceEvent::Release { t, job } => {
                    let i = job_slot(&mut releases, *job)?;
                    if releases[i].replace(*t).is_some() {
                        return Err(ReplayError::Inconsistent(format!("job {job} released twice")));
                    }
                }
                TraceEvent::Step { t, picks, .. } => {
                    if *t != next_t {
                        return Err(ReplayError::Inconsistent(format!(
                            "step t={t}, expected t={next_t}"
                        )));
                    }
                    if picks.len() > m {
                        return Err(ReplayError::Inconsistent(format!(
                            "step t={t} has {} picks on {m} processors",
                            picks.len()
                        )));
                    }
                    schedule.extend_step(picks);
                    next_t += 1;
                }
                TraceEvent::IdleGap { t0, steps } => {
                    if *t0 != next_t {
                        return Err(ReplayError::Inconsistent(format!(
                            "idle gap t0={t0}, expected t={next_t}"
                        )));
                    }
                    schedule.push_empty_steps(*steps);
                    next_t += steps;
                }
                TraceEvent::Complete { t, job } => {
                    let i = job_slot(&mut completions, *job)?;
                    if completions[i].replace(*t).is_some() {
                        return Err(ReplayError::Inconsistent(format!(
                            "job {job} completed twice"
                        )));
                    }
                }
                TraceEvent::Finish { horizon } => {
                    finished = Some(*horizon);
                }
            }
        }

        if let Some(h) = finished {
            if h != next_t {
                return Err(ReplayError::Inconsistent(format!(
                    "finish horizon {h} != {next_t} replayed steps"
                )));
            }
        }

        Ok(Replay { m, num_jobs, schedule, releases, completions })
    }

    /// Parse and replay a JSONL trace in one step.
    // Deliberately shadows `FromStr::from_str`: callers always want the
    // concrete `ReplayError`, and `"…".parse::<Replay>()` reads worse.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(trace: &str) -> Result<Self, ReplayError> {
        Replay::from_events(&parse(trace)?)
    }

    /// Per-job flows `C_i - r_i` as recorded by the trace's `release` /
    /// `complete` events (`None` for jobs missing either record).
    pub fn flows(&self) -> Vec<Option<Time>> {
        self.completions
            .iter()
            .zip(&self.releases)
            .map(|(c, r)| Some(c.as_ref()? - r.as_ref()?))
            .collect()
    }

    /// Maximum recorded flow (`None` when no job has both records).
    pub fn max_flow(&self) -> Option<Time> {
        self.flows().into_iter().flatten().max()
    }

    /// Render the reconstructed schedule as an ASCII Gantt chart through
    /// [`gantt::render`]; the instance supplies job structure for labels.
    pub fn gantt(&self, instance: &Instance, opts: &GanttOptions) -> String {
        gantt::render(instance, &self.schedule, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::instance::JobSpec;
    use crate::probe::JsonlTrace;
    use crate::scheduler::testing::Greedy;
    use flowtree_dag::builder::{chain, star};

    fn traced_run(inst: &Instance, m: usize) -> (String, crate::engine::RunReport) {
        let mut trace = JsonlTrace::new(Vec::new());
        let report = Engine::new(m).with_probe(&mut trace).run(inst, &mut Greedy).unwrap();
        let bytes = trace.finish().unwrap();
        (String::from_utf8(bytes).unwrap(), report)
    }

    fn two_job_instance() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(4), release: 1 },
        ])
    }

    #[test]
    fn replay_reconstructs_schedule_exactly() {
        let inst = two_job_instance();
        let (trace, report) = traced_run(&inst, 2);
        let replay = Replay::from_str(&trace).unwrap();
        assert_eq!(replay.m, 2);
        assert_eq!(replay.num_jobs, 2);
        assert_eq!(replay.schedule, report.schedule);
        replay.schedule.verify(&inst).unwrap();
    }

    #[test]
    fn replay_flows_match_flow_stats() {
        let inst = two_job_instance();
        let (trace, report) = traced_run(&inst, 2);
        let replay = Replay::from_str(&trace).unwrap();
        let flows: Vec<Time> = replay.flows().into_iter().map(Option::unwrap).collect();
        assert_eq!(flows, report.stats.flows);
        assert_eq!(replay.max_flow(), Some(report.stats.max_flow));
    }

    #[test]
    fn replay_gantt_matches_direct_render() {
        let inst = two_job_instance();
        let (trace, report) = traced_run(&inst, 2);
        let replay = Replay::from_str(&trace).unwrap();
        let opts = GanttOptions::default();
        assert_eq!(replay.gantt(&inst, &opts), gantt::render(&inst, &report.schedule, &opts));
    }

    #[test]
    fn every_trace_line_is_valid_json() {
        let inst = two_job_instance();
        let (trace, _) = traced_run(&inst, 3);
        for line in trace.lines() {
            serde_json::from_str::<Value>(line).unwrap();
        }
        assert!(trace.lines().next().unwrap().contains("\"ev\":\"start\""));
        assert!(trace.lines().last().unwrap().contains("\"ev\":\"finish\""));
    }

    #[test]
    fn compact_idle_trace_replays_identically() {
        // A sparse instance: the gap between the chain(2) finishing and the
        // star(4) arriving is fast-forwarded.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: star(4), release: 40 },
        ]);
        let mut compact = JsonlTrace::new(Vec::new()).compact_idle(true);
        let report = Engine::new(2).with_probe(&mut compact).run(&inst, &mut Greedy).unwrap();
        let compact_text = String::from_utf8(compact.finish().unwrap()).unwrap();
        assert!(compact_text.contains("\"ev\":\"idle\""));
        // Far fewer lines than the stepwise form, same replay result.
        let (default_text, _) = traced_run(&inst, 2);
        assert!(compact_text.lines().count() < default_text.lines().count());
        let a = Replay::from_str(&compact_text).unwrap();
        let b = Replay::from_str(&default_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.schedule, report.schedule);
        assert_eq!(a.max_flow(), Some(report.stats.max_flow));
    }

    #[test]
    fn misplaced_idle_gap_is_rejected() {
        let bad = "{\"ev\":\"start\",\"m\":1,\"jobs\":1}\n{\"ev\":\"idle\",\"t0\":3,\"steps\":5}";
        assert!(matches!(Replay::from_str(bad), Err(ReplayError::Inconsistent(_))));
        let missing = "{\"ev\":\"start\",\"m\":1,\"jobs\":1}\n{\"ev\":\"idle\",\"t0\":0}";
        assert!(matches!(Replay::from_str(missing), Err(ReplayError::Malformed { .. })));
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert_eq!(Replay::from_str(""), Err(ReplayError::MissingStart));
        assert!(matches!(
            Replay::from_str("{\"ev\":\"step\"}"),
            Err(ReplayError::Malformed { .. })
        ));
        assert!(matches!(
            Replay::from_str("not json"),
            Err(ReplayError::Malformed { line: 1, .. })
        ));
        // Out-of-order steps.
        let bad = "{\"ev\":\"start\",\"m\":1,\"jobs\":1}\n{\"ev\":\"step\",\"t\":3,\"picks\":[],\"idle\":1,\"ready\":0}";
        assert!(matches!(Replay::from_str(bad), Err(ReplayError::Inconsistent(_))));
    }
}
