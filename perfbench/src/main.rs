//! The flowtree benchmark: throughput, schedule quality, memory and
//! open-loop latency on three workloads, and a per-layer cost model in a
//! traced run.
//!
//! ```text
//! perfbench --workload <batch-paper|serve-open|gateway-open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (each `{"value", "unit"}`). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones (see `BENCHMARK.json` at the repository root for both
//! lists; `perfbench/README.md` says why each workload and metric is
//! there). Validity figures (open-loop latency quantiles with their sample
//! counts, generator lateness, poll resolution, host steal, and the raw
//! times before their rescaling to the reference host of [`calib`]) go to
//! standard error as one JSON line.

mod batch;
mod calib;
mod ladder;
mod latency;
mod serve;
mod stats;
mod stream;
mod trace;

use calib::Calibrated;
use stats::{cpu_ticks, iqm, median, peak_rss_mb, quantile, reset_peak_rss, steal_frac};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Tracer, LAYERS};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["batch-paper", "serve-open", "gateway-open"];

/// A phase of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Closed loop: as fast as possible.
    Closed,
    /// Open loop at the workload's `low` rate.
    Low,
    /// Open loop at the workload's `high` rate.
    High,
}

/// What one run does: the seed, and how long each phase may take.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run (s), split across the phases.
    pub seconds: f64,
}

/// Times a run cycles through its phases. Interleaving them spreads each
/// phase over the whole run, so a slow spell of the host touches every
/// metric a little instead of one metric entirely.
const CYCLES: usize = 4;

impl Plan {
    /// The run's phases in order, each with its time budget: [`CYCLES`]
    /// rounds of closed loop (two thirds of the time, since it sets
    /// `jobs_per_s`), `low` (a sixth) and `high` (a sixth). Every slot runs
    /// at least one segment.
    pub fn schedule(&self) -> Vec<(Phase, Duration)> {
        let slot = |share: f64| Duration::from_secs_f64(self.seconds * share / CYCLES as f64);
        (0..CYCLES)
            .flat_map(|_| {
                [
                    (Phase::Closed, slot(4.0 / 6.0)),
                    (Phase::Low, slot(1.0 / 6.0)),
                    (Phase::High, slot(1.0 / 6.0)),
                ]
            })
            .collect()
    }
}

/// Operations attempted and checks failed over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: jobs offered, or experiment requests.
    pub attempted: u64,
    /// Failed checks and refused operations.
    pub failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Count one failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; report them as null so the
            // run is visibly incomplete rather than unparsable.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// p50/p90 latency at each rate: the interquartile mean over segments of
/// each segment's quantile, since a segment's fresh shard threads may land
/// badly on the cores and one such segment would drag a pooled p90. The
/// validity figures beside them pool every segment.
fn latency_metrics(lat: &[Vec<Vec<f64>>; 2], detail: &mut Metrics) {
    for (i, rate) in ["low", "high"].iter().enumerate() {
        let mut per_segment = [Vec::new(), Vec::new()];
        for seg in &lat[i] {
            let mut v = seg.clone();
            v.sort_by(f64::total_cmp);
            per_segment[0].push(quantile(&v, 0.5));
            per_segment[1].push(quantile(&v, 0.9));
        }
        // Latency is a validity figure, not end-to-end: on a shared 2-vCPU
        // host its spread between sets of runs exceeded the largest bound
        // allowed (see README.md).
        detail.push(format!("lat_p50_us.{rate}"), iqm(&per_segment[0]), "us");
        detail.push(format!("lat_p90_us.{rate}"), iqm(&per_segment[1]), "us");
        let mut v: Vec<f64> = lat[i].concat();
        v.sort_by(f64::total_cmp);
        detail.push(format!("lat.samples.{rate}"), v.len() as f64, "count");
        detail.push(format!("lat_p99_us.{rate}"), quantile(&v, 0.99), "us");
        detail.push(format!("lat_max_us.{rate}"), v.last().copied().unwrap_or(f64::NAN), "us");
    }
}

/// Generator lateness and poll resolution.
fn generator_metrics(late_us: &[f64], poll_gap_us: &[f64], detail: &mut Metrics) {
    let mut late = late_us.to_vec();
    late.sort_by(f64::total_cmp);
    detail.push("gen.late_p99_us", quantile(&late, 0.99), "us");
    detail.push("gen.late_max_us", late.last().copied().unwrap_or(0.0), "us");
    let poll = if poll_gap_us.is_empty() {
        0.0
    } else {
        median(poll_gap_us)
    };
    detail.push("gen.poll_interval_us", poll, "us");
}

/// `setup_s` (median) and `jobs_per_s` (interquartile mean) rescaled to the
/// reference host, with their raw values and the host factor as details.
fn timing_metrics(setup: &Calibrated, rates: &Calibrated, e2e: &mut Metrics, detail: &mut Metrics) {
    e2e.push("setup_s", median(&setup.times()), "s");
    e2e.push("jobs_per_s", iqm(&rates.rates()), "jobs/s");
    detail.push("raw.setup_s", median(&setup.raw), "s");
    detail.push("raw.jobs_per_s", iqm(&rates.raw), "jobs/s");
    let factors: Vec<f64> = [&setup.factor[..], &rates.factor[..]].concat();
    detail.push("host.factor", median(&factors), "ratio");
}

/// One pass of the workload: end-to-end metrics plus validity details.
fn run_workload(
    args: &Args,
    plan: &Plan,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Metrics, Metrics), String> {
    let mut e2e = Metrics::default();
    let mut detail = Metrics::default();
    let ticks = cpu_ticks();
    reset_peak_rss();
    match args.workload.as_str() {
        "batch-paper" => {
            let r = batch::run(plan, tr, tally);
            timing_metrics(&r.setup_s, &r.jobs_per_s, &mut e2e, &mut detail);
            latency_metrics(&r.lat_us, &mut detail);
            e2e.push("max_flow_ratio", r.max_flow_ratio, "ratio");
            generator_metrics(&r.late_us, &[], &mut detail);
            e2e.push("peak_rss_mb", peak_rss_mb(), "MB");
        }
        name => {
            let front = if name == "serve-open" {
                serve::Front::Serve
            } else {
                serve::Front::Gateway
            };
            let r = serve::run(front, plan, tr, tally)?;
            timing_metrics(&r.setup_s, &r.jobs_per_s, &mut e2e, &mut detail);
            latency_metrics(&r.lat_us, &mut detail);
            e2e.push("max_flow_ratio", r.ratio, "ratio");
            let late: Vec<f64> = r.outcomes.iter().flat_map(|o| o.late_us.clone()).collect();
            let gaps: Vec<f64> = r.outcomes.iter().flat_map(|o| o.poll_gap_us.clone()).collect();
            generator_metrics(&late, &gaps, &mut detail);
            detail.push("segments", r.outcomes.len() as f64, "count");
            e2e.push("peak_rss_mb", r.peak_rss_mb, "MB");
        }
    }
    detail.push("host.steal_frac", steal_frac(ticks, cpu_ticks()), "ratio");
    Ok((e2e, detail))
}

fn value(m: &Metrics, name: &str) -> f64 {
    m.0.iter().find(|(n, _, _)| n == name).map_or(f64::NAN, |&(_, v, _)| v)
}

/// The traced run: the workload untraced and traced on a shortened plan
/// (for the tracing overhead and the self-time split), then the ladder and
/// the layer probes.
fn traced(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let short = Plan { seed: args.seed, seconds: args.seconds * 0.2 };
    let (plain, _) = run_workload(args, &short, &mut Tracer::new(false, 0), tally)?;
    let mut tr = Tracer::new(true, 200_000);
    let (traced, detail) = run_workload(args, &short, &mut tr, tally)?;

    let mut out = Metrics::default();
    out.push(
        "trace.overhead_frac",
        value(&plain, "jobs_per_s") / value(&traced, "jobs_per_s") - 1.0,
        "ratio",
    );
    let own = tr.self_ns();
    let root = tr.root_ns().max(1) as f64;
    for (layer, ns) in LAYERS.iter().zip(own) {
        out.push(format!("trace.self_frac.{}", layer.name()), ns as f64 / root, "ratio");
    }
    out.push("trace.wall_s", root / 1e9, "s");
    out.push("trace.spans", tr.count() as f64, "count");
    write_spans(&args.workload, &tr);
    for (name, v, unit) in detail.0 {
        if ["gen.", "lat", "host.", "raw."].iter().any(|p| name.starts_with(p)) {
            out.push(name, v, unit);
        }
    }
    ladder::run(args.seed, Duration::from_secs_f64(args.seconds * 0.6), &mut out, tally)?;
    out.push("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio");
    Ok(out)
}

/// Write the traced run's kept spans to `.perfbench/spans-<workload>.jsonl`.
fn write_spans(workload: &str, tr: &Tracer) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            tr.write_jsonl(&mut f)?;
            std::io::Write::flush(&mut f)
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut tally = Tally::default();
    let result = if args.trace {
        traced(&args, &mut tally)
    } else {
        let plan = Plan { seed: args.seed, seconds: args.seconds };
        run_workload(&args, &plan, &mut Tracer::new(false, 0), &mut tally).map(|(e2e, detail)| {
            eprintln!("perfbench detail: {}", detail.json());
            e2e
        })
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for e in &tally.errors {
        eprintln!("perfbench check failed: {e}");
    }
    eprintln!(
        "perfbench: {} seed {} took {:.2} s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
}
