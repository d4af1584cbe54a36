//! `flowtree-repro metrics` — one-shot scrape of a running serve
//! endpoint, pretty-printed or raw.
//!
//! ```text
//! flowtree-repro metrics 127.0.0.1:9187            # pretty tables
//! flowtree-repro metrics 127.0.0.1:9187 --raw      # exposition text as-is
//! flowtree-repro metrics 127.0.0.1:9187 --check    # exit 1 on ledger drift
//! ```
//!
//! `--check` asserts the ingest ledger balances
//! (`delivered + dropped == offered`) and that the latency summaries are
//! populated — the same invariants the serve smoke in `scripts/ci.sh` pins
//! mid-run.

use flowtree_analysis::Table;
use flowtree_serve::scrape_metrics;
use std::collections::BTreeMap;

/// One parsed exposition sample: metric name, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (e.g. `flowtree_ingest_offered_total`).
    pub name: String,
    /// Label pairs in source order (e.g. `[("shard", "0")]`).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Run `metrics ADDR [--raw] [--check] [--retry N]`.
pub fn run(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: flowtree-repro metrics ADDR [--raw] [--check] [--retry N]";
    let mut addr: Option<&str> = None;
    let mut raw = false;
    let mut check = false;
    let mut retries: u32 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--raw" => raw = true,
            "--check" => check = true,
            "--retry" => retries = crate::scenario::parse_num(&mut it, "--retry")?,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown flag '{other}' (expected --raw, --check, or --retry N)"
                ))
            }
            other => {
                if addr.replace(other).is_some() {
                    return Err("metrics takes exactly one ADDR".to_string());
                }
            }
        }
    }
    let addr = addr.ok_or(USAGE)?;
    let body = scrape_with_retry(addr, retries)?;
    if raw {
        print!("{body}");
    } else {
        print!("{}", render(&parse_exposition(&body)));
    }
    if check {
        check_consistency(&parse_exposition(&body))?;
        println!("metrics consistent");
    }
    Ok(())
}

/// Scrape `addr`, retrying retryable failures (connection refused, I/O)
/// up to `retries` extra attempts ~100 ms apart — enough for CI to race a
/// serve/gateway endpoint that is still binding. Malformed responses fail
/// immediately: re-asking a broken endpoint does not unbreak it.
fn scrape_with_retry(addr: &str, retries: u32) -> Result<String, String> {
    let mut attempt = 0;
    loop {
        match scrape_metrics(addr) {
            Ok(body) => return Ok(body),
            Err(e) if e.is_retryable() && attempt < retries => {
                attempt += 1;
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Err(e) => {
                let tries = if attempt > 0 {
                    format!(" after {} attempt(s)", attempt + 1)
                } else {
                    String::new()
                };
                return Err(format!("{e}{tries}"));
            }
        }
    }
}

/// Parse Prometheus text exposition into samples, skipping comments.
pub fn parse_exposition(body: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let rest = rest.trim_end_matches('}');
                let labels = rest
                    .split(',')
                    .filter_map(|pair| {
                        let (k, v) = pair.split_once('=')?;
                        Some((k.to_string(), v.trim_matches('"').to_string()))
                    })
                    .collect();
                (name.to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        out.push(Sample { name, labels, value });
    }
    out
}

/// Sum of every sample of `name` (0.0 when absent).
fn total(samples: &[Sample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

/// Pretty-print the scrape: an ingest ledger, a per-shard gauge table, and
/// a per-shard latency quantile table.
pub fn render(samples: &[Sample]) -> String {
    let mut out = String::new();
    if let Some(up) = samples.iter().find(|s| s.name == "flowtree_uptime_seconds") {
        out.push_str(&format!("uptime: {:.1}s\n\n", up.value));
    }

    let mut ingest = Table::new("ingest counters".to_string(), &["counter", "value"]);
    for s in samples {
        if let Some(short) =
            s.name.strip_prefix("flowtree_ingest_").and_then(|n| n.strip_suffix("_total"))
        {
            ingest.row(vec![short.to_string(), format!("{}", s.value as u64)]);
        }
    }
    out.push_str(&ingest.to_markdown());

    // shard -> (gauge short name -> value)
    let mut shards: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    for s in samples {
        let Some(short) = s.name.strip_prefix("flowtree_shard_") else {
            continue;
        };
        let Some(shard) = s.label("shard").and_then(|v| v.parse().ok()) else {
            continue;
        };
        shards.entry(shard).or_default().insert(short.to_string(), s.value);
    }
    let cols = ["now", "admitted", "dispatched", "queue_len", "violations", "flow_ratio"];
    let mut gauges = Table::new(
        "per-shard gauges".to_string(),
        &["shard", "now", "admitted", "dispatched", "queue", "violations", "ratio ≤"],
    );
    for (shard, vals) in &shards {
        let mut row = vec![shard.to_string()];
        for c in cols {
            row.push(match vals.get(c) {
                Some(v) if c == "flow_ratio" => format!("{v:.3}"),
                Some(v) => format!("{}", *v as u64),
                None => "-".to_string(),
            });
        }
        gauges.row(row);
    }
    out.push_str(&gauges.to_markdown());

    let mut lat = Table::new(
        "latency summaries (µs)".to_string(),
        &["shard", "stage", "p50", "p90", "p99", "max", "count"],
    );
    // (shard, stage) -> (quantile label -> value)
    let mut stages: BTreeMap<(u64, String), BTreeMap<String, f64>> = BTreeMap::new();
    for s in samples {
        if !s.name.starts_with("flowtree_latency_us") {
            continue;
        }
        let Some(shard) = s.label("shard").and_then(|v| v.parse().ok()) else {
            continue;
        };
        let Some(stage) = s.label("stage") else {
            continue;
        };
        let key = match (s.name.as_str(), s.label("quantile")) {
            ("flowtree_latency_us", Some(q)) => format!("q{q}"),
            ("flowtree_latency_us_max", _) => "max".to_string(),
            ("flowtree_latency_us_count", _) => "count".to_string(),
            _ => continue,
        };
        stages.entry((shard, stage.to_string())).or_default().insert(key, s.value);
    }
    for ((shard, stage), vals) in &stages {
        let cell = |k: &str| {
            vals.get(k).map(|v| format!("{}", *v as u64)).unwrap_or_else(|| "-".to_string())
        };
        lat.row(vec![
            shard.to_string(),
            stage.clone(),
            cell("q0.5"),
            cell("q0.9"),
            cell("q0.99"),
            cell("max"),
            cell("count"),
        ]);
    }
    out.push_str(&lat.to_markdown());
    out
}

/// The `--check` assertions: ledger balance and populated latency
/// summaries. Returns a description of the first violated invariant.
pub fn check_consistency(samples: &[Sample]) -> Result<(), String> {
    let offered = total(samples, "flowtree_ingest_offered_total");
    let delivered = total(samples, "flowtree_ingest_delivered_total");
    let dropped = total(samples, "flowtree_ingest_dropped_total");
    if delivered + dropped != offered {
        return Err(format!(
            "ledger drift: delivered({delivered}) + dropped({dropped}) != offered({offered})"
        ));
    }
    let completions = samples
        .iter()
        .filter(|s| {
            s.name == "flowtree_latency_us_count" && s.label("stage") == Some("arrival_to_complete")
        })
        .map(|s| s.value)
        .sum::<f64>();
    if delivered > 0.0 && completions == 0.0 {
        return Err("latency summaries empty despite delivered jobs".to_string());
    }
    let p99s = samples
        .iter()
        .filter(|s| s.name == "flowtree_latency_us" && s.label("quantile") == Some("0.99"))
        .count();
    if completions > 0.0 && p99s == 0 {
        return Err("no p99 latency gauges despite recorded completions".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_body() -> String {
        "# HELP flowtree_uptime_seconds x\n\
         flowtree_uptime_seconds 1.5\n\
         flowtree_ingest_offered_total 10\n\
         flowtree_ingest_delivered_total 8\n\
         flowtree_ingest_dropped_total 2\n\
         flowtree_shard_now{shard=\"0\"} 42\n\
         flowtree_shard_flow_ratio{shard=\"0\"} 1.25\n\
         flowtree_latency_us{stage=\"arrival_to_complete\",shard=\"0\",quantile=\"0.99\"} 120\n\
         flowtree_latency_us_count{stage=\"arrival_to_complete\",shard=\"0\"} 8\n"
            .to_string()
    }

    #[test]
    fn exposition_parses_names_labels_and_values() {
        let samples = parse_exposition(&sample_body());
        assert_eq!(total(&samples, "flowtree_ingest_offered_total"), 10.0);
        let lat = samples
            .iter()
            .find(|s| s.name == "flowtree_latency_us")
            .expect("latency sample");
        assert_eq!(lat.label("quantile"), Some("0.99"));
        assert_eq!(lat.label("stage"), Some("arrival_to_complete"));
        assert_eq!(lat.value, 120.0);
    }

    #[test]
    fn consistent_scrape_passes_and_renders() {
        let samples = parse_exposition(&sample_body());
        check_consistency(&samples).expect("consistent");
        let text = render(&samples);
        assert!(text.contains("uptime: 1.5s"), "{text}");
        assert!(text.contains("offered"), "{text}");
        assert!(text.contains("arrival_to_complete"), "{text}");
    }

    #[test]
    fn drifted_ledgers_fail_the_check() {
        let body = sample_body()
            .replace("flowtree_ingest_delivered_total 8", "flowtree_ingest_delivered_total 7");
        let err = check_consistency(&parse_exposition(&body)).unwrap_err();
        assert!(err.contains("ledger drift"), "{err}");
        let body = sample_body().replace(
            "flowtree_latency_us_count{stage=\"arrival_to_complete\",shard=\"0\"} 8",
            "flowtree_latency_us_count{stage=\"arrival_to_complete\",shard=\"0\"} 0",
        );
        let err = check_consistency(&parse_exposition(&body)).unwrap_err();
        assert!(err.contains("latency summaries empty"), "{err}");
    }

    #[test]
    fn flag_errors_are_clean() {
        let bad = vec!["--nope".to_string()];
        assert!(run(&bad).unwrap_err().contains("unknown flag"));
        assert!(run(&[]).unwrap_err().contains("usage"));
        let two = vec!["a:1".to_string(), "b:2".to_string()];
        assert!(run(&two).unwrap_err().contains("exactly one"));
        let no_n = vec!["127.0.0.1:1".to_string(), "--retry".to_string()];
        assert!(run(&no_n).unwrap_err().contains("--retry"));
    }

    #[test]
    fn refused_scrapes_name_the_address_and_count_retries() {
        // Bind-then-drop reserves a port nothing listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = scrape_with_retry(&addr, 0).unwrap_err();
        assert!(err.contains(&addr), "{err}");
        assert!(err.contains("refused"), "{err}");
        assert!(!err.contains("attempt"), "no retry note on a single try: {err}");
        let err = scrape_with_retry(&addr, 2).unwrap_err();
        assert!(err.contains("after 3 attempt(s)"), "{err}");
    }
}
