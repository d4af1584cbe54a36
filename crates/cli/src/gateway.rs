//! `flowtree-repro gateway` / `submit` — the networked front door.
//!
//! `gateway` owns the pool: it launches the same sharded service `serve`
//! does, but takes arrivals over a socket instead of an in-process source,
//! serving each remote client on its own thread until one of them requests
//! a drain. `submit` is the remote side: it replays a trace (or samples a
//! scenario) through a [`GatewayClient`], absorbing `Busy` backpressure
//! with retries.
//!
//! ```text
//! flowtree-repro gateway service --addr 127.0.0.1:19200 --shards 2 --store results/store
//! flowtree-repro submit service --addr 127.0.0.1:19200 --replay trace.jsonl --drain
//! ```

use crate::scenario::{parse_num, ScenarioOpts};
use crate::serve::{build_config, build_source, finish, serve_flag, ServeOpts, SERVE_FLAG_USAGE};
use flowtree_gateway::{ClientOptions, Gateway, GatewayClient, GatewayConfig, WireCodec};
use flowtree_serve::{serve_metrics_with, MetricsExtra, ShardPool};
use std::sync::Arc;

/// Run `gateway <scenario> --addr HOST:PORT [serve flags]`.
pub fn run_gateway(args: &[String]) -> Result<(), String> {
    let mut s = ServeOpts::default();
    let mut addr: Option<String> = None;
    let mut retry_after_ms: u64 = 50;
    let usage = format!(
        " --addr HOST:PORT [--retry-after-ms N]{}",
        SERVE_FLAG_USAGE.trim_start_matches(' ')
    );
    let o = ScenarioOpts::parse_with("gateway", args, false, &usage, &mut |flag, it| match flag {
        "--addr" => {
            addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone());
            Ok(true)
        }
        "--retry-after-ms" => {
            retry_after_ms = parse_num(it, "--retry-after-ms")?;
            Ok(true)
        }
        other => serve_flag(&mut s, other, it),
    })?;
    let addr = addr.ok_or("gateway needs --addr HOST:PORT (use 127.0.0.1:0 for any port)")?;
    if s.replay.is_some() {
        return Err("gateway takes arrivals over the wire; replay them remotely with \
                    `submit --addr ... --replay FILE`"
            .into());
    }

    let (cfg, swaps) = build_config(&o, &s)?;
    let pool = ShardPool::launch(cfg)?;
    let handle = pool.handle();
    // Queue swaps before the socket opens so `--swap-at 0:SPEC` beats any
    // remote arrival, exactly as in-process serve does.
    for &(at, spec) in &swaps {
        handle.swap(None, at, spec)?;
    }
    let gw = Gateway::launch(
        &addr,
        handle.clone(),
        GatewayConfig { retry_after_ms, ..Default::default() },
    )
    .map_err(|e| format!("gateway {addr}: {e}"))?;
    let metrics_server = match &s.metrics_addr {
        Some(maddr) => {
            let stats = gw.stats();
            let extra: MetricsExtra = Arc::new(move || stats.render_prometheus());
            let srv = serve_metrics_with(maddr, handle.clone(), Some(extra))
                .map_err(|e| format!("metrics endpoint {maddr}: {e}"))?;
            println!("metrics endpoint listening on http://{}/metrics", srv.addr());
            Some(srv)
        }
        None => None,
    };
    println!("gateway listening on {}", gw.addr());

    match gw.wait_drain() {
        Some(client) => println!("drain requested by '{client}' — draining {} shard(s)", s.shards),
        None => println!("gateway stopped without a drain request — draining"),
    }
    let stats = gw.stats();
    gw.shutdown();
    println!(
        "served {} connection(s), {} remote job(s), {} busy repl(y/ies), {} wire error(s)",
        stats.connections_total.load(std::sync::atomic::Ordering::SeqCst),
        stats.remote_jobs.load(std::sync::atomic::Ordering::SeqCst),
        stats.busy_replies.load(std::sync::atomic::Ordering::SeqCst),
        stats.wire_errors.load(std::sync::atomic::Ordering::SeqCst),
    );
    let drained = pool.drain();
    if let Some(srv) = metrics_server {
        srv.shutdown();
    }
    let results = match drained {
        Ok(r) => r,
        Err(e) => {
            // Same post-mortem path as serve: the flight rings outlive a
            // crashed worker, so persist the trail before bailing out.
            if let Some(path) = crate::serve::flight_path(&o, &s) {
                if let Ok(n) = crate::serve::dump_flight(&path, &handle) {
                    eprintln!("recorded {n} flight event(s) to {} before aborting", path.display());
                }
            }
            return Err(e.to_string());
        }
    };
    finish(&o, &s, &results, &handle.ingest(), &handle)
}

/// Run `submit <scenario> --addr HOST:PORT [--replay FILE] [flags]`.
pub fn run_submit(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut rate = 0.5f64;
    let mut batch = 32usize;
    let mut drain = false;
    let mut client_name = "flowtree-submit".to_string();
    let mut codec = WireCodec::Json;
    let mut window: u64 = 1;
    let mut skip = 0usize;
    let mut take = usize::MAX;
    let o = ScenarioOpts::parse_with(
        "submit",
        args,
        false,
        " --addr HOST:PORT [--replay FILE] [--rate R] [--batch N] [--client NAME] \
         [--codec json|bin] [--window N] [--skip N] [--take N] [--drain]",
        &mut |flag, it| {
            match flag {
                "--addr" => addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone()),
                "--replay" => replay = Some(it.next().ok_or("--replay needs a path")?.clone()),
                "--rate" => rate = parse_num(it, "--rate")?,
                "--batch" => batch = parse_num(it, "--batch")?,
                "--client" => {
                    client_name = it.next().ok_or("--client needs a name")?.clone();
                }
                "--codec" => {
                    let name = it.next().ok_or("--codec needs json|bin")?;
                    codec = WireCodec::parse(name)?;
                }
                "--window" => window = parse_num(it, "--window")?,
                "--skip" => skip = parse_num(it, "--skip")?,
                "--take" => take = parse_num(it, "--take")?,
                "--drain" => drain = true,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    let addr = addr.ok_or("submit needs --addr HOST:PORT (a running `gateway`)")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if window == 0 {
        return Err("--window must be at least 1".into());
    }

    // Pump the source dry up front; the wire replay then preserves the
    // source's arrival order exactly, whatever the batch size.
    // `--skip`/`--take` slice the trace so several `submit` processes can
    // split one replay between them (each takes a contiguous, in-order
    // span — the mixed-codec CI smoke uses this).
    let jobs: Vec<_> = build_source(&o, &replay, rate)?.skip(skip).take(take).collect();
    if jobs.is_empty() {
        return Err("the arrival source produced no jobs".into());
    }

    let mut client =
        GatewayClient::connect_with(&addr, &client_name, ClientOptions { codec, window })
            .map_err(|e| format!("connect {addr}: {e}"))?;
    let granted = client.granted();
    let total = jobs.len();
    let stats = client.submit_all(&jobs, batch).map_err(|e| format!("submit: {e}"))?;
    println!(
        "submitted {}/{total} job(s) in {} batch(es) [codec={} window={}]: \
         {} busy retr(y/ies), {} reconnect(s)",
        stats.submitted,
        stats.batches,
        granted.codec.name(),
        granted.window,
        stats.busy_retries,
        stats.reconnects
    );
    let snap = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    println!(
        "pool: {} ({})",
        snap.line,
        if snap.balanced {
            "balanced"
        } else {
            "IMBALANCED"
        }
    );
    if drain {
        client.drain().map_err(|e| format!("drain: {e}"))?;
        println!("drain requested — the gateway run will now settle and persist");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU16, Ordering};

    /// Distinct loopback ports for the end-to-end tests in this module.
    static NEXT_PORT: AtomicU16 = AtomicU16::new(19300);

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn gateway_flags_are_validated_before_any_socket_opens() {
        let err = run_gateway(&argv(&["service"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err =
            run_gateway(&argv(&["service", "--addr", "127.0.0.1:0", "--replay", "trace.jsonl"]))
                .unwrap_err();
        assert!(err.contains("submit"), "{err}");
        let err = run_submit(&argv(&["service"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err =
            run_submit(&argv(&["service", "--addr", "127.0.0.1:1", "--batch", "0"])).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
    }

    #[test]
    fn submit_against_a_dead_gateway_reports_the_address() {
        // Bind-then-drop reserves a port that nothing listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let err = run_submit(&argv(&["service", "--addr", &addr])).unwrap_err();
        assert!(err.contains(&addr), "{err}");
    }

    #[test]
    fn gateway_and_submit_run_end_to_end_with_a_store() {
        let dir = std::env::temp_dir().join(format!("flowtree-gw-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let port = NEXT_PORT.fetch_add(1, Ordering::SeqCst);
        let addr = format!("127.0.0.1:{port}");
        let store = dir.to_str().unwrap().to_string();

        let server = {
            let addr = addr.clone();
            let store = store.clone();
            std::thread::spawn(move || {
                run_gateway(&argv(&[
                    "service", "--addr", &addr, "--shards", "2", "--store", &store, "--run-id",
                    "gw-e2e",
                ]))
            })
        };
        // Submit retries until the gateway's listener is up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let out = run_submit(&argv(&[
                "service", "--addr", &addr, "--jobs", "12", "--rate", "1.0", "--batch", "4",
                "--drain",
            ]));
            match out {
                Ok(()) => break,
                Err(e) if std::time::Instant::now() < deadline && e.contains("connect") => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => panic!("submit failed: {e}"),
            }
        }
        server.join().expect("gateway thread").expect("gateway run");

        let records = flowtree_serve::load_records(&dir).expect("store written");
        assert_eq!(records.len(), 2, "one record per shard");
        assert_eq!(records.iter().map(|r| r.summary.jobs).sum::<usize>(), 12);
        assert!(records.iter().all(|r| r.run_id == "gw-e2e"));
        // The flight dump beside the store shows the network edge.
        let events = flowtree_serve::load_flight_jsonl(&dir.join("flight-gw-e2e.jsonl")).unwrap();
        assert!(
            events.iter().any(|e| e.kind == flowtree_serve::FlightKind::ConnOpen),
            "{events:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
