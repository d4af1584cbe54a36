//! Telemetry integration tests: the metrics endpoint must be a pure
//! observer (bit-identical results with scraping on or off), sharded
//! latency histograms must merge losslessly, and the flight recorder must
//! agree with the authoritative control-plane ledgers (SwapEvents, the
//! ingest ledger's drops).

use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    scrape_metrics, serve_metrics, AtomicHisto, FlightKind, OverloadPolicy, ReplaySource,
    ServeConfig, ShardPool,
};
use flowtree_sim::LogHistogram;
use flowtree_workloads::mix::Scenario;
use proptest::prelude::*;

fn spec(name: &str) -> SchedulerSpec {
    SchedulerSpec::from_name_with_half(name, 1).expect("registry name parses")
}

/// Parse the trailing `x{count}` of a flight-event detail string.
fn detail_count(detail: &str) -> u64 {
    detail
        .rsplit('x')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no xN suffix in {detail:?}"))
}

proptest! {
    /// Splitting a stream of samples across any number of per-shard
    /// histograms and merging the snapshots yields exactly the histogram
    /// of the whole stream — quantiles, mean, max, and count included.
    #[test]
    fn merged_shard_histograms_match_a_single_histogram(
        values in proptest::collection::vec(0u64..=1 << 40, 0..300),
        shards in 1usize..6,
    ) {
        let parts: Vec<AtomicHisto> = (0..shards).map(|_| AtomicHisto::new()).collect();
        let mut whole = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].record(v);
            whole.record(v);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(&p.snapshot());
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert_eq!(merged.mean(), whole.mean());
        prop_assert_eq!(merged.p50(), whole.p50());
        prop_assert_eq!(merged.p90(), whole.p90());
        prop_assert_eq!(merged.p99(), whole.p99());
    }
}

#[test]
fn metrics_endpoint_is_a_pure_observer_of_the_run() {
    // Same instance, same config; one pool additionally serves and is
    // scraped mid-run. Results must be bit-identical: the registry is
    // always on, so the endpoint only adds a reader.
    let inst = Scenario::service(40).instantiate(&mut flowtree_workloads::rng(17));
    let run = |with_endpoint: bool| {
        let cfg = ServeConfig::builder(spec("fifo"), 2)
            .shards(2)
            .scenario("service")
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let server = with_endpoint
            .then(|| serve_metrics("127.0.0.1:0", pool.handle()).expect("bind endpoint"));
        let mut src = ReplaySource::from_instance(&inst);
        pool.run_source(&mut src).expect("stream");
        if let Some(server) = &server {
            let body = scrape_metrics(&server.addr().to_string()).expect("scrape mid-run");
            assert!(body.contains("flowtree_ingest_offered_total 40"), "{body}");
            assert!(body.contains("flowtree_latency_us"), "{body}");
        }
        let results = pool.drain().expect("drain");
        if let Some(server) = server {
            server.shutdown();
        }
        results
    };
    let plain = run(false);
    let scraped = run(true);
    assert_eq!(plain.len(), scraped.len());
    for (a, b) in plain.iter().zip(&scraped) {
        assert_eq!(a.instance, b.instance, "shard {} instances diverge", a.shard);
        assert_eq!(a.report, b.report, "shard {} schedules diverge", a.shard);
        assert_eq!(a.summary, b.summary, "shard {} summaries diverge", a.shard);
    }
}

#[test]
fn metrics_snapshot_accounts_are_consistent_and_latencies_populate() {
    let inst = Scenario::service(30).instantiate(&mut flowtree_workloads::rng(5));
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(2)
        .scenario("service")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let handle = pool.handle();
    pool.run_source(&mut ReplaySource::from_instance(&inst)).expect("stream");
    pool.drain().expect("drain");

    let m = handle.metrics();
    assert_eq!(m.ingest.offered, 30);
    assert_eq!(m.ingest.delivered + m.ingest.dropped, m.ingest.offered);
    let merged = m.arrival_to_complete();
    assert_eq!(merged.count(), 30, "every job completion is latency-stamped");
    for t in &m.telemetry {
        assert_eq!(
            t.arrival_to_admit.count(),
            t.arrival_to_complete.count(),
            "shard {}: every admitted job completed",
            t.shard
        );
        assert!(t.lower_bound > 0, "shard {} lower bound never published", t.shard);
    }
    assert!(m.ratio().expect("drained pool has a ratio") >= 1.0);
    let text = m.render_prometheus();
    assert!(text.contains("flowtree_shard_flow_ratio"), "{text}");
    assert!(text.contains("quantile=\"0.99\""), "{text}");
}

#[test]
fn flight_recorder_swap_events_mirror_the_swap_ledger() {
    let inst = Scenario::service(20).instantiate(&mut flowtree_workloads::rng(9));
    let mid = inst.last_release() / 2;
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(2)
        .scenario("swap")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let handle = pool.handle();
    pool.swap(None, mid, spec("lpf")).expect("queue swap");
    pool.run_source(&mut ReplaySource::from_instance(&inst)).expect("stream");
    let results = pool.drain().expect("drain");

    let flight = handle.flight();
    for r in &results {
        let swaps: Vec<_> = flight
            .iter()
            .filter(|ev| ev.shard == r.shard && ev.kind == FlightKind::Swap)
            .collect();
        assert_eq!(swaps.len(), r.swaps.len(), "shard {} ring missed a swap", r.shard);
        for (ring, ledger) in swaps.iter().zip(&r.swaps) {
            assert_eq!(ring.t, ledger.t, "shard {} swap time diverges", r.shard);
            assert_eq!(
                ring.detail,
                format!("{}→{}", ledger.from, ledger.to),
                "shard {} swap detail diverges",
                r.shard
            );
        }
    }
    // Every shard also records its drain.
    for r in &results {
        assert!(
            flight.iter().any(|ev| ev.shard == r.shard && ev.kind == FlightKind::Drain),
            "shard {} never recorded its drain",
            r.shard
        );
    }
}

#[test]
fn flight_recorder_drop_events_balance_the_drop_ledger() {
    let scenario = Scenario::service(1);
    let mut src = flowtree_serve::GeneratorSource::new(&scenario, 4.0, 2000, 23);
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(2)
        .queue_cap(1)
        .policy(OverloadPolicy::DropNewest)
        .scenario("drop")
        // Room for every event, so no drop record is evicted.
        .flight_capacity(1 << 14)
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let handle = pool.handle();
    pool.run_source(&mut src).expect("stream");
    let ingest = pool.ingest();
    pool.drain().expect("drain");

    assert!(ingest.dropped > 0, "one-slot queues never overflowed: {ingest:?}");
    assert_eq!(ingest.delivered + ingest.dropped, ingest.offered, "{ingest:?}");
    let dropped_by_ring: u64 = handle
        .flight()
        .iter()
        .filter(|ev| ev.kind == FlightKind::Drop)
        .map(|ev| detail_count(&ev.detail))
        .sum();
    assert_eq!(dropped_by_ring, ingest.dropped, "drop ring diverges from the ledger");
}
