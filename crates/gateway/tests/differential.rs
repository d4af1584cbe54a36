//! The gateway's load-bearing guarantees, pinned end to end over real
//! sockets:
//!
//! * remote replay is byte-for-byte the in-process serve path,
//! * N interleaved clients lose no job and leave the ledger balanced,
//! * backpressure arrives as `Busy` (not a stalled handler) and a refused
//!   batch touches no counter,
//! * a client that loses its connection resumes on a fresh one.

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    ClientError, ClientOptions, Gateway, GatewayClient, GatewayConfig, SubmitOutcome, WireCodec,
};
use flowtree_serve::{FlightKind, OverloadPolicy, ServeConfig, ShardPool, StoreRecord};
use flowtree_sim::Instance;
use flowtree_workloads::mix::Scenario;

fn spec(name: &str) -> SchedulerSpec {
    SchedulerSpec::from_name_with_half(name, 1).expect("registry name parses")
}

fn service_instance(jobs: usize, seed: u64) -> Instance {
    Scenario::service(jobs).instantiate(&mut flowtree_workloads::rng(seed))
}

fn pool_config(shards: usize) -> ServeConfig {
    ServeConfig::builder(spec("fifo"), 4)
        .shards(shards)
        .scenario("gateway-diff")
        .build()
        .expect("valid config")
}

/// Drain a pool into store-record JSON lines with pinned identity fields,
/// so the in-process and remote paths are comparable byte for byte.
fn drained_record_lines(pool: ShardPool, shards: usize) -> Vec<String> {
    let results = pool.drain().expect("drain");
    results
        .into_iter()
        .map(|r| {
            let rec = StoreRecord {
                run_id: "diff".to_string(),
                git: "test".to_string(),
                shard: r.shard,
                shards,
                summary: r.summary,
                swaps: r.swaps,
            };
            serde_json::to_string(&rec).expect("record serializes")
        })
        .collect()
}

#[test]
fn remote_replay_matches_in_process_serve_byte_for_byte() {
    let inst = service_instance(24, 7);
    let shards = 2;

    // In-process twin: offer the arrivals directly.
    let twin = ShardPool::launch(pool_config(shards)).expect("launch twin");
    let mut jobs = inst.jobs().to_vec();
    twin.offer_batch(&mut jobs).expect("offer");
    let twin_lines = drained_record_lines(twin, shards);

    // Remote: same arrivals through a socket. Placement is a pure
    // function of arrival order, so batching over the wire is invisible.
    let pool = ShardPool::launch(pool_config(shards)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let addr = gw.addr().to_string();
    let mut client = GatewayClient::with_name(&addr, "diff-test").expect("connect");
    let stats = client.submit_all(inst.jobs(), 5).expect("replay");
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.busy_retries, 0, "ample queues should never push back");
    client.drain().expect("drain request");
    assert_eq!(gw.wait_drain().as_deref(), Some("diff-test"));
    gw.shutdown();
    let remote_lines = drained_record_lines(pool, shards);

    assert_eq!(remote_lines, twin_lines, "remote replay must be bit-for-bit the serve path");
}

#[test]
fn binary_pipelined_replay_matches_in_process_serve_byte_for_byte() {
    let inst = service_instance(48, 13);
    let shards = 2;

    let twin = ShardPool::launch(pool_config(shards)).expect("launch twin");
    let mut jobs = inst.jobs().to_vec();
    twin.offer_batch(&mut jobs).expect("offer");
    let twin_lines = drained_record_lines(twin, shards);

    // Remote: binary codec, 8 submit frames in flight, coalesced acks.
    // Grouped offers are still in arrival order, so placement — and the
    // drained store bytes — cannot move.
    let pool = ShardPool::launch(pool_config(shards)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let addr = gw.addr().to_string();
    let wanted = ClientOptions { codec: WireCodec::Binary, window: 8 };
    let mut client = GatewayClient::connect_with(&addr, "bin-diff", wanted).expect("connect");
    assert_eq!(client.granted(), wanted, "gateway should grant the requested negotiation");
    let stats = client.submit_all(inst.jobs(), 5).expect("replay");
    assert_eq!(stats.submitted, 48);
    assert_eq!(stats.busy_retries, 0, "ample queues should never push back");
    client.drain().expect("drain request");
    assert_eq!(gw.wait_drain().as_deref(), Some("bin-diff"));
    gw.shutdown();
    let remote_lines = drained_record_lines(pool, shards);

    assert_eq!(remote_lines, twin_lines, "binary replay must be bit-for-bit the serve path");
}

#[test]
fn mixed_codec_clients_share_a_gateway_and_match_the_twin() {
    let inst = service_instance(32, 17);
    let shards = 2;

    let twin = ShardPool::launch(pool_config(shards)).expect("launch twin");
    let mut jobs = inst.jobs().to_vec();
    twin.offer_batch(&mut jobs).expect("offer");
    let twin_lines = drained_record_lines(twin, shards);

    // Two clients with both connections open at once, one per codec; they
    // submit disjoint contiguous halves in order, so the byte-for-byte
    // guarantee composes across codecs.
    let pool = ShardPool::launch(pool_config(shards)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let addr = gw.addr().to_string();
    let mut json_side = GatewayClient::connect_with(
        &addr,
        "json-side",
        ClientOptions { codec: WireCodec::Json, window: 1 },
    )
    .expect("connect json");
    let mut bin_side = GatewayClient::connect_with(
        &addr,
        "bin-side",
        ClientOptions { codec: WireCodec::Binary, window: 4 },
    )
    .expect("connect bin");
    let (first, second) = inst.jobs().split_at(16);
    assert_eq!(json_side.submit_all(first, 3).expect("json half").submitted, 16);
    assert_eq!(bin_side.submit_all(second, 7).expect("bin half").submitted, 16);

    let snap = json_side.snapshot().expect("snapshot");
    assert_eq!(snap.offered, 32, "both codecs' jobs are on one ledger");
    assert!(snap.balanced, "mixed codecs must leave the books balanced: {}", snap.line);

    gw.shutdown();
    let remote_lines = drained_record_lines(pool, shards);
    assert_eq!(remote_lines, twin_lines, "mixed-codec replay must match the serve path");
}

#[test]
fn interleaved_clients_lose_no_job_and_balance_the_ledger() {
    let shards = 2;
    // Tiny queues so clients genuinely contend and absorb Busy replies.
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(shards)
        .scenario("gateway-many")
        .queue_cap(4)
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let gw = Gateway::launch(
        "127.0.0.1:0",
        pool.handle(),
        GatewayConfig { retry_after_ms: 2, ..Default::default() },
    )
    .expect("gateway up");
    let addr = gw.addr().to_string();

    let clients = 3;
    let per_client = 20usize;
    // One codec/window shape per client: the contended ledger must stay
    // exact whatever mix of negotiations shares the gateway.
    let shapes = [
        ClientOptions { codec: WireCodec::Json, window: 1 },
        ClientOptions { codec: WireCodec::Binary, window: 4 },
        ClientOptions { codec: WireCodec::Binary, window: 16 },
    ];
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let opts = shapes[c];
            std::thread::spawn(move || {
                let inst = service_instance(per_client, 100 + c as u64);
                let mut client = GatewayClient::connect_with(&addr, &format!("client-{c}"), opts)
                    .expect("connect");
                client.submit_all(inst.jobs(), 3).expect("replay")
            })
        })
        .collect();
    let totals: Vec<_> = workers.into_iter().map(|w| w.join().expect("client thread")).collect();
    let submitted: u64 = totals.iter().map(|s| s.submitted).sum();
    assert_eq!(submitted, (clients * per_client) as u64);

    // The combined books, checked over the wire before draining.
    let mut probe = GatewayClient::with_name(&addr, "probe").expect("connect probe");
    let snap = probe.snapshot().expect("snapshot");
    assert_eq!(snap.offered, submitted, "every accepted batch is on the ledger");
    assert!(snap.balanced, "delivered + dropped == offered must hold: {}", snap.line);

    let open = gw.stats().connections_open.load(std::sync::atomic::Ordering::SeqCst);
    assert!(open >= 1, "probe connection should still be open, saw {open}");
    gw.shutdown();

    let results = pool.drain().expect("drain");
    let admitted: u64 = results.iter().map(|r| r.summary.jobs as u64).sum();
    assert_eq!(admitted, submitted, "no job may be lost across interleaved clients");
}

#[test]
fn full_blocking_pool_answers_busy_without_touching_the_ledger() {
    // One shard, queue of 1: a 3-job batch cannot fit, and under the
    // blocking policy the gateway must shed it as Busy up front.
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .scenario("gateway-busy")
        .queue_cap(1)
        .policy(OverloadPolicy::Block)
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let mut client =
        GatewayClient::with_name(&gw.addr().to_string(), "busy-test").expect("connect");

    let before = pool.ingest();
    let jobs = service_instance(3, 5).jobs().to_vec();
    match client.submit_batch(jobs).expect("exchange") {
        SubmitOutcome::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Busy from a full blocking pool, got {other:?}"),
    }
    assert_eq!(pool.ingest(), before, "a refused batch must not touch the ledger");
    assert_eq!(gw.stats().busy_replies.load(std::sync::atomic::Ordering::SeqCst), 1);

    // The shed is visible on the network edge of the flight recorder,
    // alongside the connection lifecycle.
    let kinds: Vec<FlightKind> = pool.handle().flight().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&FlightKind::Busy),
        "busy shed missing from flight ring: {kinds:?}"
    );
    assert!(kinds.contains(&FlightKind::ConnOpen), "conn-open missing: {kinds:?}");

    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn client_resumes_on_a_fresh_connection_after_a_drop() {
    let pool = ShardPool::launch(pool_config(1)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let mut client =
        GatewayClient::with_name(&gw.addr().to_string(), "resume-test").expect("connect");

    let inst = service_instance(8, 11);
    let (first, rest) = inst.jobs().split_at(4);
    client.submit_all(first, 2).expect("first half");
    client.disconnect();
    let stats = client.submit_all(rest, 2).expect("second half resumes");
    assert_eq!(client.reconnects(), 1, "exactly one redial after the drop");
    assert_eq!(stats.submitted, 4);

    // A plain request on a dead socket surfaces as an I/O-class error,
    // then the next call heals: watermark after disconnect.
    client.disconnect();
    let healed = client.watermark(inst.last_release()).expect("watermark on fresh conn");
    assert_eq!(healed.offered, 0, "a watermark offers no work");
    assert_eq!(client.reconnects(), 2);

    gw.shutdown();
    let results = pool.drain().expect("drain");
    assert_eq!(results[0].summary.jobs, 8, "both halves must land");
}

#[test]
fn binary_client_resumes_mid_stream_and_still_matches_the_twin() {
    let inst = service_instance(24, 19);
    let shards = 2;

    let twin = ShardPool::launch(pool_config(shards)).expect("launch twin");
    let mut jobs = inst.jobs().to_vec();
    twin.offer_batch(&mut jobs).expect("offer");
    let twin_lines = drained_record_lines(twin, shards);

    // A pipelined binary client loses its connection partway through the
    // stream. Every settled frame stays settled and the resumed stream
    // lands the rest exactly once — the drained bytes cannot tell.
    let pool = ShardPool::launch(pool_config(shards)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let mut client = GatewayClient::connect_with(
        &gw.addr().to_string(),
        "bin-resume",
        ClientOptions { codec: WireCodec::Binary, window: 4 },
    )
    .expect("connect");
    let (first, rest) = inst.jobs().split_at(10);
    assert_eq!(client.submit_all(first, 3).expect("first leg").submitted, 10);
    client.disconnect();
    let stats = client.submit_all(rest, 3).expect("resumed leg");
    assert_eq!(client.reconnects(), 1, "exactly one redial after the drop");
    assert_eq!(stats.submitted, 14);
    assert_eq!(
        client.granted(),
        ClientOptions { codec: WireCodec::Binary, window: 4 },
        "the fresh connection renegotiates the same options"
    );

    gw.shutdown();
    let remote_lines = drained_record_lines(pool, shards);
    assert_eq!(remote_lines, twin_lines, "a mid-stream redial must not change the bytes");
}

#[test]
fn hello_is_mandatory_and_version_checked() {
    let pool = ShardPool::launch(pool_config(1)).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let addr = gw.addr().to_string();

    // A client lying about its protocol version, or speaking the previous
    // one (whose ack delta had a different layout), is refused at hello.
    for proto in [99, 1] {
        use flowtree_gateway::{decode, encode, read_frame_into, write_frame, Reply, Request};
        let stream = std::net::TcpStream::connect(&addr).expect("dial");
        let bad = Request::Hello {
            proto,
            client: "liar".into(),
            codec: flowtree_gateway::WireCodec::Json,
            window: 1,
        };
        write_frame(&mut &stream, &encode(&bad)).expect("send");
        let mut payload = Vec::new();
        assert!(read_frame_into(&mut &stream, 1 << 20, &mut payload).expect("reply"), "frame");
        match decode::<Reply>(&payload).expect("parse") {
            Reply::Reject { reason } => {
                assert!(reason.contains(&format!("protocol {proto} ")), "{reason}")
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    // GatewayClient::connect performs the handshake eagerly, so a
    // connection to a dead port fails at construction with Io.
    gw.shutdown();
    pool.drain().expect("drain");
    match GatewayClient::connect(&addr) {
        Err(ClientError::Io(msg)) => assert!(msg.contains(&addr), "{msg}"),
        other => panic!("expected Io against a dead gateway, got {other:?}"),
    }
}
