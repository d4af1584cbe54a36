//! Hostile-bytes tests: whatever arrives on the socket, the gateway
//! replies with a typed `Reject` or closes cleanly — it never panics a
//! shard, and other connections keep being served. Plus a property test
//! over the frame codec itself.

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    decode, decode_submit_into, encode, encode_submit_batch_into, read_frame_into, write_frame,
    FrameError, Gateway, GatewayClient, GatewayConfig, Reply, Request, SubmitOutcome, WireCodec,
    PROTOCOL_VERSION,
};
use flowtree_serve::{ServeConfig, ShardPool};
use flowtree_sim::JobSpec;
use flowtree_workloads::mix::Scenario;
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;

/// The frame limit [`launch`] configures.
const MAX_FRAME: usize = 1 << 16;

fn launch() -> (ShardPool, Gateway) {
    let cfg = ServeConfig::builder(SchedulerSpec::from_name_with_half("fifo", 1).expect("spec"), 2)
        .scenario("gateway-hostile")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let gw = Gateway::launch(
        "127.0.0.1:0",
        pool.handle(),
        GatewayConfig { max_frame: MAX_FRAME, ..Default::default() },
    )
    .expect("gateway up");
    (pool, gw)
}

fn dial(gw: &Gateway) -> TcpStream {
    TcpStream::connect(gw.addr()).expect("dial")
}

fn hello(stream: &TcpStream) {
    let req = Request::hello("hostile");
    assert!(matches!(req, Request::Hello { proto, .. } if proto == PROTOCOL_VERSION));
    write_frame(&mut &*stream, &encode(&req)).expect("send hello");
    let mut payload = Vec::new();
    assert!(read_frame_into(&mut &*stream, 1 << 20, &mut payload).expect("reply"), "frame");
    assert!(matches!(decode::<Reply>(&payload).expect("parse"), Reply::Welcome { .. }));
}

fn expect_reject(stream: &TcpStream, needle: &str) {
    let mut payload = Vec::new();
    assert!(read_frame_into(&mut &*stream, 1 << 20, &mut payload).expect("reply"), "frame");
    match decode::<Reply>(&payload).expect("parse") {
        Reply::Reject { reason } => {
            assert!(reason.contains(needle), "reject says {reason:?}, wanted {needle:?}")
        }
        other => panic!("expected reject, got {other:?}"),
    }
}

/// The pool behind the hostile connection still serves honest clients.
fn assert_pool_alive(gw: &Gateway) {
    let mut client =
        GatewayClient::with_name(&gw.addr().to_string(), "honest").expect("honest connect");
    let jobs = Scenario::service(2)
        .instantiate(&mut flowtree_workloads::rng(3))
        .jobs()
        .to_vec();
    match client.submit_batch(jobs).expect("honest submit") {
        SubmitOutcome::Accepted { delta, .. } => assert_eq!(delta.offered, 2),
        other => panic!("honest client refused: {other:?}"),
    }
    assert!(client.snapshot().expect("snapshot").balanced);
}

#[test]
fn invalid_json_and_unknown_types_get_rejects_on_a_live_connection() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    write_frame(&mut &stream, b"this is not json").expect("send");
    expect_reject(&stream, "bad request");

    write_frame(&mut &stream, b"{\"type\":\"frobnicate\"}").expect("send");
    expect_reject(&stream, "unknown request type");

    write_frame(&mut &stream, b"{\"type\":\"watermark\"}").expect("send");
    expect_reject(&stream, "missing field");

    // The same connection still works after three rejects.
    let req = Request::Watermark { t: 5 };
    write_frame(&mut &stream, &encode(&req)).expect("send");
    let mut payload = Vec::new();
    assert!(read_frame_into(&mut &stream, 1 << 20, &mut payload).expect("reply"), "frame");
    assert!(matches!(decode::<Reply>(&payload).expect("parse"), Reply::Ack { .. }));

    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn requests_before_hello_are_rejected() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    write_frame(&mut &stream, &encode(&Request::Snapshot)).expect("send");
    expect_reject(&stream, "hello");
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_closes() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    // Announce a payload over the gateway's 64 KiB limit; send nothing.
    (&stream).write_all(&(1u32 << 20).to_be_bytes()).expect("send length");
    expect_reject(&stream, "exceeds");
    // Frame sync is gone, so the gateway hangs up.
    assert!(!read_frame_into(&mut &stream, 1 << 20, &mut Vec::new()).expect("clean close"));

    assert_eq!(gw.stats().wire_errors.load(std::sync::atomic::Ordering::SeqCst), 1);
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

/// The frame limit is inclusive and the same on both read paths: a payload
/// of exactly the limit is read by `read_frame_into` and handled by a live
/// gateway; one byte more is refused by both, with the same error text.
#[test]
fn frame_limit_is_inclusive_and_the_same_for_reader_and_gateway() {
    // A well-formed watermark padded with JSON whitespace to the limit.
    let mut at_limit = encode(&Request::Watermark { t: 5 });
    at_limit.resize(MAX_FRAME, b' ');
    let over = FrameError::Oversized { len: MAX_FRAME + 1, max: MAX_FRAME };
    let over_header = (MAX_FRAME as u32 + 1).to_be_bytes();

    let mut framed = Vec::new();
    write_frame(&mut framed, &at_limit).expect("frame at the limit");
    let mut got = Vec::new();
    assert!(read_frame_into(&mut &framed[..], MAX_FRAME, &mut got).expect("limit is inclusive"));
    assert_eq!(got, at_limit);
    assert_eq!(read_frame_into(&mut &over_header[..], MAX_FRAME, &mut got), Err(over.clone()));

    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);
    write_frame(&mut &stream, &at_limit).expect("send");
    assert!(read_frame_into(&mut &stream, 1 << 20, &mut got).expect("reply"), "frame");
    assert!(matches!(decode::<Reply>(&got).expect("parse"), Reply::Ack { .. }));
    (&stream).write_all(&over_header).expect("send length");
    assert!(read_frame_into(&mut &stream, 1 << 20, &mut got).expect("reply"), "frame");
    assert_eq!(
        decode::<Reply>(&got).expect("parse"),
        Reply::Reject { reason: over.to_string() }
    );
    assert!(!read_frame_into(&mut &stream, 1 << 20, &mut got).expect("clean close"));

    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn truncated_frames_close_the_connection_without_panicking_a_shard() {
    let (pool, gw) = launch();
    {
        let stream = dial(&gw);
        hello(&stream);
        // Announce 100 bytes, deliver 3, hang up.
        (&stream).write_all(&100u32.to_be_bytes()).expect("send length");
        (&stream).write_all(b"abc").expect("send partial");
    }
    // Wait for the handler to notice the dead connection.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while gw.stats().wire_errors.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "handler never saw the truncation");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_pool_alive(&gw);
    gw.shutdown();
    let results = pool.drain().expect("no shard panicked");
    assert!(results.iter().all(|r| r.summary.invariants_clean));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of payloads written as frames reads back identically,
    /// and the concatenated stream ends on a clean boundary.
    #[test]
    fn frame_codec_roundtrips_any_payload_sequence(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255u8, 0..300), 0..10),
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        let mut got = Vec::new();
        for p in &payloads {
            prop_assert!(read_frame_into(&mut r, 1 << 20, &mut got).unwrap());
            prop_assert_eq!(&got, p);
        }
        prop_assert!(!read_frame_into(&mut r, 1 << 20, &mut got).unwrap());
    }

    /// Any job batch survives the binary codec unchanged, and stages
    /// exactly the same jobs the JSON encoding of the batch stages —
    /// the two codecs are interchangeable on the wire.
    #[test]
    fn binary_codec_roundtrips_any_job_batch(
        shapes in proptest::collection::vec((1usize..40, 0u64..1_000_000u64), 0..12),
        seed in 0u64..1000,
    ) {
        let mut rng = flowtree_workloads::rng(seed);
        let jobs: Vec<JobSpec> = shapes
            .iter()
            .map(|&(n, release)| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(n, &mut rng),
                release,
            })
            .collect();
        let mut bin = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut bin);
        let mut staged = Vec::new();
        prop_assert_eq!(decode_submit_into(&bin, &mut staged).unwrap(), Some(jobs.len()));
        prop_assert_eq!(&staged, &jobs);

        let mut json = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Json, &mut json);
        let mut staged_json = Vec::new();
        prop_assert_eq!(decode_submit_into(&json, &mut staged_json).unwrap(), Some(jobs.len()));
        prop_assert_eq!(staged_json, staged);
    }
}
