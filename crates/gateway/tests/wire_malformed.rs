//! Hostile-bytes tests: whatever arrives on the socket, the gateway
//! replies with a typed `Reject` or closes cleanly — it never panics a
//! shard, and other connections keep being served. Plus a property test
//! over the frame codec itself.

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    decode, decode_reply, decode_request, decode_submit_into, encode, encode_submit_batch_into,
    read_frame_into, write_frame, FrameError, Gateway, GatewayClient, GatewayConfig, Reply,
    Request, SubmitOutcome, WireCodec, PROTOCOL_VERSION,
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

#[test]
fn deeply_nested_frames_are_rejected_before_and_after_hello() {
    let (pool, gw) = launch();
    // 10 000 levels: a 20 KB frame that would overflow a recursive parser's
    // stack. Top level, inside a submit, and inside an unknown field.
    let nested = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let frames = [
        nested.clone(),
        format!(
            "{{\"type\":\"submit\",\"job\":{{\"graph\":{{\"n\":1,\"edges\":[]}},\
             \"release\":0,\"x\":{nested}}}}}"
        ),
        format!("{{\"type\":\"submit-batch\",\"x\":{nested},\"jobs\":[]}}"),
        format!("{{\"x\":{nested},\"type\":\"watermark\",\"t\":1}}"),
    ];
    let stream = dial(&gw);
    write_frame(&mut &stream, frames[0].as_bytes()).expect("send");
    expect_reject(&stream, "nesting");
    hello(&stream);
    for frame in &frames {
        write_frame(&mut &stream, frame.as_bytes()).expect("send");
        expect_reject(&stream, "nesting");
    }
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

/// A batch refused part-way through decoding offers none of its jobs, on
/// either codec: the valid jobs before the bad one never reach the pool.
#[test]
fn a_rejected_batch_offers_none_of_its_jobs() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);
    let good = Scenario::service(2)
        .instantiate(&mut flowtree_workloads::rng(3))
        .jobs()
        .to_vec();
    // Binary: two valid jobs, then a two-node cycle the graph build refuses.
    let mut bin = Vec::new();
    encode_submit_batch_into(&good, WireCodec::Binary, &mut bin);
    bin[2..6].copy_from_slice(&3u32.to_le_bytes());
    bin.extend_from_slice(&0u64.to_le_bytes());
    bin.extend_from_slice(&2u32.to_le_bytes());
    bin.extend_from_slice(&2u32.to_le_bytes());
    for (u, v) in [(0u32, 1u32), (1, 0)] {
        bin.extend_from_slice(&u.to_le_bytes());
        bin.extend_from_slice(&v.to_le_bytes());
    }
    // JSON: the same two jobs, then a job with no release.
    let mut json = Vec::new();
    encode_submit_batch_into(&good, WireCodec::Json, &mut json);
    json.truncate(json.len() - 2);
    json.extend_from_slice(b",{\"graph\":{\"n\":1,\"edges\":[]}}]}");
    for (frame, needle) in [(&bin, "cycle"), (&json, "missing field")] {
        write_frame(&mut &stream, frame).expect("send");
        expect_reject(&stream, needle);
    }
    // The next good frame on the same connection offers its own jobs only.
    let mut good_frame = Vec::new();
    encode_submit_batch_into(&good, WireCodec::Json, &mut good_frame);
    write_frame(&mut &stream, &good_frame).expect("send");
    let mut payload = Vec::new();
    assert!(read_frame_into(&mut &stream, 1 << 20, &mut payload).expect("reply"), "frame");
    match decode::<Reply>(&payload).expect("parse") {
        Reply::Ack { delta, .. } => {
            assert_eq!(delta.offered, 2, "a rejected batch leaked jobs into the pool")
        }
        other => panic!("expected ack, got {other:?}"),
    }
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

// ------------------------------------------- direct JSON reader vs the oracle

/// A JSON document, rendered with the variations the direct reader must
/// read exactly as the `Value` path does.
#[derive(Clone, Debug)]
enum J {
    /// A number, literal or string token, already rendered.
    Raw(String),
    Arr(Vec<J>),
    /// Members keyed by their unescaped name.
    Obj(Vec<(String, J)>),
}

/// Renders [`J`] documents, varying whitespace, key order, escapes,
/// unknown and duplicate members, and the spelling of zero.
struct Render {
    rng: flowtree_workloads::Rng,
}

impl Render {
    fn pick(&mut self, p: f64) -> bool {
        rand::Rng::gen_bool(&mut self.rng, p)
    }

    fn below(&mut self, n: usize) -> usize {
        rand::Rng::gen_range(&mut self.rng, 0..n)
    }

    fn num(&mut self, n: u64) -> J {
        J::Raw(match n {
            0 if self.pick(0.3) => "-0".to_string(),
            _ if self.pick(0.05) => format!("00{n}"),
            _ => n.to_string(),
        })
    }

    /// A string token for `s`, its characters sometimes `\u`-escaped.
    fn string(&mut self, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            if self.pick(0.15) {
                out.push_str(&format!("\\u{:04X}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    fn tag(&mut self, tag: &str) -> J {
        J::Raw(self.string(tag))
    }

    /// A small value of any kind for unknown and duplicate members.
    fn junk(&mut self, depth: usize) -> J {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => J::Raw("-7".into()),
            1 => J::Raw("1.5e3".into()),
            2 => J::Raw("\"x\\n\\u00e9\\\"y\"".into()),
            3 => J::Raw(["true", "false", "null"][self.below(3)].into()),
            4 => J::Raw("99999999999999999999".into()),
            5 => J::Raw("\"jobs\"".into()),
            6 => J::Arr((0..self.below(3)).map(|_| self.junk(depth - 1)).collect()),
            _ => J::Obj(
                (0..self.below(3))
                    .map(|i| (["job", "edges", "t", "n"][i].to_string(), self.junk(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Shuffle an object's members, then add unknown ones and duplicates
    /// of known ones after their originals (the first occurrence wins).
    fn vary(&mut self, mut members: Vec<(String, J)>) -> J {
        for i in (1..members.len()).rev() {
            members.swap(i, self.below(i + 1));
        }
        if self.pick(0.3) {
            let at = self.below(members.len() + 1);
            members.insert(at, ("extra".to_string(), self.junk(3)));
        }
        if !members.is_empty() && self.pick(0.3) {
            let i = self.below(members.len());
            let key = members[i].0.clone();
            let at = i + 1 + self.below(members.len() - i);
            members.insert(at, (key, self.junk(2)));
        }
        J::Obj(members)
    }

    fn job(&mut self, job: &JobSpec) -> J {
        let edges = job
            .graph
            .edges()
            .into_iter()
            .map(|(u, v)| J::Arr(vec![self.num(u64::from(u)), self.num(u64::from(v))]))
            .collect();
        let n = self.num(job.graph.n() as u64);
        let graph = self.vary(vec![("n".into(), n), ("edges".into(), J::Arr(edges))]);
        let release = self.num(job.release);
        self.vary(vec![("graph".into(), graph), ("release".into(), release)])
    }

    fn ws(&mut self, out: &mut String) {
        if self.pick(0.2) {
            out.push_str([" ", "\n", "\t ", "\r\n  "][self.below(4)]);
        }
    }

    fn render(&mut self, j: &J, out: &mut String) {
        match j {
            J::Raw(s) => out.push_str(s),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.render(item, out);
                    self.ws(out);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    let key = self.string(key);
                    out.push_str(&key);
                    self.ws(out);
                    out.push(':');
                    self.ws(out);
                    self.render(value, out);
                    self.ws(out);
                }
                out.push('}');
            }
        }
    }

    fn frame(&mut self, j: &J) -> Vec<u8> {
        let mut out = String::new();
        self.ws(&mut out);
        self.render(j, &mut out);
        self.ws(&mut out);
        out.into_bytes()
    }
}

/// A job that sits in the staging vec before every decode: it must still be
/// there, alone, whenever nothing was staged.
fn sentinel() -> JobSpec {
    JobSpec {
        graph: flowtree_workloads::trees::random_recursive_tree(3, &mut flowtree_workloads::rng(1)),
        release: 77,
    }
}

/// The direct readers and the `Value` oracle agree on `frame`: both accept
/// it with the same message (and stage the same jobs), or both refuse it.
fn agree(frame: &[u8]) {
    let oracle = decode::<Request>(frame);
    let direct = decode_request(frame);
    match (&direct, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        _ => {
            panic!("direct {direct:?} vs oracle {oracle:?} on {:?}", String::from_utf8_lossy(frame))
        }
    }
    let mut staged = vec![sentinel()];
    let got = decode_submit_into(frame, &mut staged);
    match (&oracle, got) {
        (Ok(Request::Submit { job }), Ok(Some(1))) => {
            assert_eq!(staged[1..], *std::slice::from_ref(job))
        }
        (Ok(Request::SubmitBatch { jobs }), Ok(Some(n))) => {
            assert_eq!(n, jobs.len());
            assert_eq!(staged[1..], jobs[..]);
        }
        (Ok(Request::Submit { .. } | Request::SubmitBatch { .. }), got) => {
            panic!("submit staged as {got:?}")
        }
        (Ok(_), got) => assert_eq!(got, Ok(None)),
        (Err(_), Ok(Some(n))) => panic!("staged {n} jobs from a frame the oracle refuses"),
        (Err(_), _) => {}
    }
    if !matches!(oracle, Ok(Request::Submit { .. } | Request::SubmitBatch { .. })) {
        assert_eq!(staged, [sentinel()], "a frame that stages nothing touched the vec");
    }
    let oracle = decode::<Reply>(frame);
    let direct = decode_reply(frame);
    match (&direct, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        _ => {
            panic!("direct {direct:?} vs oracle {oracle:?} on {:?}", String::from_utf8_lossy(frame))
        }
    }
}

/// Truncations and single-byte edits of `frame`: accept/reject agreement,
/// no panic.
fn agree_when_damaged(frame: &[u8], r: &mut Render) {
    for _ in 0..4 {
        let cut = r.below(frame.len() + 1);
        agree(&frame[..cut]);
        let mut flipped = frame.to_vec();
        if !flipped.is_empty() {
            let at = r.below(flipped.len());
            flipped[at] = b"{}[],:\"\\ 0-.e9aZn\x00\xFF"[r.below(19)];
            agree(&flipped);
        }
    }
}

/// Both paths refuse nesting past `serde_json::MAX_DEPTH` at the same
/// depth, wherever in a hot message it sits.
#[test]
fn nesting_limit_is_the_same_on_both_paths() {
    let job = "{\"graph\":{\"n\":1,\"edges\":[]},\"release\":0,\"x\":";
    let delta =
        "{\"offered\":1,\"delivered\":1,\"dropped\":0,\"reordered\":0,\"wm_skipped\":0,\"x\":";
    for levels in serde_json::MAX_DEPTH - 8..=serde_json::MAX_DEPTH + 1 {
        let deep = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        for frame in [
            format!("{{\"x\":{deep},\"type\":\"watermark\",\"t\":1}}"),
            format!("{{\"type\":\"submit\",\"job\":{job}{deep}}}}}"),
            format!("{{\"type\":\"submit-batch\",\"jobs\":[{job}{deep}}}]}}"),
            format!("{{\"jobs\":[{job}{deep}}}],\"type\":\"submit-batch\"}}"),
            format!("{{\"type\":\"ack\",\"seq\":1,\"delta\":{delta}{deep}}}}}"),
            format!("{{\"type\":\"busy\",\"retry_after_ms\":1,\"x\":{deep}}}"),
        ] {
            agree(frame.as_bytes());
            let parsed = serde_json::from_str::<serde_json::Value>(&frame);
            if levels < serde_json::MAX_DEPTH - 6 {
                assert!(parsed.is_ok(), "{levels} levels must parse");
            } else if levels >= serde_json::MAX_DEPTH {
                assert!(parsed.unwrap_err().to_string().contains("nesting"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Request frames — submit, submit-batch, watermark — in every
    /// spelling the renderer knows decode exactly as the `Value` path
    /// decodes them, and damaged copies are refused by both or neither.
    #[test]
    fn direct_json_reader_agrees_with_the_value_oracle(
        shapes in proptest::collection::vec((1usize..12, 0u64..50), 0..6),
        kind in 0usize..3,
        t in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let mut r = Render { rng: flowtree_workloads::rng(seed) };
        let jobs: Vec<JobSpec> = shapes
            .iter()
            .map(|&(n, release)| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(n, &mut r.rng),
                release,
            })
            .collect();
        let doc = match kind {
            0 if !jobs.is_empty() => {
                let (tag, job) = (r.tag("submit"), r.job(&jobs[0]));
                r.vary(vec![("type".into(), tag), ("job".into(), job)])
            }
            0 | 1 => {
                let tag = r.tag("submit-batch");
                let all = J::Arr(jobs.iter().map(|j| r.job(j)).collect());
                r.vary(vec![("type".into(), tag), ("jobs".into(), all)])
            }
            _ => {
                let (tag, t) = (r.tag("watermark"), r.num(t));
                r.vary(vec![("type".into(), tag), ("t".into(), t)])
            }
        };
        let frame = r.frame(&doc);
        prop_assert!(decode::<Request>(&frame).is_ok(), "renderer made a bad frame");
        agree(&frame);
        agree_when_damaged(&frame, &mut r);
    }

    /// The same for the client's hot replies, `ack` and `busy`.
    #[test]
    fn direct_json_reply_reader_agrees_with_the_value_oracle(
        fields in proptest::collection::vec(0u64..4, 7),
        busy in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut r = Render { rng: flowtree_workloads::rng(seed) };
        let mut members = Vec::new();
        if busy == 1 {
            members.push(("type".to_string(), r.tag("busy")));
            members.push(("retry_after_ms".to_string(), r.num(fields[0])));
        } else {
            members.push(("type".to_string(), r.tag("ack")));
            members.push(("seq".to_string(), r.num(fields[0])));
            let names = ["offered", "delivered", "dropped", "reordered", "wm_skipped"];
            let delta = names.iter().zip(&fields[1..]).map(|(k, &v)| (k.to_string(), r.num(v))).collect();
            let delta = r.vary(delta);
            members.push(("delta".to_string(), delta));
        }
        if r.pick(0.7) {
            members.push(("frames".to_string(), r.num(fields[6])));
        }
        let doc = r.vary(members);
        let frame = r.frame(&doc);
        prop_assert!(decode::<Reply>(&frame).is_ok(), "renderer made a bad frame");
        agree(&frame);
        agree_when_damaged(&frame, &mut r);
    }
}

// ------------------------------------------------ resource bounds per client

/// A client that pipelines requests and never reads a reply fills the
/// socket buffers and then stalls in its own writes: the gateway stops
/// reading from it rather than buffering replies without limit. Shutting
/// the gateway down still returns while that connection's thread is
/// blocked in a write.
#[test]
fn a_client_that_never_reads_its_replies_stalls_and_shutdown_still_returns() {
    /// Bytes the client may send before the test calls the buffering
    /// unbounded; socket buffers alone hold a few MiB.
    const LIMIT: usize = 64 << 20;
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);
    let mut payload = encode(&Request::Metrics);
    payload.resize(4 << 10, b' ');
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    stream
        .set_write_timeout(Some(std::time::Duration::from_millis(500)))
        .expect("write timeout");
    let mut sent = 0usize;
    let stalled = loop {
        if sent >= LIMIT {
            break false;
        }
        match (&stream).write_all(&frame) {
            Ok(()) => sent += frame.len(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break true
            }
            Err(e) => panic!("write failed after {sent} bytes: {e}"),
        }
    };
    assert!(
        stalled,
        "sent {sent} bytes without a stall: the gateway buffers replies unboundedly"
    );

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gw.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown hung behind a connection blocked in a write");
    drop(stream);
    pool.drain().expect("drain");
}

/// At most `MAX_CONNECTIONS` connections are served at once. One more is
/// refused with a reject and closed; once a served one leaves, a new
/// connection is welcomed again.
#[test]
fn connections_past_the_cap_are_refused_until_one_leaves() {
    use flowtree_gateway::server::MAX_CONNECTIONS;
    use std::sync::atomic::Ordering;
    let (pool, gw) = launch();
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let stream = dial(&gw);
            hello(&stream);
            stream
        })
        .collect();
    assert_eq!(gw.stats().connections_open.load(Ordering::SeqCst), MAX_CONNECTIONS as u64);

    // Read before writing: the reject comes unasked.
    let extra = dial(&gw);
    extra
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    expect_reject(&extra, "too many connections");
    assert!(!read_frame_into(&mut &extra, 1 << 20, &mut Vec::new()).expect("clean close"));
    assert_eq!(gw.stats().connections_open.load(Ordering::SeqCst), MAX_CONNECTIONS as u64);

    drop(open.pop());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let welcomed = loop {
        assert!(std::time::Instant::now() < deadline, "a freed slot was never reused");
        let stream = dial(&gw);
        write_frame(&mut &stream, &encode(&Request::hello("late"))).expect("send hello");
        let mut payload = Vec::new();
        // A reject (the closed connection's thread has not ended yet) or a
        // reset means: try again.
        if let Ok(true) = read_frame_into(&mut &stream, 1 << 20, &mut payload) {
            if let Ok(Reply::Welcome { .. }) = decode::<Reply>(&payload) {
                break stream;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(gw.stats().connections_open.load(Ordering::SeqCst), MAX_CONNECTIONS as u64);
    drop(welcomed);
    drop(open);
    gw.shutdown();
    pool.drain().expect("drain");
}

/// A job announces its node count as a bare `u32`, so a tiny frame could
/// ask the graph build for gigabytes. Both codecs refuse a frame whose jobs
/// announce more than `MAX_FRAME_NODES` nodes in total, before sizing any
/// graph, and the gateway answers with a reject naming the budget.
#[test]
fn node_counts_over_the_frame_budget_are_refused_on_both_codecs() {
    use flowtree_gateway::MAX_FRAME_NODES;
    let budget = MAX_FRAME_NODES.to_string();
    let binary = |ns: &[u32]| {
        let mut frame = vec![0u8, 1];
        frame.extend_from_slice(&(ns.len() as u32).to_le_bytes());
        for &n in ns {
            frame.extend_from_slice(&0u64.to_le_bytes());
            frame.extend_from_slice(&n.to_le_bytes());
            frame.extend_from_slice(&0u32.to_le_bytes());
        }
        frame
    };
    // One job over the budget, and two that exceed it only together (the
    // first is a single node, so nothing large is built either way).
    let over = MAX_FRAME_NODES as u32 + 1;
    let huge = u32::MAX;
    let frames = [
        binary(&[huge]),
        binary(&[1, MAX_FRAME_NODES as u32]),
        format!("{{\"type\":\"submit\",\"job\":{{\"graph\":{{\"n\":{over},\"edges\":[]}},\"release\":0}}}}")
            .into_bytes(),
        // `n` after the edges.
        format!("{{\"type\":\"submit\",\"job\":{{\"release\":0,\"graph\":{{\"edges\":[],\"n\":{huge}}}}}}}")
            .into_bytes(),
        format!(
            "{{\"type\":\"submit-batch\",\"jobs\":[{{\"graph\":{{\"n\":1,\"edges\":[]}},\"release\":0}},\
             {{\"graph\":{{\"edges\":[],\"n\":{}}},\"release\":0}}]}}",
            MAX_FRAME_NODES
        )
        .into_bytes(),
    ];
    for frame in &frames {
        let mut staged = vec![sentinel()];
        let err = decode_submit_into(frame, &mut staged).expect_err("over the node budget");
        assert!(err.contains(&budget), "error {err:?} does not name the budget");
        assert_eq!(staged, [sentinel()], "a refused frame staged jobs");
    }

    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);
    for frame in &frames {
        write_frame(&mut &stream, frame).expect("send");
        expect_reject(&stream, &budget);
    }
    assert_pool_alive(&gw);
    gw.shutdown();
    let results = pool.drain().expect("drain");
    assert!(results.iter().all(|r| r.summary.invariants_clean));
}
