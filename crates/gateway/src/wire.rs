//! The wire protocol: length-framed messages, JSON by default with an
//! optional binary codec for the hot path.
//!
//! Every frame is a 4-byte big-endian payload length followed by that many
//! payload bytes — one message per frame, the framing layer playing the
//! role JSONL's newline plays on disk. By default the payload is a UTF-8
//! JSON `"type"`-tagged object ([`Request`] client→gateway, [`Reply`]
//! gateway→client) so either side can reject an unknown tag without losing
//! frame sync.
//!
//! A connection may negotiate [`WireCodec::Binary`] in its hello: the four
//! hot messages (`submit`/`submit-batch`, `watermark`, `ack`, `busy`) then
//! travel in a compact fixed layout whose first byte is
//! [`BINARY_MARKER`] (`0x00`, never a valid JSON start), so JSON and
//! binary frames coexist on one stream and every control message stays
//! JSON. Decoders sniff the marker per frame — negotiation governs what a
//! peer *sends*, never what it accepts.
//!
//! Each hot message has one writer and one reader per codec. Under JSON
//! the writers print the bytes directly and the reader parses them directly,
//! with no [`Value`] tree in between; the `Value`-tree impls of [`Request`]
//! and [`Reply`] serve the control messages and are the oracle the direct
//! reader is tested against.
//!
//! Error surfaces are deliberately split: [`FrameError`] is about the byte
//! stream (truncation, an oversized length prefix, socket errors) and
//! usually ends the connection, while a payload that frames correctly but
//! parses badly is answered with [`Reply::Reject`] and the connection
//! lives on.

use flowtree_dag::{GraphBuilder, NodeId, Time};
use flowtree_serve::IngestStats;
use flowtree_sim::JobSpec;
use serde::Value;
use serde_json::MAX_DEPTH;
use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};

/// Wire protocol version carried in [`Request::Hello`]; the gateway refuses
/// clients that speak a different one.
pub const PROTOCOL_VERSION: u32 = 2;

/// Default ceiling on one frame's payload (4 MiB). A length prefix above
/// the limit is a protocol error, not an allocation request — the reader
/// refuses it before reserving memory.
pub const MAX_FRAME: usize = 4 << 20;

/// Most nodes the jobs of one submit frame may announce, summed (4 Mi). A
/// job's node count costs the sender four bytes, but building its graph
/// allocates several arrays of that length, so both codecs refuse a frame
/// over this budget before they size any graph.
pub const MAX_FRAME_NODES: usize = MAX_FRAME;

/// First payload byte of every binary-codec message. `0x00` can never open
/// a JSON document, so a decoder distinguishes the codecs per frame.
pub const BINARY_MARKER: u8 = 0x00;

/// Binary opcode: a submit batch (requests).
const OP_SUBMIT_BATCH: u8 = 1;
/// Binary opcode: a cumulative acknowledgement (replies).
const OP_ACK: u8 = 2;
/// Binary opcode: a watermark (requests).
const OP_WATERMARK: u8 = 3;
/// Binary opcode: a busy push-back (replies).
const OP_BUSY: u8 = 4;

/// Codec for the hot wire messages, negotiated per connection in
/// [`Request::Hello`]. Control messages are always JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// UTF-8 JSON payloads (the default; every peer speaks it).
    #[default]
    Json,
    /// Fixed-layout little-endian payloads for the hot messages.
    Binary,
}

impl WireCodec {
    /// Stable wire/CLI name (`"json"` / `"bin"`).
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "bin",
        }
    }

    /// Parse a wire/CLI name back into the codec.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "json" => Ok(WireCodec::Json),
            "bin" | "binary" => Ok(WireCodec::Binary),
            other => Err(format!("unknown codec '{other}' (expected json|bin)")),
        }
    }
}

impl serde::Serialize for WireCodec {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for WireCodec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        WireCodec::parse(&s).map_err(serde::Error::custom)
    }
}

/// A byte-stream-level framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeded the reader's limit.
    Oversized {
        /// Payload length the prefix announced.
        len: usize,
        /// The reader's configured ceiling.
        max: usize,
    },
    /// The stream ended (EOF or reader gave up) mid-frame.
    Truncated,
    /// An underlying socket error.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Bytes in the length prefix that opens every frame.
pub(crate) const HEADER_LEN: usize = 4;

/// The length prefix announcing a `len`-byte payload.
fn frame_header(len: usize) -> io::Result<[u8; HEADER_LEN]> {
    let len = u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 framing"))?;
    Ok(len.to_be_bytes())
}

/// The payload length a frame's prefix announces, refused with
/// [`FrameError::Oversized`] above `max` — before anything is allocated
/// for it.
pub(crate) fn frame_len(header: &[u8; HEADER_LEN], max: usize) -> Result<usize, FrameError> {
    let len = u32::from_be_bytes(*header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    Ok(len)
}

/// Append `payload` to `out` as one whole frame (prefix, then payload).
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&frame_header(payload.len()).expect("reply payloads fit u32 framing"));
    out.extend_from_slice(payload);
}

/// Write one frame: 4-byte big-endian length, then the payload, flushed.
/// Header and payload go out in a single vectored write so a small frame
/// costs one syscall (and one TCP segment under `TCP_NODELAY`), not two.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let header = frame_header(payload.len())?;
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let r = if written < header.len() {
            let bufs = [IoSlice::new(&header[written..]), IoSlice::new(payload)];
            w.write_vectored(&bufs)
        } else {
            w.write(&payload[written - header.len()..])
        };
        match r {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "frame write stalled")),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame from a blocking reader into a caller-owned buffer
/// (cleared and refilled, capacity kept), so a connection loop pays no
/// allocation per frame. Returns `Ok(false)` when the peer closed cleanly
/// between frames; EOF *inside* a frame is [`FrameError::Truncated`].
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // EOF before the first header byte is a clean close between frames.
    let first = loop {
        match r.read(&mut header) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    };
    if first == 0 {
        return Ok(false);
    }
    fill(r, &mut header[first..])?;
    let len = frame_len(&header, max)?;
    buf.clear();
    buf.resize(len, 0);
    fill(r, buf)?;
    Ok(true)
}

/// [`Read::read_exact`], with EOF mid-frame as [`FrameError::Truncated`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ => FrameError::Io(e.to_string()),
    })
}

/// Serialize a wire message to a fresh JSON frame payload (the
/// convenience form; hot paths use [`encode_request_into`] /
/// [`encode_reply_into`] with a reused buffer).
pub fn encode<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg).expect("wire messages serialize").into_bytes()
}

/// Parse a JSON frame payload into a wire message. The error string is
/// safe to echo back in a [`Reply::Reject`].
pub fn decode<T: serde::Deserialize>(payload: &[u8]) -> Result<T, String> {
    serde_json::from_str(utf8(payload)?).map_err(|e| e.to_string())
}

/// A JSON payload as text, refused with the reject text every codec path
/// shares.
fn utf8(payload: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(payload).map_err(|_| "frame payload is not UTF-8".to_string())
}

/// A client→gateway message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mandatory first message on every connection. Always JSON.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        proto: u32,
        /// Free-form client name, echoed into flight-recorder events.
        client: String,
        /// Requested hot-message codec (granted codec comes back in
        /// [`Reply::Welcome`]). Absent on old clients ⇒ JSON.
        codec: WireCodec,
        /// Requested ack window: submit frames the client may have in
        /// flight before it must collect a reply. Absent ⇒ 1
        /// (stop-and-wait). The gateway clamps; the grant is in
        /// [`Reply::Welcome`].
        window: u64,
    },
    /// Offer one job.
    Submit {
        /// The job to ingest.
        job: JobSpec,
    },
    /// Offer a batch of jobs atomically (all accepted or all [`Reply::Busy`]).
    SubmitBatch {
        /// The jobs to ingest, releases nondecreasing preferred.
        jobs: Vec<JobSpec>,
    },
    /// Advance the pool's event-time frontier without offering work.
    Watermark {
        /// New frontier; ignored if the pool is already past it.
        t: Time,
    },
    /// Hot-swap the scheduler on one shard (or all with `shard = -1`).
    Swap {
        /// Target shard index, or `-1` for every shard.
        shard: i64,
        /// Event time at which the swap applies.
        at: Time,
        /// Scheduler name as the CLI spells it (e.g. `"lpf"`).
        spec: String,
    },
    /// Ask for a point-in-time pool snapshot.
    Snapshot,
    /// Ask for the Prometheus text exposition (pool + gateway series).
    Metrics,
    /// Ask the gateway to stop accepting work and drain the pool.
    Drain,
}

impl Request {
    /// A hello with the default codec and window (what old clients send).
    pub fn hello(client: &str) -> Request {
        Request::Hello {
            proto: PROTOCOL_VERSION,
            client: client.to_string(),
            codec: WireCodec::Json,
            window: 1,
        }
    }
}

/// A gateway→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful [`Request::Hello`]. Always JSON.
    Welcome {
        /// The gateway's protocol version.
        proto: u32,
        /// Shards in the pool behind the gateway.
        shards: usize,
        /// Scheduler the pool launched with.
        scheduler: String,
        /// Overload policy name (`block` / `drop`).
        policy: String,
        /// Granted hot-message codec. Absent on old gateways ⇒ JSON.
        codec: WireCodec,
        /// Granted ack window. Absent on old gateways ⇒ 1.
        window: u64,
    },
    /// The request was applied; `delta` is exactly what it did to the
    /// pool-wide ingest ledger.
    Ack {
        /// Per-connection acknowledgement counter.
        seq: u64,
        /// Ledger delta attributable to the acknowledged request(s) alone.
        delta: IngestStats,
        /// Submit frames this ack covers (cumulative under a pipelined
        /// window; 1 — and absent on old gateways — otherwise).
        frames: u64,
    },
    /// The pool would have blocked on this work; retry later. The covered
    /// frames were *not* offered — they appear in no ledger counter.
    Busy {
        /// Suggested client back-off.
        retry_after_ms: u64,
        /// Submit frames this push-back covers (the oldest unacknowledged
        /// ones; 1 — and absent on old gateways — otherwise).
        frames: u64,
    },
    /// The request was understood as a frame but refused.
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Answer to [`Request::Snapshot`].
    State {
        /// The pool's one-line heartbeat.
        line: String,
        /// Ledger: arrivals offered.
        offered: u64,
        /// Ledger: arrivals delivered to shards.
        delivered: u64,
        /// Ledger: arrivals shed.
        dropped: u64,
        /// Whether `delivered + dropped == offered` held.
        balanced: bool,
    },
    /// Answer to [`Request::Metrics`].
    MetricsText {
        /// Prometheus text exposition.
        text: String,
    },
}

// ------------------------------------------------------------- JSON (Value)

fn tagged(tag: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("type".to_string(), Value::Str(tag.to_string())));
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(all)
}

fn field<T: serde::Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    T::from_value(v.get(name).ok_or_else(|| serde::Error::missing_field(name))?)
}

/// An optional field with a default — how the protocol grows without
/// breaking old peers (the JSON decoders skip unknown fields, and new
/// fields default when absent).
fn field_or<T: serde::Deserialize>(v: &Value, name: &str, default: T) -> Result<T, serde::Error> {
    match v.get(name) {
        Some(inner) => T::from_value(inner),
        None => Ok(default),
    }
}

impl serde::Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello { proto, client, codec, window } => tagged(
                "hello",
                vec![
                    ("proto", proto.to_value()),
                    ("client", client.to_value()),
                    ("codec", codec.to_value()),
                    ("window", window.to_value()),
                ],
            ),
            Request::Submit { job } => tagged("submit", vec![("job", job.to_value())]),
            Request::SubmitBatch { jobs } => {
                tagged("submit-batch", vec![("jobs", jobs.to_value())])
            }
            Request::Watermark { t } => tagged("watermark", vec![("t", t.to_value())]),
            Request::Swap { shard, at, spec } => tagged(
                "swap",
                vec![("shard", shard.to_value()), ("at", at.to_value()), ("spec", spec.to_value())],
            ),
            Request::Snapshot => tagged("snapshot", vec![]),
            Request::Metrics => tagged("metrics", vec![]),
            Request::Drain => tagged("drain", vec![]),
        }
    }
}

impl serde::Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag: String = field(v, "type")?;
        Ok(match tag.as_str() {
            "hello" => Request::Hello {
                proto: field(v, "proto")?,
                client: field(v, "client")?,
                codec: field_or(v, "codec", WireCodec::Json)?,
                window: field_or(v, "window", 1)?,
            },
            "submit" => Request::Submit { job: field(v, "job")? },
            "submit-batch" => Request::SubmitBatch { jobs: field(v, "jobs")? },
            "watermark" => Request::Watermark { t: field(v, "t")? },
            "swap" => Request::Swap {
                shard: field(v, "shard")?,
                at: field(v, "at")?,
                spec: field(v, "spec")?,
            },
            "snapshot" => Request::Snapshot,
            "metrics" => Request::Metrics,
            "drain" => Request::Drain,
            other => return Err(serde::Error::custom(format!("unknown request type '{other}'"))),
        })
    }
}

impl serde::Serialize for Reply {
    fn to_value(&self) -> Value {
        match self {
            Reply::Welcome { proto, shards, scheduler, policy, codec, window } => tagged(
                "welcome",
                vec![
                    ("proto", proto.to_value()),
                    ("shards", shards.to_value()),
                    ("scheduler", scheduler.to_value()),
                    ("policy", policy.to_value()),
                    ("codec", codec.to_value()),
                    ("window", window.to_value()),
                ],
            ),
            Reply::Ack { seq, delta, frames } => tagged(
                "ack",
                vec![
                    ("seq", seq.to_value()),
                    ("delta", delta.to_value()),
                    ("frames", frames.to_value()),
                ],
            ),
            Reply::Busy { retry_after_ms, frames } => tagged(
                "busy",
                vec![("retry_after_ms", retry_after_ms.to_value()), ("frames", frames.to_value())],
            ),
            Reply::Reject { reason } => tagged("reject", vec![("reason", reason.to_value())]),
            Reply::State { line, offered, delivered, dropped, balanced } => tagged(
                "state",
                vec![
                    ("line", line.to_value()),
                    ("offered", offered.to_value()),
                    ("delivered", delivered.to_value()),
                    ("dropped", dropped.to_value()),
                    ("balanced", balanced.to_value()),
                ],
            ),
            Reply::MetricsText { text } => tagged("metrics", vec![("text", text.to_value())]),
        }
    }
}

impl serde::Deserialize for Reply {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag: String = field(v, "type")?;
        Ok(match tag.as_str() {
            "welcome" => Reply::Welcome {
                proto: field(v, "proto")?,
                shards: field(v, "shards")?,
                scheduler: field(v, "scheduler")?,
                policy: field(v, "policy")?,
                codec: field_or(v, "codec", WireCodec::Json)?,
                window: field_or(v, "window", 1)?,
            },
            "ack" => Reply::Ack {
                seq: field(v, "seq")?,
                delta: field(v, "delta")?,
                frames: field_or(v, "frames", 1)?,
            },
            "busy" => Reply::Busy {
                retry_after_ms: field(v, "retry_after_ms")?,
                frames: field_or(v, "frames", 1)?,
            },
            "reject" => Reply::Reject { reason: field(v, "reason")? },
            "state" => Reply::State {
                line: field(v, "line")?,
                offered: field(v, "offered")?,
                delivered: field(v, "delivered")?,
                dropped: field(v, "dropped")?,
                balanced: field(v, "balanced")?,
            },
            "metrics" => Reply::MetricsText { text: field(v, "text")? },
            other => return Err(serde::Error::custom(format!("unknown reply type '{other}'"))),
        })
    }
}

// ---------------------------------------------------- JSON (direct writers)
//
// Hand-written writers for the hot messages, emitting the exact bytes the
// Value-tree path produces (pinned by
// `fast_json_matches_value_tree_byte_for_byte`) —
// but with zero intermediate allocation: no Value tree, no per-field key
// `String`s, no `to_string` per number. Tags are borrowed `&'static str`s
// and everything lands in the caller's reused buffer.

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn push_job_json(out: &mut Vec<u8>, job: &JobSpec) {
    out.extend_from_slice(b"{\"graph\":{\"n\":");
    push_u64(out, job.graph.n() as u64);
    out.extend_from_slice(b",\"edges\":[");
    let mut first = true;
    for v in 0..job.graph.n() as u32 {
        for &c in job.graph.children(NodeId(v)) {
            if !first {
                out.push(b',');
            }
            first = false;
            out.push(b'[');
            push_u64(out, v as u64);
            out.push(b',');
            push_u64(out, c as u64);
            out.push(b']');
        }
    }
    out.extend_from_slice(b"]},\"release\":");
    push_u64(out, job.release);
    out.push(b'}');
}

fn push_jobs_json(out: &mut Vec<u8>, tag: &'static [u8], jobs: &[JobSpec]) {
    out.extend_from_slice(tag);
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_job_json(out, job);
    }
    out.extend_from_slice(b"]}");
}

fn push_delta_json(out: &mut Vec<u8>, d: &IngestStats) {
    out.extend_from_slice(b"{\"offered\":");
    push_u64(out, d.offered);
    out.extend_from_slice(b",\"delivered\":");
    push_u64(out, d.delivered);
    out.extend_from_slice(b",\"dropped\":");
    push_u64(out, d.dropped);
    out.extend_from_slice(b",\"reordered\":");
    push_u64(out, d.reordered);
    out.extend_from_slice(b",\"wm_skipped\":");
    push_u64(out, d.wm_skipped);
    out.push(b'}');
}

// ------------------------------------------------------ JSON (direct reader)
//
// The reading twin of the writers above: the hot messages are parsed
// straight from the payload bytes. It keeps the Value path's rules exactly
// (pinned by the oracle proptest in `tests/wire_malformed.rs`): keys in any
// order, unknown fields skipped after a syntax check, the first of
// duplicate keys wins, a field the tag does not use is never decoded, and
// nesting deeper than `serde_json::MAX_DEPTH` is an error. A frame that is
// not a hot message goes to the Value path whole.

// The skipper keeps one bit per open container.
const _: () = assert!(MAX_DEPTH <= 128);

/// Cursor over a JSON payload that has already passed the UTF-8 check.
/// Keys and strings without a backslash are borrowed; every read is
/// bounds-checked, so hostile bytes surface as `Err(String)`.
struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn at(text: &'a str, pos: usize) -> Self {
        JsonReader { text, pos }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// What the value at the cursor is, for type-mismatch errors.
    fn kind(&self) -> &'static str {
        match self.peek() {
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            _ => "no value",
        }
    }

    /// Step into the container `open` (`{` or `[`) at the cursor.
    fn open(&mut self, open: u8, what: &str) -> Result<(), String> {
        if self.peek() != Some(open) {
            return Err(format!("expected {what}, got {}", self.kind()));
        }
        self.pos += 1;
        Ok(())
    }

    /// The next member of the object being read: its key, with the cursor
    /// on its value, or `None` past the closing brace. `first` is true
    /// right after the `{`.
    fn member(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(first, b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok(Some(key))
    }

    /// Whether the array being read has another element (cursor on it).
    fn element(&mut self, first: &mut bool) -> Result<bool, String> {
        self.more(first, b']', "expected ',' or ']' in array")
    }

    fn more(&mut self, first: &mut bool, close: u8, msg: &str) -> Result<bool, String> {
        self.ws();
        if std::mem::take(first) {
            if self.peek() == Some(close) {
                self.pos += 1;
                return Ok(false);
            }
        } else {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(false);
                }
                _ => return Err(self.err(msg)),
            }
        }
        self.ws();
        Ok(true)
    }

    /// The string at the cursor: borrowed when it holds no escape, and
    /// unescaped by the Value path's own parser when it does, so both paths
    /// accept exactly the same escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut i = start + 1;
        let mut escaped = false;
        loop {
            match bytes.get(i) {
                None => {
                    self.pos = bytes.len();
                    return Err(self.err("unterminated string"));
                }
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    i += 2;
                }
                Some(_) => i += 1,
            }
        }
        self.pos = i + 1;
        if !escaped {
            return Ok(Cow::Borrowed(&self.text[start + 1..i]));
        }
        serde_json::from_str::<String>(&self.text[start..self.pos])
            .map(Cow::Owned)
            .map_err(|e| format!("{e} in the string at byte {start}"))
    }

    /// The number at the cursor, checked against JSON's grammar, as the
    /// `u64` the Value path would accept for an unsigned field: an integer
    /// in range, `-0` included; a fraction, an exponent or a negative
    /// value is a type error.
    fn uint(&mut self) -> Result<u64, String> {
        let negative = self.peek() == Some(b'-');
        if !negative && !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return match self.kind() {
                "no value" => Err(self.value_err()),
                kind => Err(format!("expected unsigned integer, got {kind}")),
            };
        }
        self.pos += negative as usize;
        let mut n = Some(0u64);
        let mut digits = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            digits += 1;
            self.pos += 1;
        }
        if digits == 0 {
            return Err(self.err("invalid number"));
        }
        let fraction = self.fraction_and_exponent()?;
        match (n, negative, fraction) {
            (Some(n), false, false) => Ok(n),
            (Some(0), true, false) => Ok(0),
            (Some(n), true, false) if i64::try_from(n).is_ok() => {
                Err("expected unsigned integer, got integer".to_string())
            }
            _ => Err("expected unsigned integer, got number".to_string()),
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        let n = self.uint()?;
        u32::try_from(n).map_err(|_| format!("{n} out of range"))
    }

    /// Consume an optional `.digits` and `e±digits`; true if either was there.
    fn fraction_and_exponent(&mut self) -> Result<bool, String> {
        let mut any = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            any = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            any = true;
        }
        Ok(any)
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.err("invalid number"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    /// The syntax error for a cursor on no valid value start.
    fn value_err(&self) -> String {
        self.err(if self.peek().is_some() {
            "unexpected character"
        } else {
            "unexpected end of input"
        })
    }

    /// Skip the value at the cursor after checking its syntax, `depth`
    /// containers deep already. Iterative: one bit per open container
    /// (object or array) stands in for the call stack, so hostile nesting
    /// costs no stack and fails at the depth the Value path fails at.
    fn skip(&mut self, depth: usize) -> Result<(), String> {
        let mut open = 0usize;
        let mut objects = 0u128;
        loop {
            // The cursor is on a value.
            match self.peek() {
                Some(b @ (b'{' | b'[')) => {
                    if depth + open == MAX_DEPTH {
                        return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                    }
                    self.pos += 1;
                    let object = b == b'{';
                    objects = objects & !(1 << open) | (u128::from(object) << open);
                    open += 1;
                    let mut first = true;
                    let more = if object {
                        self.member(&mut first)?.is_some()
                    } else {
                        self.element(&mut first)?
                    };
                    if more {
                        continue;
                    }
                    open -= 1;
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(b'-' | b'0'..=b'9') => self.number()?,
                _ => return Err(self.value_err()),
            }
            // A value ended: close finished containers, or step to the next
            // value in the innermost open one.
            loop {
                if open == 0 {
                    return Ok(());
                }
                let mut first = false;
                let more = if objects >> (open - 1) & 1 == 1 {
                    self.member(&mut first)?.is_some()
                } else {
                    self.element(&mut first)?
                };
                if more {
                    break;
                }
                open -= 1;
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("invalid literal, expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits()?;
        self.fraction_and_exponent().map(drop)
    }

    /// An object of unsigned fields, all required: the first occurrence of
    /// each of `names`, anything else skipped.
    fn uints<const N: usize>(
        &mut self,
        names: [&str; N],
        depth: usize,
    ) -> Result<[u64; N], String> {
        self.open(b'{', "object")?;
        let mut got = [None; N];
        let mut first = true;
        while let Some(key) = self.member(&mut first)? {
            match names.iter().position(|&name| key == name) {
                Some(i) if got[i].is_none() => got[i] = Some(self.uint()?),
                _ => self.skip(depth + 1)?,
            }
        }
        let mut out = [0; N];
        for (i, v) in got.into_iter().enumerate() {
            out[i] = required(v, names[i])?;
        }
        Ok(out)
    }

    /// A `{"graph":…,"release":…}` job, `depth` containers deep, its nodes
    /// charged to the frame's budget `nodes`. The edges go straight into a
    /// [`GraphBuilder`], whose `build` validates the graph once.
    fn job(&mut self, depth: usize, nodes: &mut usize) -> Result<JobSpec, String> {
        self.open(b'{', "object")?;
        let (mut graph, mut release) = (None, None);
        let mut first = true;
        while let Some(key) = self.member(&mut first)? {
            match &*key {
                "graph" if graph.is_none() => graph = Some(self.graph(depth + 1, nodes)?),
                "release" if release.is_none() => release = Some(self.uint()?),
                _ => self.skip(depth + 1)?,
            }
        }
        Ok(JobSpec {
            graph: required(graph, "graph")?,
            release: required(release, "release")?,
        })
    }

    /// A `{"n":…,"edges":[[u,v],…]}` graph, `depth` containers deep.
    fn graph(&mut self, depth: usize, nodes: &mut usize) -> Result<flowtree_dag::JobGraph, String> {
        self.open(b'{', "object")?;
        // `n` may follow the edges: the builder starts empty and grows to
        // `n` nodes before the build.
        let mut b = GraphBuilder::new(0);
        let (mut n, mut edges) = (None, false);
        let mut first = true;
        while let Some(key) = self.member(&mut first)? {
            match &*key {
                "n" if n.is_none() => n = Some(self.u32()?),
                "edges" if !edges => {
                    edges = true;
                    self.open(b'[', "array")?;
                    let mut first = true;
                    while self.element(&mut first)? {
                        let (u, v) = self.edge()?;
                        b.edge(u, v);
                    }
                }
                _ => self.skip(depth + 1)?,
            }
        }
        let n = required(n, "n")?;
        required(edges.then_some(()), "edges")?;
        charge_nodes(nodes, n)?;
        b.add_nodes(n as usize);
        b.build().map_err(|e| e.to_string())
    }

    /// One `[u, v]` edge: an array of exactly two `u32`s.
    fn edge(&mut self) -> Result<(u32, u32), String> {
        self.open(b'[', "array")?;
        self.ws();
        let u = self.u32()?;
        self.ws();
        self.expect(b',')?;
        self.ws();
        let v = self.u32()?;
        self.ws();
        if self.peek() != Some(b']') {
            return Err(self.err("expected array of 2"));
        }
        self.pos += 1;
        Ok((u, v))
    }

    /// A `[job, …]` array that is a top-level member, appended to `out`;
    /// returns the count.
    fn jobs_into(&mut self, out: &mut Vec<JobSpec>) -> Result<usize, String> {
        self.open(b'[', "array")?;
        let (mut count, mut nodes) = (0, MAX_FRAME_NODES);
        let mut first = true;
        while self.element(&mut first)? {
            out.push(self.job(2, &mut nodes)?);
            count += 1;
        }
        Ok(count)
    }
}

/// One pass over a JSON frame's top-level object: the index of its `type`
/// tag in `hot`, with the first occurrence of each of `keys` handed to
/// `read` as `(tag, key index, reader on the value)`. `read` decodes the
/// value and returns true, or returns false for a key the tag does not
/// use. A key seen before the tag is read once the tag is known. Every
/// other value is skipped after a syntax check, and anything but
/// whitespace after the object is an error. `Ok(None)` as soon as the frame
/// shows it is no hot message — it is not an object, or its first `type`
/// is not a string or not in `hot` — and at the end if it has no `type`:
/// the Value path decodes those, and words their errors.
fn scan_hot<'a, const N: usize>(
    text: &'a str,
    hot: &[&str],
    keys: [&str; N],
    mut read: impl FnMut(usize, usize, &mut JsonReader<'a>) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    let mut r = JsonReader::at(text, 0);
    r.ws();
    if r.peek() != Some(b'{') {
        return Ok(None);
    }
    r.pos += 1;
    let (mut tag, mut typed) = (None, false);
    let (mut seen, mut later) = ([false; N], [None; N]);
    let mut first = true;
    while let Some(key) = r.member(&mut first)? {
        if key == "type" && !typed {
            typed = true;
            if r.peek() != Some(b'"') {
                return Ok(None);
            }
            let name = r.string()?;
            match hot.iter().position(|&h| name == h) {
                Some(i) => tag = Some(i),
                None => return Ok(None),
            }
            continue;
        }
        if let Some(i) = keys.iter().position(|&k| key == k) {
            if !std::mem::replace(&mut seen[i], true) {
                match tag {
                    Some(t) if read(t, i, &mut r)? => continue,
                    Some(_) => {}
                    None => later[i] = Some(r.pos),
                }
            }
        }
        r.skip(1)?;
    }
    r.ws();
    if r.pos != text.len() {
        return Err(r.err("trailing characters after JSON value"));
    }
    let Some(tag) = tag else { return Ok(None) };
    for (i, pos) in later.into_iter().enumerate() {
        if let Some(pos) = pos {
            read(tag, i, &mut JsonReader::at(text, pos))?;
        }
    }
    Ok(Some(tag))
}

/// Charge a job's `n` nodes to what is `left` of its frame's node budget.
fn charge_nodes(left: &mut usize, n: u32) -> Result<(), String> {
    *left = left.checked_sub(n as usize).ok_or_else(|| {
        format!("the jobs of one frame may announce at most {MAX_FRAME_NODES} nodes")
    })?;
    Ok(())
}

/// A required field's value, or its `missing field` error.
fn required<T>(value: Option<T>, name: &str) -> Result<T, String> {
    value.ok_or_else(|| serde::Error::missing_field(name).to_string())
}

/// What [`read_request`] made of a request frame.
pub(crate) enum HotRequest {
    /// A submit (`batch == false`, one job) or submit batch whose `count`
    /// jobs were appended to the caller's vec.
    Staged {
        /// Jobs appended.
        count: usize,
        /// Whether the frame was a batch.
        batch: bool,
    },
    /// A watermark.
    Watermark(Time),
    /// A control message, or a frame no hot reader claims: decode it with
    /// [`decode`].
    Other,
}

/// Read a request frame in one pass, either codec: a submit's jobs are
/// appended to `out` (nothing is left there on an error), a watermark comes
/// back as its time, anything else as [`HotRequest::Other`].
pub(crate) fn read_request(payload: &[u8], out: &mut Vec<JobSpec>) -> Result<HotRequest, String> {
    let before = out.len();
    let read = if payload.first() == Some(&BINARY_MARKER) {
        read_request_binary(payload, out)
    } else {
        read_request_json(payload, out)
    };
    if read.is_err() {
        out.truncate(before);
    }
    read
}

fn read_request_binary(payload: &[u8], out: &mut Vec<JobSpec>) -> Result<HotRequest, String> {
    let mut r = BinReader::new(&payload[1..]);
    let read = match r.take(1)?[0] {
        OP_SUBMIT_BATCH => {
            HotRequest::Staged { count: read_submit_batch_binary(&mut r, out)?, batch: true }
        }
        OP_WATERMARK => HotRequest::Watermark(r.u64()?),
        other => return Err(format!("unknown binary request opcode {other}")),
    };
    r.finish()?;
    Ok(read)
}

fn read_request_json(payload: &[u8], out: &mut Vec<JobSpec>) -> Result<HotRequest, String> {
    let text = utf8(payload)?;
    let hot = ["submit", "submit-batch", "watermark"];
    let (mut count, mut t) = (None, None);
    let tag = scan_hot(text, &hot, ["job", "jobs", "t"], |tag, key, r| {
        match (tag, key) {
            (0, 0) => {
                let mut nodes = MAX_FRAME_NODES;
                out.push(r.job(1, &mut nodes)?);
                count = Some(1);
            }
            (1, 1) => count = Some(r.jobs_into(out)?),
            (2, 2) => t = Some(r.uint()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(match tag {
        None => HotRequest::Other,
        Some(0) => HotRequest::Staged { count: required(count, "job")?, batch: false },
        Some(1) => HotRequest::Staged { count: required(count, "jobs")?, batch: true },
        Some(_) => HotRequest::Watermark(required(t, "t")?),
    })
}

/// Read an `ack` or `busy` JSON reply in one pass; `Ok(None)` for any
/// other frame.
fn read_reply_json(text: &str) -> Result<Option<Reply>, String> {
    let keys = ["seq", "delta", "frames", "retry_after_ms"];
    let (mut seq, mut delta, mut frames, mut retry) = (None, None, None, None);
    let tag = scan_hot(text, &["ack", "busy"], keys, |tag, key, r| {
        match (tag, key) {
            (0, 0) => seq = Some(r.uint()?),
            (0, 1) => {
                let names = ["offered", "delivered", "dropped", "reordered", "wm_skipped"];
                let [offered, delivered, dropped, reordered, wm_skipped] = r.uints(names, 1)?;
                delta = Some(IngestStats { offered, delivered, dropped, reordered, wm_skipped });
            }
            (_, 2) => frames = Some(r.uint()?),
            (1, 3) => retry = Some(r.uint()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let frames = frames.unwrap_or(1);
    Ok(match tag {
        None => None,
        Some(0) => Some(Reply::Ack {
            seq: required(seq, "seq")?,
            delta: required(delta, "delta")?,
            frames,
        }),
        Some(_) => Some(Reply::Busy { retry_after_ms: required(retry, "retry_after_ms")?, frames }),
    })
}

// ------------------------------------------------------------- binary codec

fn push_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a submit batch in the binary codec: marker, opcode, `u32` job
/// count, then per job `u64` release, `u32` node count, `u32` edge count
/// and the `(u32, u32)` edge pairs — all little-endian.
fn push_submit_batch_binary(out: &mut Vec<u8>, jobs: &[JobSpec]) {
    out.push(BINARY_MARKER);
    out.push(OP_SUBMIT_BATCH);
    push_u32_le(out, jobs.len() as u32);
    for job in jobs {
        push_u64_le(out, job.release);
        let n = job.graph.n() as u32;
        push_u32_le(out, n);
        push_u32_le(out, job.graph.num_edges() as u32);
        for v in 0..n {
            for &c in job.graph.children(NodeId(v)) {
                push_u32_le(out, v);
                push_u32_le(out, c);
            }
        }
    }
}

/// Little-endian cursor over a binary payload; every read is
/// bounds-checked so hostile bytes surface as `Err(String)`, never a
/// panic.
struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err("binary payload truncated".to_string()),
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("binary payload has trailing bytes".to_string())
        }
    }
}

/// Decode a binary submit batch into `out` (appending). The graphs are
/// rebuilt through [`GraphBuilder`] exactly like the JSON path, so a
/// hostile payload cannot smuggle in a cyclic "DAG" and a well-formed one
/// produces structurally identical jobs.
fn read_submit_batch_binary(
    r: &mut BinReader<'_>,
    out: &mut Vec<JobSpec>,
) -> Result<usize, String> {
    let count = r.u32()? as usize;
    // Each job costs at least 16 bytes on the wire; refuse counts the
    // payload cannot possibly hold before reserving anything.
    if count.saturating_mul(16) > r.buf.len() {
        return Err("binary job count exceeds payload".to_string());
    }
    out.reserve(count);
    let mut nodes = MAX_FRAME_NODES;
    for _ in 0..count {
        let release = r.u64()?;
        let n = r.u32()?;
        charge_nodes(&mut nodes, n)?;
        let edges = r.u32()? as usize;
        if edges.saturating_mul(8) > r.buf.len() - r.pos {
            return Err("binary edge count exceeds payload".to_string());
        }
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..edges {
            let u = r.u32()?;
            let v = r.u32()?;
            b.edge(u, v);
        }
        let graph = b.build().map_err(|e| e.to_string())?;
        out.push(JobSpec { graph, release });
    }
    Ok(count)
}

// ---------------------------------------------------------- encode / decode

/// Encode `req` into `out` (cleared first, capacity kept). Hot messages
/// honor `codec`; control messages are always JSON. Under JSON the hot
/// messages take the allocation-free fast path.
pub fn encode_request_into(req: &Request, codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match (req, codec) {
        (Request::Submit { job }, WireCodec::Binary) => {
            push_submit_batch_binary(out, std::slice::from_ref(job))
        }
        (Request::SubmitBatch { jobs }, WireCodec::Binary) => push_submit_batch_binary(out, jobs),
        (Request::Watermark { t }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_WATERMARK);
            push_u64_le(out, *t);
        }
        (Request::Submit { job }, WireCodec::Json) => {
            out.extend_from_slice(b"{\"type\":\"submit\",\"job\":");
            push_job_json(out, job);
            out.push(b'}');
        }
        (Request::SubmitBatch { jobs }, WireCodec::Json) => {
            push_jobs_json(out, b"{\"type\":\"submit-batch\",\"jobs\":[", jobs)
        }
        (Request::Watermark { t }, WireCodec::Json) => {
            out.extend_from_slice(b"{\"type\":\"watermark\",\"t\":");
            push_u64(out, *t);
            out.push(b'}');
        }
        (other, _) => out.extend_from_slice(&encode(other)),
    }
}

/// Encode a submit batch directly from a job slice (the client hot path:
/// no `Request` construction, no `Vec<JobSpec>` clone, one reused buffer).
pub fn encode_submit_batch_into(jobs: &[JobSpec], codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match codec {
        WireCodec::Binary => push_submit_batch_binary(out, jobs),
        WireCodec::Json => push_jobs_json(out, b"{\"type\":\"submit-batch\",\"jobs\":[", jobs),
    }
}

/// Encode `reply` into `out` (cleared first, capacity kept). Hot replies
/// honor `codec`; control replies are always JSON. Under JSON the hot
/// replies take the allocation-free fast path.
pub fn encode_reply_into(reply: &Reply, codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match (reply, codec) {
        (Reply::Ack { seq, delta, frames }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_ACK);
            push_u64_le(out, *seq);
            push_u64_le(out, *frames);
            for v in
                [delta.offered, delta.delivered, delta.dropped, delta.reordered, delta.wm_skipped]
            {
                push_u64_le(out, v);
            }
        }
        (Reply::Busy { retry_after_ms, frames }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_BUSY);
            push_u64_le(out, *retry_after_ms);
            push_u64_le(out, *frames);
        }
        (Reply::Ack { seq, delta, frames }, WireCodec::Json) => {
            out.extend_from_slice(b"{\"type\":\"ack\",\"seq\":");
            push_u64(out, *seq);
            out.extend_from_slice(b",\"delta\":");
            push_delta_json(out, delta);
            out.extend_from_slice(b",\"frames\":");
            push_u64(out, *frames);
            out.push(b'}');
        }
        (Reply::Busy { retry_after_ms, frames }, WireCodec::Json) => {
            out.extend_from_slice(b"{\"type\":\"busy\",\"retry_after_ms\":");
            push_u64(out, *retry_after_ms);
            out.extend_from_slice(b",\"frames\":");
            push_u64(out, *frames);
            out.push(b'}');
        }
        (other, _) => out.extend_from_slice(&encode(other)),
    }
}

/// Decode a frame payload into a [`Request`], sniffing the codec from the
/// first byte — a connection may mix codecs frame by frame.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut jobs = Vec::new();
    match read_request(payload, &mut jobs)? {
        HotRequest::Staged { batch: true, .. } => Ok(Request::SubmitBatch { jobs }),
        HotRequest::Staged { batch: false, .. } => {
            Ok(Request::Submit { job: jobs.pop().expect("a staged submit holds its one job") })
        }
        HotRequest::Watermark(t) => Ok(Request::Watermark { t }),
        HotRequest::Other => decode(payload),
    }
}

/// If `payload` is a submit frame (either codec), decode its jobs
/// *appending* into `out` and return `Ok(Some(count))`; `Ok(None)` leaves
/// `out` untouched for a frame that is not a submit, and so does an error.
/// A JSON frame is read in one pass with no intermediate `Vec` or value
/// tree; a frame that is no hot message is left undecoded for
/// [`decode_request`] to diagnose.
pub fn decode_submit_into(payload: &[u8], out: &mut Vec<JobSpec>) -> Result<Option<usize>, String> {
    match read_request(payload, out)? {
        HotRequest::Staged { count, .. } => Ok(Some(count)),
        HotRequest::Watermark(_) | HotRequest::Other => Ok(None),
    }
}

/// Decode a frame payload into a [`Reply`], sniffing the codec from the
/// first byte.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, String> {
    if payload.first() == Some(&BINARY_MARKER) {
        let mut r = BinReader::new(&payload[1..]);
        let op = r.take(1)?[0];
        let reply = match op {
            OP_ACK => {
                let seq = r.u64()?;
                let frames = r.u64()?;
                let delta = IngestStats {
                    offered: r.u64()?,
                    delivered: r.u64()?,
                    dropped: r.u64()?,
                    reordered: r.u64()?,
                    wm_skipped: r.u64()?,
                };
                Reply::Ack { seq, delta, frames }
            }
            OP_BUSY => Reply::Busy { retry_after_ms: r.u64()?, frames: r.u64()? },
            other => return Err(format!("unknown binary reply opcode {other}")),
        };
        r.finish()?;
        Ok(reply)
    } else {
        let text = utf8(payload)?;
        match read_reply_json(text)? {
            Some(reply) => Ok(reply),
            None => serde_json::from_str(text).map_err(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let payloads: Vec<Vec<u8>> =
            vec![b"".to_vec(), b"{}".to_vec(), vec![0xF0, 0x9F, 0x8C, 0xB3]];
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        let mut got = Vec::new();
        for p in &payloads {
            assert!(read_frame_into(&mut r, MAX_FRAME, &mut got).unwrap());
            assert_eq!(got, *p);
        }
        assert!(!read_frame_into(&mut r, MAX_FRAME, &mut got).unwrap());
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut got = Vec::new();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            let err = read_frame_into(&mut r, MAX_FRAME, &mut got);
            assert_eq!(err, Err(FrameError::Truncated), "cut={cut}");
        }
        let mut big = 100u32.to_be_bytes().to_vec();
        big.extend_from_slice(&[0; 100]);
        let mut r = &big[..];
        let err = read_frame_into(&mut r, 10, &mut got);
        assert_eq!(err, Err(FrameError::Oversized { len: 100, max: 10 }));
    }

    #[test]
    fn read_frame_into_reuses_one_buffer() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first frame, the longer one").unwrap();
        write_frame(&mut stream, b"second").unwrap();
        let mut r = &stream[..];
        let mut buf = Vec::new();
        assert!(read_frame_into(&mut r, MAX_FRAME, &mut buf).unwrap());
        assert_eq!(buf, b"first frame, the longer one");
        let cap = buf.capacity();
        assert!(read_frame_into(&mut r, MAX_FRAME, &mut buf).unwrap());
        assert_eq!(buf, b"second");
        assert_eq!(buf.capacity(), cap, "shorter frame must reuse the capacity");
        assert!(!read_frame_into(&mut r, MAX_FRAME, &mut buf).unwrap());
    }

    #[test]
    fn requests_and_replies_roundtrip_through_json() {
        let reqs = vec![
            Request::hello("t"),
            Request::Hello {
                proto: PROTOCOL_VERSION,
                client: "t2".into(),
                codec: WireCodec::Binary,
                window: 32,
            },
            Request::Watermark { t: 42 },
            Request::Swap { shard: -1, at: 10, spec: "lpf".into() },
            Request::Snapshot,
            Request::Metrics,
            Request::Drain,
        ];
        for req in reqs {
            let back: Request = decode(&encode(&req)).unwrap();
            assert_eq!(back, req);
        }
        let replies = vec![
            Reply::Welcome {
                proto: 1,
                shards: 4,
                scheduler: "fifo".into(),
                policy: "block".into(),
                codec: WireCodec::Binary,
                window: 8,
            },
            Reply::Ack {
                seq: 3,
                delta: IngestStats { offered: 2, ..Default::default() },
                frames: 1,
            },
            Reply::Busy { retry_after_ms: 50, frames: 4 },
            Reply::Reject { reason: "nope".into() },
            Reply::State {
                line: "t>=0".into(),
                offered: 5,
                delivered: 4,
                dropped: 1,
                balanced: true,
            },
            Reply::MetricsText { text: "# HELP x\n".into() },
        ];
        for reply in replies {
            let back: Reply = decode(&encode(&reply)).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn codec_and_window_default_when_absent_for_old_peers() {
        let req: Request = decode(b"{\"type\":\"hello\",\"proto\":2,\"client\":\"old\"}").unwrap();
        assert_eq!(req, Request::hello("old"));
        let ack = b"{\"type\":\"ack\",\"seq\":7,\"delta\":{\"offered\":1,\"delivered\":1,\
              \"dropped\":0,\"reordered\":0,\"wm_skipped\":0}}";
        let reply: Reply = decode(ack).unwrap();
        assert!(matches!(reply, Reply::Ack { frames: 1, .. }));
        assert_eq!(decode_reply(ack), Ok(reply), "the direct reader defaults alike");
        let busy = b"{\"type\":\"busy\",\"retry_after_ms\":9}";
        assert_eq!(decode::<Reply>(busy), Ok(Reply::Busy { retry_after_ms: 9, frames: 1 }));
        assert_eq!(decode_reply(busy), decode::<Reply>(busy));
    }

    fn sample_jobs() -> Vec<JobSpec> {
        let mut rng = flowtree_workloads::rng(5);
        (0..4)
            .map(|i| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(1 + 3 * i, &mut rng),
                release: 7 * i as u64,
            })
            .collect()
    }

    #[test]
    fn fast_json_matches_value_tree_byte_for_byte() {
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        let reqs = vec![
            Request::Submit { job: jobs[0].clone() },
            Request::SubmitBatch { jobs: jobs.clone() },
            Request::SubmitBatch { jobs: Vec::new() },
            Request::Watermark { t: 0 },
            Request::Watermark { t: u64::MAX },
        ];
        for req in &reqs {
            encode_request_into(req, WireCodec::Json, &mut buf);
            assert_eq!(buf, encode(req), "fast JSON diverged for {req:?}");
        }
        let replies = vec![
            Reply::Ack {
                seq: 12,
                delta: IngestStats {
                    offered: 32,
                    delivered: 30,
                    dropped: 1,
                    reordered: 3,
                    wm_skipped: 5,
                },
                frames: 9,
            },
            Reply::Ack { seq: 0, delta: IngestStats::default(), frames: 1 },
            Reply::Busy { retry_after_ms: 50, frames: 3 },
        ];
        for reply in &replies {
            encode_reply_into(reply, WireCodec::Json, &mut buf);
            assert_eq!(buf, encode(reply), "fast JSON diverged for {reply:?}");
        }
    }

    #[test]
    fn binary_codec_roundtrips_and_stages_into_a_reused_vec() {
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut buf);
        assert_eq!(buf[0], BINARY_MARKER);
        match decode_request(&buf).unwrap() {
            Request::SubmitBatch { jobs: back } => assert_eq!(back, jobs),
            other => panic!("expected submit-batch, got {other:?}"),
        }
        let mut staged = Vec::new();
        assert_eq!(decode_submit_into(&buf, &mut staged).unwrap(), Some(jobs.len()));
        assert_eq!(staged, jobs);

        encode_request_into(&Request::Watermark { t: 99 }, WireCodec::Binary, &mut buf);
        assert_eq!(decode_request(&buf).unwrap(), Request::Watermark { t: 99 });
        assert_eq!(decode_submit_into(&buf, &mut staged).unwrap(), None);

        let replies = vec![
            Reply::Ack {
                seq: 5,
                delta: IngestStats { offered: 8, delivered: 8, ..Default::default() },
                frames: 2,
            },
            Reply::Busy { retry_after_ms: 17, frames: 6 },
        ];
        for reply in &replies {
            encode_reply_into(reply, WireCodec::Binary, &mut buf);
            assert_eq!(buf[0], BINARY_MARKER);
            assert_eq!(&decode_reply(&buf).unwrap(), reply);
        }
    }

    #[test]
    fn hostile_binary_payloads_error_without_panicking() {
        // Truncations at every length of a valid batch.
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut buf);
        for cut in 1..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut={cut} must not parse");
        }
        // Absurd counts refuse before reserving memory.
        let mut lie = vec![BINARY_MARKER, OP_SUBMIT_BATCH];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&lie).unwrap_err().contains("count"));
        // A cycle smuggled into the edge list is refused by the rebuild.
        let mut cyclic = vec![BINARY_MARKER, OP_SUBMIT_BATCH];
        cyclic.extend_from_slice(&1u32.to_le_bytes());
        cyclic.extend_from_slice(&0u64.to_le_bytes());
        cyclic.extend_from_slice(&2u32.to_le_bytes());
        cyclic.extend_from_slice(&2u32.to_le_bytes());
        for (u, v) in [(0u32, 1u32), (1, 0)] {
            cyclic.extend_from_slice(&u.to_le_bytes());
            cyclic.extend_from_slice(&v.to_le_bytes());
        }
        assert!(decode_request(&cyclic).is_err());
        // Unknown opcodes and trailing garbage are typed errors.
        assert!(decode_request(&[BINARY_MARKER, 0xEE]).unwrap_err().contains("opcode"));
        let mut trailing = Vec::new();
        encode_request_into(&Request::Watermark { t: 3 }, WireCodec::Binary, &mut trailing);
        trailing.push(0xAB);
        assert!(decode_request(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn unknown_tags_and_bad_payloads_decode_to_errors() {
        for decoder in [decode::<Request>, decode_request] {
            let err = |payload: &[u8]| decoder(payload).unwrap_err();
            assert!(err(b"{\"type\":\"frobnicate\"}").contains("unknown request type"));
            assert!(err(b"not json at all").contains("at byte"));
            assert!(err(&[0xFF, 0xFE]).contains("UTF-8"));
            assert!(err(b"{\"type\":\"watermark\"}").contains("missing field"));
            assert!(err(b"{\"type\":\"submit-batch\"}").contains("missing field"));
            assert!(err(b"{\"type\":\"watermark\",\"t\":1} x").contains("trailing"));
        }
    }
}
