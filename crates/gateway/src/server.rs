//! The gateway server: one blocking thread per client connection, every
//! one feeding the same [`PoolHandle`].
//!
//! An accept thread spawns a thread for each connection, up to
//! [`MAX_CONNECTIONS`]; a connection past the cap gets a [`Reply::Reject`]
//! and is closed without a thread. A connection thread reads whole frames
//! through a [`BufReader`] with [`read_frame_into`], the reader clients use
//! too, and writes its replies with blocking writes. Between frames it
//! parks in the kernel, so a quiet connection costs no CPU and a frame that
//! ends a quiet spell is read at once. A client that never reads its
//! replies stalls its thread in a write once the socket buffers fill; the
//! thread then reads nothing more, so the gateway buffers nothing more for
//! that client.
//!
//! Consecutive submit frames on one connection coalesce into a single
//! pool offer answered by one cumulative `ack{seq,delta,frames}` — the
//! group closes when the connection's negotiated window fills, a
//! non-submit frame arrives, or the read buffer holds no whole frame. In
//! the last case the thread offers the group and writes every queued reply
//! before it parks in the next read. A connection thread never blocks
//! inside the pool on a client's behalf: when the pool's policy is
//! `block`, a group that would block is answered with [`Reply::Busy`]
//! *before* being offered, so backpressure becomes a wire-level retry loop
//! instead of a stalled thread, and the ledger invariant
//! `delivered + dropped == offered` stays exact across all clients
//! combined.
//!
//! Connection lifecycle (`conn-open` / `conn-close`) and every `Busy`
//! shed land in shard 0's flight-recorder ring — the router's shard — so
//! `report --flight` shows the network edge next to swaps and drops.

use crate::wire::{
    decode, decode_request, encode_reply_into, push_frame, read_frame_into, read_request,
    write_frame, FrameError, HotRequest, Reply, Request, WireCodec, HEADER_LEN, MAX_FRAME,
    PROTOCOL_VERSION,
};
use flowtree_core::SchedulerSpec;
use flowtree_serve::{FlightKind, OverloadPolicy, PoolHandle};
use flowtree_sim::JobSpec;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// Most client connections served at once. A connection past the cap is
/// refused with a [`Reply::Reject`] and gets no thread, so outside input
/// cannot make the gateway start more threads than this.
pub const MAX_CONNECTIONS: usize = 256;

/// Read-buffer bytes per connection. Frames already in the buffer join the
/// open submit group without another read.
const READ_BUF: usize = 64 << 10;

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-frame payload ceiling (bytes).
    pub max_frame: usize,
    /// Back-off suggested in [`Reply::Busy`].
    pub retry_after_ms: u64,
    /// Ceiling on the ack window a client may negotiate in its hello.
    pub max_window: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_frame: MAX_FRAME, retry_after_ms: 50, max_window: 256 }
    }
}

/// Live gateway counters, exposed on the metrics endpoint.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections currently open.
    pub connections_open: AtomicU64,
    /// Connections accepted since launch.
    pub connections_total: AtomicU64,
    /// Jobs offered to the pool on behalf of remote clients.
    pub remote_jobs: AtomicU64,
    /// Submit groups answered with [`Reply::Busy`].
    pub busy_replies: AtomicU64,
    /// Frames that failed to frame or parse.
    pub wire_errors: AtomicU64,
}

impl GatewayStats {
    /// Render the counters in the Prometheus text exposition format, for
    /// appending to the pool's exposition via
    /// [`serve_metrics_with`](flowtree_serve::serve_metrics_with).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let rows: [(&str, &str, u64, &str); 5] = [
            (
                "connections_open",
                "gauge",
                self.connections_open.load(Ordering::Relaxed),
                "Client connections currently open.",
            ),
            (
                "connections_total",
                "counter",
                self.connections_total.load(Ordering::Relaxed),
                "Client connections accepted since launch.",
            ),
            (
                "remote_jobs_total",
                "counter",
                self.remote_jobs.load(Ordering::Relaxed),
                "Jobs offered to the pool by remote clients.",
            ),
            (
                "busy_replies_total",
                "counter",
                self.busy_replies.load(Ordering::Relaxed),
                "Submit groups refused with a busy reply.",
            ),
            (
                "wire_errors_total",
                "counter",
                self.wire_errors.load(Ordering::Relaxed),
                "Frames that failed to frame or parse.",
            ),
        ];
        let mut out = String::with_capacity(512);
        for (name, kind, v, help) in rows {
            let _ = writeln!(out, "# HELP flowtree_gateway_{name} {help}");
            let _ = writeln!(out, "# TYPE flowtree_gateway_{name} {kind}");
            let _ = writeln!(out, "flowtree_gateway_{name} {v}");
        }
        out
    }
}

/// A running gateway: an accept loop plus one thread per connection.
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    stats: Arc<GatewayStats>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    drain_rx: mpsc::Receiver<String>,
}

impl Gateway {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting clients against `handle`'s pool.
    pub fn launch(addr: &str, handle: PoolHandle, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(GatewayStats::default());
        let (drain_tx, drain_rx) = mpsc::channel();
        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name("gateway-accept".into())
                .spawn(move || accept_loop(&listener, &handle, &cfg, &stats, &stop, &drain_tx))?
        };
        Ok(Gateway { addr: local, stats, stop, accept: Some(accept), drain_rx })
    }

    /// The bound address (with the real port when launched on `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's live counters.
    pub fn stats(&self) -> Arc<GatewayStats> {
        Arc::clone(&self.stats)
    }

    /// Block until some client sends [`Request::Drain`]; returns the
    /// client's name. `None` means the gateway shut down without one.
    pub fn wait_drain(&self) -> Option<String> {
        self.drain_rx.recv().ok()
    }

    /// Stop accepting, shut every open connection down, and join every
    /// thread. Safe to call with connections still open: shutting a socket
    /// down wakes its thread out of a blocked read or write.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept loop awake with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

/// Give each accepted connection its own thread until `stop`, then shut
/// every live connection down and join its thread.
fn accept_loop(
    listener: &TcpListener,
    handle: &PoolHandle,
    cfg: &GatewayConfig,
    stats: &Arc<GatewayStats>,
    stop: &AtomicBool,
    drain_tx: &mpsc::Sender<String>,
) {
    // Each live thread with a clone of its socket, to wake it on stop.
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        stats.connections_total.fetch_add(1, Ordering::SeqCst);
        for (_, t) in live.extract_if(.., |(_, t)| t.is_finished()) {
            let _ = t.join();
        }
        if live.len() >= MAX_CONNECTIONS {
            refuse(stream);
            continue;
        }
        let Ok(waker) = stream.try_clone() else {
            continue;
        };
        stats.connections_open.fetch_add(1, Ordering::SeqCst);
        let conn = Conn::new(&stream, handle, cfg, stats, drain_tx);
        match thread::Builder::new()
            .name("gateway-conn".into())
            .spawn(move || conn.serve(stream))
        {
            Ok(t) => live.push((waker, t)),
            // The connection went down with the closure.
            Err(_) => {
                stats.connections_open.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for (waker, _) in &live {
        let _ = waker.shutdown(Shutdown::Both);
    }
    for (_, t) in live {
        let _ = t.join();
    }
}

/// Turn away a connection past [`MAX_CONNECTIONS`]: one reject, then close.
fn refuse(mut stream: TcpStream) {
    let reason = format!("too many connections (the gateway serves {MAX_CONNECTIONS} at once)");
    let mut payload = Vec::new();
    encode_reply_into(&Reply::Reject { reason }, WireCodec::Json, &mut payload);
    let _ = write_frame(&mut stream, &payload);
}

/// Whether `buf` starts with a whole frame.
fn holds_whole_frame(buf: &[u8]) -> bool {
    buf.first_chunk::<HEADER_LEN>()
        .is_some_and(|h| buf.len() - HEADER_LEN >= u32::from_be_bytes(*h) as usize)
}

/// One connection, owned by its thread.
struct Conn {
    handle: PoolHandle,
    cfg: GatewayConfig,
    stats: Arc<GatewayStats>,
    drain_tx: mpsc::Sender<String>,
    peer: String,
    /// Client name from the hello; the handshake gate is `hello`.
    client: String,
    hello: bool,
    seq: u64,
    /// Granted codec for hot *replies* (requests are sniffed per frame).
    codec: WireCodec,
    /// Granted ack window: submit frames that may coalesce into one ack.
    window: u64,
    /// Jobs staged from not-yet-acknowledged submit frames of the open
    /// group, and how many frames staged them.
    pending: Vec<JobSpec>,
    pending_frames: u64,
    /// Framed replies not yet written.
    out: Vec<u8>,
    /// Reply-encode scratch.
    scratch: Vec<u8>,
    /// Write the queued replies, then close (drain, fatal reject).
    close: bool,
}

impl Conn {
    fn new(
        stream: &TcpStream,
        handle: &PoolHandle,
        cfg: &GatewayConfig,
        stats: &Arc<GatewayStats>,
        drain_tx: &mpsc::Sender<String>,
    ) -> Conn {
        Conn {
            handle: handle.clone(),
            cfg: cfg.clone(),
            stats: Arc::clone(stats),
            drain_tx: drain_tx.clone(),
            peer: stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string()),
            client: String::new(),
            hello: false,
            seq: 0,
            codec: WireCodec::Json,
            window: 1,
            pending: Vec::new(),
            pending_frames: 0,
            out: Vec::new(),
            scratch: Vec::new(),
            close: false,
        }
    }

    /// The connection thread: serve frames until the peer leaves, a frame
    /// is fatal or a write fails, then shut the socket down — the accept
    /// loop's clone would keep it open otherwise.
    fn serve(mut self, stream: TcpStream) {
        let _ = self.handle.record_flight(0, FlightKind::ConnOpen, 0, self.peer.clone());
        let _ = stream.set_nodelay(true);
        self.run(&stream);
        let _ = stream.shutdown(Shutdown::Both);
        let _ = self.handle.record_flight(0, FlightKind::ConnClose, 0, self.peer.clone());
        self.stats.connections_open.fetch_sub(1, Ordering::SeqCst);
    }

    fn run(&mut self, mut stream: &TcpStream) {
        let mut reader = BufReader::with_capacity(READ_BUF, stream);
        let mut frame = Vec::new();
        while !self.close {
            if !holds_whole_frame(reader.buffer()) {
                // Input ran dry: a natural group boundary, and the last
                // moment to reply before parking in the read.
                self.flush_group();
                if stream.write_all(&self.out).is_err() {
                    return;
                }
                self.out.clear();
            }
            match read_frame_into(&mut reader, self.cfg.max_frame, &mut frame) {
                Ok(true) => self.handle_frame(&frame),
                Ok(false) => return,
                Err(e @ FrameError::Oversized { .. }) => {
                    // The announced length is a lie we refuse to read
                    // through, so frame sync is unrecoverable: reject, then
                    // close.
                    self.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                    self.flush_group();
                    self.queue(&Reply::Reject { reason: e.to_string() });
                    self.close = true;
                }
                // The peer hung up mid-frame, or the socket failed.
                Err(_) => {
                    self.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                    return;
                }
            }
        }
        let _ = stream.write_all(&self.out);
    }

    /// Encode `reply` in the connection's granted codec and queue it,
    /// framed, for the next write.
    fn queue(&mut self, reply: &Reply) {
        encode_reply_into(reply, self.codec, &mut self.scratch);
        push_frame(&mut self.out, &self.scratch);
    }

    fn handle_frame(&mut self, frame: &[u8]) {
        if !self.hello {
            match decode_request(frame) {
                Ok(Request::Hello { proto, client, codec, window }) => {
                    self.hello(proto, client, codec, window)
                }
                Ok(_) => self.queue(&Reply::Reject { reason: "say hello first".to_string() }),
                Err(e) => {
                    self.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                    self.queue(&Reply::Reject { reason: format!("bad request: {e}") });
                }
            }
            return;
        }

        // The hot path: one read stages a submit straight into the open
        // group or yields a watermark; only control frames reach the Value
        // path.
        let req = match read_request(frame, &mut self.pending) {
            Ok(HotRequest::Staged { .. }) => {
                self.pending_frames += 1;
                if self.pending_frames >= self.window {
                    self.flush_group();
                }
                return;
            }
            Ok(HotRequest::Watermark(t)) => Ok(Request::Watermark { t }),
            Ok(HotRequest::Other) => decode(frame),
            Err(e) => Err(e),
        };
        // Any other frame closes the open group first so replies stay in
        // request order. Framing held, so after a bad request the stream is
        // still in sync: reject the message, keep serving the connection.
        self.flush_group();
        let req = match req {
            Ok(r) => r,
            Err(e) => {
                self.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                self.queue(&Reply::Reject { reason: format!("bad request: {e}") });
                return;
            }
        };
        match req {
            Request::Hello { proto, client, codec, window } => {
                self.hello(proto, client, codec, window)
            }
            Request::Submit { .. } | Request::SubmitBatch { .. } => {
                unreachable!("read_request stages every submit frame")
            }
            Request::Watermark { t } => match self.handle.advance_frontier(t) {
                Ok(delta) => {
                    self.seq += 1;
                    self.queue(&Reply::Ack { seq: self.seq, delta, frames: 0 });
                }
                Err(e) => self.queue(&Reply::Reject { reason: String::from(e) }),
            },
            Request::Swap { shard, at, spec } => {
                let target = usize::try_from(shard).ok();
                match spec.parse::<SchedulerSpec>() {
                    Ok(s) => match self.handle.swap(target, at, s) {
                        Ok(()) => {
                            self.seq += 1;
                            let delta = Default::default();
                            self.queue(&Reply::Ack { seq: self.seq, delta, frames: 0 });
                        }
                        Err(e) => self.queue(&Reply::Reject { reason: String::from(e) }),
                    },
                    Err(e) => self.queue(&Reply::Reject { reason: e }),
                }
            }
            Request::Snapshot => {
                let snap = self.handle.snapshot();
                self.queue(&Reply::State {
                    line: snap.line(),
                    offered: snap.ingest.offered,
                    delivered: snap.ingest.delivered,
                    dropped: snap.ingest.dropped,
                    balanced: snap.accounting_balanced(),
                });
            }
            Request::Metrics => {
                let mut text = self.handle.metrics().render_prometheus();
                text.push_str(&self.stats.render_prometheus());
                self.queue(&Reply::MetricsText { text });
            }
            Request::Drain => {
                self.seq += 1;
                self.queue(&Reply::Ack { seq: self.seq, delta: Default::default(), frames: 0 });
                let _ = self.drain_tx.send(self.client.clone());
                self.close = true;
            }
        }
    }

    /// Apply a hello: version-check, then grant codec and window.
    fn hello(&mut self, proto: u32, client: String, codec: WireCodec, window: u64) {
        if proto != PROTOCOL_VERSION {
            let reason =
                format!("protocol {proto} unsupported (gateway speaks {PROTOCOL_VERSION})");
            self.queue(&Reply::Reject { reason });
            self.close = true;
            return;
        }
        self.hello = true;
        self.client = client;
        self.codec = codec;
        self.window = window.clamp(1, self.cfg.max_window.max(1));
        let pool = self.handle.config();
        self.queue(&Reply::Welcome {
            proto: PROTOCOL_VERSION,
            shards: pool.shards,
            scheduler: pool.spec.name().to_string(),
            policy: pool.policy.name().to_string(),
            codec: self.codec,
            window: self.window,
        });
    }

    /// Close the open submit group: one room check, one pool offer, one
    /// reply. The group is all-or-nothing, so its ledger delta is never
    /// ambiguous. Under the blocking policy it is offered only if every
    /// shard queue has a free slot: one offer sends at most one admit
    /// command per shard, so it then cannot stall the thread. Otherwise the
    /// whole group is refused with one [`Reply::Busy`] before it touches
    /// any ledger counter, and the client resends it.
    fn flush_group(&mut self) {
        let frames = self.pending_frames;
        if frames == 0 {
            return;
        }
        let gated = self.handle.config().policy == OverloadPolicy::Block;
        if gated && !self.handle.has_batch_room() {
            self.stats.busy_replies.fetch_add(1, Ordering::SeqCst);
            let t = self.pending.first().map(|j| j.release).unwrap_or(0);
            let detail = format!("{} batch of {}", self.peer, self.pending.len());
            let _ = self.handle.record_flight(0, FlightKind::Busy, t, detail);
            self.queue(&Reply::Busy { retry_after_ms: self.cfg.retry_after_ms, frames });
        } else {
            let jobs = self.pending.len() as u64;
            match self.handle.offer_batch_stamped(&mut self.pending, self.handle.now_us()) {
                Ok(delta) => {
                    self.stats.remote_jobs.fetch_add(jobs, Ordering::SeqCst);
                    self.seq += 1;
                    self.queue(&Reply::Ack { seq: self.seq, delta, frames });
                }
                Err(e) => self.queue(&Reply::Reject { reason: String::from(e) }),
            }
        }
        self.pending.clear();
        self.pending_frames = 0;
    }
}
