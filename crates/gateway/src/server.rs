//! The gateway server: an event-driven connection loop multiplexing any
//! number of client connections into a single [`PoolHandle`].
//!
//! An accept thread hands each connection to one of a fixed pool of worker
//! threads (round-robin). Every worker owns a set of *nonblocking* sockets
//! and loops over them: drain readable bytes into a per-connection buffer,
//! parse complete frames in place, handle them, and flush buffered replies
//! without ever blocking on a peer — so thousands of mostly-idle clients
//! cost a handful of threads, not one thread each. std has no portable
//! readiness API, so the loop is a polling one with an adaptive idle
//! strategy: yield while hot (a reply is usually answered within one
//! scheduler quantum), back off to millisecond sleeps only when every
//! connection has gone quiet.
//!
//! Consecutive submit frames on one connection coalesce into a single
//! pool offer answered by one cumulative `ack{seq,delta,frames}` — the
//! group closes when the connection's negotiated window fills, a
//! non-submit frame arrives, or the readable bytes run dry. Workers never
//! block inside the pool on a client's behalf: when the pool's policy is
//! `block`, a group that would block is answered with [`Reply::Busy`]
//! *before* being offered, so backpressure becomes a wire-level retry loop
//! instead of a stalled worker, and the ledger invariant
//! `delivered + dropped == offered` stays exact across all clients
//! combined.
//!
//! Connection lifecycle (`conn-open` / `conn-close`) and every `Busy`
//! shed land in shard 0's flight-recorder ring — the router's shard — so
//! `report --flight` shows the network edge next to swaps and drops.

use crate::wire::{
    decode, decode_request, encode_reply_into, frame_len, push_frame, read_request, HotRequest,
    Reply, Request, WireCodec, HEADER_LEN, MAX_FRAME, PROTOCOL_VERSION,
};
use flowtree_core::SchedulerSpec;
use flowtree_serve::{FlightKind, OverloadPolicy, PoolHandle};
use flowtree_sim::JobSpec;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Consecutive no-progress worker iterations before the loop stops
/// yielding and starts sleeping.
const IDLE_YIELDS: u32 = 64;

/// Idle iterations after which the sleep stretches from 1 ms to
/// [`DEEP_IDLE_SLEEP`] — a long-quiet gateway should not tax a loaded
/// host with timer wakeups.
const DEEP_IDLE_AFTER: u32 = 200;

/// The deep-idle sleep.
const DEEP_IDLE_SLEEP: Duration = Duration::from_millis(10);

/// Per-connection read chunk; also bounds how much one connection can
/// pull in per worker iteration (fairness across connections).
const READ_CHUNK: usize = 16 << 10;

/// Compact a buffer once this many consumed bytes sit in front of it.
const COMPACT_AT: usize = 64 << 10;

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-frame payload ceiling (bytes).
    pub max_frame: usize,
    /// Back-off suggested in [`Reply::Busy`].
    pub retry_after_ms: u64,
    /// Event-loop worker threads; `0` picks `min(cores, 4)`.
    pub workers: usize,
    /// Ceiling on the ack window a client may negotiate in its hello.
    pub max_window: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_frame: MAX_FRAME,
            retry_after_ms: 50,
            workers: 0,
            max_window: 256,
        }
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

/// A running gateway: accept loop plus a fixed pool of event-loop workers.
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    stats: Arc<GatewayStats>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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

        let nworkers = if cfg.workers == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
        } else {
            cfg.workers
        };
        let mut workers = Vec::with_capacity(nworkers);
        let mut conn_txs = Vec::with_capacity(nworkers);
        for w in 0..nworkers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(tx);
            let handle = handle.clone();
            let cfg = cfg.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let drain_tx = drain_tx.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("gateway-worker-{w}"))
                    .spawn(move || worker_loop(rx, handle, &cfg, &stats, &stop, &drain_tx))?,
            );
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::Builder::new().name("gateway-accept".into()).spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    stats.connections_total.fetch_add(1, Ordering::SeqCst);
                    stats.connections_open.fetch_add(1, Ordering::SeqCst);
                    if conn_txs[next % conn_txs.len()].send(stream).is_err() {
                        stats.connections_open.fetch_sub(1, Ordering::SeqCst);
                    }
                    next += 1;
                }
            })?
        };

        Ok(Gateway {
            addr: local,
            stats,
            stop,
            accept: Some(accept),
            workers,
            drain_rx,
        })
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

    /// Stop accepting, wake the workers out of their polling loops, and
    /// join every thread. Safe to call with connections still open —
    /// workers flush what they can and close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept loop awake with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

/// One connection's state inside a worker's event loop.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Client name from the hello; the handshake gate is `hello`.
    client: String,
    hello: bool,
    seq: u64,
    /// Granted codec for hot *replies* (requests are sniffed per frame).
    codec: WireCodec,
    /// Granted ack window: submit frames that may coalesce into one ack.
    window: u64,
    /// Read buffer; `rpos` is the parse cursor (consumed prefix).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Write buffer; `wpos` is the flush cursor (already-sent prefix).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Jobs staged from not-yet-acknowledged submit frames of the open
    /// group, and how many frames staged them.
    pending: Vec<JobSpec>,
    pending_frames: u64,
    /// Flush remaining writes, then close cleanly (drain, fatal reject).
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn adopt(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string());
        Ok(Conn {
            stream,
            peer,
            client: String::new(),
            hello: false,
            seq: 0,
            codec: WireCodec::Json,
            window: 1,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            pending: Vec::new(),
            pending_frames: 0,
            close_after_flush: false,
            dead: false,
        })
    }
}

/// Everything a worker needs to handle frames, bundled so the per-frame
/// handlers stay readable.
struct WorkerCtx<'a> {
    handle: &'a PoolHandle,
    cfg: &'a GatewayConfig,
    stats: &'a GatewayStats,
    drain_tx: &'a mpsc::Sender<String>,
    /// Reply-encode scratch, shared across this worker's connections.
    scratch: Vec<u8>,
}

impl WorkerCtx<'_> {
    /// Encode `reply` in the connection's granted codec and append it,
    /// framed, to the connection's write buffer.
    fn queue_reply(&mut self, conn: &mut Conn, reply: &Reply) {
        encode_reply_into(reply, conn.codec, &mut self.scratch);
        push_frame(&mut conn.wbuf, &self.scratch);
    }
}

/// The event loop: adopt new connections, step each live one, reap the
/// dead, and idle adaptively when nothing moved.
fn worker_loop(
    rx: mpsc::Receiver<TcpStream>,
    handle: PoolHandle,
    cfg: &GatewayConfig,
    stats: &GatewayStats,
    stop: &AtomicBool,
    drain_tx: &mpsc::Sender<String>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut ctx = WorkerCtx { handle: &handle, cfg, stats, drain_tx, scratch: Vec::new() };
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut idle = 0u32;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let mut progress = false;
        while let Ok(stream) = rx.try_recv() {
            progress = true;
            match Conn::adopt(stream) {
                Ok(conn) => {
                    let _ = handle.record_flight(0, FlightKind::ConnOpen, 0, conn.peer.clone());
                    conns.push(conn);
                }
                Err(_) => {
                    stats.connections_open.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        for conn in &mut conns {
            progress |= step_conn(conn, &mut ctx, &mut chunk);
        }
        conns.retain(|c| {
            if c.dead {
                let _ = handle.record_flight(0, FlightKind::ConnClose, 0, c.peer.clone());
                stats.connections_open.fetch_sub(1, Ordering::SeqCst);
            }
            !c.dead
        });
        if stopping {
            for conn in &mut conns {
                flush_writes(conn);
                let _ = handle.record_flight(0, FlightKind::ConnClose, 0, conn.peer.clone());
                stats.connections_open.fetch_sub(1, Ordering::SeqCst);
            }
            break;
        }
        if progress {
            idle = 0;
        } else {
            idle = idle.saturating_add(1);
            if idle <= IDLE_YIELDS {
                thread::yield_now();
            } else if idle <= DEEP_IDLE_AFTER {
                thread::sleep(Duration::from_millis(1));
            } else {
                thread::sleep(DEEP_IDLE_SLEEP);
            }
        }
    }
}

/// One scheduling quantum for one connection: flush, read, parse, handle.
/// Returns whether any byte moved (the worker's idle signal).
fn step_conn(conn: &mut Conn, ctx: &mut WorkerCtx<'_>, chunk: &mut [u8]) -> bool {
    if conn.dead {
        return false;
    }
    let mut progress = flush_writes(conn);
    if conn.dead {
        return progress;
    }
    if conn.close_after_flush {
        if conn.wpos == conn.wbuf.len() {
            conn.dead = true;
        }
        return progress;
    }

    // Pull in whatever is readable, up to the fairness cap.
    let mut saw_eof = false;
    let mut pulled = 0usize;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                pulled += n;
                progress = true;
                if n < chunk.len() || pulled >= 4 * READ_CHUNK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                break
            }
            Err(_) => {
                ctx.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                conn.dead = true;
                return progress;
            }
        }
    }

    // Parse and handle every complete frame already buffered.
    while !conn.dead && !conn.close_after_flush {
        let Some(header) = conn.rbuf[conn.rpos..].first_chunk() else {
            break;
        };
        let len = match frame_len(header, ctx.cfg.max_frame) {
            Ok(len) => len,
            Err(e) => {
                // The announced length is a lie we refuse to read through, so
                // frame sync is unrecoverable: reject, then close.
                ctx.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                flush_group(conn, ctx);
                ctx.queue_reply(conn, &Reply::Reject { reason: e.to_string() });
                conn.close_after_flush = true;
                break;
            }
        };
        if conn.rbuf.len() - conn.rpos < HEADER_LEN + len {
            break;
        }
        let start = conn.rpos + HEADER_LEN;
        conn.rpos = start + len;
        progress = true;
        handle_frame(conn, start, start + len, ctx);
    }

    // Input ran dry: a natural group boundary.
    if !conn.dead && !conn.close_after_flush {
        flush_group(conn, ctx);
    }

    // Reclaim consumed read-buffer space.
    if conn.rpos == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if conn.rpos > COMPACT_AT {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }

    if saw_eof && !conn.dead {
        if conn.rpos < conn.rbuf.len() {
            // The peer hung up mid-frame.
            ctx.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
            conn.dead = true;
        } else {
            conn.close_after_flush = true;
        }
    }

    progress | flush_writes(conn)
}

/// Nonblocking write of the connection's buffered replies. Returns
/// whether any byte left.
fn flush_writes(conn: &mut Conn) -> bool {
    let mut progress = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                break
            }
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > COMPACT_AT {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    progress
}

/// Handle the frame at `rbuf[start..end]`.
fn handle_frame(conn: &mut Conn, start: usize, end: usize, ctx: &mut WorkerCtx<'_>) {
    if !conn.hello {
        match decode_request(&conn.rbuf[start..end]) {
            Ok(Request::Hello { proto, client, codec, window }) => {
                hello(conn, ctx, proto, client, codec, window)
            }
            Ok(_) => {
                ctx.queue_reply(conn, &Reply::Reject { reason: "say hello first".to_string() })
            }
            Err(e) => {
                ctx.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                ctx.queue_reply(conn, &Reply::Reject { reason: format!("bad request: {e}") });
            }
        }
        return;
    }

    // The hot path: one read stages a submit straight into the open group
    // or yields a watermark; only control frames reach the Value path.
    let req = match read_request(&conn.rbuf[start..end], &mut conn.pending) {
        Ok(HotRequest::Staged { .. }) => {
            conn.pending_frames += 1;
            if conn.pending_frames >= conn.window {
                flush_group(conn, ctx);
            }
            return;
        }
        Ok(HotRequest::Watermark(t)) => Ok(Request::Watermark { t }),
        Ok(HotRequest::Other) => decode(&conn.rbuf[start..end]),
        Err(e) => Err(e),
    };
    // Any other frame closes the open group first so replies stay in
    // request order. Framing held, so after a bad request the stream is
    // still in sync: reject the message, keep serving the connection.
    flush_group(conn, ctx);
    let req = match req {
        Ok(r) => r,
        Err(e) => {
            ctx.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
            ctx.queue_reply(conn, &Reply::Reject { reason: format!("bad request: {e}") });
            return;
        }
    };
    match req {
        Request::Hello { proto, client, codec, window } => {
            hello(conn, ctx, proto, client, codec, window)
        }
        Request::Submit { .. } | Request::SubmitBatch { .. } => {
            unreachable!("read_request stages every submit frame")
        }
        Request::Watermark { t } => match ctx.handle.advance_frontier(t) {
            Ok(delta) => {
                conn.seq += 1;
                ctx.queue_reply(conn, &Reply::Ack { seq: conn.seq, delta, frames: 0 });
            }
            Err(e) => ctx.queue_reply(conn, &Reply::Reject { reason: String::from(e) }),
        },
        Request::Swap { shard, at, spec } => {
            let target = usize::try_from(shard).ok();
            match spec.parse::<SchedulerSpec>() {
                Ok(s) => match ctx.handle.swap(target, at, s) {
                    Ok(()) => {
                        conn.seq += 1;
                        ctx.queue_reply(
                            conn,
                            &Reply::Ack { seq: conn.seq, delta: Default::default(), frames: 0 },
                        );
                    }
                    Err(e) => ctx.queue_reply(conn, &Reply::Reject { reason: String::from(e) }),
                },
                Err(e) => ctx.queue_reply(conn, &Reply::Reject { reason: e }),
            }
        }
        Request::Snapshot => {
            let snap = ctx.handle.snapshot();
            ctx.queue_reply(
                conn,
                &Reply::State {
                    line: snap.line(),
                    offered: snap.ingest.offered,
                    delivered: snap.ingest.delivered,
                    dropped: snap.ingest.dropped,
                    balanced: snap.accounting_balanced(),
                },
            );
        }
        Request::Metrics => {
            let mut text = ctx.handle.metrics().render_prometheus();
            text.push_str(&ctx.stats.render_prometheus());
            ctx.queue_reply(conn, &Reply::MetricsText { text });
        }
        Request::Drain => {
            conn.seq += 1;
            ctx.queue_reply(
                conn,
                &Reply::Ack { seq: conn.seq, delta: Default::default(), frames: 0 },
            );
            let _ = ctx.drain_tx.send(conn.client.clone());
            conn.close_after_flush = true;
        }
    }
}

/// Apply a hello: version-check, then grant codec and window.
fn hello(
    conn: &mut Conn,
    ctx: &mut WorkerCtx<'_>,
    proto: u32,
    client: String,
    codec: WireCodec,
    window: u64,
) {
    if proto != PROTOCOL_VERSION {
        let reason = format!("protocol {proto} unsupported (gateway speaks {PROTOCOL_VERSION})");
        ctx.queue_reply(conn, &Reply::Reject { reason });
        conn.close_after_flush = true;
        return;
    }
    conn.hello = true;
    conn.client = client;
    conn.codec = codec;
    conn.window = window.clamp(1, ctx.cfg.max_window.max(1));
    let pool = ctx.handle.config();
    ctx.queue_reply(
        conn,
        &Reply::Welcome {
            proto: PROTOCOL_VERSION,
            shards: pool.shards,
            scheduler: pool.spec.name().to_string(),
            policy: pool.policy.name().to_string(),
            codec: conn.codec,
            window: conn.window,
        },
    );
}

/// Close the connection's open submit group: one room check, one pool
/// offer, one reply. The group is all-or-nothing, so its ledger delta is
/// never ambiguous. Under the blocking policy it is offered only if every
/// shard queue has a free slot: one offer sends at most one admit command
/// per shard, so it then cannot stall the worker. Otherwise the whole group
/// is refused with one [`Reply::Busy`] before it touches any ledger
/// counter, and the client resends it.
fn flush_group(conn: &mut Conn, ctx: &mut WorkerCtx<'_>) {
    let frames = conn.pending_frames;
    if frames == 0 {
        return;
    }
    let gated = ctx.handle.config().policy == OverloadPolicy::Block;
    if gated && !ctx.handle.has_batch_room() {
        ctx.stats.busy_replies.fetch_add(1, Ordering::SeqCst);
        let t = conn.pending.first().map(|j| j.release).unwrap_or(0);
        let detail = format!("{} batch of {}", conn.peer, conn.pending.len());
        let _ = ctx.handle.record_flight(0, FlightKind::Busy, t, detail);
        ctx.queue_reply(conn, &Reply::Busy { retry_after_ms: ctx.cfg.retry_after_ms, frames });
    } else {
        let jobs = conn.pending.len() as u64;
        match ctx.handle.offer_batch_stamped(&mut conn.pending, ctx.handle.now_us()) {
            Ok(delta) => {
                ctx.stats.remote_jobs.fetch_add(jobs, Ordering::SeqCst);
                conn.seq += 1;
                ctx.queue_reply(conn, &Reply::Ack { seq: conn.seq, delta, frames });
            }
            Err(e) => ctx.queue_reply(conn, &Reply::Reject { reason: String::from(e) }),
        }
    }
    conn.pending.clear();
    conn.pending_frames = 0;
}
