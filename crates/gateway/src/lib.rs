//! # flowtree-gateway — a networked front door for `flowtree-serve`
//!
//! Everything in [`flowtree_serve`] assumes the arrival source lives in
//! the server process. This crate puts the shard pool behind a socket: a
//! length-framed [`wire`] protocol (JSON control plane plus a negotiated
//! binary codec for the hot messages), a [`Gateway`] server that serves
//! each connection, up to [`MAX_CONNECTIONS`](server::MAX_CONNECTIONS), on
//! its own blocking thread, all feeding one
//! [`PoolHandle`](flowtree_serve::PoolHandle), and a blocking
//! [`GatewayClient`] with pipelined submits and reconnect-and-resume for
//! replay drivers.
//!
//! Design invariants, pinned by the integration tests:
//!
//! * **Transparency** — a single client replaying a trace through the
//!   gateway produces a [`StoreRecord`](flowtree_serve::StoreRecord)
//!   byte-for-byte identical to the in-process `serve` path on the same
//!   pool configuration (placement is a pure function of arrival order).
//! * **Exact books** — with any number of interleaved clients, no job is
//!   lost and the pool ledger `delivered + dropped == offered`
//!   balances across all clients combined; a [`Reply::Busy`] batch was
//!   never offered, so it perturbs no counter.
//! * **No panic from bytes** — malformed frames (truncated, oversized,
//!   non-JSON, nested past `serde_json::MAX_DEPTH`, unknown tag, node
//!   counts over [`MAX_FRAME_NODES`]) are answered with a typed
//!   [`Reply::Reject`] or a clean close; they never reach a shard, and a
//!   refused batch offers none of its jobs.
//! * **Bounded per client** — a client that never reads its replies stalls
//!   in its own writes once the socket buffers fill, and connections past
//!   [`MAX_CONNECTIONS`](server::MAX_CONNECTIONS) are refused, so no
//!   client input grows memory or threads without limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{
    ClientError, ClientOptions, ClientRunStats, GatewayClient, RemoteSnapshot, SubmitOutcome,
};
pub use server::{Gateway, GatewayConfig, GatewayStats};
pub use wire::{
    decode, decode_reply, decode_request, decode_submit_into, encode, encode_reply_into,
    encode_request_into, encode_submit_batch_into, read_frame_into, write_frame, FrameError, Reply,
    Request, WireCodec, BINARY_MARKER, MAX_FRAME, MAX_FRAME_NODES, PROTOCOL_VERSION,
};
