//! # xtwig-net — serving twig queries over the network
//!
//! The paper's premise is that twig matching belongs inside a
//! production query processor; this crate is the network front end
//! that makes the serving stack reachable from another process. It is
//! deliberately std-only (the build has no crates.io access): a
//! hand-rolled length-prefixed binary protocol over TCP, in three
//! layers —
//!
//! * [`frame`] — the byte layer: `[magic][opcode][len][payload]`
//!   frames with a hard payload bound, so a garbage prefix can neither
//!   desynchronize the peer silently nor drive allocation.
//! * [`proto`] — the message layer: [`proto::Request`] /
//!   [`proto::Response`] encoded with the same `ByteWriter` /
//!   `ByteReader` primitives the index file format uses. Strict
//!   decoding (unknown opcodes and trailing bytes are errors) is what
//!   makes the typed `Malformed` response possible.
//! * [`server`] / [`client`] — the endpoints. The server fronts a
//!   [`xtwig_service::Catalog`] (many persisted `.xtwig` indexes by
//!   name, each opened on first use and kept attached) and runs one
//!   thread per connection; each request executes on that thread via
//!   [`xtwig_service::TwigService::execute`], so back-pressure is the
//!   service's admission budget and an overloaded server answers with
//!   a typed `Overloaded` error the client can back off on.
//!
//! Everything the in-process service exposes crosses the wire: query
//! answers (byte-identical ids to in-process execution — the root
//! `network` integration suite asserts this for every built strategy),
//! `auto` strategy resolution, explain rankings, maintenance
//! transactions (tag *names* on the wire, resolved through the target
//! index's dictionary), Prometheus `metrics_text`, and service-stats
//! JSON.
//!
//! Requests additionally travel inside a *trace envelope* carrying a
//! client-assigned request id and a sample flag; the server echoes the
//! id, threads it into slow-query records, and serves the captured
//! span tree back over `Trace` — so a slow query seen in the event
//! journal (`Events`) is attributable end-to-end. Bare v1 frames still
//! decode, so old clients keep working.

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, WireAnswer};
pub use frame::{read_frame, write_frame, Frame, FrameError, FRAME_OVERHEAD, MAGIC, MAX_FRAME_LEN};
pub use proto::{ErrorCode, Request, Response, TraceContext, WireEvent, WireOp};
pub use server::{
    handle_request, handle_request_ctx, ConnStats, Server, ServerHandle, ServerOptions,
};
