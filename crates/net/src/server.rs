//! The TCP server: an accept loop, one thread per connection, and the
//! request handler that bridges wire messages onto the catalog.
//!
//! Threading model: each connection's thread *is* its dispatcher —
//! requests run on it via [`TwigService::execute`] (the service's one
//! dispatch door), so neither layer has a queue, and
//! back-pressure is exactly the service's admission budget: when it is
//! exhausted the client sees a typed `Overloaded` response immediately
//! instead of a silently growing backlog.
//!
//! Error discipline per connection: a payload that *decodes wrong* gets
//! a typed `Malformed` response and the connection keeps serving
//! (framing is intact); a frame that *frames wrong* (bad magic,
//! oversized length) gets the typed response and then the connection is
//! dropped, because byte alignment is unrecoverable.
//!
//! Observability: every connection is journaled (`ConnOpen`/`ConnClose`
//! with frame/byte/error accounting), requests wrapped in the v2 trace
//! envelope thread their [`RequestCtx`] into the service so slow-query
//! records carry the request id + peer, and the optional access log
//! writes one line per request to stderr.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xtwig_core::parse_xpath;
use xtwig_core::Strategy;
use xtwig_service::{
    Catalog, CatalogError, Event, RequestCtx, ServiceError, TwigService, UpdateOp,
};

use crate::frame::{read_frame, write_frame, FrameError, FRAME_OVERHEAD};
use crate::proto::{ErrorCode, Request, Response, WireEvent, WireOp};

/// Largest `Events` page the server will serve, whatever the client
/// asked for.
const MAX_EVENT_PAGE: usize = 1024;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Per-connection read timeout: a peer idle longer than this is
    /// disconnected so it cannot pin a thread forever. `None` disables
    /// the timeout (default 300 s).
    pub idle_timeout: Option<Duration>,
    /// Write one access-log line per request to stderr (default off).
    pub access_log: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { idle_timeout: Some(Duration::from_secs(300)), access_log: false }
    }
}

/// Per-connection accounting, reported in the `ConnClose` event.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    /// Frames read from the peer.
    pub frames_in: u64,
    /// Bytes read from the peer (frame headers included).
    pub bytes_in: u64,
    /// Frames written to the peer.
    pub frames_out: u64,
    /// Bytes written to the peer (frame headers included).
    pub bytes_out: u64,
    /// Error responses sent (typed failures, not transport faults).
    pub errors: u64,
}

/// A running TCP front end over a [`Catalog`].
pub struct Server {
    listener: TcpListener,
    catalog: Arc<Catalog>,
    options: ServerOptions,
    stop: Arc<AtomicBool>,
    /// Stream clones for every live connection, so shutdown can unblock
    /// readers parked in `read_frame`.
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

/// A handle that can stop a [`Server`] from another thread (the server
/// itself blocks in [`Server::run`]).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and unblocks the accept loop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it awake.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) over the
    /// given catalog, with default options.
    pub fn bind(addr: &str, catalog: Arc<Catalog>) -> std::io::Result<Server> {
        Server::bind_with(addr, catalog, ServerOptions::default())
    }

    /// Binds with explicit [`ServerOptions`].
    pub fn bind_with(
        addr: &str,
        catalog: Arc<Catalog>,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            catalog,
            options,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle { addr: self.local_addr()?, stop: self.stop.clone() })
    }

    /// Serves until a client sends `Shutdown` or [`ServerHandle::stop`]
    /// fires; then closes every live connection, joins their threads,
    /// and returns.
    pub fn run(self) -> std::io::Result<()> {
        let mut joins = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.stop.load(Ordering::SeqCst) {
                break; // the wake-up connection itself, or raced stop
            }
            if let Ok(clone) = stream.try_clone() {
                self.conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
            }
            let catalog = self.catalog.clone();
            let stop = self.stop.clone();
            let addr = self.local_addr()?;
            let options = self.options.clone();
            joins.push(std::thread::spawn(move || {
                serve_connection(stream, &catalog, &stop, addr, &options);
            }));
        }
        // Unblock every connection thread still parked in read_frame.
        for conn in self.conns.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for j in joins {
            let _ = j.join();
        }
        Ok(())
    }
}

/// One connection's serve loop; returns when the peer hangs up, framing
/// is lost, or shutdown begins. Journals the connection's lifecycle and
/// final frame/byte accounting.
fn serve_connection(
    stream: TcpStream,
    catalog: &Catalog,
    stop: &Arc<AtomicBool>,
    server_addr: SocketAddr,
    options: &ServerOptions,
) {
    let events = catalog.events();
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".to_owned());
    // Never let one stuck peer pin a thread forever — and if the OS
    // refuses the timeout, say so in the journal instead of serving an
    // unbounded connection silently.
    if let Err(e) = stream.set_read_timeout(options.idle_timeout) {
        events.emit(Event::ServerError {
            detail: format!("set_read_timeout failed for {peer}: {e}"),
        });
    }
    let Ok(read_half) = stream.try_clone() else { return };
    // Closing on exit must be explicit: the server's shutdown registry
    // holds another clone of this stream, so merely dropping our
    // handles would leave the socket open and the peer hanging.
    let closer = stream.try_clone().ok();
    events.emit(Event::ConnOpen { peer: peer.clone() });
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut stats = ConnStats::default();
    serve_loop(&mut reader, &mut writer, catalog, stop, server_addr, options, &peer, &mut stats);
    events.emit(Event::ConnClose {
        peer,
        frames_in: stats.frames_in,
        frames_out: stats.frames_out,
        bytes_in: stats.bytes_in,
        bytes_out: stats.bytes_out,
        errors: stats.errors,
    });
    if let Some(s) = closer {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

/// The request/response pump; returning ends the connection.
#[allow(clippy::too_many_arguments)] // one call site; splitting would just rename the args
fn serve_loop(
    reader: &mut std::io::BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    catalog: &Catalog,
    stop: &Arc<AtomicBool>,
    server_addr: SocketAddr,
    options: &ServerOptions,
    peer: &str,
    stats: &mut ConnStats,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(reader) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => return,
            Err(e @ (FrameError::BadMagic(_) | FrameError::Oversized(_))) => {
                // Typed rejection, then drop: the byte stream is no
                // longer frame-aligned, so nothing after it is
                // trustworthy.
                let resp = Response::Error { code: ErrorCode::Malformed, message: e.to_string() };
                let (op, payload) = resp.encode();
                stats.errors += 1;
                if write_frame(writer, op, &payload).is_ok() {
                    stats.frames_out += 1;
                    stats.bytes_out += (FRAME_OVERHEAD + payload.len()) as u64;
                }
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        stats.frames_in += 1;
        stats.bytes_in += (FRAME_OVERHEAD + frame.payload.len()) as u64;
        let started = Instant::now();
        let mut label = "malformed";
        let (ctx, resp, shutdown) = match Request::decode_enveloped(&frame) {
            Ok((ctx, Request::Shutdown)) => {
                label = "shutdown";
                (ctx, Response::ShutdownAck, true)
            }
            Ok((ctx, req)) => {
                label = req.label();
                let rq = RequestCtx {
                    request_id: ctx.map(|c| c.request_id).unwrap_or(0),
                    sample: ctx.map(|c| c.sample).unwrap_or(false),
                    peer: peer.to_owned(),
                };
                (ctx, handle_request_ctx(catalog, &req, &rq), false)
            }
            Err(e) => (
                // Framing held, payload didn't: answer and keep going.
                None,
                Response::Error { code: ErrorCode::Malformed, message: e.0 },
                false,
            ),
        };
        let is_error = matches!(resp, Response::Error { .. });
        if is_error {
            stats.errors += 1;
        }
        // Echo the request id back inside the envelope iff the request
        // arrived enveloped; bare v1 requests get bare v1 responses.
        let (op, payload) = match ctx {
            Some(c) => resp.encode_enveloped(c.request_id),
            None => resp.encode(),
        };
        if options.access_log {
            eprintln!(
                "[access] peer={} id={} op={} outcome={} micros={}",
                peer,
                ctx.map(|c| c.request_id).unwrap_or(0),
                label,
                if is_error { "error" } else { "ok" },
                started.elapsed().as_micros()
            );
        }
        if write_frame(writer, op, &payload).is_err() {
            return;
        }
        stats.frames_out += 1;
        stats.bytes_out += (FRAME_OVERHEAD + payload.len()) as u64;
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(server_addr); // unblock accept
            return;
        }
    }
}

/// Maps a catalog lookup failure to its wire category.
fn catalog_error(e: CatalogError) -> Response {
    let code = match &e {
        CatalogError::UnknownIndex(_) => ErrorCode::UnknownIndex,
        CatalogError::Open { .. } | CatalogError::Scan { .. } => ErrorCode::Internal,
    };
    Response::Error { code, message: e.to_string() }
}

/// Maps a service-layer failure to its wire category.
fn service_error(e: ServiceError) -> Response {
    let code = match &e {
        ServiceError::Overloaded { .. } => ErrorCode::Overloaded,
        ServiceError::StrategyNotBuilt(_) => ErrorCode::StrategyNotBuilt,
    };
    Response::Error { code, message: e.to_string() }
}

/// Executes one decoded request against the catalog with an empty
/// (local, unsampled) request context. Pure request-in/response-out —
/// no socket state — so tests can drive it directly.
pub fn handle_request(catalog: &Catalog, req: &Request) -> Response {
    handle_request_ctx(catalog, req, &RequestCtx::default())
}

/// [`handle_request`] with an explicit [`RequestCtx`]; the serve loop
/// threads the wire trace envelope (request id, sample flag) plus the
/// peer address through here so slow-query records are attributable.
pub fn handle_request_ctx(catalog: &Catalog, req: &Request, ctx: &RequestCtx) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShutdownAck,
        Request::CatalogList => {
            let mut out = String::new();
            for e in catalog.entries() {
                out.push_str(&e.name);
                out.push('\t');
                out.push_str(if e.attached { "attached" } else { "registered" });
                out.push('\n');
            }
            Response::Text(out)
        }
        Request::Query { index, xpath, strategy } => {
            let svc = match catalog.get(index) {
                Ok(svc) => svc,
                Err(e) => return catalog_error(e),
            };
            let strategy: Strategy = match strategy.parse() {
                Ok(s) => s,
                Err(_) => {
                    return Response::Error {
                        code: ErrorCode::Malformed,
                        message: format!("unknown strategy label {strategy:?}"),
                    }
                }
            };
            let twig = match parse_xpath(xpath) {
                Ok(t) => t,
                Err(e) => {
                    return Response::Error { code: ErrorCode::BadQuery, message: e.to_string() }
                }
            };
            match svc.execute_with(&twig, strategy, ctx) {
                Ok(answer) => Response::Answer {
                    strategy: answer.strategy.label().to_owned(),
                    plan: format!("{:?}", answer.plan),
                    from_cache: answer.from_cache,
                    micros: answer.metrics.elapsed.as_micros() as u64,
                    ids: answer.ids.iter().copied().collect(),
                },
                Err(e) => service_error(e),
            }
        }
        Request::Explain { index, xpath } => {
            let svc = match catalog.get(index) {
                Ok(svc) => svc,
                Err(e) => return catalog_error(e),
            };
            let twig = match parse_xpath(xpath) {
                Ok(t) => t,
                Err(e) => {
                    return Response::Error { code: ErrorCode::BadQuery, message: e.to_string() }
                }
            };
            match svc.with_engine(|e| e.explain(&twig)) {
                Ok(ex) => {
                    let mut out = ex.plan.to_string();
                    for c in &ex.choices {
                        out.push_str(&format!(
                            "{:8} est_page_reads={:.1} est_probes={:.1} est_rows={:.1}\n",
                            c.strategy.label(),
                            c.est_page_reads,
                            c.est_probes,
                            c.est_rows
                        ));
                    }
                    Response::Text(out)
                }
                Err(e) => Response::Error { code: ErrorCode::BadQuery, message: e.to_string() },
            }
        }
        Request::Update { index, ops } => {
            let svc = match catalog.get(index) {
                Ok(svc) => svc,
                Err(e) => return catalog_error(e),
            };
            let resolved = match resolve_ops(&svc, ops) {
                Ok(resolved) => resolved,
                Err(resp) => return resp,
            };
            let generation = svc.apply_update(resolved);
            Response::UpdateAck { generation }
        }
        Request::Metrics { index } => match catalog.get(index) {
            Ok(svc) => Response::Text(svc.metrics_text()),
            Err(e) => catalog_error(e),
        },
        Request::Stats { index } => match catalog.get(index) {
            Ok(svc) => Response::Text(svc.stats().to_json("")),
            Err(e) => catalog_error(e),
        },
        Request::Trace { index, request_id } => {
            let svc = match catalog.get(index) {
                Ok(svc) => svc,
                Err(e) => return catalog_error(e),
            };
            match svc.find_trace(*request_id) {
                Some(rec) => {
                    let mut out = format!(
                        "request {} query {:?} strategy {} micros {} generation {}\n",
                        request_id,
                        rec.query,
                        rec.strategy.label(),
                        rec.micros,
                        rec.generation
                    );
                    out.push_str(&rec.spans);
                    Response::Text(out)
                }
                None => Response::Error {
                    code: ErrorCode::UnknownTrace,
                    message: format!(
                        "no captured trace for request {request_id} on index {index:?} \
                         (only sampled or slow requests are retained, in a bounded ring)"
                    ),
                },
            }
        }
        Request::Events { after, max } => {
            let page = (*max as usize).min(MAX_EVENT_PAGE);
            let events = catalog
                .events()
                .since(*after, page)
                .into_iter()
                .map(|e| WireEvent {
                    seq: e.seq,
                    unix_micros: e.unix_micros,
                    kind: e.event.kind().to_owned(),
                    detail: e.event.detail(),
                })
                .collect();
            Response::Events { events }
        }
    }
}

/// Resolves wire ops (tag *names*) into engine ops (`TagId`s) through
/// the target index's dictionary. A name the document never contained
/// is a typed `UnknownTag` error — the wire cannot intern new tags,
/// because `TagId` assignment is an engine-build detail (a documented
/// limitation: updates extend existing vocabularies only).
fn resolve_ops(svc: &TwigService, ops: &[WireOp]) -> Result<Vec<UpdateOp>, Response> {
    svc.with_engine(|engine| {
        let dict = engine.forest().dict();
        ops.iter()
            .map(|op| {
                let tags = op
                    .tags
                    .iter()
                    .map(|name| {
                        dict.lookup(name).ok_or_else(|| Response::Error {
                            code: ErrorCode::UnknownTag,
                            message: format!("unknown tag {name:?}"),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if tags.len() != op.ids.len() {
                    return Err(Response::Error {
                        code: ErrorCode::Malformed,
                        message: format!("op has {} tags but {} ids", tags.len(), op.ids.len()),
                    });
                }
                Ok(if op.insert {
                    UpdateOp::InsertPath { tags, ids: op.ids.clone(), value: op.value.clone() }
                } else {
                    UpdateOp::DeletePath { tags, ids: op.ids.clone(), value: op.value.clone() }
                })
            })
            .collect()
    })
}
