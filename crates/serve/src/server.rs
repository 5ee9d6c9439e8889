//! The daemon: accept loop, bounded admission queue, worker pool,
//! request routing, graceful shutdown.
//!
//! Shape: the accept loop blocks in `accept()` and does nothing but
//! admission control — it hands each connection to a bounded
//! `sync_channel` feeding a fixed pool of worker threads, and when that
//! queue is full hands it instead to one rejecter thread that answers
//! `429` (backpressure by refusal, not by unbounded buffering). The
//! rejecter is fed the same way, by a `sync_channel` of as many slots
//! as the admission queue; when that is full too, the connection is
//! closed unanswered. Either way it counts as rejected. Workers parse
//! one request per connection and route it:
//!
//! | endpoint         | behaviour |
//! |------------------|-----------|
//! | `GET /healthz`   | `{"ok":true}` |
//! | `GET /stats`     | backend kind/location/stats + service counters |
//! | `GET /metrics`   | live Prometheus text exposition of the whole registry (engine, sweep, serve, obs series) |
//! | `GET /flight`    | flight-recorder dump as NDJSON — the most recent span/event records |
//! | `POST /cells`    | JSONL specs in, streamed JSONL events out (see [`crate::proto`]); `?records=1` includes full trial records, `?trace=1` captures per-cell traces, `?timeline=1` captures per-cell phase timelines, `?hold_ms=N` delays execution (load-testing knob) |
//! | `POST /shutdown` | begin graceful shutdown |
//!
//! Every `POST /cells` request is traced as a span tree in the flight
//! recorder: `serve.request` → `serve.admission` (parse + dedupe),
//! `serve.cell{label=stem}` per cell (crossing onto the compute pool
//! with an explicit parent), with the coalescer's `serve.store_lookup` /
//! `serve.simulate` / `serve.coalesce_wait` spans nested under each
//! cell, and `serve.stream_flush` covering the drain onto the socket.
//! The root span id is echoed in the `accepted` event.
//!
//! Graceful shutdown (via `/shutdown` or the flag from
//! [`Server::shutdown_flag`], which the binary wires to SIGTERM): set
//! the flag, then open one loopback connection to the listener's port
//! to wake the blocked `accept()`. The loop checks the flag after each
//! accept, so it drops that wake connection uncounted and stops
//! accepting; workers and the rejecter drain their queued connections
//! and are joined, then the store flushes — for the log backend that is
//! the moment the journal hits disk.

use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pp_sweep::json::Value;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::ResultStore;
use rayon::prelude::*;

use crate::coalesce::Coalescer;
use crate::http::{self, ParseError, Request};
use crate::proto::{self, Source};
use crate::telemetry::serve_metrics;

/// Hard cap on specs per request; beyond this the client should shard
/// its submission (or use `pp-sweep run` locally).
pub const MAX_CELLS_PER_REQUEST: usize = 4096;

/// Tuning for [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Admission queue depth: connections allowed to wait for a worker
    /// before new ones bounce with 429. The one thread answering those
    /// 429s has a queue of the same depth; past it a connection is
    /// closed unanswered.
    pub queue: usize,
    /// Worker threads handling requests. Simulation inside a request
    /// additionally fans out trials on the compute pool.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7717".into(),
            queue: 64,
            workers: 4,
        }
    }
}

/// What a server run handled, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Connections accepted and handed to workers.
    pub handled: u64,
    /// Connections refused by admission control: answered 429, or
    /// closed unanswered when the 429 queue was full too.
    pub rejected: u64,
}

/// Shared state every worker sees.
struct Ctx {
    store: ResultStore,
    coalescer: Coalescer,
    shutdown: AtomicBool,
    inflight: AtomicU64,
    /// Where [`Ctx::shut_down`] connects to wake the accept loop: the
    /// listener's address, with an unspecified IP (a bind to every
    /// interface) mapped to loopback, which every platform can reach.
    wake_addr: SocketAddr,
}

impl Ctx {
    /// Request graceful shutdown: set the flag, then wake the accept
    /// loop blocked in `accept()` with one connection of our own, which
    /// it drops after reading the flag. Once the listener is gone the
    /// connect fails, and there is nothing left to wake.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake_addr);
    }
}

/// A bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    cfg: ServeConfig,
}

impl Server {
    /// Bind the listener and prepare shared state. The store is shared
    /// by all workers — its backend is already thread-safe.
    pub fn bind(cfg: ServeConfig, store: ResultStore) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                store,
                coalescer: Coalescer::new(),
                shutdown: AtomicBool::new(false),
                inflight: AtomicU64::new(0),
                wake_addr,
            }),
            cfg,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle the binary's signal handler (or a test) can trip to
    /// request graceful shutdown.
    pub fn shutdown_flag(&self) -> Arc<ShutdownFlag> {
        Arc::new(ShutdownFlag {
            ctx: Arc::clone(&self.ctx),
        })
    }

    /// Serve until shutdown is requested, then drain, join, flush.
    ///
    /// The loop blocks in `accept()`; [`ShutdownFlag::trip`] and
    /// `POST /shutdown` wake it with a loopback connection. The flag is
    /// read after every accept, before the connection is counted, so the
    /// wake connection never reaches a queue or [`ServeSummary`].
    pub fn run(self) -> io::Result<ServeSummary> {
        let m = serve_metrics();
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.cfg.queue.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let queued = Arc::new(AtomicU64::new(0));

        // One long-lived thread answers every 429, so a storm of refused
        // connections costs a bounded queue, not a thread apiece.
        let (reject_tx, reject_rx) = mpsc::sync_channel::<TcpStream>(self.cfg.queue.max(1));
        let rejecter = std::thread::spawn(move || reject_rx.into_iter().for_each(reject));

        let workers: Vec<_> = (0..self.cfg.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&conn_rx);
                let ctx = Arc::clone(&self.ctx);
                let queued = Arc::clone(&queued);
                std::thread::spawn(move || worker_loop(&rx, &ctx, &queued))
            })
            .collect();

        let mut summary = ServeSummary::default();
        loop {
            let (stream, _peer) = self.listener.accept()?;
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                break; // most likely the wake connection: drop it uncounted
            }
            // Each response leaves in one write; send it at once rather
            // than after the peer acknowledges the previous one.
            let _ = stream.set_nodelay(true);
            m.requests.inc();
            m.queue_depth.set(queued.fetch_add(1, Ordering::SeqCst) + 1);
            match conn_tx.try_send(stream) {
                Ok(()) => summary.handled += 1,
                Err(TrySendError::Full(stream)) => {
                    m.queue_depth.set(queued.fetch_sub(1, Ordering::SeqCst) - 1);
                    m.requests_rejected.inc();
                    summary.rejected += 1;
                    // Answer on the rejecter: the 429 must not reach the
                    // peer as a connection reset, which means draining
                    // their request first (closing with unread data
                    // pending makes TCP send RST and discard our
                    // response) — and the accept loop must not block on
                    // a slow writer meanwhile. With the rejecter's queue
                    // full as well, dropping here closes it unanswered.
                    let _ = reject_tx.try_send(stream);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }

        // Drain: close both intakes so workers and the rejecter exit
        // once their queues are empty, join them, then flush whatever
        // the backend buffers.
        drop(conn_tx);
        drop(reject_tx);
        for w in workers {
            let _ = w.join();
        }
        let _ = rejecter.join();
        self.ctx.store.flush()?;
        Ok(summary)
    }
}

/// Cloneable handle that trips a server's shutdown flag.
pub struct ShutdownFlag {
    ctx: Arc<Ctx>,
}

impl ShutdownFlag {
    /// Request graceful shutdown (idempotent): set the flag and open one
    /// loopback connection to the listener's port, which wakes
    /// [`Server::run`] from `accept()` to see it. Returns once that
    /// connection is made; `run` returns after the drain.
    pub fn trip(&self) {
        self.ctx.shut_down();
    }
}

/// Refuse one connection with 429. Reads (and discards) the request
/// first so the close after our response is a clean FIN, not an RST.
fn reject(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut writer = stream;
    if let Ok(clone) = writer.try_clone() {
        let _ = http::read_request(&mut BufReader::new(clone));
    }
    let _ = http::write_response(
        &mut writer,
        429,
        "{\"error\":\"admission queue full, retry later\"}",
    );
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx, queued: &AtomicU64) {
    loop {
        // Hold the lock only to receive; handling runs unlocked so the
        // other workers keep draining the queue.
        let stream = match rx.lock().unwrap().recv() {
            Ok(s) => s,
            Err(_) => return, // intake closed: shutdown
        };
        let m = serve_metrics();
        m.queue_depth.set(queued.fetch_sub(1, Ordering::SeqCst) - 1);
        m.inflight
            .set(ctx.inflight.fetch_add(1, Ordering::SeqCst) + 1);
        let t0 = Instant::now();
        let _ = handle_connection(stream, ctx);
        m.request_micros
            .record(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        m.inflight
            .set(ctx.inflight.fetch_sub(1, Ordering::SeqCst) - 1);
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let req = match http::read_request(&mut reader)? {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()), // probe connect/disconnect
        Err(e) => {
            serve_metrics().requests_bad.inc();
            let status = match e {
                ParseError::BodyTooLarge(_) => 413,
                ParseError::Malformed(_) => 400,
            };
            let body = proto::error(None, &e.to_string()).encode();
            return http::write_response(&mut writer, status, &body);
        }
    };

    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => http::write_response(&mut writer, 200, "{\"ok\":true}"),
        ("GET", "/stats") => http::write_response(&mut writer, 200, &stats_body(ctx)),
        ("GET", "/metrics") => http::write_response_typed(
            &mut writer,
            200,
            pp_telemetry::prom::CONTENT_TYPE,
            &metrics_body(),
        ),
        ("GET", "/flight") => http::write_response_typed(
            &mut writer,
            200,
            "application/x-ndjson",
            &pp_obs::recorder().to_ndjson(),
        ),
        ("POST", "/shutdown") => {
            ctx.shut_down();
            http::write_response(&mut writer, 200, "{\"ok\":true,\"shutting_down\":true}")
        }
        ("POST", "/cells") => handle_cells(&req, &mut writer, ctx),
        (_, "/healthz" | "/stats" | "/metrics" | "/flight" | "/shutdown" | "/cells") => {
            serve_metrics().requests_bad.inc();
            http::write_response(&mut writer, 405, "{\"error\":\"method not allowed\"}")
        }
        _ => {
            serve_metrics().requests_bad.inc();
            http::write_response(&mut writer, 404, "{\"error\":\"no such endpoint\"}")
        }
    }
}

/// `GET /metrics`: the whole process registry as Prometheus text.
/// Forces registration of every layer's series first, so a scrape of an
/// idle server still shows the complete schema (counters at zero).
fn metrics_body() -> String {
    pp_sweep::telemetry::register_all_series();
    let _ = serve_metrics();
    pp_telemetry::to_prometheus(&pp_telemetry::Snapshot::capture_global())
}

/// `GET /stats`: store backend identity and occupancy plus the
/// service's own counters — the quick "what is this server doing"
/// probe (full series go through the metrics export).
fn stats_body(ctx: &Ctx) -> String {
    let m = serve_metrics();
    let s = ctx.store.stats();
    Value::obj([
        (
            "store",
            Value::obj([
                ("backend", Value::Str(ctx.store.kind().into())),
                ("location", Value::Str(ctx.store.location())),
                ("cells", Value::U64(s.cells)),
                ("journals", Value::U64(s.journals)),
                ("bytes", Value::U64(s.bytes)),
                ("live_bytes", Value::U64(s.live_bytes)),
                ("dead_bytes", Value::U64(s.dead_bytes)),
            ]),
        ),
        (
            "serve",
            Value::obj([
                ("requests", Value::U64(m.requests.get())),
                ("rejected", Value::U64(m.requests_rejected.get())),
                ("cells_requested", Value::U64(m.cells_requested.get())),
                ("cache_hits", Value::U64(m.cells_cache_hits.get())),
                ("simulated", Value::U64(m.cells_simulated.get())),
                ("coalesced", Value::U64(m.cells_coalesced.get())),
                ("errors", Value::U64(m.cells_errors.get())),
                ("in_flight", Value::U64(ctx.coalescer.in_flight() as u64)),
            ]),
        ),
    ])
    .encode()
}

fn handle_cells(req: &Request, writer: &mut TcpStream, ctx: &Ctx) -> io::Result<()> {
    // Root of this request's span tree; its id is echoed to the client
    // in the `accepted` event so client streams and `GET /flight` dumps
    // correlate.
    let req_span = pp_obs::span_labelled("serve.request", "POST /cells");
    let req_span_id = req_span.id();

    // Admission: parse, size-check, dedupe — everything that can bounce
    // the request before any simulation work is committed.
    let admission = pp_obs::span("serve.admission");
    let body = String::from_utf8_lossy(&req.body);
    let specs = match proto::parse_specs(&body) {
        Ok(s) => s,
        Err(e) => {
            serve_metrics().requests_bad.inc();
            return http::write_response(writer, 400, &proto::error(None, &e).encode());
        }
    };
    if specs.len() > MAX_CELLS_PER_REQUEST {
        serve_metrics().requests_bad.inc();
        let msg = format!(
            "{} cells in one request (limit {MAX_CELLS_PER_REQUEST}); shard the submission",
            specs.len()
        );
        return http::write_response(writer, 413, &proto::error(None, &msg).encode());
    }

    // Dedupe within the request: identical lines resolve to one cell
    // (the coalescer would serialize them anyway; dropping them up
    // front keeps the `done` totals meaningful).
    let mut seen = std::collections::HashSet::new();
    let total = specs.len();
    let specs: Vec<CellSpec> = specs
        .into_iter()
        .filter(|s| seen.insert(s.content_hash()))
        .collect();
    let deduped = total - specs.len();
    serve_metrics().cells_requested.add(specs.len() as u64);
    pp_obs::event("serve.cells_admitted", specs.len() as u64);
    drop(admission);

    // Load-testing knob: hold the request (after admission, before
    // execution) so tests can pin a worker deterministically.
    if let Some(ms) = req.query_param("hold_ms").and_then(|v| v.parse().ok()) {
        std::thread::sleep(Duration::from_millis(u64::min(ms, 10_000)));
    }

    let include_records = req.query_flag("records");
    let capture_trace = req.query_flag("trace");
    let capture_timeline = req.query_flag("timeline");

    http::start_stream(writer, 200)?;
    http::stream_line(
        writer,
        &proto::accepted(specs.len(), deduped, req_span_id.0).encode(),
    )?;

    // Producer side: resolve every cell on the compute pool, pushing
    // progress and result events into one channel. Consumer side (this
    // thread): drain the channel onto the socket as lines arrive, so
    // the client sees trial progress while later cells still run. The
    // channel closes when the producer finishes — that ends the drain.
    let (tx, rx) = mpsc::channel::<Value>();
    let tallies = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let jobs: Vec<(CellSpec, Sender<Value>)> =
                specs.iter().map(|s| (s.clone(), tx.clone())).collect();
            drop(tx); // producers hold the only remaining senders
            let outcomes: Vec<(Source, bool)> = jobs
                .into_par_iter()
                .map(|(spec, tx)| {
                    // Rayon workers have no ambient span stack; attach this
                    // cell's span under the request root explicitly.
                    pp_obs::with_parent(req_span_id, || {
                        let _cell = pp_obs::span_labelled("serve.cell", &spec.file_stem());
                        let (source, result) = ctx.coalescer.obtain(&spec, &ctx.store, &tx);
                        let ok = result.is_ok();
                        match result {
                            Ok(res) => {
                                let _ =
                                    tx.send(proto::result(&spec, source, &res, include_records));
                                if capture_trace {
                                    let _ = tx.send(trace_event(&spec, &ctx.store));
                                }
                                if capture_timeline {
                                    let _ = tx.send(timeline_event(&spec, &ctx.store));
                                }
                            }
                            Err(e) => {
                                let _ = tx.send(proto::error(Some(&spec.file_stem()), &e));
                            }
                        }
                        (source, ok)
                    })
                })
                .collect();
            let mut t = (0u64, 0u64, 0u64, 0u64); // cache, simulated, coalesced, errors
            for (source, ok) in outcomes {
                match (ok, source) {
                    (false, _) => t.3 += 1,
                    (true, Source::Cache) => t.0 += 1,
                    (true, Source::Simulated) => t.1 += 1,
                    (true, Source::Coalesced) => t.2 += 1,
                }
            }
            t
        });
        // A client that hangs up mid-stream stops receiving lines, but
        // the producer runs to completion — results still land in the
        // store and coalesced waiters still wake.
        let _flush = pp_obs::span("serve.stream_flush");
        let mut broken = false;
        for event in rx {
            if !broken && http::stream_line(writer, &event.encode()).is_err() {
                broken = true;
            }
        }
        producer
            .join()
            .expect("producer panics are caught per-cell")
    });

    let (cache, simulated, coalesced, errors) = tallies;
    let _ = http::stream_line(
        writer,
        &proto::done(cache, simulated, coalesced, errors).encode(),
    );
    Ok(())
}

/// `trace` event for `?trace=1`: capture (or reuse) the cell's trial-0
/// trace next to its stored result.
fn trace_event(spec: &CellSpec, store: &ResultStore) -> Value {
    match pp_sweep::trace::trace_cell(spec, store) {
        Ok(t) => Value::obj([
            ("event", Value::Str("trace".into())),
            ("cell", Value::Str(t.stem)),
            ("path", Value::Str(t.path.display().to_string())),
            ("fresh", Value::Bool(t.fresh)),
            ("bytes", Value::U64(t.bytes)),
            ("effective", Value::U64(t.effective)),
        ]),
        Err(e) => proto::error(Some(&spec.file_stem()), &format!("trace failed: {e}")),
    }
}

/// `timeline` event for `?timeline=1`: capture (or reuse) the cell's
/// trial-0 convergence-phase timeline next to its stored result.
/// Protocols without a phase classification report a zero-segment event
/// rather than an error — asking for timelines on a foreign protocol is
/// not a client mistake.
fn timeline_event(spec: &CellSpec, store: &ResultStore) -> Value {
    match pp_sweep::timeline::timeline_cell(spec, store) {
        Ok(Some(t)) => Value::obj([
            ("event", Value::Str("timeline".into())),
            ("cell", Value::Str(t.stem)),
            ("path", Value::Str(t.path.display().to_string())),
            ("fresh", Value::Bool(t.fresh)),
            ("segments", Value::U64(t.segments.len() as u64)),
            ("checkpoints", Value::U64(t.checkpoints)),
            ("stable", Value::U64(t.stable as u64)),
        ]),
        Ok(None) => Value::obj([
            ("event", Value::Str("timeline".into())),
            ("cell", Value::Str(spec.file_stem())),
            ("segments", Value::U64(0)),
        ]),
        Err(e) => proto::error(Some(&spec.file_stem()), &format!("timeline failed: {e}")),
    }
}

/// Convenience used by the binary: serve with this config and store,
/// returning the summary after graceful shutdown.
pub fn serve(cfg: ServeConfig, store: ResultStore) -> io::Result<ServeSummary> {
    Server::bind(cfg, store)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_channel_try_send_semantics_match_admission_control() {
        let (tx, rx) = mpsc::sync_channel::<u32>(1);
        assert!(tx.try_send(1).is_ok());
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(tx.try_send(3).is_ok());
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.queue > 0);
        assert!(cfg.workers > 0);
        assert!(cfg.addr.contains(':'));
    }
}
