//! `serve_mixed`: an in-process `pp_serve::Server` on `127.0.0.1:0` with
//! 2 workers and a file store, pre-populated at set-up, driven by a
//! closed loop of 2 clients sending single-spec `POST /cells` requests.
//!
//! The plan is seeded and runs in rounds of [`OPS_PER_ROUND`] requests
//! per client. Each round both clients first send the same unseen cell at
//! once (so it coalesces), then each sends one unseen cell of its own and
//! repeats of stored cells: 90% of requests are hits. Unseen cells are
//! small and of fixed shapes ([`PAIR_SHAPE`], [`MISS_SHAPE`]; 20 trials),
//! so every round does the same work. Rounds start together at a
//! barrier; between rounds, outside the timed window, the first client
//! scrapes `GET /metrics` (for traced rounds) and, at most once a second,
//! sets up once more for `setup_s`.
//!
//! Correctness: every response is 200 with one `result` and one `done`
//! carrying `errors: 0`; hits come from the cache and single misses are
//! simulated; of each coalescing pair exactly one request simulates; the
//! server simulated exactly one execution per unseen cell and rejected
//! nothing; and for a sample of cells `?records=1` equals a direct
//! `run_cell` on an in-memory store.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_engine::seeds;
use pp_obs::RecordKind;
use pp_serve::client::{self, Response};
use pp_serve::server::{ServeConfig, ServeSummary, Server, ShutdownFlag};
use pp_sweep::backend::FsBackend;
use pp_sweep::exec::{run_cell, ExecOptions};
use pp_sweep::json::Value;
use pp_sweep::observer::NullObserver;
use pp_sweep::plan::{ukp_cell, PlanConfig};
use pp_sweep::spec::{CellMode, CellSpec, KernelChoice};
use pp_sweep::store::ResultStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{fast_rate, fast_time, percentile, ratio};
use crate::{ledger, Ctx, Lap, Report, SetupTimes, SETUPS, WORKERS};

/// Requests per client per round (full size).
pub const OPS_PER_ROUND: usize = 20;
/// Stored cells the hits draw from (full size).
const HIT_POOL: usize = 48;
/// Trials per served cell (full size).
const TRIALS: usize = 20;
/// Tail percentiles need this many samples beyond them.
const MIN_BEYOND: usize = 10;
/// Untraced samples required before the loop may stop: enough for a p99
/// of hits and a p90 of misses with [`MIN_BEYOND`] samples beyond each.
const MIN_HITS: usize = 100 * MIN_BEYOND;
const MIN_MISSES: usize = 10 * MIN_BEYOND;
/// The loop stops at this age whatever the sample counts.
const HARD_CAP_S: f64 = 100.0;

/// Workload sizes.
#[derive(Clone, Copy)]
struct Sizes {
    ops: usize,
    pool: usize,
    trials: usize,
}

impl Sizes {
    fn of(ctx: &Ctx) -> Sizes {
        if ctx.tiny {
            Sizes {
                ops: 5,
                pool: 4,
                trials: 4,
            }
        } else {
            Sizes {
                ops: OPS_PER_ROUND,
                pool: HIT_POOL,
                trials: TRIALS,
            }
        }
    }
}

/// `(k, n)` of the unseen cells: each round's coalescing pair, and each
/// client's private miss. Fixed, so every round does the same work; only
/// their master seeds change from round to round, which keeps each cell
/// unseen, and their trials average out the seeds' differences.
const PAIR_SHAPE: (usize, u64) = (4, 128);
const MISS_SHAPE: (usize, u64) = (3, 192);

/// A small k-partition cell with master seed `seed`, leap kernel named
/// explicitly.
fn small_cell((k, n): (usize, u64), seed: u64, trials: usize) -> CellSpec {
    let cfg = PlanConfig {
        trials,
        master_seed: seed,
    };
    CellSpec {
        kernel: KernelChoice::Leap,
        ..ukp_cell(k, n, cfg, CellMode::Summary)
    }
}

/// A stored cell of the hit pool, its shape drawn from `seed`: k 3–4,
/// n 64–256.
fn pool_cell(seed: u64, trials: usize) -> CellSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = rng.gen_range(3..5usize);
    let n = rng.gen_range(64..257u64);
    small_cell((k, n), seed, trials)
}

/// Request classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// A stored cell.
    Hit,
    /// An unseen cell only this client sends.
    Miss,
    /// An unseen cell both clients send at once.
    Pair,
}

/// The seeded plan.
struct Plan {
    seed: u64,
    sizes: Sizes,
    pool: Vec<CellSpec>,
    pool_lines: Vec<String>,
}

impl Plan {
    fn new(seed: u64, sizes: Sizes) -> Plan {
        let pool: Vec<CellSpec> = (0..sizes.pool as u64)
            .map(|i| pool_cell(seeds::derive_labelled(seed, 1, i), sizes.trials))
            .collect();
        let pool_lines = pool.iter().map(|c| c.to_json().encode()).collect();
        Plan {
            seed,
            sizes,
            pool,
            pool_lines,
        }
    }

    fn pair_cell(&self, round: u64) -> CellSpec {
        small_cell(
            PAIR_SHAPE,
            seeds::derive_labelled(self.seed, 2, round),
            self.sizes.trials,
        )
    }

    fn miss_cell(&self, round: u64, client: u64) -> CellSpec {
        small_cell(
            MISS_SHAPE,
            seeds::derive_labelled(self.seed, 3, round * 2 + client),
            self.sizes.trials,
        )
    }

    /// One client's requests in one round: the shared pair first, then
    /// hits with one private miss at a seeded position.
    fn round(&self, round: u64, client: u64) -> Vec<(Class, String)> {
        let mut rng = SmallRng::seed_from_u64(seeds::derive_labelled(self.seed, 4 + client, round));
        let miss_at = rng.gen_range(1..self.sizes.ops);
        let mut ops = vec![(Class::Pair, self.pair_cell(round).to_json().encode())];
        for i in 1..self.sizes.ops {
            ops.push(if i == miss_at {
                (
                    Class::Miss,
                    self.miss_cell(round, client).to_json().encode(),
                )
            } else {
                let h = rng.gen_range(0..self.pool.len());
                (Class::Hit, self.pool_lines[h].clone())
            });
        }
        ops
    }
}

/// A running server, shut down and joined on drop.
struct Running {
    addr: SocketAddr,
    flag: Arc<ShutdownFlag>,
    thread: Option<JoinHandle<io::Result<ServeSummary>>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.flag.trip();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Set-up: a fresh file store pre-populated with the hit pool (every
/// backend call timed, recording off until a traced round), and a
/// server on it. Steps: each stored cell, then the server.
fn start(ctx: &Ctx, i: usize, plan: &Plan, lap: &mut Lap) -> io::Result<Running> {
    let dir = ctx.dir.join(format!("serve-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = crate::timed::TimedBackend::store(Arc::new(FsBackend::at(&dir)));
    lap.lap();
    for cell in &plan.pool {
        let opts = ExecOptions::default();
        pp_sweep::runner::run_cells(std::slice::from_ref(cell), &store, &NullObserver, &opts)?;
        lap.lap();
    }
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue: 64,
            workers: WORKERS,
        },
        store,
    )?;
    let addr = server.local_addr()?;
    let flag = server.shutdown_flag();
    let running = Running {
        addr,
        flag,
        thread: Some(std::thread::spawn(move || server.run())),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client::healthy(addr) {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server never healthy",
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(running)
}

/// Verify one `/cells` response; `Ok((source, root span id))` or the
/// failed check.
fn verify(resp: io::Result<Response>, class: Class) -> Result<(String, u64), &'static str> {
    let resp = resp.map_err(|_| "serve_mixed: request failed")?;
    if resp.status != 200 {
        return Err("serve_mixed: non-200 response");
    }
    let events = resp
        .events()
        .map_err(|_| "serve_mixed: unparsable event stream")?;
    let of = |kind: &str| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some(kind))
            .collect::<Vec<_>>()
    };
    let done = of("done");
    let done_ok = done.len() == 1
        && done[0].get("errors").and_then(Value::as_u64) == Some(0)
        && done[0].get("total").and_then(Value::as_u64) == Some(1);
    if !done_ok {
        return Err("serve_mixed: missing or failing done event");
    }
    let result = of("result");
    let source = match result.as_slice() {
        [r] => r.get("source").and_then(Value::as_str).unwrap_or(""),
        _ => return Err("serve_mixed: expected exactly one result event"),
    };
    let allowed = match class {
        Class::Hit => source == "cache",
        Class::Miss => source == "simulated",
        Class::Pair => matches!(source, "simulated" | "coalesced" | "cache"),
    };
    if !allowed {
        return Err("serve_mixed: response source does not match the plan");
    }
    let span = of("accepted")
        .first()
        .and_then(|a| a.get("span"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    Ok((source.to_string(), span))
}

/// Prometheus samples by full series key (name plus label block).
type Scrape = std::collections::HashMap<String, f64>;

fn scrape(addr: SocketAddr) -> Scrape {
    let Ok(resp) = client::request(addr, "GET", "/metrics", "") else {
        return Scrape::new();
    };
    resp.body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn delta(after: &Scrape, before: &Scrape, acc: &mut Scrape) {
    for (k, v) in after {
        *acc.entry(k.clone()).or_default() += v - before.get(k).copied().unwrap_or(0.0);
    }
}

fn span_key(span: &str, part: &str) -> String {
    format!("obs_span_micros_{part}{{span=\"{span}\"}}")
}

/// One request as its client saw it.
struct Sent {
    class: Class,
    /// Send to last byte of the response, seconds.
    latency_s: f64,
    /// `source` of the result event.
    source: String,
    /// The server's root span id, echoed in the `accepted` event.
    span: u64,
    /// Send and receipt times in `pp_obs::now_micros` ticks, the clock
    /// of the server's spans (the server runs in this process).
    sent_us: u64,
    done_us: u64,
}

/// One client's record of one round.
#[derive(Default)]
struct ClientRound {
    traced: bool,
    requests: Vec<Sent>,
    /// Checks that failed, by name.
    failures: Vec<&'static str>,
    /// Building requests and verifying responses, seconds.
    work_s: f64,
    /// Waiting for the other client at the round's end, seconds.
    idle_s: f64,
}

/// What the first client (the round leader) measured.
#[derive(Default)]
struct Leader {
    /// `(traced, wall seconds)` per round.
    walls: Vec<(bool, f64)>,
    /// `/metrics` deltas summed over traced rounds.
    traced_delta: Scrape,
    /// Store spans of traced rounds.
    spans: Vec<ledger::Span>,
    /// `serve.request` spans of traced rounds from the flight recorder:
    /// id → (start, end) in `pp_obs::now_micros` ticks.
    request_spans: std::collections::HashMap<u64, (u64, u64)>,
    /// Peak RSS when the sample quota was first met. Every unseen cell
    /// adds to the store and the telemetry registry, so the peak at the
    /// end of the run would grow with the rounds a run manages, i.e. with
    /// the machine's speed; at the quota it covers a fixed amount of work.
    peak_rss_mb: Option<f64>,
    /// Set-up timings, before the loop and between its rounds.
    setup_times: SetupTimes,
    /// Set-ups between rounds that failed.
    setup_failures: usize,
}

struct Shared {
    barrier: Barrier,
    stop: AtomicBool,
    traced: AtomicBool,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Drive the closed loop; returns the leader's record and every client's
/// rounds.
fn closed_loop(
    ctx: &Ctx,
    plan: &Plan,
    addr: SocketAddr,
    setup_times: SetupTimes,
) -> (Leader, Vec<Vec<ClientRound>>) {
    let shared = Shared {
        barrier: Barrier::new(WORKERS),
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
        hits: AtomicUsize::new(0),
        misses: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let mut leader = Leader {
        setup_times,
        ..Leader::default()
    };
    let rounds = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS as u64)
            .map(|c| {
                let shared = &shared;
                let leader = if c == 0 {
                    Some(std::mem::take(&mut leader))
                } else {
                    None
                };
                scope.spawn(move || client_loop(ctx, plan, addr, c, shared, start, leader))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut per_client = Vec::new();
    for (l, r) in rounds {
        if let Some(l) = l {
            leader = l;
        }
        per_client.push(r);
    }
    (leader, per_client)
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    ctx: &Ctx,
    plan: &Plan,
    addr: SocketAddr,
    client: u64,
    shared: &Shared,
    start: Instant,
    mut leader: Option<Leader>,
) -> (Option<Leader>, Vec<ClientRound>) {
    let mut rounds: Vec<ClientRound> = Vec::new();
    let mut round_start = Instant::now();
    let mut before = Scrape::new();
    for round in 0u64.. {
        let arrived = Instant::now();
        shared.barrier.wait();
        let released = Instant::now();
        if let Some(last) = rounds.last_mut() {
            last.idle_s = released.saturating_duration_since(arrived).as_secs_f64();
        }
        if let Some(l) = leader.as_mut() {
            if let Some(last) = rounds.last() {
                let wall = released
                    .saturating_duration_since(round_start)
                    .as_secs_f64();
                l.walls.push((last.traced, wall));
                if last.traced {
                    ledger::set_recording(false);
                    delta(&scrape(addr), &before, &mut l.traced_delta);
                    l.spans.extend(ledger::collect());
                    for r in pp_obs::recorder().snapshot() {
                        if r.kind == RecordKind::SpanClose && r.name == "serve.request" {
                            l.request_spans.insert(r.id, (r.start_micros, r.end_micros));
                        }
                    }
                }
                // Another set-up for `setup_s`, in a directory of its own,
                // while both clients wait at the barrier.
                let dir = SETUPS + l.walls.len();
                let again = l
                    .setup_times
                    .between(|_, lap| self::start(ctx, dir, plan, lap).map(drop));
                l.setup_failures += usize::from(again.is_some_and(|r| r.is_err()));
            }
            let untraced = l.walls.iter().filter(|w| !w.0).count();
            let traced = l.walls.len() - untraced;
            let balanced = !ctx.trace || (traced == untraced && traced >= 1);
            let sampled = ctx.tiny
                || (shared.hits.load(Ordering::SeqCst) >= MIN_HITS
                    && shared.misses.load(Ordering::SeqCst) >= MIN_MISSES);
            if sampled && l.peak_rss_mb.is_none() {
                l.peak_rss_mb = crate::stats::peak_rss_mb();
            }
            let elapsed = start.elapsed().as_secs_f64();
            let stop = balanced
                && untraced >= 2
                && ((elapsed >= ctx.seconds && sampled) || elapsed >= HARD_CAP_S);
            let next_traced = ctx.trace && untraced > traced;
            if next_traced && !stop {
                before = scrape(addr);
                ledger::set_recording(true);
            }
            shared.traced.store(next_traced, Ordering::SeqCst);
            shared.stop.store(stop, Ordering::SeqCst);
        }
        shared.barrier.wait();
        round_start = Instant::now();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut rec = ClientRound {
            traced: shared.traced.load(Ordering::SeqCst),
            ..ClientRound::default()
        };
        for (class, body) in plan.round(round, client) {
            let sent_us = pp_obs::now_micros();
            let t0 = Instant::now();
            let resp = client::post_cells(addr, &body, "");
            let t1 = Instant::now();
            let done_us = pp_obs::now_micros();
            match verify(resp, class) {
                Ok((source, span)) => rec.requests.push(Sent {
                    class,
                    latency_s: t1.duration_since(t0).as_secs_f64(),
                    source,
                    span,
                    sent_us,
                    done_us,
                }),
                Err(check) => rec.failures.push(check),
            }
            rec.work_s += Instant::now().duration_since(t1).as_secs_f64();
            if !rec.traced {
                let counter = if class == Class::Hit {
                    &shared.hits
                } else {
                    &shared.misses
                };
                counter.fetch_add(1, Ordering::SeqCst);
            }
        }
        rounds.push(rec);
    }
    (leader, rounds)
}

/// `?records=1` for a sample of cells equals a direct `run_cell`.
fn records_match(addr: SocketAddr, spec: &CellSpec) -> bool {
    let Ok(resp) = client::post_cells(addr, &spec.to_json().encode(), "records=1") else {
        return false;
    };
    let Ok(results) = resp.events_of("result") else {
        return false;
    };
    let served = results
        .first()
        .and_then(|r| r.get("records"))
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec);
    let direct = run_cell(
        spec,
        &ResultStore::in_memory(),
        &NullObserver,
        &ExecOptions::default(),
    )
    .ok()
    .and_then(|o| match o {
        pp_sweep::exec::CellOutcome::Complete(r) => Some(r),
        pp_sweep::exec::CellOutcome::Interrupted { .. } => None,
    })
    .map(|r| r.records.iter().map(|t| t.to_json()).collect::<Vec<_>>());
    served.is_some() && served == direct
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let sizes = Sizes::of(ctx);
    let plan = Plan::new(ctx.seed, sizes);
    let mut setup_times = SetupTimes::default();
    let server = setup_times.repeat(SETUPS, |i, lap| start(ctx, i, &plan, lap));
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            report
                .checks
                .op(false, &format!("serve_mixed: set-up failed: {e}"));
            return report;
        }
    };
    let totals_before = scrape(server.addr);
    let (leader, clients) = closed_loop(ctx, &plan, server.addr, setup_times);
    if let Some(mb) = leader.peak_rss_mb {
        report.set("peak_rss_mb", mb);
    }
    let mut totals = Scrape::new();
    delta(&scrape(server.addr), &totals_before, &mut totals);

    // Per-request checks, and the coalescing pairs: exactly one of the
    // two requests of each round's shared cell simulates.
    let rounds = leader.walls.len();
    for c in &clients {
        for r in c {
            for &f in &r.failures {
                report.checks.op(false, f);
            }
            report.checks.attempted += r.requests.len() as u64;
        }
    }
    for round in 0..rounds {
        let simulated = clients
            .iter()
            .filter_map(|c| c.get(round))
            .flat_map(|r| &r.requests)
            .filter(|r| r.class == Class::Pair && r.source == "simulated")
            .count();
        report.checks.op(
            simulated == 1,
            "serve_mixed: a coalescing pair did not simulate exactly once",
        );
    }
    // Source tallies against the plan: one execution per unseen cell.
    let unseen = (rounds * (1 + WORKERS)) as f64;
    let total = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    report.checks.op(
        total("serve_cells_simulated") == unseen,
        "serve_mixed: simulations differ from the plan's unseen cells",
    );
    report.checks.op(
        total("serve_cells_errors") == 0.0 && total("serve_requests_rejected") == 0.0,
        "serve_mixed: server errors or rejections",
    );
    // Sampled full-record comparison (after the timed loop).
    let mut sample: Vec<CellSpec> = plan.pool.iter().take(3).cloned().collect();
    sample.push(plan.pair_cell(0));
    sample.push(plan.miss_cell(0, 0));
    for spec in &sample {
        report.checks.op(
            records_match(server.addr, spec),
            "serve_mixed: ?records=1 differs from a direct run_cell",
        );
    }
    drop(server);
    report.checks.op(
        leader.setup_failures == 0,
        "serve_mixed: a set-up between rounds failed",
    );
    report.set("setup_s", leader.setup_times.fastest());

    // End-to-end metrics from untraced rounds: the fast end of the round
    // walls and of the per-round request rates.
    let (mut untraced_walls, mut traced_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &(traced, wall)) in leader.walls.iter().enumerate() {
        let requests: usize = clients
            .iter()
            .filter_map(|c| c.get(i))
            .map(|r| r.requests.len())
            .sum();
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            rates.push(ratio(requests as f64, wall));
        }
    }
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut untraced_requests = 0usize;
    for r in clients.iter().flatten().filter(|r| !r.traced) {
        untraced_requests += r.requests.len();
        for req in &r.requests {
            let ms = req.latency_s * 1e3;
            if req.class == Class::Hit {
                hits.push(ms)
            } else {
                misses.push(ms)
            }
        }
    }
    let rps = fast_rate(&rates);
    report.set("wall_s", fast_time(&untraced_walls));
    report.set("ops_per_s", rps);
    report.set("req_per_s", rps);
    let pct = |v: &[f64], q: f64| percentile(v, q, MIN_BEYOND).unwrap_or(0.0);
    report.set("hit_p50_ms", pct(&hits, 0.50));
    report.set("hit_p99_ms", pct(&hits, 0.99));
    report.set("miss_p50_ms", pct(&misses, 0.50));
    report.set("miss_p90_ms", pct(&misses, 0.90));
    report.set("serve.hit_samples", hits.len() as f64);
    report.set("serve.miss_samples", misses.len() as f64);
    report.set("serve.coalesced", total("serve_cells_coalesced"));
    report.set("serve.rejected", total("serve_requests_rejected"));
    report.note(format!(
        "serve_mixed: {rounds} rounds, {untraced_requests} untraced requests: {:.1} req/s; \
         hit p50 {:.3} ms / p99 {:.3} ms over {} samples; miss p50 {:.3} ms / p90 {:.3} ms over {} samples",
        rps,
        pct(&hits, 0.50),
        pct(&hits, 0.99),
        hits.len(),
        pct(&misses, 0.50),
        pct(&misses, 0.90),
        misses.len()
    ));
    if ctx.trace && !traced_walls.is_empty() {
        per_layer(&mut report, &leader, &clients, &traced_walls);
        crate::trace_overhead(
            &mut report,
            fast_time(&untraced_walls),
            fast_time(&traced_walls),
        );
    }
    report
}

/// Per-layer means over the traced rounds and the ledger check.
fn per_layer(report: &mut Report, leader: &Leader, clients: &[Vec<ClientRound>], walls: &[f64]) {
    let d = &leader.traced_delta;
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let sum_s = |span: &str| get(&span_key(span, "sum")) * 1e-6;
    let mean_ms = |span: &str| 1e3 * ratio(sum_s(span), get(&span_key(span, "count")));
    let requests = get(&span_key("serve.request", "count"));
    let per_req_ms = |s: f64| 1e3 * ratio(s, requests);
    let traced: Vec<&ClientRound> = clients.iter().flatten().filter(|r| r.traced).collect();
    // Each traced request's latency splits at its `serve.request` span:
    // the client's send to the span's opening (connect, accept poll,
    // admission queue, HTTP read: `serve.accept_queue_ms`), the span, and
    // the span's close to the client's last byte (connection close), which
    // no layer measures and stays unattributed.
    let (mut queue, mut spanned, mut matched, mut sent) = (0.0, 0.0, 0usize, 0usize);
    for req in traced.iter().flat_map(|r| &r.requests) {
        sent += 1;
        if let Some(&(start, end)) = leader.request_spans.get(&req.span) {
            queue += start.saturating_sub(req.sent_us) as f64 * 1e-6;
            spanned += end.min(req.done_us).saturating_sub(start) as f64 * 1e-6;
            matched += 1;
        }
    }
    report.checks.op(
        matched == sent,
        "serve_mixed: a traced request's span is missing from the flight recorder",
    );
    let work: f64 = traced.iter().map(|r| r.work_s).sum();
    let idle: f64 = traced.iter().map(|r| r.idle_s).sum();
    let (request, admission, flush, cell) = (
        sum_s("serve.request"),
        sum_s("serve.admission"),
        sum_s("serve.stream_flush"),
        sum_s("serve.cell"),
    );
    let (lookup, simulate, wait) = (
        sum_s("serve.store_lookup"),
        sum_s("serve.simulate"),
        sum_s("serve.coalesce_wait"),
    );
    report.set("serve.accept_queue_ms", 1e3 * ratio(queue, matched as f64));
    report.set("serve.admission_ms", mean_ms("serve.admission"));
    report.set("serve.store_lookup_ms", mean_ms("serve.store_lookup"));
    report.set("serve.simulate_ms", mean_ms("serve.simulate"));
    report.set("serve.coalesce_wait_ms", mean_ms("serve.coalesce_wait"));
    report.set(
        "serve.cell_self_ms",
        1e3 * ratio(
            cell - lookup - simulate - wait,
            get(&span_key("serve.cell", "count")),
        ),
    );
    report.set("serve.stream_flush_ms", per_req_ms(flush - cell));
    report.set(
        "serve.request_self_ms",
        per_req_ms(request - admission - flush),
    );
    report.set("serve.client_work_ms", per_req_ms(work));
    report.set("serve.client_idle_ms", per_req_ms(idle));
    report.set(
        "serve.hit_ratio",
        ratio(get("serve_cells_cache_hits"), get("serve_cells_requested")),
    );
    let rounds = walls.len() as f64;
    let (load_s, loads) = ledger::total(&leader.spans, "store.load");
    let (save_s, saves) = ledger::total(&leader.spans, "store.save");
    let (append_s, appends) = ledger::total(&leader.spans, "journal.append");
    report.set("sweep.store.load_s", load_s / rounds);
    report.set("sweep.store.loads", loads as f64 / rounds);
    report.set("sweep.store.save_s", save_s / rounds);
    report.set("sweep.store.saves", saves as f64 / rounds);
    report.set("sweep.journal.append_s", append_s / rounds);
    report.set("sweep.journal.appends", appends as f64 / rounds);
    // Ledger in client-seconds: a client is in a request (the measured
    // accept/queue interval, then the server's span, which the server's
    // child spans decompose), in its own work, or idle at the round
    // barrier. What the client measured around these stays unattributed.
    let capacity: f64 = walls.iter().sum::<f64>() * WORKERS as f64;
    let explained = queue + spanned + work + idle;
    crate::ledger_check(
        report,
        explained / WORKERS as f64,
        capacity / WORKERS as f64,
        walls.len(),
    );
}
