//! `pp-serve-load` — load generator and cache-behaviour checker for a
//! running `pp-serve`.
//!
//! ```text
//! pp-serve-load --addr HOST:PORT [--cells N] [--repeat R] [--threads C]
//!               [--k K] [--n POP] [--trials T] [--budget B] [--seed S]
//!               [--ci]
//! ```
//!
//! Two phases against the same population of distinct cell specs
//! (distinct seeds, identical shape):
//!
//! * **cold** — every spec submitted once; the server has never seen
//!   them, so each one simulates.
//! * **warm** — the same specs submitted `--repeat` more times; every
//!   request should be a cache hit.
//!
//! Each phase prints its wall time and the source tallies the server
//! streamed back, then the warm/cold throughput ratio; the ratio is
//! printed, not checked (perfbench's `serve_mixed` workload measures
//! hit and miss latency). `--ci` exits nonzero unless:
//!
//! * neither phase saw an error;
//! * every warm request was a cache hit;
//! * two concurrent submissions of one unseen spec yield exactly one
//!   `simulated` and one `coalesced`/`cache`, and a third is a `cache`
//!   hit;
//! * `GET /metrics` is a valid Prometheus exposition covering every
//!   `serve.*` and core `engine.*` series.

#![forbid(unsafe_code)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use pp_serve::client;
use pp_sweep::json::Value;

struct Args {
    addr: String,
    cells: usize,
    repeat: usize,
    threads: usize,
    k: usize,
    n: usize,
    trials: usize,
    budget: u64,
    seed: u64,
    ci: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: String::new(),
            cells: 24,
            repeat: 3,
            threads: 8,
            k: 3,
            n: 256,
            trials: 20,
            budget: 50_000_000,
            seed: 9000,
            ci: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pp-serve-load --addr HOST:PORT [--cells N] [--repeat R] [--threads C] \
         [--k K] [--n POP] [--trials T] [--budget B] [--seed S] [--ci]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--ci" {
            args.ci = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(v) = it.next() else { usage() };
        let bad = |name: &str| -> ! {
            eprintln!("bad value for {name}: {v:?}");
            usage()
        };
        match flag.as_str() {
            "--addr" => args.addr = v.clone(),
            "--cells" => args.cells = v.parse().unwrap_or_else(|_| bad("--cells")),
            "--repeat" => args.repeat = v.parse().unwrap_or_else(|_| bad("--repeat")),
            "--threads" => args.threads = v.parse().unwrap_or_else(|_| bad("--threads")),
            "--k" => args.k = v.parse().unwrap_or_else(|_| bad("--k")),
            "--n" => args.n = v.parse().unwrap_or_else(|_| bad("--n")),
            "--trials" => args.trials = v.parse().unwrap_or_else(|_| bad("--trials")),
            "--budget" => args.budget = v.parse().unwrap_or_else(|_| bad("--budget")),
            "--seed" => args.seed = v.parse().unwrap_or_else(|_| bad("--seed")),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        usage();
    }
    args
}

fn spec_line(args: &Args, seed: u64) -> String {
    format!(
        "{{\"protocol\":\"ukp\",\"k\":{},\"n\":{},\"trials\":{},\"seed\":{seed},\"budget\":{}}}",
        args.k, args.n, args.trials, args.budget,
    )
}

/// Tallies from one phase of requests.
#[derive(Default)]
struct Phase {
    requests: u64,
    wall_micros: u64,
    cache: u64,
    simulated: u64,
    coalesced: u64,
    errors: u64,
}

impl Phase {
    /// Requests per second ×100, in integer arithmetic.
    fn rps_x100(&self) -> u64 {
        if self.wall_micros == 0 {
            return 0;
        }
        self.requests * 100_000_000 / self.wall_micros
    }
}

/// Submit every line once (one request per line), `threads` at a time.
fn run_phase(addr: SocketAddr, lines: &[String], threads: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Phase::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(lines.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= lines.len() {
                    return;
                }
                let resp = client::post_cells(addr, &lines[i], "");
                let mut ph = out.lock().unwrap();
                ph.requests += 1;
                match resp.ok().filter(|r| r.status == 200) {
                    Some(resp) => match resp.events_of("done") {
                        Ok(done) if done.len() == 1 => {
                            let get = |k: &str| done[0].get(k).and_then(Value::as_u64).unwrap_or(0);
                            ph.cache += get("cache");
                            ph.simulated += get("simulated");
                            ph.coalesced += get("coalesced");
                            ph.errors += get("errors");
                        }
                        _ => ph.errors += 1,
                    },
                    None => ph.errors += 1,
                }
            });
        }
    });
    let mut phase = out.into_inner().unwrap();
    phase.wall_micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    phase
}

/// The `--ci` coalescing check: two concurrent submissions of one
/// never-seen spec must resolve to exactly one simulation, the other
/// answered by coalescing (or, if the first finished before the second
/// was admitted, by the store). Then a third submission must be a pure
/// cache hit. Returns the per-request sources.
fn ci_coalesce_check(addr: SocketAddr, line: &str) -> Result<Vec<String>, String> {
    let barrier = Barrier::new(2);
    let sources: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let resp = client::post_cells(addr, line, "")
                        .map_err(|e| format!("request failed: {e}"))?;
                    if resp.status != 200 {
                        return Err(format!("status {}", resp.status));
                    }
                    let results = resp.events_of("result")?;
                    if results.len() != 1 {
                        return Err(format!("{} result events, expected 1", results.len()));
                    }
                    Ok(results[0]
                        .get("source")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let simulated = sources.iter().filter(|s| *s == "simulated").count();
    let other = sources
        .iter()
        .filter(|s| *s == "coalesced" || *s == "cache")
        .count();
    if simulated != 1 || other != 1 {
        return Err(format!(
            "expected one simulated + one coalesced/cache, got {sources:?}"
        ));
    }

    let third = client::post_cells(addr, line, "").map_err(|e| format!("third request: {e}"))?;
    let results = third.events_of("result")?;
    let src = results
        .first()
        .and_then(|r| r.get("source"))
        .and_then(Value::as_str)
        .unwrap_or("?");
    if src != "cache" {
        return Err(format!("third submission was {src:?}, expected cache"));
    }
    let mut all = sources;
    all.push(src.to_string());
    Ok(all)
}

/// The `--ci` metrics check: `GET /metrics` must return a valid
/// Prometheus exposition with the right content type, covering every
/// `serve.*` series and the core `engine.*` counters.
fn ci_metrics_check(addr: SocketAddr) -> Result<(), String> {
    let resp = client::request(addr, "GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /metrics returned status {}", resp.status));
    }
    pp_telemetry::validate_exposition(&resp.body)
        .map_err(|e| format!("invalid Prometheus exposition: {e}"))?;
    let serve_series = [
        "serve.requests",
        "serve.requests.rejected",
        "serve.requests.bad",
        "serve.cells.requested",
        "serve.cells.cache_hits",
        "serve.cells.simulated",
        "serve.cells.coalesced",
        "serve.cells.errors",
        "serve.queue.depth",
        "serve.inflight",
        "serve.request.micros",
        "serve.cell.wait_micros",
    ];
    for name in serve_series
        .iter()
        .chain(pp_sweep::telemetry::CORE_ENGINE_COUNTERS)
    {
        let mangled = pp_telemetry::prom::mangle_name(name);
        if !resp
            .body
            .lines()
            .any(|l| l.starts_with(&format!("# TYPE {mangled} ")))
        {
            return Err(format!("exposition is missing series {name} ({mangled})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let addr: SocketAddr = match args.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("pp-serve-load: cannot resolve {}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if !client::healthy(addr) {
        eprintln!("pp-serve-load: no healthy pp-serve at {addr}");
        return ExitCode::FAILURE;
    }

    let lines: Vec<String> = (0..args.cells)
        .map(|i| spec_line(&args, args.seed + i as u64))
        .collect();

    println!(
        "pp-serve-load: cold phase — {} cells (k={}, n={}, trials={}) over {} threads",
        args.cells, args.k, args.n, args.trials, args.threads,
    );
    let cold = run_phase(addr, &lines, args.threads);
    println!(
        "  cold: {} requests in {} ms, {} simulated, {} cache, {} errors",
        cold.requests,
        cold.wall_micros / 1000,
        cold.simulated,
        cold.cache,
        cold.errors,
    );

    let warm_lines: Vec<String> = (0..args.repeat).flat_map(|_| lines.clone()).collect();
    println!(
        "pp-serve-load: warm phase — same cells ×{} repeats",
        args.repeat
    );
    let warm = run_phase(addr, &warm_lines, args.threads);
    println!(
        "  warm: {} requests in {} ms, {} cache hits, {} errors",
        warm.requests,
        warm.wall_micros / 1000,
        warm.cache,
        warm.errors,
    );

    let speedup_pct = if cold.rps_x100() > 0 {
        warm.rps_x100() * 100 / cold.rps_x100()
    } else {
        0
    };
    let warm_total = warm.cache + warm.simulated + warm.coalesced + warm.errors;
    let hit_pct = (warm.cache * 100).checked_div(warm_total).unwrap_or(0);
    println!(
        "pp-serve-load: warm/cold throughput = {}.{:02}x, warm cache-hit ratio {hit_pct}%",
        speedup_pct / 100,
        speedup_pct % 100,
    );

    // --ci: the coalescing contract, on a spec neither phase used. The
    // check spec is deliberately heavier than the load specs (4x the
    // population, 2x the trials) so that the two barrier-synchronised
    // requests reliably overlap in flight rather than racing past each
    // other on a cell that simulates in microseconds.
    let mut failed = false;
    if args.ci {
        let fresh = format!(
            "{{\"protocol\":\"ukp\",\"k\":{},\"n\":{},\"trials\":{},\"seed\":{},\"budget\":{}}}",
            args.k,
            args.n * 4,
            args.trials * 2,
            args.seed + args.cells as u64 + 1_000_003,
            args.budget,
        );
        match ci_coalesce_check(addr, &fresh) {
            Ok(sources) => {
                println!("pp-serve-load: coalescing check ok — sources {sources:?}")
            }
            Err(e) => {
                eprintln!("pp-serve-load: coalescing check FAILED: {e}");
                failed = true;
            }
        }
        match ci_metrics_check(addr) {
            Ok(()) => println!("pp-serve-load: /metrics exposition check ok"),
            Err(e) => {
                eprintln!("pp-serve-load: /metrics check FAILED: {e}");
                failed = true;
            }
        }
        if cold.errors + warm.errors > 0 {
            eprintln!("pp-serve-load: FAILED — errors during load phases");
            failed = true;
        }
        if warm_total > 0 && warm.cache != warm_total {
            eprintln!(
                "pp-serve-load: FAILED — warm phase had {} non-cache responses",
                warm_total - warm.cache
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
