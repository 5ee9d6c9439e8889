//! End-to-end service tests: a real `Server` on a loopback port, the
//! real blocking client, in-memory (and log) store backends.

use std::net::SocketAddr;
use std::sync::{mpsc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

use pp_serve::client;
use pp_serve::server::{ServeConfig, ServeSummary, Server};
use pp_sweep::json::Value;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::ResultStore;

fn spec_line(seed: u64, n: usize, trials: usize) -> String {
    format!(
        "{{\"protocol\":\"ukp\",\"k\":3,\"n\":{n},\"trials\":{trials},\"seed\":{seed},\"budget\":10000000}}"
    )
}

fn start(cfg: ServeConfig, store: ResultStore) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let server = Server::bind(cfg, store).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    // The accept loop is live as soon as bind returns; prove it anyway.
    assert!(client::healthy(addr), "server not healthy after bind");
    (addr, handle)
}

fn start_mem() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    start(cfg, ResultStore::in_memory())
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    let resp = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    handle.join().unwrap()
}

#[test]
fn simulate_then_cache_with_streamed_events() {
    let (addr, handle) = start_mem();
    let line = spec_line(100, 16, 3);

    let first = client::post_cells(addr, &line, "records=1").unwrap();
    assert_eq!(first.status, 200);
    let accepted = first.events_of("accepted").unwrap();
    assert_eq!(accepted[0].get("cells").unwrap().as_u64(), Some(1));
    // Per-trial progress streamed before the result.
    let trials = first.events_of("trial").unwrap();
    assert_eq!(trials.len(), 3);
    let results = first.events_of("result").unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].get("source").unwrap().as_str(),
        Some("simulated")
    );
    let records = results[0]
        .get("records")
        .unwrap()
        .as_arr()
        .unwrap()
        .to_vec();
    assert_eq!(records.len(), 3);
    let done = first.events_of("done").unwrap();
    assert_eq!(done[0].get("simulated").unwrap().as_u64(), Some(1));

    // Same spec again: a cache hit with bit-identical records, and no
    // trial progress (nothing simulates).
    let second = client::post_cells(addr, &line, "records=1").unwrap();
    let results2 = second.events_of("result").unwrap();
    assert_eq!(results2[0].get("source").unwrap().as_str(), Some("cache"));
    assert_eq!(
        results2[0]
            .get("records")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec(),
        records
    );
    assert!(second.events_of("trial").unwrap().is_empty());

    let summary = shutdown(addr, handle);
    assert!(summary.handled >= 3);
    assert_eq!(summary.rejected, 0);
}

#[test]
fn within_request_duplicates_dedupe_and_batches_resolve() {
    let (addr, handle) = start_mem();
    let body = format!(
        "{}\n{}\n{}\n",
        spec_line(200, 16, 2),
        spec_line(200, 16, 2), // duplicate line
        spec_line(201, 16, 2),
    );
    let resp = client::post_cells(addr, &body, "").unwrap();
    let accepted = resp.events_of("accepted").unwrap();
    assert_eq!(accepted[0].get("cells").unwrap().as_u64(), Some(2));
    assert_eq!(accepted[0].get("deduped").unwrap().as_u64(), Some(1));
    let done = resp.events_of("done").unwrap();
    assert_eq!(done[0].get("total").unwrap().as_u64(), Some(2));
    assert_eq!(done[0].get("errors").unwrap().as_u64(), Some(0));
    shutdown(addr, handle);
}

#[test]
fn concurrent_identical_requests_coalesce() {
    let (addr, handle) = start_mem();
    // Big enough to overlap across two client threads.
    let line = spec_line(300, 128, 5);
    let barrier = Barrier::new(2);
    let sources: Vec<(String, Vec<Value>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let resp = client::post_cells(addr, &line, "records=1").unwrap();
                    assert_eq!(resp.status, 200);
                    let results = resp.events_of("result").unwrap();
                    assert_eq!(results.len(), 1);
                    let source = results[0]
                        .get("source")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string();
                    let records = results[0]
                        .get("records")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .to_vec();
                    (source, records)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one execution; the other request coalesced onto it (or,
    // if scheduling kept them disjoint, read the store). Either way the
    // records are bit-identical.
    let simulated = sources.iter().filter(|(s, _)| s == "simulated").count();
    assert!(simulated <= 1, "duplicate execution: {sources:?}");
    assert_eq!(sources[0].1, sources[1].1, "records differ across clients");
    for (s, _) in &sources {
        assert!(
            s == "simulated" || s == "coalesced" || s == "cache",
            "unexpected source {s}"
        );
    }
    shutdown(addr, handle);
}

#[test]
fn admission_control_rejects_when_queue_full() {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue: 1,
        workers: 1,
    };
    let server = Server::bind(cfg, ResultStore::in_memory()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Pin the only worker with a held request, fill the queue with a
    // second, then watch the next connection bounce.
    let line = spec_line(400, 16, 1);
    let held: Vec<JoinHandle<u16>> = (0..2)
        .map(|_| {
            let line = line.clone();
            let h = std::thread::spawn(move || {
                client::post_cells(addr, &line, "hold_ms=1500")
                    .unwrap()
                    .status
            });
            std::thread::sleep(std::time::Duration::from_millis(250));
            h
        })
        .collect();

    let bounced = client::request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(bounced.status, 429, "expected admission rejection");
    assert!(bounced.body.contains("queue full"));

    for h in held {
        assert_eq!(h.join().unwrap(), 200, "held requests still complete");
    }
    let summary = shutdown(addr, handle);
    assert!(summary.rejected >= 1);
}

/// Run `server` on a thread of its own; its summary arrives on the
/// returned channel, so a test can bound the wait for `run` to end.
fn run_detached(server: Server) -> mpsc::Receiver<ServeSummary> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run().expect("server run"));
    });
    rx
}

/// Bind a server to `addr`, send it `requests` health checks, trip its
/// flag, and require `run` to return within 5 s having counted exactly
/// those requests: the wake connection is not one of them.
fn trip_after(addr: &str, requests: u64) {
    let cfg = ServeConfig {
        addr: addr.into(),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, ResultStore::in_memory()).unwrap();
    let local = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let done = run_detached(server);
    for _ in 0..requests {
        assert!(client::healthy(local));
    }
    flag.trip();
    let summary = done
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("trip did not wake the accept loop of a server on {addr}"));
    assert_eq!((summary.handled, summary.rejected), (requests, 0));
}

#[test]
fn trip_wakes_an_idle_loopback_server() {
    trip_after("127.0.0.1:0", 0);
}

#[test]
fn trip_wakes_an_idle_server_bound_to_every_interface() {
    trip_after("0.0.0.0:0", 0);
}

#[test]
fn the_wake_connection_is_not_counted() {
    trip_after("127.0.0.1:0", 3);
}

#[test]
fn sequential_bounces_each_get_a_429_and_are_counted() {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue: 1,
        workers: 1,
    };
    let server = Server::bind(cfg, ResultStore::in_memory()).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let done = run_detached(server);

    // As in the admission test: pin the only worker with a held request
    // and fill the one queue slot with a second.
    let line = spec_line(410, 16, 1);
    let held: Vec<JoinHandle<u16>> = (0..2)
        .map(|_| {
            let line = line.clone();
            let h = std::thread::spawn(move || {
                client::post_cells(addr, &line, "hold_ms=2000")
                    .unwrap()
                    .status
            });
            std::thread::sleep(Duration::from_millis(250));
            h
        })
        .collect();

    // One after another, so each 429 is answered by the one rejecter
    // before the next connection arrives.
    const BOUNCES: u64 = 5;
    for i in 0..BOUNCES {
        let bounced = client::request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!(bounced.status, 429, "bounce {i} was not refused");
        assert!(bounced.body.contains("queue full"));
    }

    for h in held {
        assert_eq!(h.join().unwrap(), 200, "held requests still complete");
    }
    flag.trip();
    let summary = done
        .recv_timeout(Duration::from_secs(5))
        .expect("trip did not wake the accept loop");
    assert_eq!(summary.rejected, BOUNCES);
    assert_eq!(summary.handled, 2);
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let (addr, handle) = start_mem();
    let bad_body = client::post_cells(addr, "this is not json\n", "").unwrap();
    assert_eq!(bad_body.status, 400);
    assert!(bad_body.body.contains("line 1"));

    let bad_spec = client::post_cells(addr, "{\"protocol\":\"ukp\"}\n", "").unwrap();
    assert_eq!(bad_spec.status, 400);

    // A trajectory sampled every 0 interactions is refused when the spec
    // is parsed, with an `error` event, instead of panicking a worker.
    let zero = "{\"protocol\":\"ukp\",\"k\":3,\"n\":12,\"trials\":1,\"seed\":1,\
                \"budget\":1000,\"mode\":\"trajectory\",\"sample_every\":0}\n";
    let zero = client::post_cells(addr, zero, "").unwrap();
    assert_eq!(zero.status, 400);
    let errors = zero.events_of("error").unwrap();
    let message = errors[0].get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("sample_every"), "{message}");

    let missing = client::request(addr, "GET", "/nope", "").unwrap();
    assert_eq!(missing.status, 404);

    let wrong_method = client::request(addr, "GET", "/cells", "").unwrap();
    assert_eq!(wrong_method.status, 405);
    shutdown(addr, handle);
}

#[test]
fn stats_reports_backend_and_tallies() {
    let (addr, handle) = start_mem();
    let _ = client::post_cells(addr, &spec_line(500, 16, 2), "").unwrap();
    let stats = client::request(addr, "GET", "/stats", "").unwrap();
    assert_eq!(stats.status, 200);
    let v = Value::parse(&stats.body).unwrap();
    let store = v.get("store").unwrap();
    assert_eq!(store.get("backend").unwrap().as_str(), Some("mem"));
    assert_eq!(store.get("cells").unwrap().as_u64(), Some(1));
    let serve = v.get("serve").unwrap();
    assert!(serve.get("requests").unwrap().as_u64().unwrap() >= 2);
    shutdown(addr, handle);
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let (addr, handle) = start_mem();
    // Drive one simulated cell so the counters have non-trivial values.
    let _ = client::post_cells(addr, &spec_line(700, 16, 2), "").unwrap();

    let resp = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(resp.status, 200);
    pp_telemetry::validate_exposition(&resp.body).expect("valid Prometheus exposition");
    // Every layer's schema is present even where counters are zero.
    for series in [
        "serve_requests",
        "serve_cells_requested",
        "serve_request_micros",
        "engine_runs",
        "engine_interactions",
        "engine_effective_interactions",
        "engine_leap_batches",
        "engine_batch_fallbacks",
        "sweep_export_key_version",
        "obs_span_micros",
    ] {
        assert!(
            resp.body
                .lines()
                .any(|l| l.starts_with(&format!("# TYPE {series} "))),
            "missing series {series} in exposition"
        );
    }
    // Histograms expose cumulative buckets with _sum/_count.
    assert!(resp
        .body
        .contains("serve_request_micros_bucket{le=\"+Inf\"}"));
    assert!(resp.body.contains("serve_request_micros_count"));
    shutdown(addr, handle);
}

#[test]
fn flight_endpoint_exposes_the_request_span_tree() {
    let (addr, handle) = start_mem();
    let resp = client::post_cells(addr, &spec_line(800, 16, 2), "").unwrap();
    assert_eq!(resp.status, 200);
    let accepted = resp.events_of("accepted").unwrap();
    let root = accepted[0].get("span").unwrap().as_u64().unwrap();
    assert!(root > 0, "accepted event must echo the request span id");

    let flight = client::request(addr, "GET", "/flight", "").unwrap();
    assert_eq!(flight.status, 200);
    let records: Vec<Value> = flight
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Value::parse(l).expect("flight line parses"))
        .collect();
    assert!(!records.is_empty(), "flight recorder should not be empty");

    // Reconstruct this request's span tree from the dump: the root plus
    // every span reachable from it.
    let opens: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("span_open"))
        .collect();
    let mut tree: std::collections::HashSet<u64> = std::collections::HashSet::from([root]);
    // Span ids increase monotonically and parents open before children,
    // so one forward pass reaches the whole tree.
    for open in &opens {
        let id = open.get("id").unwrap().as_u64().unwrap();
        let parent = open.get("parent").unwrap().as_u64().unwrap();
        if tree.contains(&parent) {
            tree.insert(id);
        }
    }
    assert!(
        tree.len() >= 4,
        "expected a request span tree of at least 4 spans, got {tree:?}"
    );
    let name_of = |id: u64| {
        opens
            .iter()
            .find(|o| o.get("id").unwrap().as_u64() == Some(id))
            .and_then(|o| o.get("name").and_then(Value::as_str))
            .unwrap_or("")
            .to_string()
    };
    let names: std::collections::HashSet<String> = tree.iter().map(|&id| name_of(id)).collect();
    for expected in [
        "serve.request",
        "serve.admission",
        "serve.cell",
        "serve.simulate",
    ] {
        assert!(
            names.contains(expected),
            "span {expected} missing from {names:?}"
        );
    }
    // The cell span carries its stem as the label.
    let cell_open = opens
        .iter()
        .find(|o| {
            o.get("name").and_then(Value::as_str) == Some("serve.cell")
                && tree.contains(&o.get("id").unwrap().as_u64().unwrap())
        })
        .expect("cell span recorded");
    let label = cell_open.get("label").and_then(Value::as_str).unwrap_or("");
    assert!(
        label.contains("ukp"),
        "cell span label {label:?} should be the stem"
    );
    shutdown(addr, handle);
}

#[test]
fn log_backend_survives_shutdown_and_serves_reopen() {
    let path = std::env::temp_dir().join(format!("pp_serve_e2e_log_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(cfg, ResultStore::log_at(path.clone()).unwrap());
    let line = spec_line(600, 16, 2);
    let first = client::post_cells(addr, &line, "").unwrap();
    assert_eq!(
        first.events_of("result").unwrap()[0]
            .get("source")
            .unwrap()
            .as_str(),
        Some("simulated")
    );
    shutdown(addr, handle);

    // The shutdown path flushed the journal; a fresh process (here: a
    // fresh backend over the same file) serves the cell from cache.
    let reopened = ResultStore::log_at(path.clone()).unwrap();
    let spec = CellSpec::from_json(&Value::parse(&line).unwrap()).unwrap();
    let cached = reopened
        .load(&spec)
        .expect("cell persisted across shutdown");
    assert_eq!(cached.records.len(), 2);
    let _ = std::fs::remove_file(&path);
}
