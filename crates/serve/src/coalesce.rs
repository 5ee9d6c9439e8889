//! Request coalescing: identical in-flight cells execute once.
//!
//! The store already dedupes across time — a finished cell is a cache
//! hit forever. Coalescing dedupes across *concurrent* requests: when
//! two clients submit the same spec (same content hash, i.e. same
//! canonical key) while the first is still simulating, the second does
//! not start a duplicate execution. It subscribes to the first one's
//! flight, receives the same per-trial progress events, and wakes with
//! the same [`CellResult`] when the flight lands.
//!
//! The mechanism is a flight map keyed by the spec's content hash,
//! guarded so that exactly one thread wins the right to execute
//! (`Source::Simulated`); everyone else blocks on the flight's condvar
//! (`Source::Coalesced`). A store hit short-circuits both paths
//! (`Source::Cache`). Executor panics are caught and land the flight
//! as an error, so a poisoned spec can never strand its waiters.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use pp_sweep::exec::{run_cell, CellOutcome, ExecOptions};
use pp_sweep::json::Value;
use pp_sweep::observer::SweepObserver;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::{CellResult, ResultStore};

use crate::proto::{self, Source};
use crate::telemetry::serve_metrics;

/// How a flight can end: the cell's result, or an error message every
/// subscriber sees.
pub type FlightResult = Result<CellResult, String>;

/// One in-flight execution of a cell.
struct Flight {
    spec: CellSpec,
    /// `None` while flying; the landing fills it exactly once.
    landed: Mutex<Option<FlightResult>>,
    cv: Condvar,
    /// Progress subscribers: every request waiting on this flight gets
    /// the executor's `trial` events mirrored into its stream.
    subs: Mutex<Vec<Sender<Value>>>,
    trials_done: AtomicU64,
}

impl Flight {
    fn broadcast(&self, event: &Value) {
        let subs = self.subs.lock().unwrap();
        for tx in subs.iter() {
            // A subscriber whose client hung up just misses updates.
            let _ = tx.send(event.clone());
        }
    }
}

/// Observer bridging the sweep executor's trial callbacks onto a
/// flight's subscriber streams.
struct FlightObserver<'a> {
    flight: &'a Flight,
}

impl SweepObserver for FlightObserver<'_> {
    fn trial_finished(&self, spec: &CellSpec, _censored: bool) {
        let done = self.flight.trials_done.fetch_add(1, Ordering::Relaxed) + 1;
        self.flight
            .broadcast(&proto::trial(&spec.file_stem(), done, spec.trials as u64));
    }
}

/// The coalescer: flight map over a shared store.
#[derive(Default)]
pub struct Coalescer {
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Coalescer {
    /// New coalescer with no flights.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Number of cells currently executing.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().unwrap().len()
    }

    /// Resolve one cell: store hit, join an identical in-flight
    /// execution, or run it here. `events` receives `trial` progress
    /// lines for the caller's stream (on both the simulating and the
    /// coalesced paths). Blocks until the cell lands.
    pub fn obtain(
        &self,
        spec: &CellSpec,
        store: &ResultStore,
        events: &Sender<Value>,
    ) -> (Source, FlightResult) {
        let m = serve_metrics();
        let t0 = std::time::Instant::now();
        let (source, result) = self.obtain_inner(spec, store, events);
        m.cell_wait_micros
            .record(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        match (source, &result) {
            (_, Err(_)) => m.cells_errors.inc(),
            (Source::Cache, _) => m.cells_cache_hits.inc(),
            (Source::Simulated, _) => m.cells_simulated.inc(),
            (Source::Coalesced, _) => m.cells_coalesced.inc(),
        }
        (source, result)
    }

    fn obtain_inner(
        &self,
        spec: &CellSpec,
        store: &ResultStore,
        events: &Sender<Value>,
    ) -> (Source, FlightResult) {
        // Fast path: the store already has it.
        let lookup = pp_obs::span("serve.store_lookup");
        if let Some(hit) = store.load(spec) {
            return (Source::Cache, Ok(hit));
        }
        drop(lookup);

        let key = spec.content_hash();
        let flight = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get(&key) {
                // Identical spec already flying: subscribe and wait.
                // Content hashes are compared on the full canonical key
                // to rule out the (astronomical) hash collision.
                Some(f) if f.spec == *spec => {
                    let f = Arc::clone(f);
                    f.subs.lock().unwrap().push(events.clone());
                    drop(flights);
                    let _wait = pp_obs::span("serve.coalesce_wait");
                    return (Source::Coalesced, self.wait(&f));
                }
                _ => {
                    let f = Arc::new(Flight {
                        spec: spec.clone(),
                        landed: Mutex::new(None),
                        cv: Condvar::new(),
                        subs: Mutex::new(vec![events.clone()]),
                        trials_done: AtomicU64::new(0),
                    });
                    flights.insert(key, Arc::clone(&f));
                    f
                }
            }
        };

        // Double-check the store: a previous flight may have landed and
        // saved between our cache probe and winning the flight map.
        if let Some(hit) = store.load(spec) {
            *flight.landed.lock().unwrap() = Some(Ok(hit.clone()));
            flight.cv.notify_all();
            self.flights.lock().unwrap().remove(&key);
            return (Source::Cache, Ok(hit));
        }

        // This thread won the flight: execute, land, wake the waiters.
        // catch_unwind so a panicking simulation (impossible for specs
        // that passed validation, but this is a long-running daemon)
        // lands as an error instead of stranding subscribers.
        let _simulate = pp_obs::span("serve.simulate");
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let obs = FlightObserver { flight: &flight };
            run_cell(spec, store, &obs, &ExecOptions::default())
        }));
        let result: FlightResult = match run {
            Ok(Ok(CellOutcome::Complete(res))) => Ok(res),
            Ok(Ok(CellOutcome::Interrupted { journaled })) => Err(format!(
                "cell interrupted after {journaled} trials (kill_after set?)"
            )),
            Ok(Err(e)) => Err(format!("cell execution failed: {e}")),
            Err(panic) => Err(match panic.downcast_ref::<&str>() {
                Some(s) => format!("cell execution panicked: {s}"),
                None => match panic.downcast_ref::<String>() {
                    Some(s) => format!("cell execution panicked: {s}"),
                    None => "cell execution panicked".into(),
                },
            }),
        };

        *flight.landed.lock().unwrap() = Some(result.clone());
        flight.cv.notify_all();
        self.flights.lock().unwrap().remove(&key);
        (Source::Simulated, result)
    }

    fn wait(&self, flight: &Flight) -> FlightResult {
        let mut landed = flight.landed.lock().unwrap();
        while landed.is_none() {
            landed = flight.cv.wait(landed).unwrap();
        }
        landed.clone().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn spec(seed: u64, n: usize) -> CellSpec {
        let line = format!(
            "{{\"protocol\":\"ukp\",\"k\":3,\"n\":{n},\"trials\":3,\"seed\":{seed},\"budget\":10000000}}"
        );
        CellSpec::from_json(&Value::parse(&line).unwrap()).unwrap()
    }

    #[test]
    fn cache_then_simulate_then_cache() {
        let store = ResultStore::in_memory();
        let co = Coalescer::new();
        let (tx, rx) = channel();
        let s = spec(1, 16);
        let (src, res) = co.obtain(&s, &store, &tx);
        assert_eq!(src, Source::Simulated);
        let res = res.unwrap();
        assert_eq!(res.records.len(), 3);
        // Progress events were delivered for each trial.
        let events: Vec<Value> = rx.try_iter().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("trial"));

        let (src2, res2) = co.obtain(&s, &store, &tx);
        assert_eq!(src2, Source::Cache);
        assert_eq!(res2.unwrap().records, res.records);
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn concurrent_identical_specs_coalesce_to_one_execution() {
        let store = ResultStore::in_memory();
        let co = Arc::new(Coalescer::new());
        // Big enough that the threads overlap; the assertion below counts
        // the sources the four callers were told, which is exact
        // regardless of interleaving (the process-global serve counters
        // also move with the other tests running in parallel).
        let s = spec(2, 128);
        let results: Vec<(Source, FlightResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let co = Arc::clone(&co);
                    let store = store.clone();
                    let s = s.clone();
                    scope.spawn(move || {
                        let (tx, _rx) = channel();
                        co.obtain(&s, &store, &tx)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let records: Vec<_> = results
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().records.clone())
            .collect();
        // Everyone got the same (bit-identical) records.
        assert!(records.windows(2).all(|w| w[0] == w[1]));
        // At most one thread actually simulated. (Threads that started
        // after the flight landed see a cache hit; that's fine.)
        let simulated = results
            .iter()
            .filter(|(src, _)| *src == Source::Simulated)
            .count();
        assert!(simulated <= 1);
        assert_eq!(co.in_flight(), 0);
    }

    #[test]
    fn different_specs_fly_independently() {
        let store = ResultStore::in_memory();
        let co = Coalescer::new();
        let (tx, _rx) = channel();
        let (a, _) = co.obtain(&spec(3, 16), &store, &tx);
        let (b, _) = co.obtain(&spec(4, 16), &store, &tx);
        assert_eq!(a, Source::Simulated);
        assert_eq!(b, Source::Simulated);
    }
}
