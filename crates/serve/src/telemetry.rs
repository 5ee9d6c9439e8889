//! Service-layer metrics, in the same process-wide [`pp_telemetry`]
//! registry as the engine and sweep series — one export covers the
//! whole stack, and `pp-sweep metrics`' validation rules keep holding
//! for files a server writes.
//!
//! | name                        | kind      | meaning |
//! |-----------------------------|-----------|---------|
//! | `serve.requests`            | counter   | connections accepted |
//! | `serve.requests.rejected`   | counter   | connections bounced by admission control: answered 429, or closed unanswered when the 429 queue is full too |
//! | `serve.requests.bad`        | counter   | malformed requests (4xx) |
//! | `serve.cells.requested`     | counter   | cell specs admitted |
//! | `serve.cells.cache_hits`    | counter   | cells answered from the store |
//! | `serve.cells.simulated`     | counter   | cells this server executed |
//! | `serve.cells.coalesced`     | counter   | cells that piggybacked on an identical in-flight execution |
//! | `serve.cells.errors`        | counter   | cells that failed |
//! | `serve.queue.depth`         | gauge     | connections waiting for a worker |
//! | `serve.inflight`            | gauge     | requests being handled right now |
//! | `serve.request.micros`      | histogram | wall time per handled request |
//! | `serve.cell.wait_micros`    | histogram | wall time per resolved cell (includes coalesced waits) |

use pp_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, OnceLock};

/// Shared handles to the service's global metric series.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Connections accepted off the listener.
    pub requests: Arc<Counter>,
    /// Connections refused because the admission queue was full:
    /// answered 429, or closed unanswered when the 429 queue was full too.
    pub requests_rejected: Arc<Counter>,
    /// Requests answered with a 4xx for being malformed.
    pub requests_bad: Arc<Counter>,
    /// Cell specs admitted for resolution.
    pub cells_requested: Arc<Counter>,
    /// Cells answered from the store without executing.
    pub cells_cache_hits: Arc<Counter>,
    /// Cells executed by this server.
    pub cells_simulated: Arc<Counter>,
    /// Cells that waited on an identical in-flight execution.
    pub cells_coalesced: Arc<Counter>,
    /// Cells that failed to resolve.
    pub cells_errors: Arc<Counter>,
    /// Connections sitting in the admission queue.
    pub queue_depth: Arc<Gauge>,
    /// Requests currently being handled by workers.
    pub inflight: Arc<Gauge>,
    /// Wall time per handled request, microseconds.
    pub request_micros: Arc<Histogram>,
    /// Wall time per resolved cell, microseconds.
    pub cell_wait_micros: Arc<Histogram>,
}

impl ServeMetrics {
    /// Resolve (registering on first use) the serve series in `reg`.
    pub fn register_in(reg: &Registry) -> Self {
        ServeMetrics {
            requests: reg.counter("serve.requests"),
            requests_rejected: reg.counter("serve.requests.rejected"),
            requests_bad: reg.counter("serve.requests.bad"),
            cells_requested: reg.counter("serve.cells.requested"),
            cells_cache_hits: reg.counter("serve.cells.cache_hits"),
            cells_simulated: reg.counter("serve.cells.simulated"),
            cells_coalesced: reg.counter("serve.cells.coalesced"),
            cells_errors: reg.counter("serve.cells.errors"),
            queue_depth: reg.gauge("serve.queue.depth"),
            inflight: reg.gauge("serve.inflight"),
            request_micros: reg.histogram("serve.request.micros"),
            cell_wait_micros: reg.histogram("serve.cell.wait_micros"),
        }
    }
}

/// The service's series in the process-wide registry.
pub fn serve_metrics() -> &'static ServeMetrics {
    static GLOBAL: OnceLock<ServeMetrics> = OnceLock::new();
    GLOBAL.get_or_init(|| ServeMetrics::register_in(pp_telemetry::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_register_once_and_share_state() {
        let a = serve_metrics();
        let before = a.requests.get();
        serve_metrics().requests.inc();
        assert_eq!(a.requests.get(), before + 1);
        // Same name in the global registry resolves to the same counter.
        assert_eq!(
            pp_telemetry::global().counter("serve.requests").get(),
            a.requests.get()
        );
    }
}
