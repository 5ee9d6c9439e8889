//! # pp-obs — structured spans and a flight recorder
//!
//! pp-telemetry answers "how much, in aggregate"; this crate answers
//! "what just happened, in order". It adds two primitives on top of the
//! registry:
//!
//! * **Spans** ([`span()`], [`SpanGuard`]) — intervals of work with a
//!   process-unique id, a parent id (ambient via a thread-local stack, or
//!   explicit across thread hops), a name, and an optional label. Span
//!   durations also land in the `obs.span.micros{span=...}` histogram of
//!   the shared registry, so the `/metrics` exposition and the recorder
//!   agree.
//! * **The flight recorder** ([`FlightRecorder`], [`recorder()`]) — a
//!   fixed-size ring of the most recent span/event records behind one
//!   mutex (one lock per write, one per snapshot), drained to NDJSON on
//!   demand (`GET /flight`), on SIGTERM (`pp-serve --flight-dump`), and
//!   on panic ([`install_panic_hook`]).
//!
//! Nothing here touches simulation hot loops: the engine's kernels remain
//! instrumented only through the `Observer` seam.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod recorder;
pub mod span;

pub use recorder::{
    default_dump_path, install_panic_hook, now_micros, recorder, set_dump_path, FlightRecorder,
    Record, RecordKind,
};
pub use span::{
    current_span, event, event_labelled, span, span_labelled, span_with_parent, with_parent,
    SpanGuard, SpanId,
};
