//! Recording live runs through the engine's `Observer` hook.
//!
//! [`TraceRecorder`] implements [`pp_engine::observer::Observer`], so it
//! plugs into `Simulator::run_observed` and `run_leap_observed` (alone or
//! chained) without any change to the hot loops. Under the naive kernel
//! it coalesces per-step identity interactions into the same compact
//! identity-run records the leap kernel reports natively, so traces of
//! the two kernels share one format and one decoder.

use crate::format::{
    encode_header, put_varint, TraceHeader, TraceKernel, TAG_EFFECTIVE, TAG_FOOTER,
    TAG_IDENTITY_RUN, TAG_LIFECYCLE,
};
use pp_engine::observer::{LifecycleKind, Observer};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::seeds::fnv1a64;

/// An [`Observer`] that encodes the execution into the trace format.
///
/// Create with [`TraceRecorder::new`] (or [`TraceRecorder::for_run`] to
/// derive the header from a protocol + population), attach to a run, then
/// call [`TraceRecorder::finish`] with the final configuration to obtain
/// the complete byte stream.
///
/// On a leap run to stability at k = 8, n = 10⁴, recording measured
/// +36% to +43% over `NullObserver` (median of 25 interleaved pairs,
/// four sessions on a 2-vCPU host). No test or benchmark gates the cost.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    buf: Vec<u8>,
    /// Last interaction number covered by an emitted record.
    emitted_step: u64,
    /// Identity interactions seen (naive kernel) but not yet emitted.
    pending_identities: u64,
    effective: u64,
    identity: u64,
    lifecycle: u64,
}

impl TraceRecorder {
    /// Start a trace with the given header.
    pub fn new(header: &TraceHeader) -> Self {
        TraceRecorder {
            buf: encode_header(header),
            emitted_step: 0,
            pending_identities: 0,
            effective: 0,
            identity: 0,
            lifecycle: 0,
        }
    }

    /// Build the header from a compiled protocol and the population's
    /// *current* (pre-run) configuration.
    pub fn for_run(
        proto: &CompiledProtocol,
        pop: &CountPopulation,
        seed: u64,
        kernel: TraceKernel,
    ) -> Self {
        let header = TraceHeader {
            protocol: proto.name().to_string(),
            state_names: proto
                .states()
                .map(|s| proto.state_name(s).to_string())
                .collect(),
            n: pop.num_agents(),
            seed,
            kernel,
            initial_counts: pop.counts().to_vec(),
        };
        TraceRecorder::new(&header)
    }

    /// Effective interactions recorded so far.
    pub fn effective_recorded(&self) -> u64 {
        self.effective
    }

    /// Identity interactions covered so far (coalesced or leap-reported).
    pub fn identity_recorded(&self) -> u64 {
        self.identity
    }

    /// Lifecycle events (joins/leaves/crashes) recorded so far.
    pub fn lifecycle_recorded(&self) -> u64 {
        self.lifecycle
    }

    /// Bytes encoded so far (header + records; no footer yet).
    pub fn bytes_so_far(&self) -> usize {
        self.buf.len()
    }

    fn flush_identities(&mut self) {
        if self.pending_identities > 0 {
            let last = self.emitted_step + self.pending_identities;
            put_varint(&mut self.buf, TAG_IDENTITY_RUN);
            put_varint(&mut self.buf, last - self.emitted_step);
            put_varint(&mut self.buf, self.pending_identities);
            self.emitted_step = last;
            self.pending_identities = 0;
        }
    }

    /// Seal the trace: flush any coalesced identities, append the footer
    /// with `final_counts` and the checksum, and return the byte stream.
    pub fn finish(mut self, final_counts: &[u64]) -> Vec<u8> {
        self.flush_identities();
        put_varint(&mut self.buf, TAG_FOOTER);
        for &c in final_counts {
            put_varint(&mut self.buf, c);
        }
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

impl Observer for TraceRecorder {
    #[inline]
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        _counts: &[u64],
    ) {
        if p == p2 && q == q2 {
            // Naive kernel reporting an identity: coalesce.
            self.pending_identities += 1;
            self.identity += 1;
            return;
        }
        self.flush_identities();
        put_varint(&mut self.buf, TAG_EFFECTIVE);
        put_varint(&mut self.buf, step - self.emitted_step);
        put_varint(&mut self.buf, p.0 as u64);
        put_varint(&mut self.buf, q.0 as u64);
        put_varint(&mut self.buf, p2.0 as u64);
        put_varint(&mut self.buf, q2.0 as u64);
        self.emitted_step = step;
        self.effective += 1;
    }

    #[inline]
    fn on_identity_run(&mut self, last_step: u64, skipped: u64, _counts: &[u64]) {
        debug_assert_eq!(self.pending_identities, 0, "mixed kernel reporting");
        put_varint(&mut self.buf, TAG_IDENTITY_RUN);
        put_varint(&mut self.buf, last_step - self.emitted_step);
        put_varint(&mut self.buf, skipped);
        self.emitted_step = last_step;
        self.identity += skipped;
    }

    #[inline]
    fn on_lifecycle(&mut self, step: u64, kind: LifecycleKind, state: StateId, _counts: &[u64]) {
        // A lifecycle event may share its step with the interaction that
        // preceded it, so a zero delta is legal here (unlike effective
        // records). Pending identities must flush first to keep records
        // in event order.
        self.flush_identities();
        put_varint(&mut self.buf, TAG_LIFECYCLE);
        put_varint(&mut self.buf, step - self.emitted_step);
        put_varint(&mut self.buf, kind.code());
        put_varint(&mut self.buf, state.0 as u64);
        self.emitted_step = step;
        self.lifecycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Trace;

    fn header2() -> TraceHeader {
        TraceHeader {
            protocol: "toy".into(),
            state_names: vec!["a".into(), "b".into()],
            n: 4,
            seed: 1,
            kernel: TraceKernel::Naive,
            initial_counts: vec![4, 0],
        }
    }

    #[test]
    fn naive_identities_coalesce_into_runs() {
        let a = StateId(0);
        let b = StateId(1);
        let mut rec = TraceRecorder::new(&header2());
        rec.on_interaction(1, a, a, a, a, &[4, 0]); // identity
        rec.on_interaction(2, a, a, a, a, &[4, 0]); // identity
        rec.on_interaction(3, a, a, b, b, &[2, 2]); // effective
        rec.on_interaction(4, a, b, a, b, &[2, 2]); // identity
        rec.on_interaction(5, a, a, b, b, &[0, 4]); // effective
        assert_eq!(rec.effective_recorded(), 2);
        assert_eq!(rec.identity_recorded(), 3);
        let bytes = rec.finish(&[0, 4]);
        let trace = Trace::decode(&bytes).unwrap();
        use crate::format::TraceRecord::*;
        assert_eq!(
            trace.records,
            vec![
                IdentityRun {
                    last_step: 2,
                    skipped: 2
                },
                Effective {
                    step: 3,
                    p: 0,
                    q: 0,
                    p2: 1,
                    q2: 1
                },
                IdentityRun {
                    last_step: 4,
                    skipped: 1
                },
                Effective {
                    step: 5,
                    p: 0,
                    q: 0,
                    p2: 1,
                    q2: 1
                },
            ]
        );
    }

    #[test]
    fn leap_identity_runs_encode_directly() {
        let a = StateId(0);
        let b = StateId(1);
        let mut rec = TraceRecorder::new(&header2());
        rec.on_identity_run(7, 7, &[4, 0]);
        rec.on_interaction(8, a, a, b, b, &[2, 2]);
        let bytes = rec.finish(&[2, 2]);
        let trace = Trace::decode(&bytes).unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.last_step(), 8);
    }

    #[test]
    fn lifecycle_records_round_trip_with_net_churn() {
        let a = StateId(0);
        let b = StateId(1);
        let mut rec = TraceRecorder::new(&header2());
        rec.on_interaction(1, a, a, b, b, &[2, 2]);
        // Same step as the interaction: zero delta on the wire.
        rec.on_lifecycle(1, LifecycleKind::Join, a, &[3, 2]);
        rec.on_interaction(2, a, a, a, a, &[3, 2]); // identity, coalesced
                                                    // Lifecycle must flush the pending identity run first.
        rec.on_lifecycle(2, LifecycleKind::Crash, b, &[3, 1]);
        rec.on_lifecycle(2, LifecycleKind::Leave, a, &[2, 1]);
        assert_eq!(rec.lifecycle_recorded(), 3);
        let bytes = rec.finish(&[2, 1]);
        let trace = Trace::decode(&bytes).unwrap();
        use crate::format::TraceRecord::*;
        assert_eq!(
            trace.records,
            vec![
                Effective {
                    step: 1,
                    p: 0,
                    q: 0,
                    p2: 1,
                    q2: 1
                },
                Lifecycle {
                    step: 1,
                    kind: LifecycleKind::Join,
                    state: 0
                },
                IdentityRun {
                    last_step: 2,
                    skipped: 1
                },
                Lifecycle {
                    step: 2,
                    kind: LifecycleKind::Crash,
                    state: 1
                },
                Lifecycle {
                    step: 2,
                    kind: LifecycleKind::Leave,
                    state: 0
                },
            ]
        );
        // Footer sums to initial n (4) plus net churn (+1 − 2 = −1).
        assert_eq!(trace.final_counts.iter().sum::<u64>(), 3);
        let summary = trace.replay().unwrap();
        assert_eq!(summary.lifecycle, 3);
        assert_eq!(summary.final_counts, vec![2, 1]);
    }
}
