//! Decoding and deterministic replay.
//!
//! [`Trace::decode`] parses and validates a byte stream (magic, header,
//! records, footer, checksum, no trailing bytes). [`Trace::replay`]
//! re-applies the records to the header's initial configuration and
//! verifies the result is bit-identical to the footer's final counts —
//! which, for a trace recorded from a live run, are the live run's final
//! counts, making replay an end-to-end correctness oracle for both
//! kernels. [`Trace::config_at`] answers "configuration at step t".

use crate::format::{
    decode_header, Reader, TraceError, TraceHeader, TraceRecord, TAG_EFFECTIVE, TAG_FOOTER,
    TAG_IDENTITY_RUN, TAG_LIFECYCLE,
};
use pp_engine::observer::LifecycleKind;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::seeds::fnv1a64;
use std::convert::Infallible;
use std::ops::ControlFlow;

/// A fully decoded trace: header, records (absolute steps), final counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The run's identity: protocol, population, seed, kernel.
    pub header: TraceHeader,
    /// Records in step order, with absolute interaction numbers.
    pub records: Vec<TraceRecord>,
    /// Final configuration stored in the footer.
    pub final_counts: Vec<u64>,
}

/// Aggregate numbers produced by a successful replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Total interactions covered (effective + identity).
    pub interactions: u64,
    /// Effective interactions replayed.
    pub effective: u64,
    /// Identity interactions covered by identity-run records.
    pub identity: u64,
    /// Lifecycle events replayed (joins + leaves + crashes).
    pub lifecycle: u64,
    /// The replayed final configuration (equals the footer's).
    pub final_counts: Vec<u64>,
}

impl Trace {
    /// Decode and validate a complete trace stream.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Reader::new(bytes);
        let header = decode_header(&mut r)?;
        let s = header.state_names.len();
        let mut records = Vec::new();
        let mut step = 0u64;
        // Net population change from lifecycle records; the footer's
        // counts must sum to the initial n plus this.
        let mut net: i64 = 0;
        loop {
            let tag = r.varint()?;
            match tag {
                TAG_EFFECTIVE => {
                    let dstep = r.varint()?;
                    if dstep == 0 {
                        return Err(TraceError::Malformed {
                            what: "zero step delta",
                        });
                    }
                    step = step.checked_add(dstep).ok_or(TraceError::Malformed {
                        what: "step overflow",
                    })?;
                    let mut ids = [0u16; 4];
                    for slot in &mut ids {
                        let v = r.varint()?;
                        if v > u16::MAX as u64 {
                            return Err(TraceError::Malformed {
                                what: "state id overflows u16",
                            });
                        }
                        *slot = v as u16;
                    }
                    let [p, q, p2, q2] = ids;
                    for id in ids {
                        if id as usize >= s {
                            return Err(TraceError::StateOutOfRange { step, state: id });
                        }
                    }
                    if p == p2 && q == q2 {
                        return Err(TraceError::Malformed {
                            what: "identity encoded as effective record",
                        });
                    }
                    records.push(TraceRecord::Effective { step, p, q, p2, q2 });
                }
                TAG_IDENTITY_RUN => {
                    let dlast = r.varint()?;
                    let skipped = r.varint()?;
                    if dlast == 0 || skipped == 0 || skipped > dlast {
                        return Err(TraceError::Malformed {
                            what: "inconsistent identity run",
                        });
                    }
                    step = step.checked_add(dlast).ok_or(TraceError::Malformed {
                        what: "step overflow",
                    })?;
                    records.push(TraceRecord::IdentityRun {
                        last_step: step,
                        skipped,
                    });
                }
                TAG_LIFECYCLE => {
                    // Lifecycle events sit between interactions: a zero
                    // step delta is legal (the event follows the
                    // interaction the previous record ended on).
                    let dstep = r.varint()?;
                    step = step.checked_add(dstep).ok_or(TraceError::Malformed {
                        what: "step overflow",
                    })?;
                    let kind =
                        LifecycleKind::from_code(r.varint()?).ok_or(TraceError::Malformed {
                            what: "unknown lifecycle kind",
                        })?;
                    let state = r.varint()?;
                    if state > u16::MAX as u64 {
                        return Err(TraceError::Malformed {
                            what: "state id overflows u16",
                        });
                    }
                    let state = state as u16;
                    if state as usize >= s {
                        return Err(TraceError::StateOutOfRange { step, state });
                    }
                    let rec = TraceRecord::Lifecycle { step, kind, state };
                    net += rec.population_delta();
                    if (header.n as i64) + net < 0 {
                        return Err(TraceError::Malformed {
                            what: "lifecycle records drop population below zero",
                        });
                    }
                    records.push(rec);
                }
                TAG_FOOTER => {
                    let mut final_counts = Vec::with_capacity(s);
                    for _ in 0..s {
                        final_counts.push(r.varint()?);
                    }
                    let body_len = r.pos();
                    let stored =
                        u64::from_le_bytes(r.take(8)?.try_into().expect("take(8) returns 8 bytes"));
                    if r.remaining() > 0 {
                        return Err(TraceError::TrailingBytes {
                            extra: r.remaining(),
                        });
                    }
                    let computed = fnv1a64(&bytes[..body_len]);
                    if stored != computed {
                        return Err(TraceError::ChecksumMismatch { stored, computed });
                    }
                    // The header's n is the *initial* population;
                    // lifecycle records shift the final total.
                    let expected = (header.n as i64) + net;
                    if final_counts.iter().sum::<u64>() != expected as u64 {
                        return Err(TraceError::BadHeader {
                            what: "final counts do not sum to n plus net churn",
                        });
                    }
                    return Ok(Trace {
                        header,
                        records,
                        final_counts,
                    });
                }
                tag => return Err(TraceError::UnknownTag { tag }),
            }
        }
    }

    /// The last interaction number any record covers (0 for empty traces).
    pub fn last_step(&self) -> u64 {
        self.records.last().map_or(0, TraceRecord::last_step)
    }

    /// Number of effective-interaction records.
    pub fn effective_len(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Effective { .. }))
            .count() as u64
    }

    /// Total identity interactions covered by identity-run records.
    pub fn identity_total(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::IdentityRun { skipped, .. } => *skipped,
                _ => 0,
            })
            .sum()
    }

    /// Replay the records against the initial configuration.
    ///
    /// Verifies counts never go negative and that the replayed final
    /// configuration is *bit-identical* to the footer's. Does not need
    /// the protocol; see [`Trace::replay_checked`] for δ-conformance.
    pub fn replay(&self) -> Result<ReplaySummary, TraceError> {
        self.replay_inner(None)
    }

    /// Like [`Trace::replay`], but additionally verifies every effective
    /// record agrees with `proto`'s transition function and that every
    /// recorded pair in an identity run *could* be an identity (the pair
    /// itself is not recorded, so only effective records are checked
    /// exactly).
    pub fn replay_checked(&self, proto: &CompiledProtocol) -> Result<ReplaySummary, TraceError> {
        if proto.num_states() != self.header.state_names.len() {
            return Err(TraceError::BadHeader {
                what: "protocol state count differs from header",
            });
        }
        self.replay_inner(Some(proto))
    }

    fn replay_inner(&self, proto: Option<&CompiledProtocol>) -> Result<ReplaySummary, TraceError> {
        let mut effective = 0u64;
        let mut identity = 0u64;
        let mut lifecycle = 0u64;
        let walked = self.walk(|rec, _| {
            match *rec {
                TraceRecord::Effective { step, p, q, p2, q2 } => {
                    if let Some(proto) = proto {
                        let (e2, f2) = proto.delta(StateId(p), StateId(q));
                        if (e2, f2) != (StateId(p2), StateId(q2)) {
                            return Err(TraceError::DeltaMismatch { step });
                        }
                    }
                    effective += 1;
                }
                TraceRecord::IdentityRun { skipped, .. } => identity += skipped,
                TraceRecord::Lifecycle { .. } => lifecycle += 1,
            }
            Ok(ControlFlow::<Infallible>::Continue(()))
        })?;
        let ControlFlow::Continue(counts) = walked;
        if counts != self.final_counts {
            return Err(TraceError::FinalCountsMismatch);
        }
        Ok(ReplaySummary {
            interactions: self.last_step(),
            effective,
            identity,
            lifecycle,
            final_counts: counts,
        })
    }

    /// Walk the trace's configurations: apply every record in order to
    /// the initial configuration — effective interactions and lifecycle
    /// events alike — and hand `visit` each record with the
    /// configuration right after it (identity runs leave it unchanged).
    /// `visit` ends the walk early by returning `Break`; a full walk
    /// yields the final configuration. Replay and the online Lemma 1
    /// check both reconstruct configurations through this one loop.
    pub(crate) fn walk<B>(
        &self,
        mut visit: impl FnMut(&TraceRecord, &[u64]) -> Result<ControlFlow<B>, TraceError>,
    ) -> Result<ControlFlow<B, Vec<u64>>, TraceError> {
        let mut counts = self.header.initial_counts.clone();
        for rec in &self.records {
            apply(&mut counts, rec)?;
            if let ControlFlow::Break(b) = visit(rec, &counts)? {
                return Ok(ControlFlow::Break(b));
            }
        }
        Ok(ControlFlow::Continue(counts))
    }

    /// The configuration after interaction `t` (`t = 0` is the initial
    /// configuration). Linear in the number of records before `t`.
    pub fn config_at(&self, t: u64) -> Result<Vec<u64>, TraceError> {
        let mut counts = self.header.initial_counts.clone();
        for rec in self.records.iter().take_while(|r| r.last_step() <= t) {
            apply(&mut counts, rec)?;
        }
        Ok(counts)
    }
}

/// Apply one record to a count vector: an effective interaction moves
/// two agents, a join adds one, a leave or crash removes one, and an
/// identity run changes nothing.
fn apply(counts: &mut [u64], rec: &TraceRecord) -> Result<(), TraceError> {
    let take = |counts: &mut [u64], step, state: u16| -> Result<(), TraceError> {
        let c = &mut counts[state as usize];
        *c = c
            .checked_sub(1)
            .ok_or(TraceError::CountUnderflow { step, state })?;
        Ok(())
    };
    match *rec {
        TraceRecord::Effective { step, p, q, p2, q2 } => {
            take(counts, step, p)?;
            take(counts, step, q)?;
            counts[p2 as usize] += 1;
            counts[q2 as usize] += 1;
        }
        TraceRecord::IdentityRun { .. } => {}
        TraceRecord::Lifecycle {
            kind: LifecycleKind::Join,
            state,
            ..
        } => counts[state as usize] += 1,
        TraceRecord::Lifecycle { step, state, .. } => take(counts, step, state)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceKernel;
    use crate::recorder::TraceRecorder;
    use pp_engine::observer::Observer;
    use pp_engine::protocol::StateId;

    fn toy_trace() -> Vec<u8> {
        let header = TraceHeader {
            protocol: "toy".into(),
            state_names: vec!["a".into(), "b".into()],
            n: 4,
            seed: 9,
            kernel: TraceKernel::Naive,
            initial_counts: vec![4, 0],
        };
        let a = StateId(0);
        let b = StateId(1);
        let mut rec = TraceRecorder::new(&header);
        rec.on_interaction(1, a, a, b, b, &[2, 2]);
        rec.on_interaction(2, a, b, a, b, &[2, 2]); // identity, coalesced
        rec.on_interaction(3, a, a, b, b, &[0, 4]);
        rec.finish(&[0, 4])
    }

    #[test]
    fn decode_replay_round_trip() {
        let bytes = toy_trace();
        let trace = Trace::decode(&bytes).unwrap();
        assert_eq!(trace.header.n, 4);
        assert_eq!(trace.effective_len(), 2);
        assert_eq!(trace.identity_total(), 1);
        let summary = trace.replay().unwrap();
        assert_eq!(summary.interactions, 3);
        assert_eq!(summary.final_counts, vec![0, 4]);
    }

    #[test]
    fn config_at_is_stepwise() {
        let trace = Trace::decode(&toy_trace()).unwrap();
        assert_eq!(trace.config_at(0).unwrap(), vec![4, 0]);
        assert_eq!(trace.config_at(1).unwrap(), vec![2, 2]);
        assert_eq!(trace.config_at(2).unwrap(), vec![2, 2]);
        assert_eq!(trace.config_at(3).unwrap(), vec![0, 4]);
        assert_eq!(trace.config_at(99).unwrap(), vec![0, 4]);
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = toy_trace();
        for len in 0..bytes.len() {
            let err = Trace::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated
                        | TraceError::BadMagic
                        | TraceError::ChecksumMismatch { .. }
                ),
                "unexpected error at prefix {len}: {err:?}"
            );
        }
    }

    /// A trace with churn, where a lifecycle record shares its step with
    /// an interaction (zero delta).
    fn churn_trace() -> Vec<u8> {
        let header = TraceHeader {
            protocol: "toy".into(),
            state_names: vec!["a".into(), "b".into()],
            n: 4,
            seed: 3,
            kernel: TraceKernel::Naive,
            initial_counts: vec![4, 0],
        };
        let a = StateId(0);
        let b = StateId(1);
        let mut rec = TraceRecorder::new(&header);
        rec.on_interaction(1, a, a, b, b, &[2, 2]);
        rec.on_lifecycle(1, LifecycleKind::Join, b, &[2, 3]);
        rec.on_interaction(3, a, a, b, b, &[0, 5]);
        rec.on_lifecycle(3, LifecycleKind::Leave, b, &[0, 4]);
        rec.on_lifecycle(3, LifecycleKind::Crash, b, &[0, 3]);
        rec.finish(&[0, 3])
    }

    #[test]
    fn lifecycle_shifts_population_and_config_at() {
        let trace = Trace::decode(&churn_trace()).unwrap();
        let summary = trace.replay().unwrap();
        assert_eq!(summary.lifecycle, 3);
        assert_eq!(summary.final_counts, vec![0, 3]);
        assert_eq!(trace.config_at(0).unwrap(), vec![4, 0]);
        // Step 1 includes the interaction AND the same-step join.
        assert_eq!(trace.config_at(1).unwrap(), vec![2, 3]);
        assert_eq!(trace.config_at(2).unwrap(), vec![2, 3]);
        assert_eq!(trace.config_at(3).unwrap(), vec![0, 3]);
    }

    #[test]
    fn lifecycle_underflow_and_bad_kind_rejected() {
        let header = TraceHeader {
            protocol: "toy".into(),
            state_names: vec!["a".into(), "b".into()],
            n: 2,
            seed: 0,
            kernel: TraceKernel::Naive,
            initial_counts: vec![2, 0],
        };
        // Removing from an empty state underflows during replay.
        let mut rec = TraceRecorder::new(&header);
        rec.on_lifecycle(1, LifecycleKind::Leave, StateId(1), &[2, 0]);
        rec.on_lifecycle(1, LifecycleKind::Join, StateId(1), &[2, 0]);
        let bytes = rec.finish(&[2, 0]);
        let trace = Trace::decode(&bytes).unwrap();
        assert!(matches!(
            trace.replay(),
            Err(TraceError::CountUnderflow { step: 1, state: 1 })
        ));
        // An unknown lifecycle kind code is rejected at decode time:
        // patch the kind byte (tag, delta, kind, state = 4 trailing
        // varint bytes before the footer in this tiny trace).
        let mut rec = TraceRecorder::new(&header);
        rec.on_lifecycle(1, LifecycleKind::Join, StateId(0), &[3, 0]);
        let mut bytes = rec.finish(&[3, 0]);
        let kind_pos = bytes.len() - 8 - 1 - 2 - 1 - 1; // checksum, footer counts+tag, state
        assert_eq!(bytes[kind_pos], LifecycleKind::Join.code() as u8);
        bytes[kind_pos] = 9;
        // Checksum now stale; recompute so the kind check is what trips.
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Trace::decode(&bytes),
            Err(TraceError::Malformed {
                what: "unknown lifecycle kind"
            })
        ));
    }

    #[test]
    fn footer_must_sum_to_n_plus_net_churn() {
        let header = TraceHeader {
            protocol: "toy".into(),
            state_names: vec!["a".into()],
            n: 2,
            seed: 0,
            kernel: TraceKernel::Naive,
            initial_counts: vec![2],
        };
        let mut rec = TraceRecorder::new(&header);
        rec.on_lifecycle(1, LifecycleKind::Join, StateId(0), &[3]);
        // Footer claims the pre-churn population: must be rejected.
        let bytes = rec.finish(&[2]);
        assert!(matches!(
            Trace::decode(&bytes),
            Err(TraceError::BadHeader {
                what: "final counts do not sum to n plus net churn"
            })
        ));
    }

    #[test]
    fn corruption_rejected() {
        let bytes = toy_trace();
        // Flip one bit somewhere in the middle of the record section.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x40;
        assert!(Trace::decode(&bad).is_err(), "bit flip accepted");
        // Trailing garbage after the checksum.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Trace::decode(&long),
            Err(TraceError::TrailingBytes { .. })
        ));
        // Checksum bytes corrupted directly.
        let mut sum = bytes;
        let last = sum.len() - 1;
        sum[last] ^= 0xff;
        assert!(matches!(
            Trace::decode(&sum),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }
}
