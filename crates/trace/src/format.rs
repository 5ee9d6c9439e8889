//! The on-disk trace format: varint/delta encoding, header, records,
//! checksummed footer.
//!
//! A trace file is a single byte stream:
//!
//! ```text
//! magic    "PPTRACE1"                                    (8 bytes)
//! header   protocol name, state names, n, seed, kernel,
//!          initial counts                                (varints + strings)
//! records  tag 0: effective  (Δstep, p, q, p2, q2)       (varints)
//!          tag 1: identity   (Δlast, skipped)            (varints)
//!          tag 3: lifecycle  (Δstep, kind, state)        (varints)
//! footer   tag 2: final counts, FNV-1a-64 checksum       (varints + 8 bytes LE)
//! ```
//!
//! All integers are LEB128 varints; steps are *deltas* against the last
//! step covered by the previous record, so a trace of a converging run
//! costs a few bytes per effective interaction regardless of how many
//! identity interactions separate them. Lifecycle records (churn events
//! from `pp-topo`'s dynamics runner) happen *between* interactions, so
//! their step delta may be zero — the event follows the interaction the
//! previous record ended on. They change the population size: the
//! header's `n` is the *initial* population, and the footer's counts sum
//! to `n` plus the net of all lifecycle records. The checksum covers every byte
//! from the magic up to (excluding) the checksum itself; decoding rejects
//! bad magic, truncation, trailing garbage, and checksum mismatches with
//! a typed [`TraceError`], mirroring the sweep journal's
//! torn-tail-discard philosophy — except that a trace, unlike a journal,
//! is written once and must be complete, so corruption is an error rather
//! than a recoverable prefix.

use pp_engine::observer::LifecycleKind;
use pp_engine::simulator::Kernel;
use std::fmt;

/// Magic bytes opening every trace file (format version 1).
pub const TRACE_MAGIC: &[u8; 8] = b"PPTRACE1";

/// Record tag: an effective (state-changing) interaction.
pub const TAG_EFFECTIVE: u64 = 0;
/// Record tag: a run of consecutive identity interactions.
pub const TAG_IDENTITY_RUN: u64 = 1;
/// Record tag: the footer (final counts + checksum); ends the stream.
pub const TAG_FOOTER: u64 = 2;
/// Record tag: a lifecycle event (join/leave/crash) applied by a dynamics
/// layer between interactions.
pub const TAG_LIFECYCLE: u64 = 3;

/// Which simulation kernel produced a trace: the wire tag of the
/// kernels that report every interaction. A batch-kernel run is
/// recorded on its stand-in ([`TraceKernel::recording`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKernel {
    /// One interaction per loop iteration (`Simulator::run`).
    Naive,
    /// Batched identity-skipping kernel (`Simulator::run_leap_observed`).
    Leap,
}

impl TraceKernel {
    /// The trace kernel that records a run of `kernel`: the kernel
    /// itself, or for the batch kernel its
    /// [per-interaction stand-in](Kernel::per_interaction).
    pub fn recording(kernel: Kernel) -> TraceKernel {
        match kernel.per_interaction() {
            Kernel::Naive => TraceKernel::Naive,
            _ => TraceKernel::Leap,
        }
    }

    /// Wire encoding of the kernel tag.
    pub fn code(self) -> u64 {
        match self {
            TraceKernel::Naive => 0,
            TraceKernel::Leap => 1,
        }
    }

    /// Decode a wire kernel tag.
    pub fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(TraceKernel::Naive),
            1 => Some(TraceKernel::Leap),
            _ => None,
        }
    }

    /// The kernel's [name](Kernel::name).
    pub fn name(self) -> &'static str {
        Kernel::from(self).name()
    }
}

impl From<TraceKernel> for Kernel {
    fn from(k: TraceKernel) -> Kernel {
        match k {
            TraceKernel::Naive => Kernel::Naive,
            TraceKernel::Leap => Kernel::Leap,
        }
    }
}

impl fmt::Display for TraceKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to re-run or replay the recorded execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Protocol name (e.g. `uniform-4-partition`).
    pub protocol: String,
    /// State names in id order; fixes `|Q|` and the meaning of indices.
    pub state_names: Vec<String>,
    /// Population size.
    pub n: u64,
    /// Scheduler seed of the live run.
    pub seed: u64,
    /// Kernel that produced the trace.
    pub kernel: TraceKernel,
    /// Configuration before the first interaction, one count per state.
    pub initial_counts: Vec<u64>,
}

/// One decoded trace record, with *absolute* step numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    /// An effective interaction `(p, q) → (p2, q2)` at `step` (1-based).
    Effective {
        /// Interaction number, 1-based.
        step: u64,
        /// Initiator state before.
        p: u16,
        /// Responder state before.
        q: u16,
        /// Initiator state after.
        p2: u16,
        /// Responder state after.
        q2: u16,
    },
    /// `skipped` consecutive identity interactions ending at `last_step`.
    IdentityRun {
        /// Interaction number of the last identity in the run.
        last_step: u64,
        /// Length of the run (`≥ 1`).
        skipped: u64,
    },
    /// A lifecycle event applied after interaction `step` (before
    /// `step + 1`): a join adds one agent in `state`, a leave/crash
    /// removes one agent whose last state was `state`.
    Lifecycle {
        /// Interaction count when the event was applied (may equal the
        /// previous record's last step — the event sits between
        /// interactions).
        step: u64,
        /// Join, leave, or crash.
        kind: LifecycleKind,
        /// The joining agent's initial state or the departing agent's
        /// last state.
        state: u16,
    },
}

impl TraceRecord {
    /// The last interaction number this record covers.
    pub fn last_step(&self) -> u64 {
        match *self {
            TraceRecord::Effective { step, .. } => step,
            TraceRecord::IdentityRun { last_step, .. } => last_step,
            TraceRecord::Lifecycle { step, .. } => step,
        }
    }

    /// Population-size delta this record applies (±1 for lifecycle
    /// records, 0 otherwise).
    pub fn population_delta(&self) -> i64 {
        match self {
            TraceRecord::Lifecycle { kind, .. } => match kind {
                LifecycleKind::Join => 1,
                LifecycleKind::Leave | LifecycleKind::Crash => -1,
            },
            _ => 0,
        }
    }
}

/// Errors raised while decoding or replaying a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The stream does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The stream ended before a complete header/record/footer.
    Truncated,
    /// Bytes remain after the footer's checksum.
    TrailingBytes {
        /// How many extra bytes follow the footer.
        extra: usize,
    },
    /// The stored checksum does not match the stream contents.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum recomputed over the stream.
        computed: u64,
    },
    /// A record carries an unknown tag.
    UnknownTag {
        /// The offending tag value.
        tag: u64,
    },
    /// A varint overflows 64 bits or a delta is zero where `≥ 1` is required.
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
    /// A record references a state outside the header's state set.
    StateOutOfRange {
        /// Step of the offending record.
        step: u64,
        /// The state index.
        state: u16,
    },
    /// Replay drove a state's count below zero.
    CountUnderflow {
        /// Step of the offending record.
        step: u64,
        /// The state whose count underflowed.
        state: u16,
    },
    /// A record's transition disagrees with the protocol's `δ`.
    DeltaMismatch {
        /// Step of the offending record.
        step: u64,
    },
    /// Replayed final counts differ from the footer's.
    FinalCountsMismatch,
    /// Header invariants violated (e.g. counts don't sum to `n`).
    BadHeader {
        /// What was inconsistent.
        what: &'static str,
    },
    /// A live re-run from the header diverged from the trace.
    LiveDiverged {
        /// Which quantity diverged.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after footer")
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::UnknownTag { tag } => write!(f, "unknown record tag {tag}"),
            TraceError::Malformed { what } => write!(f, "malformed trace: {what}"),
            TraceError::StateOutOfRange { step, state } => {
                write!(f, "state q{state} out of range at step {step}")
            }
            TraceError::CountUnderflow { step, state } => {
                write!(f, "count of state q{state} underflows at step {step}")
            }
            TraceError::DeltaMismatch { step } => {
                write!(f, "recorded transition disagrees with δ at step {step}")
            }
            TraceError::FinalCountsMismatch => {
                write!(f, "replayed final counts differ from footer")
            }
            TraceError::BadHeader { what } => write!(f, "bad trace header: {what}"),
            TraceError::LiveDiverged { what } => {
                write!(f, "live re-run diverged from trace: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Append `v` as a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// A cursor over trace bytes with varint/string readers.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = *self.bytes.get(self.pos).ok_or(TraceError::Truncated)?;
            self.pos += 1;
            if shift == 63 && b > 1 {
                return Err(TraceError::Malformed {
                    what: "varint overflows u64",
                });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Malformed {
                    what: "varint overflows u64",
                });
            }
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| TraceError::Malformed {
            what: "string is not UTF-8",
        })
    }
}

/// Encode `header` (including the magic) into a fresh buffer.
pub fn encode_header(header: &TraceHeader) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(TRACE_MAGIC);
    put_str(&mut buf, &header.protocol);
    put_varint(&mut buf, header.state_names.len() as u64);
    for name in &header.state_names {
        put_str(&mut buf, name);
    }
    put_varint(&mut buf, header.n);
    put_varint(&mut buf, header.seed);
    put_varint(&mut buf, header.kernel.code());
    debug_assert_eq!(header.initial_counts.len(), header.state_names.len());
    for &c in &header.initial_counts {
        put_varint(&mut buf, c);
    }
    buf
}

/// Decode the magic + header from the front of a stream.
pub fn decode_header(r: &mut Reader<'_>) -> Result<TraceHeader, TraceError> {
    if r.take(TRACE_MAGIC.len())? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let protocol = r.string()?;
    let s = r.varint()? as usize;
    if s == 0 || s > u16::MAX as usize {
        return Err(TraceError::BadHeader {
            what: "state count out of range",
        });
    }
    let mut state_names = Vec::with_capacity(s);
    for _ in 0..s {
        state_names.push(r.string()?);
    }
    let n = r.varint()?;
    let seed = r.varint()?;
    let kernel = TraceKernel::from_code(r.varint()?).ok_or(TraceError::BadHeader {
        what: "unknown kernel tag",
    })?;
    let mut initial_counts = Vec::with_capacity(s);
    for _ in 0..s {
        initial_counts.push(r.varint()?);
    }
    if initial_counts.iter().sum::<u64>() != n {
        return Err(TraceError::BadHeader {
            what: "initial counts do not sum to n",
        });
    }
    Ok(TraceHeader {
        protocol,
        state_names,
        n,
        seed,
        kernel,
        initial_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes of 0xff encode > 64 bits.
        let buf = vec![0xffu8; 10];
        assert!(matches!(
            Reader::new(&buf).varint(),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn header_round_trip() {
        let h = TraceHeader {
            protocol: "uniform-3-partition".into(),
            state_names: vec!["initial".into(), "initial'".into(), "g1".into()],
            n: 10,
            seed: 42,
            kernel: TraceKernel::Leap,
            initial_counts: vec![10, 0, 0],
        };
        let buf = encode_header(&h);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_header(&mut r).unwrap(), h);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn header_count_sum_validated() {
        let h = TraceHeader {
            protocol: "p".into(),
            state_names: vec!["a".into()],
            n: 5,
            seed: 0,
            kernel: TraceKernel::Naive,
            initial_counts: vec![4],
        };
        let buf = encode_header(&h);
        assert!(matches!(
            decode_header(&mut Reader::new(&buf)),
            Err(TraceError::BadHeader { .. })
        ));
    }
}
