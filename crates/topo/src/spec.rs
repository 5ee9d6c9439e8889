//! Declarative dynamics specifications — population dynamics *as data*.
//!
//! A [`Dynamics`] value names a topology family ([`TopoSpec`]), a
//! scheduler ([`SchedSpec`]) and a churn profile ([`ChurnSpec`]) with
//! integer-encoded parameters, so it is `Hash`/`Eq` and can join a sweep
//! cell's content-addressed identity. The canonical string form
//! ([`Dynamics::key_fragment`] / [`Dynamics::parse`]) round-trips exactly
//! and is what the sweep store embeds in cell keys and wire JSON.
//!
//! The **default** dynamics — complete graph, uniform edge scheduler, no
//! churn — is the paper's model, and is special-cased across the stack:
//! sweep cells carrying it keep their historical (pre-dynamics) cache
//! keys, and only default-dynamics cells may use the leap/batch kernels.

use crate::scheduler::{
    AdversarialFairScheduler, EdgeScheduler, UniformEdgeScheduler, ZipfScheduler,
};
use crate::topology::{CompleteTopology, EdgeListTopology, Topology};

/// Errors constructing or parsing a dynamics specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dynamics spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A topology family with integer parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopoSpec {
    /// The complete graph (the paper's model).
    Complete,
    /// A cycle. Requires `n ≥ 3`.
    Ring,
    /// A star with agent 0 at the centre.
    Star,
    /// A torus grid; `rows · cols` must equal the cell's `n`, both ≥ 3.
    Torus {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
    /// A random `degree`-regular graph (configuration model, seeded).
    RandomRegular {
        /// Uniform vertex degree; `n · degree` must be even.
        degree: u32,
    },
    /// A Chung–Lu power-law graph with exponent `gamma_x10 / 10` and a
    /// ring backbone for connectivity.
    PowerLaw {
        /// Degree exponent × 10 (e.g. 25 ⇒ β = 2.5). Must exceed 10.
        gamma_x10: u32,
    },
    /// An explicit undirected edge list.
    Explicit {
        /// Edges as `(u, v)` index pairs, `u ≠ v`, all `< n`.
        edges: Vec<(u32, u32)>,
    },
}

impl TopoSpec {
    /// Short family name for error messages, reports and lint mapping.
    pub fn family(&self) -> &'static str {
        match self {
            TopoSpec::Complete => "complete",
            TopoSpec::Ring => "ring",
            TopoSpec::Star => "star",
            TopoSpec::Torus { .. } => "torus",
            TopoSpec::RandomRegular { .. } => "rr",
            TopoSpec::PowerLaw { .. } => "pl",
            TopoSpec::Explicit { .. } => "explicit",
        }
    }

    /// A structural per-agent degree bound, when the family has one.
    /// Used by the topology-aware lint to warn when chain-building rules
    /// can strand on low-degree graphs. `None` means unbounded or
    /// data-dependent (complete, power-law, explicit).
    pub fn degree_bound(&self) -> Option<u32> {
        match self {
            TopoSpec::Ring => Some(2),
            TopoSpec::Star => Some(1), // leaves; the centre is unbounded
            TopoSpec::Torus { .. } => Some(4),
            TopoSpec::RandomRegular { degree } => Some(*degree),
            _ => None,
        }
    }

    /// Canonical string form, e.g. `complete`, `torus:3x8`, `rr:d=4`,
    /// `pl:g=25`, `explicit:0-1.1-2`.
    pub fn key_fragment(&self) -> String {
        match self {
            TopoSpec::Complete => "complete".into(),
            TopoSpec::Ring => "ring".into(),
            TopoSpec::Star => "star".into(),
            TopoSpec::Torus { rows, cols } => format!("torus:{rows}x{cols}"),
            TopoSpec::RandomRegular { degree } => format!("rr:d={degree}"),
            TopoSpec::PowerLaw { gamma_x10 } => format!("pl:g={gamma_x10}"),
            TopoSpec::Explicit { edges } => {
                let body: Vec<String> = edges.iter().map(|(u, v)| format!("{u}-{v}")).collect();
                format!("explicit:{}", body.join("."))
            }
        }
    }

    /// Parse the [`Self::key_fragment`] form.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "complete" => return Ok(TopoSpec::Complete),
            "ring" => return Ok(TopoSpec::Ring),
            "star" => return Ok(TopoSpec::Star),
            _ => {}
        }
        let (kind, body) = s
            .split_once(':')
            .ok_or_else(|| SpecError(format!("unknown topology {s:?}")))?;
        match kind {
            "torus" => {
                let (r, c) = body
                    .split_once('x')
                    .ok_or_else(|| SpecError(format!("bad torus {body:?}")))?;
                let rows = r
                    .parse()
                    .map_err(|_| SpecError(format!("bad torus rows {r:?}")))?;
                let cols = c
                    .parse()
                    .map_err(|_| SpecError(format!("bad torus cols {c:?}")))?;
                Ok(TopoSpec::Torus { rows, cols })
            }
            "rr" => {
                let d = body
                    .strip_prefix("d=")
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| SpecError(format!("bad rr degree {body:?}")))?;
                Ok(TopoSpec::RandomRegular { degree: d })
            }
            "pl" => {
                let g = body
                    .strip_prefix("g=")
                    .and_then(|g| g.parse().ok())
                    .ok_or_else(|| SpecError(format!("bad pl gamma {body:?}")))?;
                Ok(TopoSpec::PowerLaw { gamma_x10: g })
            }
            "explicit" => {
                let mut edges = Vec::new();
                if !body.is_empty() {
                    for part in body.split('.') {
                        let (u, v) = part
                            .split_once('-')
                            .ok_or_else(|| SpecError(format!("bad edge {part:?}")))?;
                        let u = u
                            .parse()
                            .map_err(|_| SpecError(format!("bad edge {part:?}")))?;
                        let v = v
                            .parse()
                            .map_err(|_| SpecError(format!("bad edge {part:?}")))?;
                        edges.push((u, v));
                    }
                }
                Ok(TopoSpec::Explicit { edges })
            }
            _ => err(format!("unknown topology {s:?}")),
        }
    }

    /// Validate this family against a population size without building.
    pub fn validate(&self, n: usize) -> Result<(), SpecError> {
        match self {
            TopoSpec::Complete => Ok(()),
            TopoSpec::Ring => {
                if n < 3 {
                    return err(format!("ring needs n >= 3, got {n}"));
                }
                Ok(())
            }
            TopoSpec::Star => {
                if n < 2 {
                    return err(format!("star needs n >= 2, got {n}"));
                }
                Ok(())
            }
            TopoSpec::Torus { rows, cols } => {
                if *rows < 3 || *cols < 3 {
                    return err(format!("torus needs both sides >= 3, got {rows}x{cols}"));
                }
                if (*rows as usize) * (*cols as usize) != n {
                    return err(format!("torus {rows}x{cols} does not cover n = {n}"));
                }
                Ok(())
            }
            TopoSpec::RandomRegular { degree } => {
                let d = *degree as usize;
                if d == 0 || d >= n {
                    return err(format!(
                        "rr degree must satisfy 1 <= d < n, got d={d}, n={n}"
                    ));
                }
                if n * d % 2 != 0 {
                    return err(format!("rr needs n*d even, got n={n}, d={d}"));
                }
                Ok(())
            }
            TopoSpec::PowerLaw { gamma_x10 } => {
                if *gamma_x10 <= 10 {
                    return err(format!("pl exponent must exceed 1.0, got {gamma_x10}/10"));
                }
                if n < 3 {
                    return err(format!("pl needs n >= 3, got {n}"));
                }
                Ok(())
            }
            TopoSpec::Explicit { edges } => {
                let mut seen = std::collections::HashSet::new();
                for &(u, v) in edges {
                    if u == v {
                        return err(format!("explicit edge ({u}, {v}) is a self-loop"));
                    }
                    if (u as usize) >= n || (v as usize) >= n {
                        return err(format!("explicit edge ({u}, {v}) out of range for n = {n}"));
                    }
                    let key = if u < v { (u, v) } else { (v, u) };
                    if !seen.insert(key) {
                        return err(format!("explicit edge ({u}, {v}) repeated"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Build the concrete topology for `n` agents. Randomised families
    /// (random-regular, power-law) are deterministic in `seed`.
    pub fn build(&self, n: usize, seed: u64) -> Result<Box<dyn Topology>, SpecError> {
        self.validate(n)?;
        Ok(match self {
            TopoSpec::Complete => Box::new(CompleteTopology::new(n)),
            TopoSpec::Ring => Box::new(EdgeListTopology::ring(n)),
            TopoSpec::Star => Box::new(EdgeListTopology::star(n)),
            TopoSpec::Torus { rows, cols } => {
                Box::new(EdgeListTopology::torus(*rows as usize, *cols as usize))
            }
            TopoSpec::RandomRegular { degree } => {
                Box::new(EdgeListTopology::random_regular(n, *degree as usize, seed))
            }
            TopoSpec::PowerLaw { gamma_x10 } => {
                Box::new(EdgeListTopology::power_law(n, *gamma_x10, seed))
            }
            TopoSpec::Explicit { edges } => {
                Box::new(EdgeListTopology::from_edges(n, edges.clone()))
            }
        })
    }
}

/// An edge-scheduler family with integer parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SchedSpec {
    /// Uniform over enabled edges with uniform orientation; on the
    /// complete graph, distribution-identical to the engine's
    /// `UniformRandomScheduler` (property-tested).
    UniformEdge,
    /// Zipf-skewed per-agent activation: agent `u` initiates with rate
    /// ∝ `(u+1)^(-s)`, `s = s_x10 / 10`; the responder is a uniform
    /// neighbour.
    Zipf {
        /// Skew exponent × 10 (e.g. 15 ⇒ s = 1.5).
        s_x10: u32,
    },
    /// Adversarial-but-fair: round-based greedy scheduler that delays
    /// progress while provably firing every enabled edge within a
    /// bounded window (carries a [`crate::scheduler::FairnessCertificate`]).
    AdversarialFair,
}

impl SchedSpec {
    /// Canonical string form: `uniform`, `zipf:s=15`, `adversarial`.
    pub fn key_fragment(&self) -> String {
        match self {
            SchedSpec::UniformEdge => "uniform".into(),
            SchedSpec::Zipf { s_x10 } => format!("zipf:s={s_x10}"),
            SchedSpec::AdversarialFair => "adversarial".into(),
        }
    }

    /// Parse the [`Self::key_fragment`] form.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "uniform" => Ok(SchedSpec::UniformEdge),
            "adversarial" => Ok(SchedSpec::AdversarialFair),
            _ => {
                if let Some(body) = s.strip_prefix("zipf:s=") {
                    let s_x10 = body
                        .parse()
                        .map_err(|_| SpecError(format!("bad zipf skew {body:?}")))?;
                    return Ok(SchedSpec::Zipf { s_x10 });
                }
                err(format!("unknown scheduler {s:?}"))
            }
        }
    }

    /// Build the concrete scheduler, deterministic in `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn EdgeScheduler> {
        match self {
            SchedSpec::UniformEdge => Box::new(UniformEdgeScheduler::from_seed(seed)),
            SchedSpec::Zipf { s_x10 } => Box::new(ZipfScheduler::from_seed(seed, *s_x10)),
            SchedSpec::AdversarialFair => Box::new(AdversarialFairScheduler::new()),
        }
    }
}

/// A declarative churn profile: how many agents join, leave, and crash
/// over a run, spaced `period` interactions apart. The concrete seeded
/// event stream is materialised by [`crate::churn::ChurnPlan`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ChurnSpec {
    /// Agents that join mid-run (in the protocol's initial state).
    pub joins: u32,
    /// Agents that leave gracefully mid-run.
    pub leaves: u32,
    /// Agents that crash mid-run (same population effect as a leave;
    /// distinguished in telemetry and traces).
    pub crashes: u32,
    /// Interactions between consecutive lifecycle events.
    pub period: u64,
}

impl ChurnSpec {
    /// The no-churn profile.
    pub fn none() -> Self {
        ChurnSpec {
            joins: 0,
            leaves: 0,
            crashes: 0,
            period: 0,
        }
    }

    /// True if no lifecycle events will occur.
    pub fn is_none(&self) -> bool {
        self.joins == 0 && self.leaves == 0 && self.crashes == 0
    }

    /// Total number of lifecycle events.
    pub fn total_events(&self) -> u32 {
        self.joins + self.leaves + self.crashes
    }

    /// Net population change once all events have been applied.
    pub fn net(&self) -> i64 {
        self.joins as i64 - self.leaves as i64 - self.crashes as i64
    }

    /// Canonical string form: `j<joins>.l<leaves>.c<crashes>.p<period>`.
    pub fn key_fragment(&self) -> String {
        format!(
            "j{}.l{}.c{}.p{}",
            self.joins, self.leaves, self.crashes, self.period
        )
    }

    /// Parse the [`Self::key_fragment`] form.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return err(format!("bad churn fragment {s:?}"));
        }
        let field = |part: &str, prefix: &str| -> Result<u64, SpecError> {
            part.strip_prefix(prefix)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| SpecError(format!("bad churn field {part:?}")))
        };
        Ok(ChurnSpec {
            joins: field(parts[0], "j")? as u32,
            leaves: field(parts[1], "l")? as u32,
            crashes: field(parts[2], "c")? as u32,
            period: field(parts[3], "p")?,
        })
    }

    /// Validate against a starting population size: the population must
    /// keep at least 2 agents after all departures, and churn requires a
    /// positive period.
    pub fn validate(&self, n: usize) -> Result<(), SpecError> {
        if self.is_none() {
            return Ok(());
        }
        if self.period == 0 {
            return err("churn with events needs period > 0");
        }
        let final_n = n as i64 + self.net();
        if final_n < 2 {
            return err(format!(
                "churn leaves fewer than 2 agents (n = {n}, net = {})",
                self.net()
            ));
        }
        Ok(())
    }
}

/// One complete dynamics description: topology × scheduler × churn.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dynamics {
    /// The interaction topology family.
    pub topo: TopoSpec,
    /// The edge scheduler family.
    pub sched: SchedSpec,
    /// The churn profile.
    pub churn: ChurnSpec,
}

impl Dynamics {
    /// The paper's model: complete graph, uniform scheduler, no churn.
    pub fn default_dynamics() -> Self {
        Dynamics {
            topo: TopoSpec::Complete,
            sched: SchedSpec::UniformEdge,
            churn: ChurnSpec::none(),
        }
    }

    /// True for the paper's model (the canonical default). Cells carrying
    /// it keep their historical cache keys and may use any kernel.
    pub fn is_default(&self) -> bool {
        self.topo == TopoSpec::Complete
            && self.sched == SchedSpec::UniformEdge
            && self.churn.is_none()
    }

    /// Canonical string form `"<topo>;<sched>;<churn>"`, e.g.
    /// `ring;uniform;j2.l1.c0.p500`. Embedded verbatim in sweep cell keys
    /// and wire JSON; [`Self::parse`] round-trips it exactly.
    pub fn key_fragment(&self) -> String {
        format!(
            "{};{};{}",
            self.topo.key_fragment(),
            self.sched.key_fragment(),
            self.churn.key_fragment()
        )
    }

    /// Parse the [`Self::key_fragment`] form.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let parts: Vec<&str> = s.split(';').collect();
        if parts.len() != 3 {
            return err(format!("dynamics fragment needs 3 ';' fields, got {s:?}"));
        }
        Ok(Dynamics {
            topo: TopoSpec::parse(parts[0])?,
            sched: SchedSpec::parse(parts[1])?,
            churn: ChurnSpec::parse(parts[2])?,
        })
    }

    /// Validate the combination against a starting population size.
    pub fn validate(&self, n: usize) -> Result<(), SpecError> {
        self.topo.validate(n)?;
        self.churn.validate(n)
    }
}

impl Default for Dynamics {
    fn default() -> Self {
        Self::default_dynamics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_fragments_round_trip() {
        let specs = [
            Dynamics::default_dynamics(),
            Dynamics {
                topo: TopoSpec::Ring,
                sched: SchedSpec::Zipf { s_x10: 15 },
                churn: ChurnSpec {
                    joins: 2,
                    leaves: 1,
                    crashes: 3,
                    period: 500,
                },
            },
            Dynamics {
                topo: TopoSpec::Torus { rows: 3, cols: 8 },
                sched: SchedSpec::AdversarialFair,
                churn: ChurnSpec::none(),
            },
            Dynamics {
                topo: TopoSpec::RandomRegular { degree: 4 },
                sched: SchedSpec::UniformEdge,
                churn: ChurnSpec::none(),
            },
            Dynamics {
                topo: TopoSpec::PowerLaw { gamma_x10: 25 },
                sched: SchedSpec::UniformEdge,
                churn: ChurnSpec::none(),
            },
            Dynamics {
                topo: TopoSpec::Explicit {
                    edges: vec![(0, 1), (1, 2), (2, 0)],
                },
                sched: SchedSpec::UniformEdge,
                churn: ChurnSpec::none(),
            },
        ];
        for d in specs {
            let frag = d.key_fragment();
            let back = Dynamics::parse(&frag).unwrap_or_else(|e| panic!("{frag}: {e}"));
            assert_eq!(back, d, "{frag}");
        }
    }

    #[test]
    fn default_fragment_is_pinned() {
        // The sweep key-versioning logic depends on this exact string.
        assert_eq!(
            Dynamics::default_dynamics().key_fragment(),
            "complete;uniform;j0.l0.c0.p0"
        );
        assert!(Dynamics::default_dynamics().is_default());
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        assert!(TopoSpec::Ring.validate(2).is_err());
        assert!(TopoSpec::Torus { rows: 3, cols: 8 }.validate(23).is_err());
        assert!(TopoSpec::RandomRegular { degree: 3 }.validate(9).is_err());
        assert!(TopoSpec::RandomRegular { degree: 0 }.validate(9).is_err());
        assert!(TopoSpec::PowerLaw { gamma_x10: 10 }.validate(9).is_err());
        assert!(TopoSpec::Explicit {
            edges: vec![(0, 0)]
        }
        .validate(3)
        .is_err());
        assert!(TopoSpec::Explicit {
            edges: vec![(0, 1), (1, 0)]
        }
        .validate(3)
        .is_err());
        let c = ChurnSpec {
            joins: 0,
            leaves: 5,
            crashes: 0,
            period: 10,
        };
        assert!(c.validate(4).is_err(), "would drop below 2 agents");
        let nc = ChurnSpec {
            joins: 1,
            leaves: 0,
            crashes: 0,
            period: 0,
        };
        assert!(nc.validate(10).is_err(), "events need a period");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Dynamics::parse("ring;uniform").is_err());
        assert!(Dynamics::parse("blob;uniform;j0.l0.c0.p0").is_err());
        assert!(Dynamics::parse("ring;warp;j0.l0.c0.p0").is_err());
        assert!(Dynamics::parse("ring;uniform;j0.l0.c0").is_err());
        assert!(TopoSpec::parse("torus:3").is_err());
        assert!(SchedSpec::parse("zipf:s=abc").is_err());
    }
}
