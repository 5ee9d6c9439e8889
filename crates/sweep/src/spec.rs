//! Cell specifications: the declarative unit of a sweep.
//!
//! A [`CellSpec`] pins everything that determines a cell's output —
//! protocol, population size, trial count, the fully-derived cell seed,
//! stability criterion, interaction budget, and capture mode. Two specs
//! with equal [canonical keys](CellSpec::canonical_key) produce
//! bit-identical trial records, which is what lets the store treat the
//! key's hash as the cell's content address.

use crate::json::Value;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::seeds::fnv1a64;
use pp_engine::stability::{Signature, Silent, StabilityCriterion};
use pp_protocols::hierarchical::{HierarchicalPartition, HierarchicalStable};
use pp_protocols::kpartition::ablation::BasicStrategyKPartition;
use pp_protocols::kpartition::variant::OneSidedAbortKPartition;
use pp_protocols::kpartition::{PhaseMap, UniformKPartition};
use pp_topo::Dynamics;

/// Which protocol a cell simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// The paper's uniform k-partition protocol (`3k − 2` states).
    UniformKPartition {
        /// Number of groups.
        k: usize,
    },
    /// The §3.2 "basic strategy" ablation (rules 1–7, can deadlock).
    BasicStrategy {
        /// Number of groups.
        k: usize,
    },
    /// The one-sided chain-abort variant of rule 8.
    OneSidedAbort {
        /// Number of groups.
        k: usize,
    },
    /// Composed bipartition baseline, `k = 2^h`.
    ComposedBipartition {
        /// Composition depth.
        h: u32,
    },
    /// Approximate-partition baseline (every group ≥ `n/(2k)`).
    ApproxPartition {
        /// Number of groups.
        k: usize,
    },
}

impl ProtocolId {
    /// The group count `k` this instance targets.
    pub fn k(&self) -> usize {
        match *self {
            ProtocolId::UniformKPartition { k }
            | ProtocolId::BasicStrategy { k }
            | ProtocolId::OneSidedAbort { k }
            | ProtocolId::ApproxPartition { k } => k,
            ProtocolId::ComposedBipartition { h } => 1usize << h,
        }
    }

    /// Canonical-key fragment; part of the content address, so any change
    /// here invalidates every cached result of that protocol.
    fn key_fragment(&self) -> String {
        match *self {
            ProtocolId::UniformKPartition { k } => format!("ukp:k={k}"),
            ProtocolId::BasicStrategy { k } => format!("basic:k={k}"),
            ProtocolId::OneSidedAbort { k } => format!("oneside:k={k}"),
            ProtocolId::ComposedBipartition { h } => format!("composed:h={h}"),
            ProtocolId::ApproxPartition { k } => format!("approx:k={k}"),
        }
    }

    /// Short human-readable slug for store filenames.
    fn slug(&self) -> String {
        match *self {
            ProtocolId::UniformKPartition { k } => format!("ukp-k{k}"),
            ProtocolId::BasicStrategy { k } => format!("basic-k{k}"),
            ProtocolId::OneSidedAbort { k } => format!("oneside-k{k}"),
            ProtocolId::ComposedBipartition { h } => format!("composed-h{h}"),
            ProtocolId::ApproxPartition { k } => format!("approx-k{k}"),
        }
    }
}

/// When a cell's runs stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CriterionKind {
    /// The protocol's own stability criterion (stable signature for the
    /// k-partition family, hierarchical stability for the baselines).
    Stable,
    /// No enabled transition changes any state (used by the ablation,
    /// whose deadlocks are silent but non-uniform).
    Silent,
}

/// What each trial records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellMode {
    /// Interactions-to-stability only.
    Summary,
    /// Additionally the interaction at each increment of the watched
    /// `g_k` state (Figure 4's instrumentation; k-partition only).
    Watched,
    /// Additionally the final count vector (for imbalance measurements).
    Full,
    /// A single sampled execution: configuration snapshots every
    /// `sample_every` interactions (the trajectory experiment).
    Trajectory {
        /// Sampling period in interactions.
        sample_every: u64,
    },
}

impl CellMode {
    /// The kernel a cell of this mode runs on unless it names one: leap,
    /// except for trajectory cells, which stay on naive. The trajectory
    /// sampler would run on leap just as well, but the kernel is part of
    /// the content address, so the pin keeps cached trajectory cells
    /// addressable.
    pub fn default_kernel(self) -> KernelChoice {
        match self {
            CellMode::Trajectory { .. } => KernelChoice::Naive,
            _ => KernelChoice::Leap,
        }
    }

    fn key_fragment(&self) -> String {
        match *self {
            CellMode::Summary => "summary".into(),
            CellMode::Watched => "watched".into(),
            CellMode::Full => "full".into(),
            CellMode::Trajectory { sample_every } => format!("traj:every={sample_every}"),
        }
    }
}

/// Which simulation kernel a cell's trials run on.
///
/// Recorded in the spec — and hence in the canonical key, under the
/// kernel's [name](pp_engine::Kernel::name) — because the kernels agree
/// in distribution but consume randomness differently: the same cell
/// seed yields different (equally valid) trial records under each, so a
/// cached naive cell must not satisfy a leap request or vice versa.
pub use pp_engine::Kernel as KernelChoice;

/// One cell: a batch of trials at fixed parameters.
///
/// `seed` is the *cell* seed, already derived from the sweep's master
/// seed (the plans use `seeds::derive_labelled(master, k, n)`, matching
/// the legacy binaries); trial `i` then runs with
/// `seeds::derive(seed, i)`. Storing the derived seed makes the spec —
/// and hence the content address — self-contained.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Protocol under test.
    pub protocol: ProtocolId,
    /// Population size.
    pub n: u64,
    /// Number of independent trials.
    pub trials: usize,
    /// Fully-derived cell seed (see type docs).
    pub seed: u64,
    /// Stopping criterion.
    pub criterion: CriterionKind,
    /// Per-trial interaction budget; trials exceeding it are censored.
    pub budget: u64,
    /// What each trial records.
    pub mode: CellMode,
    /// Which simulation kernel runs the trials.
    pub kernel: KernelChoice,
    /// Population dynamics: topology family, edge scheduler, and churn.
    /// [`Dynamics::default_dynamics`] (complete graph, uniform scheduler,
    /// no churn) is the paper's model and keys identically to pre-v4
    /// specs, so the historical store stays warm.
    pub dynamics: Dynamics,
}

/// Format-version prefix of every canonical key. Bump when the journal /
/// store record format or the execution semantics change incompatibly;
/// old cache entries then simply miss (and `pp-sweep gc` collects them).
///
/// v2: the simulation kernel joined the spec (and the key gained a
/// `kernel=` fragment) — leap-kernel trial records are distribution-equal
/// but not bit-equal to naive ones, so they must not alias.
///
/// v3: the tau-leap batch kernel joined the kernel set. Batch trial
/// records are bounded-error (not distribution-identical) relative to
/// leap in the bulk, so the version bump retires every v2 cache entry
/// rather than risking a naive/leap cell answering under semantics that
/// now include a third kernel.
///
/// v4: population dynamics (topology / scheduler / churn) joined the
/// spec. The bump is *loss-free*: default-dynamics cells — the paper's
/// complete-graph model, i.e. every cell that could exist before v4 —
/// keep emitting the exact v3 key (see [`LEGACY_KEY_VERSION`]), so
/// their content hashes are unchanged and the historical store stays
/// warm; only cells with non-default dynamics carry the `v4` prefix and
/// a `dyn=` fragment.
pub const KEY_VERSION: &str = "v4";

/// The key version emitted for default-dynamics cells, preserving their
/// pre-v4 content addresses byte for byte.
pub const LEGACY_KEY_VERSION: &str = "v3";

impl CellSpec {
    /// The canonical key: a stable, human-readable string that pins every
    /// input the cell's output depends on.
    pub fn canonical_key(&self) -> String {
        let crit = match self.criterion {
            CriterionKind::Stable => "stable",
            CriterionKind::Silent => "silent",
        };
        // Default-dynamics cells keep the legacy key byte for byte (no
        // `dyn=` fragment, v3 prefix) so their content addresses — and
        // hence every pre-v4 store entry — survive the version bump.
        let version = if self.dynamics.is_default() {
            LEGACY_KEY_VERSION
        } else {
            KEY_VERSION
        };
        let mut key = format!(
            "{version}|{}|n={}|trials={}|seed={}|crit={crit}|budget={}|mode={}|kernel={}",
            self.protocol.key_fragment(),
            self.n,
            self.trials,
            self.seed,
            self.budget,
            self.mode.key_fragment(),
            self.kernel.name(),
        );
        if !self.dynamics.is_default() {
            key.push_str(&format!("|dyn={}", self.dynamics.key_fragment()));
        }
        key
    }

    /// FNV-1a 64-bit hash of the canonical key — the cell's content
    /// address. Deliberately a from-scratch implementation with fixed
    /// constants (not `DefaultHasher`, whose output may change between
    /// Rust releases): the value is persisted in filenames and must be
    /// stable across processes and toolchains.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.canonical_key().as_bytes())
    }

    /// Store filename stem: human-readable slug plus the full hash, e.g.
    /// `ukp-k4-n96-a1b2c3d4e5f60718`.
    pub fn file_stem(&self) -> String {
        format!(
            "{}-n{}-{:016x}",
            self.protocol.slug(),
            self.n,
            self.content_hash()
        )
    }

    /// The population size the stopping criterion targets: `n` shifted by
    /// the churn plan's net join−leave−crash balance. Equal to `n` for
    /// default dynamics.
    pub fn target_n(&self) -> u64 {
        let net = self.dynamics.churn.net();
        if net >= 0 {
            self.n.saturating_add(net as u64)
        } else {
            self.n.saturating_sub(net.unsigned_abs())
        }
    }

    /// Check the dynamics block is executable: the topology/churn specs
    /// are valid at this `n`, the chosen kernel can run them (the batch
    /// and leap kernels require the paper's default dynamics — the batch
    /// refusal is the typed `BatchRequiresComplete` from `pp_topo`), and
    /// the capture mode is supported under dynamics.
    pub fn validate_dynamics(&self) -> Result<(), String> {
        if self.dynamics.is_default() {
            return Ok(());
        }
        self.dynamics
            .validate(self.n as usize)
            .map_err(|e| e.to_string())?;
        pp_topo::ensure_kernel_compatible(self.kernel, &self.dynamics)
            .map_err(|e| e.to_string())?;
        if !matches!(self.mode, CellMode::Summary | CellMode::Full) {
            return Err("watched/trajectory modes require default dynamics".into());
        }
        Ok(())
    }

    /// Compile the protocol, its stopping criterion and — for the
    /// k-partition family — its convergence-phase map.
    ///
    /// Criteria that depend on the population size (stable signatures)
    /// target [`CellSpec::target_n`] — the post-churn population — so a
    /// churn cell is judged stable against the configuration it can
    /// actually reach.
    pub fn materialize(&self) -> MaterializedCell {
        let sig_n = self.target_n();
        let (proto, stable, phases) = match self.protocol {
            ProtocolId::UniformKPartition { k } => {
                let p = UniformKPartition::new(k);
                let c = AnyCriterion::Signature(p.stable_signature(sig_n));
                (p.compile(), c, Some(p.phase_map()))
            }
            ProtocolId::BasicStrategy { k } => {
                let p = BasicStrategyKPartition::new(k);
                // The basic strategy has no stable signature (it can
                // deadlock anywhere); its natural stopping point is
                // silence, so Stable degrades to Silent.
                let c = AnyCriterion::Silent(Silent);
                (p.compile(), c, Some(p.phase_map()))
            }
            ProtocolId::OneSidedAbort { k } => {
                let p = OneSidedAbortKPartition::new(k);
                let c = AnyCriterion::Signature(p.stable_signature(sig_n));
                (p.compile(), c, Some(p.base().phase_map()))
            }
            ProtocolId::ComposedBipartition { h } => {
                let p = HierarchicalPartition::composed(h);
                let c = AnyCriterion::Hierarchical(p.stability());
                (p.compile(), c, None)
            }
            ProtocolId::ApproxPartition { k } => {
                let p = HierarchicalPartition::approx(k);
                let c = AnyCriterion::Hierarchical(p.stability());
                (p.compile(), c, None)
            }
        };
        let criterion = match self.criterion {
            CriterionKind::Stable => stable,
            CriterionKind::Silent => AnyCriterion::Silent(Silent),
        };
        MaterializedCell {
            proto,
            criterion,
            phases,
        }
    }

    /// Encode as the `pp-serve` wire object, e.g.
    /// `{"protocol":"ukp","k":4,"n":96,"trials":100,"seed":12345,
    /// "criterion":"stable","budget":1000000,"mode":"summary",
    /// "kernel":"leap"}`.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&'static str, Value)> = Vec::new();
        match self.protocol {
            ProtocolId::UniformKPartition { k } => {
                pairs.push(("protocol", Value::Str("ukp".into())));
                pairs.push(("k", Value::U64(k as u64)));
            }
            ProtocolId::BasicStrategy { k } => {
                pairs.push(("protocol", Value::Str("basic".into())));
                pairs.push(("k", Value::U64(k as u64)));
            }
            ProtocolId::OneSidedAbort { k } => {
                pairs.push(("protocol", Value::Str("oneside".into())));
                pairs.push(("k", Value::U64(k as u64)));
            }
            ProtocolId::ComposedBipartition { h } => {
                pairs.push(("protocol", Value::Str("composed".into())));
                pairs.push(("h", Value::U64(u64::from(h))));
            }
            ProtocolId::ApproxPartition { k } => {
                pairs.push(("protocol", Value::Str("approx".into())));
                pairs.push(("k", Value::U64(k as u64)));
            }
        }
        pairs.push(("n", Value::U64(self.n)));
        pairs.push(("trials", Value::U64(self.trials as u64)));
        pairs.push(("seed", Value::U64(self.seed)));
        pairs.push((
            "criterion",
            Value::Str(
                match self.criterion {
                    CriterionKind::Stable => "stable",
                    CriterionKind::Silent => "silent",
                }
                .into(),
            ),
        ));
        pairs.push(("budget", Value::U64(self.budget)));
        match self.mode {
            CellMode::Summary => pairs.push(("mode", Value::Str("summary".into()))),
            CellMode::Watched => pairs.push(("mode", Value::Str("watched".into()))),
            CellMode::Full => pairs.push(("mode", Value::Str("full".into()))),
            CellMode::Trajectory { sample_every } => {
                pairs.push(("mode", Value::Str("trajectory".into())));
                pairs.push(("sample_every", Value::U64(sample_every)));
            }
        }
        pairs.push(("kernel", Value::Str(self.kernel.name().to_string())));
        if !self.dynamics.is_default() {
            pairs.push(("dynamics", Value::Str(self.dynamics.key_fragment())));
        }
        Value::obj(pairs)
    }

    /// Decode the `pp-serve` wire object. `protocol`, `n`, `trials`,
    /// `seed`, and `budget` are required (they all enter the content
    /// address, so there are no silent defaults for them); `criterion`
    /// defaults to `stable`, `mode` to `summary`, and `kernel` to the
    /// mode's [default kernel](CellMode::default_kernel). The family
    /// parameter (`k` or `h`) must lie in the range the family's
    /// constructor states, so a decoded spec always materializes.
    pub fn from_json(v: &Value) -> Result<CellSpec, String> {
        let req_u64 = |field: &str| -> Result<u64, String> {
            v.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{field}'"))
        };
        let k = || -> Result<usize, String> { Ok(req_u64("k")? as usize) };
        let protocol = match v
            .get("protocol")
            .and_then(Value::as_str)
            .ok_or("missing field 'protocol'")?
        {
            "ukp" => {
                UniformKPartition::try_new(k()?).map(|p| ProtocolId::UniformKPartition { k: p.k() })
            }
            "basic" => BasicStrategyKPartition::try_new(k()?)
                .map(|p| ProtocolId::BasicStrategy { k: p.k() }),
            "oneside" => OneSidedAbortKPartition::try_new(k()?)
                .map(|p| ProtocolId::OneSidedAbort { k: p.k() }),
            "composed" => {
                let h = u32::try_from(req_u64("h")?).unwrap_or(u32::MAX);
                HierarchicalPartition::try_composed(h)
                    .map(|p| ProtocolId::ComposedBipartition { h: p.levels() })
            }
            "approx" => {
                let k = k()?;
                HierarchicalPartition::try_approx(k).map(|_| ProtocolId::ApproxPartition { k })
            }
            other => return Err(format!("unknown protocol '{other}'")),
        }
        .map_err(|e| e.to_string())?;
        let criterion = match v.get("criterion").and_then(Value::as_str) {
            None | Some("stable") => CriterionKind::Stable,
            Some("silent") => CriterionKind::Silent,
            Some(other) => return Err(format!("unknown criterion '{other}'")),
        };
        let mode = match v.get("mode").and_then(Value::as_str) {
            None | Some("summary") => CellMode::Summary,
            Some("watched") => CellMode::Watched,
            Some("full") => CellMode::Full,
            Some("trajectory") => match req_u64("sample_every")? {
                0 => return Err("sample_every must be at least 1".into()),
                sample_every => CellMode::Trajectory { sample_every },
            },
            Some(other) => return Err(format!("unknown mode '{other}'")),
        };
        let kernel = match v.get("kernel").and_then(Value::as_str) {
            None => mode.default_kernel(),
            Some(name) => {
                KernelChoice::parse(name).ok_or_else(|| format!("unknown kernel '{name}'"))?
            }
        };
        let dynamics = match v.get("dynamics").and_then(Value::as_str) {
            None => Dynamics::default_dynamics(),
            Some(frag) => Dynamics::parse(frag).map_err(|e| e.to_string())?,
        };
        let spec = CellSpec {
            protocol,
            n: req_u64("n")?,
            trials: req_u64("trials")? as usize,
            seed: req_u64("seed")?,
            criterion,
            budget: req_u64("budget")?,
            mode,
            kernel,
            dynamics,
        };
        if spec.trials == 0 {
            return Err("trials must be positive".into());
        }
        if spec.n == 0 {
            return Err("n must be positive".into());
        }
        if matches!(spec.mode, CellMode::Watched)
            && !matches!(spec.protocol, ProtocolId::UniformKPartition { .. })
        {
            return Err("watched mode is only defined for protocol 'ukp'".into());
        }
        spec.validate_dynamics()?;
        Ok(spec)
    }

    /// The watched state for [`CellMode::Watched`] cells: `g_k`.
    ///
    /// # Panics
    /// If the protocol is not the uniform k-partition (the only protocol
    /// the watched instrumentation is defined for).
    pub fn watched_state(&self) -> StateId {
        match self.protocol {
            ProtocolId::UniformKPartition { k } => UniformKPartition::new(k).g(k),
            other => panic!("watched mode is only defined for the paper's protocol, got {other:?}"),
        }
    }
}

/// A compiled protocol plus its stopping criterion.
pub struct MaterializedCell {
    /// The compiled protocol.
    pub proto: CompiledProtocol,
    /// The stopping criterion.
    pub criterion: AnyCriterion,
    /// Convergence-phase roles, for the k-partition family (the paper's
    /// protocol, the basic strategy and the one-sided variant); `None`
    /// for the hierarchical baselines, whose cells get no timeline.
    pub phases: Option<PhaseMap>,
}

/// Runtime-dispatched stability criterion, so heterogeneous cells fit in
/// one queue.
pub enum AnyCriterion {
    /// A count signature (the k-partition family's Lemma 4–6 criterion).
    Signature(Signature),
    /// Hierarchical (baseline protocols).
    Hierarchical(HierarchicalStable),
    /// Silence.
    Silent(Silent),
}

impl StabilityCriterion for AnyCriterion {
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        match self {
            AnyCriterion::Signature(c) => c.is_stable(proto, counts),
            AnyCriterion::Hierarchical(c) => c.is_stable(proto, counts),
            AnyCriterion::Silent(c) => c.is_stable(proto, counts),
        }
    }

    // Forward to each variant's tracker so the leap kernel gets the
    // Signature criterion's O(1) incremental checker instead of the
    // default rescan wrapper around the enum.
    fn tracker<'a>(
        &'a self,
        proto: &CompiledProtocol,
        counts: &[u64],
    ) -> Box<dyn pp_engine::stability::StabilityTracker + 'a> {
        match self {
            AnyCriterion::Signature(c) => c.tracker(proto, counts),
            AnyCriterion::Hierarchical(c) => c.tracker(proto, counts),
            AnyCriterion::Silent(c) => c.tracker(proto, counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ukp_cell() -> CellSpec {
        CellSpec {
            protocol: ProtocolId::UniformKPartition { k: 4 },
            n: 96,
            trials: 100,
            seed: 12345,
            criterion: CriterionKind::Stable,
            budget: 1_000_000,
            mode: CellMode::Summary,
            kernel: KernelChoice::Leap,
            dynamics: Dynamics::default_dynamics(),
        }
    }

    fn ring_dynamics() -> Dynamics {
        Dynamics::parse("ring;uniform;j0.l0.c0.p0").unwrap()
    }

    #[test]
    fn canonical_key_pins_every_field() {
        let base = ukp_cell();
        let key = base.canonical_key();
        assert_eq!(
            key,
            "v3|ukp:k=4|n=96|trials=100|seed=12345|crit=stable|budget=1000000|mode=summary|kernel=leap"
        );
        let variants = [
            CellSpec {
                n: 97,
                ..base.clone()
            },
            CellSpec {
                trials: 99,
                ..base.clone()
            },
            CellSpec {
                seed: 12346,
                ..base.clone()
            },
            CellSpec {
                criterion: CriterionKind::Silent,
                ..base.clone()
            },
            CellSpec {
                budget: 2,
                ..base.clone()
            },
            CellSpec {
                mode: CellMode::Full,
                ..base.clone()
            },
            CellSpec {
                protocol: ProtocolId::OneSidedAbort { k: 4 },
                ..base.clone()
            },
            CellSpec {
                kernel: KernelChoice::Naive,
                ..base.clone()
            },
            CellSpec {
                dynamics: ring_dynamics(),
                kernel: KernelChoice::Naive,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.canonical_key(), key);
            assert_ne!(v.content_hash(), base.content_hash());
        }
    }

    #[test]
    fn key_version_bump_is_loss_free() {
        // Default-dynamics cells — everything that existed before v4 —
        // must keep their exact v3 canonical key, and hence their content
        // address: a spec stored under v3 is a cache hit under v4.
        let legacy = ukp_cell();
        assert!(legacy.dynamics.is_default());
        let key = legacy.canonical_key();
        assert!(key.starts_with("v3|"), "legacy key drifted: {key}");
        assert!(!key.contains("dyn="), "legacy key gained a fragment: {key}");
        // The pinned pre-v4 hash (computed before the dynamics field
        // existed). If this changes, the historical store goes cold.
        assert_eq!(
            key,
            "v3|ukp:k=4|n=96|trials=100|seed=12345|crit=stable|budget=1000000|mode=summary|kernel=leap"
        );

        // Non-default dynamics key under v4 with an explicit fragment.
        let topo = CellSpec {
            dynamics: ring_dynamics(),
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        };
        let key = topo.canonical_key();
        assert!(key.starts_with("v4|"), "dynamics key not v4: {key}");
        assert!(
            key.ends_with("|dyn=ring;uniform;j0.l0.c0.p0"),
            "missing dyn fragment: {key}"
        );
    }

    #[test]
    fn dynamics_validation_gates_kernels_and_modes() {
        // Batch on a ring: the typed refusal from pp_topo surfaces.
        let bad = CellSpec {
            dynamics: ring_dynamics(),
            kernel: KernelChoice::Batch,
            ..ukp_cell()
        };
        let err = bad.validate_dynamics().unwrap_err();
        assert!(err.contains("batch"), "untyped refusal: {err}");
        assert!(err.contains("ring"), "refusal names no family: {err}");
        // Leap on a ring: requires default dynamics.
        let bad = CellSpec {
            dynamics: ring_dynamics(),
            kernel: KernelChoice::Leap,
            ..ukp_cell()
        };
        assert!(bad.validate_dynamics().is_err());
        // Naive on a ring is fine; watched mode under dynamics is not.
        let ok = CellSpec {
            dynamics: ring_dynamics(),
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        };
        assert!(ok.validate_dynamics().is_ok());
        let bad = CellSpec {
            mode: CellMode::Watched,
            ..ok
        };
        assert!(bad.validate_dynamics().is_err());
    }

    #[test]
    fn target_n_follows_net_churn() {
        assert_eq!(ukp_cell().target_n(), 96);
        let churned = CellSpec {
            dynamics: Dynamics::parse("complete;uniform;j3.l1.c1.p100").unwrap(),
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        };
        assert_eq!(churned.target_n(), 97);
        let shrinking = CellSpec {
            dynamics: Dynamics::parse("complete;uniform;j0.l2.c1.p100").unwrap(),
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        };
        assert_eq!(shrinking.target_n(), 93);
    }

    #[test]
    fn content_hash_is_process_independent() {
        // Hardcoded expectation: this hash is persisted in store
        // filenames, so it must never drift across runs, processes, or
        // toolchain updates. If this test fails, the key format changed —
        // bump KEY_VERSION and regenerate stores rather than silently
        // aliasing old entries.
        let h = ukp_cell().content_hash();
        assert_eq!(h, fnv1a64(ukp_cell().canonical_key().as_bytes()));
        let expected = fnv1a64(
            b"v3|ukp:k=4|n=96|trials=100|seed=12345|crit=stable|budget=1000000|mode=summary|kernel=leap",
        );
        assert_eq!(h, expected);
    }

    #[test]
    fn every_kernel_keys_and_encodes_under_its_persisted_name() {
        // The names are persisted in store keys and wire JSON: a renamed
        // kernel would orphan every cached cell that ran on it.
        for (kernel, name) in [
            (KernelChoice::Naive, "naive"),
            (KernelChoice::Leap, "leap"),
            (KernelChoice::Batch, "batch"),
        ] {
            let spec = CellSpec {
                kernel,
                ..ukp_cell()
            };
            assert_eq!(
                spec.canonical_key(),
                format!(
                    "v3|ukp:k=4|n=96|trials=100|seed=12345|crit=stable|budget=1000000|mode=summary|kernel={name}"
                )
            );
            let wire = spec.to_json();
            assert_eq!(wire.get("kernel").and_then(Value::as_str), Some(name));
        }
    }

    #[test]
    fn trajectory_mode_pins_naive_kernel() {
        let traj = CellMode::Trajectory { sample_every: 10 };
        assert_eq!(traj.default_kernel(), KernelChoice::Naive);
        for mode in [CellMode::Summary, CellMode::Watched, CellMode::Full] {
            assert_eq!(mode.default_kernel(), KernelChoice::Leap);
        }
        // A spec that names no kernel gets its mode's default.
        let line = |mode: &str| {
            let text = format!(
                "{{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10,\"mode\":\"{mode}\",\"sample_every\":8}}"
            );
            CellSpec::from_json(&Value::parse(&text).unwrap()).unwrap()
        };
        assert_eq!(line("trajectory").kernel, KernelChoice::Naive);
        assert_eq!(line("summary").kernel, KernelChoice::Leap);
    }

    #[test]
    fn file_stem_embeds_slug_and_hash() {
        let c = ukp_cell();
        let stem = c.file_stem();
        assert!(stem.starts_with("ukp-k4-n96-"));
        assert!(stem.ends_with(&format!("{:016x}", c.content_hash())));
    }

    #[test]
    fn materialize_all_protocols() {
        use pp_engine::stability::StabilityCriterion as _;
        for proto in [
            ProtocolId::UniformKPartition { k: 3 },
            ProtocolId::BasicStrategy { k: 3 },
            ProtocolId::OneSidedAbort { k: 3 },
            ProtocolId::ComposedBipartition { h: 2 },
            ProtocolId::ApproxPartition { k: 3 },
        ] {
            let spec = CellSpec {
                protocol: proto,
                n: 12,
                trials: 1,
                seed: 1,
                criterion: CriterionKind::Stable,
                budget: 1000,
                mode: CellMode::Summary,
                kernel: KernelChoice::Leap,
                dynamics: Dynamics::default_dynamics(),
            };
            let m = spec.materialize();
            // The initial configuration is never already stable.
            let mut counts = vec![0u64; m.proto.num_states()];
            counts[m.proto.initial_state().index()] = 12;
            assert!(!m.criterion.is_stable(&m.proto, &counts));
            // Only the k-partition family has convergence phases.
            let k_partition = !matches!(
                proto,
                ProtocolId::ComposedBipartition { .. } | ProtocolId::ApproxPartition { .. }
            );
            assert_eq!(m.phases.is_some(), k_partition, "{proto:?}");
        }
    }

    /// A family parameter outside the family's range is a rejected
    /// request, never a panic in `from_json` or `materialize`.
    #[test]
    fn wire_json_rejects_out_of_range_family_parameters() {
        for params in [
            "\"protocol\":\"basic\",\"k\":2",
            "\"protocol\":\"oneside\",\"k\":2",
            "\"protocol\":\"ukp\",\"k\":20000",
            "\"protocol\":\"approx\",\"k\":20000",
            "\"protocol\":\"composed\",\"h\":9",
            "\"protocol\":\"composed\",\"h\":64",
            "\"protocol\":\"composed\",\"h\":4294967297",
        ] {
            let text = format!("{{{params},\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10}}");
            let v = Value::parse(&text).unwrap();
            let err = CellSpec::from_json(&v).unwrap_err();
            assert!(err.contains("requires"), "{params}: {err}");
        }
    }

    #[test]
    fn wire_json_roundtrips_every_protocol_and_mode() {
        let mut specs = vec![ukp_cell()];
        for proto in [
            ProtocolId::BasicStrategy { k: 3 },
            ProtocolId::OneSidedAbort { k: 5 },
            ProtocolId::ComposedBipartition { h: 2 },
            ProtocolId::ApproxPartition { k: 3 },
        ] {
            specs.push(CellSpec {
                protocol: proto,
                criterion: CriterionKind::Silent,
                kernel: KernelChoice::Naive,
                ..ukp_cell()
            });
        }
        specs.push(CellSpec {
            mode: CellMode::Trajectory { sample_every: 64 },
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        });
        specs.push(CellSpec {
            mode: CellMode::Watched,
            ..ukp_cell()
        });
        specs.push(CellSpec {
            dynamics: Dynamics::parse("rr:d=4;zipf:s=12;j1.l1.c0.p500").unwrap(),
            kernel: KernelChoice::Naive,
            ..ukp_cell()
        });
        for s in &specs {
            let v = s.to_json();
            let back = CellSpec::from_json(&v).unwrap();
            assert_eq!(&back, s, "roundtrip of {}", s.canonical_key());
            // And the wire text itself parses back identically.
            let reparsed = crate::json::Value::parse(&v.encode()).unwrap();
            assert_eq!(CellSpec::from_json(&reparsed).unwrap(), *s);
        }
    }

    #[test]
    fn wire_json_rejects_bad_specs() {
        let bad = [
            "{}",
            "{\"protocol\":\"nope\",\"n\":1}",
            "{\"protocol\":\"ukp\",\"k\":4}",
            "{\"protocol\":\"ukp\",\"k\":1,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10}",
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":0,\"trials\":1,\"seed\":1,\"budget\":10}",
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":0,\"seed\":1,\"budget\":10}",
            "{\"protocol\":\"basic\",\"k\":4,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10,\"mode\":\"watched\"}",
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10,\"mode\":\"trajectory\"}",
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10,\"mode\":\"trajectory\",\"sample_every\":0}",
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":1,\"seed\":1,\"budget\":10,\"kernel\":\"auto\"}",
        ];
        for text in bad {
            let v = crate::json::Value::parse(text).unwrap();
            assert!(CellSpec::from_json(&v).is_err(), "accepted {text}");
        }
        // Defaults: criterion/mode/kernel may be omitted.
        let v = crate::json::Value::parse(
            "{\"protocol\":\"ukp\",\"k\":4,\"n\":12,\"trials\":2,\"seed\":9,\"budget\":1000}",
        )
        .unwrap();
        let s = CellSpec::from_json(&v).unwrap();
        assert_eq!(s.criterion, CriterionKind::Stable);
        assert_eq!(s.mode, CellMode::Summary);
        assert_eq!(s.kernel, KernelChoice::Leap);
    }

    #[test]
    fn k_accessor_matches_composition() {
        assert_eq!(ProtocolId::ComposedBipartition { h: 3 }.k(), 8);
        assert_eq!(ProtocolId::ApproxPartition { k: 5 }.k(), 5);
    }
}
