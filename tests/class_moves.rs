//! Every tracker's answer to `ignores_moves_within`, checked exhaustively.
//!
//! The leap step skips the stability query after a free-agent flip, and
//! the batch kernel lumps whole stretches of flips, exactly when the
//! criterion's tracker says that moving agents between the states of
//! the protocol's flip class can never change its verdict. So for every
//! pp-lint registry protocol, under the criterion a sweep gives it (the
//! classics and the families no sweep runs: their own stable signature,
//! or `Silent`), this test explores pp-verify's reachable configuration
//! graph at small n and checks, wherever the tracker at a configuration
//! `c` answers yes, that every split of `c`'s class total over the
//! class gets the same `is_stable` verdict as `c`.
//!
//! The k-partition signature is checked at both of its shapes (a pooled
//! lone free agent when n ≡ 1 mod k, the class fixed at 0 otherwise),
//! the basic strategy under `Silent`, and the hierarchical baselines,
//! whose criterion depends on how the unsettled agents spread over
//! their cohorts, must answer no. A tracker that lies about a signature
//! fixing `initial` = 1 and `initial'` = 0 is caught.

use pp_lint::registry;
use pp_sweep::plan::{baseline_cell, PlanConfig};
use pp_sweep::spec::ProtocolId;
use uniform_k_partition::engine::stability::{SignatureTracker, StabilityTracker};
use uniform_k_partition::prelude::*;
use uniform_k_partition::protocols::bipartition::UniformBipartition;
use uniform_k_partition::protocols::ratio::RatioPartition;
use uniform_k_partition::verify::ConfigGraph;

/// Exploration cap per (protocol, n).
const MAX_CONFIGS: usize = 200_000;

/// Every split of `total` agents over `parts` states.
fn splits(total: u64, parts: usize) -> Vec<Vec<u64>> {
    if parts == 0 {
        return if total == 0 {
            vec![Vec::new()]
        } else {
            Vec::new()
        };
    }
    let mut out = Vec::new();
    for first in 0..=total {
        for mut rest in splits(total - first, parts - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

/// The verdict of `criterion`'s tracker, built at `counts`.
fn verdict<C: StabilityCriterion>(proto: &CompiledProtocol, criterion: &C, counts: &[u64]) -> bool {
    criterion.tracker(proto, counts).is_stable(proto, counts)
}

/// What one (protocol, criterion, n) cell showed.
#[derive(Default)]
struct Tally {
    /// Configurations whose tracker answered yes.
    yes: usize,
    /// Configurations whose tracker answered no.
    no: usize,
    /// A configuration where two splits of the class disagree, if any.
    split_matters: Option<Vec<u64>>,
}

/// Explore `proto` at `n` and check `criterion`'s answers; an `Err`
/// names a configuration whose tracker answered yes although a split of
/// its class total changes the verdict.
fn check<C: StabilityCriterion>(
    proto: &CompiledProtocol,
    criterion: &C,
    n: u64,
) -> Result<Tally, String> {
    let graph = ConfigGraph::explore(proto, n, MAX_CONFIGS).map_err(|e| e.to_string())?;
    let class = proto.flip_class();
    let mut tally = Tally::default();
    for id in 0..graph.num_configs() as u32 {
        let c: Vec<u64> = graph.config(id).iter().map(|&x| u64::from(x)).collect();
        let yes = criterion.tracker(proto, &c).ignores_moves_within(class);
        if yes {
            tally.yes += 1;
        } else {
            tally.no += 1;
        }
        let total = class.iter().map(|s| c[s.index()]).sum();
        // Behind a no, one disagreement shows the no is needed; two
        // agents in the class suffice to find one.
        if !yes && (tally.split_matters.is_some() || total > 2) {
            continue;
        }
        let at_c = verdict(proto, criterion, &c);
        for split in splits(total, class.len()) {
            let mut moved = c.clone();
            for (s, &x) in class.iter().zip(&split) {
                moved[s.index()] = x;
            }
            if verdict(proto, criterion, &moved) == at_c {
                continue;
            }
            if yes {
                return Err(format!(
                    "{} n={n}: the tracker at {c:?} ignores moves within {class:?}, \
                     but {moved:?} is judged {}",
                    proto.name(),
                    if at_c { "unstable" } else { "stable" }
                ));
            }
            tally.split_matters = Some(c.clone());
            break;
        }
    }
    Ok(tally)
}

/// The sweep's protocol for a registry slug, if a sweep runs it.
fn sweep_protocol(slug: &str) -> Option<ProtocolId> {
    let (family, size) = slug.rsplit_once('-')?;
    let number = |prefix: char| size.strip_prefix(prefix)?.parse::<usize>().ok();
    match family {
        "ukp" => Some(ProtocolId::UniformKPartition { k: number('k')? }),
        "basic" => Some(ProtocolId::BasicStrategy { k: number('k')? }),
        "oneside" => Some(ProtocolId::OneSidedAbort { k: number('k')? }),
        "composed" => Some(ProtocolId::ComposedBipartition {
            h: number('h')? as u32,
        }),
        "approx" => Some(ProtocolId::ApproxPartition { k: number('k')? }),
        _ => None,
    }
}

/// The population sizes explored for a protocol with `k` groups: up to
/// 12 agents at k ≤ 4, up to k + 4 above, so that n ≡ 1 (mod k) and
/// another remainder both occur.
fn sizes(k: usize) -> std::ops::RangeInclusive<u64> {
    2..=(if k <= 4 { 12 } else { k as u64 + 4 })
}

/// Check one registry protocol at every size; returns the yes and no
/// counts and whether some split changed a verdict.
fn check_entry<C: StabilityCriterion>(
    slug: &str,
    proto: &CompiledProtocol,
    criterion_at: impl Fn(u64) -> C,
) -> Tally {
    let mut all = Tally::default();
    for n in sizes(proto.num_groups()) {
        let tally = check(proto, &criterion_at(n), n).unwrap_or_else(|e| panic!("{slug}: {e}"));
        all.yes += tally.yes;
        all.no += tally.no;
        all.split_matters = all.split_matters.or(tally.split_matters);
    }
    all
}

#[test]
fn trackers_ignore_class_moves_only_where_the_verdict_allows() {
    let cfg = PlanConfig {
        trials: 1,
        master_seed: 0,
    };
    for entry in registry::all() {
        let slug = entry.slug.as_str();
        let hierarchical = matches!(
            sweep_protocol(slug),
            Some(ProtocolId::ComposedBipartition { .. } | ProtocolId::ApproxPartition { .. })
        );
        let tally = if let Some(protocol) = sweep_protocol(slug) {
            let cell = |n| baseline_cell(protocol, n, cfg).materialize();
            let proto = cell(2).proto;
            assert_eq!(proto.num_states(), entry.proto.num_states(), "{slug}");
            check_entry(slug, &proto, |n| cell(n).criterion)
        } else if slug == "bipartition" {
            let bp = UniformBipartition::new();
            check_entry(slug, &entry.proto, |n| bp.stable_signature(n))
        } else if let Some(ratios) = slug.strip_prefix("ratio-") {
            let rp = RatioPartition::new(ratios.split('-').map(|r| r.parse().unwrap()).collect());
            check_entry(slug, &entry.proto, |n| rp.stable_signature(n))
        } else {
            check_entry(slug, &entry.proto, |_| Silent)
        };
        if hierarchical {
            // The hierarchical criterion counts the unsettled agents per
            // cohort, so moving them between cohorts can change it. With
            // one cohort (h = 1) the no is only conservative.
            assert_eq!(
                tally.yes, 0,
                "{slug}: the hierarchical tracker must answer no"
            );
            assert!(
                slug == "composed-h1" || tally.split_matters.is_some(),
                "{slug}: no configuration shows why the answer must be no"
            );
        } else {
            assert_eq!(tally.no, 0, "{slug}: expected a yes everywhere");
        }
        println!("{slug}: {} yes, {} no", tally.yes, tally.no);
    }
}

/// A criterion whose tracker claims to ignore moves within every class.
struct Lying(Signature);

/// [`Lying`]'s tracker: the signature's, with the false claim.
struct LyingTracker(SignatureTracker);

impl StabilityCriterion for Lying {
    fn is_stable(&self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        self.0.is_stable(proto, counts)
    }

    fn tracker<'a>(
        &'a self,
        _proto: &CompiledProtocol,
        counts: &[u64],
    ) -> Box<dyn StabilityTracker + 'a> {
        Box::new(LyingTracker(SignatureTracker::new(&self.0, counts)))
    }
}

impl StabilityTracker for LyingTracker {
    fn apply_delta(&mut self, s: StateId, delta: i64) {
        self.0.apply_delta(s, delta);
    }

    fn is_stable(&mut self, proto: &CompiledProtocol, counts: &[u64]) -> bool {
        self.0.is_stable(proto, counts)
    }

    fn ignores_moves_within(&self, _class: &[StateId]) -> bool {
        true
    }
}

/// The check fails on a planted lie: a signature fixing `initial` = 1
/// and `initial'` = 0 (a stable k = 3, n = 7 configuration, exactly),
/// whose tracker nevertheless claims to ignore moves within the class.
#[test]
fn a_lying_tracker_is_caught() {
    let (k, n) = (3usize, 7u64);
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let initial = proto.initial_state().index();
    let graph = ConfigGraph::explore(&proto, n, MAX_CONFIGS).unwrap();
    let sig = kp.stable_signature(n);
    let stable: Vec<u64> = (0..graph.num_configs() as u32)
        .map(|id| {
            graph
                .config(id)
                .iter()
                .map(|&x| u64::from(x))
                .collect::<Vec<u64>>()
        })
        .find(|c| sig.matches(c) && c[initial] == 1)
        .expect("a stable configuration with the free agent in initial");
    let lie = Lying(Signature::exact(stable));
    let err = match check(&proto, &lie, n) {
        Ok(_) => panic!("the lie went unnoticed"),
        Err(e) => e,
    };
    assert!(err.contains("ignores moves within"), "{err}");
    println!("{err}");
}
