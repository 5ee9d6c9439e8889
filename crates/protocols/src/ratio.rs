//! R-generalized (ratio) partition — the extension of Umino, Kitamura,
//! and Izumi (BDA 2018) that the paper's related-work section mentions:
//! divide the population into `k` groups whose sizes follow a given ratio
//! `R = (r₁, …, r_k)`.
//!
//! ## Construction
//!
//! Run the paper's uniform `s`-partition protocol with `s = Σ rᵢ` *slots*
//! and re-label the output map: slot `j` belongs to group `i` where `i` is
//! the cumulative-ratio bucket containing `j` (slots `1..=r₁` → group 1,
//! the next `r₂` slots → group 2, …). Because the slot partition is
//! uniform (each slot gets `⌊n/s⌋` or `⌈n/s⌉` agents), group `i` receives
//! between `rᵢ·⌊n/s⌋` and `rᵢ·⌈n/s⌉` agents — sizes proportional to `R`
//! with per-group deviation at most `rᵢ`. State count is `3s − 2 =
//! 3·Σrᵢ − 2`.
//!
//! The chain/unwind dynamics, stable signature, and Lemma 1 invariant are
//! all inherited unchanged from [`UniformKPartition`]; only the `f` map
//! differs.

use crate::kpartition::UniformKPartition;
use pp_engine::protocol::{CompiledProtocol, GroupId};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Signature;

/// Ratio-partition protocol for a ratio vector `R`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatioPartition {
    ratios: Vec<u32>,
    /// The underlying uniform Σr-partition.
    slots: UniformKPartition,
    /// `slot_group[j]` = 1-based group of slot `j + 1`.
    slot_group: Vec<u16>,
}

impl RatioPartition {
    /// Protocol dividing the population in ratio `ratios` (all entries
    /// ≥ 1, at least two entries, `Σ ratios ≥ 2`).
    pub fn new(ratios: Vec<u32>) -> Self {
        assert!(ratios.len() >= 2, "a ratio partition needs >= 2 groups");
        assert!(ratios.iter().all(|&r| r >= 1), "ratio entries must be >= 1");
        let s: u32 = ratios.iter().sum();
        assert!(s >= 2, "total ratio weight must be >= 2");
        let mut slot_group = Vec::with_capacity(s as usize);
        for (gi, &r) in ratios.iter().enumerate() {
            for _ in 0..r {
                slot_group.push((gi + 1) as u16);
            }
        }
        RatioPartition {
            slots: UniformKPartition::new(s as usize),
            ratios,
            slot_group,
        }
    }

    /// The ratio vector `R`.
    pub fn ratios(&self) -> &[u32] {
        &self.ratios
    }

    /// Number of groups `k = |R|`.
    pub fn num_groups(&self) -> usize {
        self.ratios.len()
    }

    /// Total slot count `s = Σ rᵢ`.
    pub fn num_slots(&self) -> usize {
        self.slots.k()
    }

    /// The underlying uniform slot-partition handle (state accessors,
    /// Lemma 1, etc. operate at slot granularity).
    pub fn slots(&self) -> &UniformKPartition {
        &self.slots
    }

    /// Group of slot `j` (1-based slot and group).
    pub fn group_of_slot(&self, j: usize) -> GroupId {
        GroupId(self.slot_group[j - 1])
    }

    /// Build and compile the protocol: the uniform `s`-partition table
    /// with every state's slot mapped through the fold (`initial` and
    /// the `d_i` sit in slot 1, which is always group 1).
    pub fn compile(&self) -> CompiledProtocol {
        let slot_proto = self.slots.compile();
        let mut spec = ProtocolSpec::new(format!("ratio-partition-{:?}", self.ratios));
        for s in slot_proto.states() {
            let slot = slot_proto.group_of(s).number();
            spec.add_state(slot_proto.state_name(s), self.slot_group[slot - 1]);
        }
        spec.set_initial(slot_proto.initial_state());
        for (p, q, p2, q2) in slot_proto.non_identity_rules() {
            spec.add_rule(p, q, p2, q2);
        }
        spec.compile()
            .expect("ratio partition spec is internally consistent")
    }

    /// Stable signature — identical to the slot-level protocol's.
    pub fn stable_signature(&self, n: u64) -> Signature {
        self.slots.stable_signature(n)
    }

    /// Expected group sizes at stability: fold the slot-level sizes.
    pub fn expected_group_sizes(&self, n: u64) -> Vec<u64> {
        let slot_sizes = self.slots.expected_group_sizes(n);
        let mut out = vec![0u64; self.num_groups()];
        for (j, &sz) in slot_sizes.iter().enumerate() {
            out[(self.slot_group[j] - 1) as usize] += sz;
        }
        out
    }

    /// Per-group deviation bound: group `i` differs from the ideal
    /// `n·rᵢ/s` by less than `rᵢ`.
    pub fn deviation_bound(&self, i: usize) -> u64 {
        u64::from(self.ratios[i - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;

    #[test]
    fn slot_folding_layout() {
        let rp = RatioPartition::new(vec![1, 2, 3]);
        assert_eq!(rp.num_slots(), 6);
        assert_eq!(rp.num_groups(), 3);
        assert_eq!(rp.group_of_slot(1).number(), 1);
        assert_eq!(rp.group_of_slot(2).number(), 2);
        assert_eq!(rp.group_of_slot(3).number(), 2);
        assert_eq!(rp.group_of_slot(4).number(), 3);
        assert_eq!(rp.group_of_slot(6).number(), 3);
    }

    #[test]
    fn compiled_ratio_protocol_is_symmetric_with_3s_minus_2_states() {
        let rp = RatioPartition::new(vec![2, 1]);
        let p = rp.compile();
        assert!(p.is_symmetric());
        assert_eq!(p.num_states(), 3 * 3 - 2);
        assert_eq!(p.num_groups(), 2);
    }

    #[test]
    fn stabilises_to_ratio() {
        // Ratio 1:2 over n = 18: expect sizes {6, 12}.
        let rp = RatioPartition::new(vec![1, 2]);
        let p = rp.compile();
        let mut pop = CountPopulation::new(&p, 18);
        let mut sched = UniformRandomScheduler::from_seed(21);
        let sig = rp.stable_signature(18);
        Simulator::new(&p)
            .run(
                &mut pop,
                &mut sched,
                &sig,
                rp.slots().interaction_budget(18),
            )
            .unwrap();
        assert_eq!(pop.group_sizes(&p), vec![6, 12]);
        assert_eq!(rp.expected_group_sizes(18), vec![6, 12]);
    }

    #[test]
    fn non_divisible_population_respects_deviation_bound() {
        let rp = RatioPartition::new(vec![2, 3]);
        let p = rp.compile();
        let n = 23u64; // 23 = 4·5 + 3 slots of remainder
        let mut pop = CountPopulation::new(&p, n);
        let mut sched = UniformRandomScheduler::from_seed(8);
        let sig = rp.stable_signature(n);
        Simulator::new(&p)
            .run(&mut pop, &mut sched, &sig, rp.slots().interaction_budget(n))
            .unwrap();
        let sizes = pop.group_sizes(&p);
        assert_eq!(sizes.iter().sum::<u64>(), n);
        assert_eq!(sizes, rp.expected_group_sizes(n));
        let s = rp.num_slots() as f64;
        for (i, &sz) in sizes.iter().enumerate() {
            let ideal = n as f64 * rp.ratios()[i] as f64 / s;
            assert!(
                (sz as f64 - ideal).abs() < rp.deviation_bound(i + 1) as f64 + 1e-9,
                "group {}: {sz} vs ideal {ideal}",
                i + 1
            );
        }
    }

    #[test]
    fn uniform_ratio_equals_kpartition_sizes() {
        let rp = RatioPartition::new(vec![1, 1, 1]);
        let kp = UniformKPartition::new(3);
        for n in [9u64, 10, 11] {
            assert_eq!(rp.expected_group_sizes(n), kp.expected_group_sizes(n));
        }
    }

    #[test]
    #[should_panic(expected = ">= 2 groups")]
    fn single_group_rejected() {
        RatioPartition::new(vec![5]);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_ratio_rejected() {
        RatioPartition::new(vec![1, 0]);
    }
}
