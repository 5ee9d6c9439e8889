//! pp-verify's telemetry counters, checked in a process of their own.

use pp_engine::protocol::CompiledProtocol;
use pp_engine::spec::ProtocolSpec;
use pp_verify::{ConfigGraph, ExploreError};

fn epidemic() -> CompiledProtocol {
    let mut spec = ProtocolSpec::new("epidemic");
    let s = spec.add_state("S", 1);
    let i = spec.add_state("I", 2);
    spec.set_initial(s);
    spec.add_rule_symmetric(i, s, i, i);
    spec.compile().unwrap()
}

/// Exploration and SCC analysis accrue into the global telemetry
/// registry. The assertions are on exact deltas of process-global
/// counters, so this test lives alone in its own test binary: no other
/// test explores configuration graphs in this process.
#[test]
fn telemetry_counts_explorations_and_sccs() {
    let snap = |name: &str| {
        pp_telemetry::Snapshot::capture_global()
            .value(name)
            .unwrap_or(0)
    };
    let explorations0 = snap("verify.explorations");
    let configs0 = snap("verify.configs_explored");
    let sccs0 = snap("verify.sccs");
    let terminals0 = snap("verify.terminal_sccs");

    let p = epidemic();
    let g = ConfigGraph::explore_from(&p, vec![4, 1], 1000).unwrap();
    let t = g.terminal_sccs();
    assert_eq!(t.len(), 1);

    assert_eq!(snap("verify.explorations"), explorations0 + 1);
    // The epidemic chain has 5 reachable configurations, each its own
    // SCC (all transitions strictly increase the infected count).
    assert_eq!(snap("verify.configs_explored"), configs0 + 5);
    assert_eq!(snap("verify.sccs"), sccs0 + 5);
    assert_eq!(snap("verify.terminal_sccs"), terminals0 + 1);
    assert!(snap("verify.frontier_peak") >= 1);

    // The budget-abort path still flushes its partial tally.
    let before_abort = snap("verify.configs_explored");
    let Err(err) = ConfigGraph::explore_from(&p, vec![4, 1], 2) else {
        panic!("budget of 2 must abort a 5-config space");
    };
    assert_eq!(err, ExploreError::TooManyConfigs { limit: 2 });
    assert!(snap("verify.configs_explored") >= before_abort + 2);
}
