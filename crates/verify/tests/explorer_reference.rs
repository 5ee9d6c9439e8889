//! The flat, key-indexed explorer against a reference: the slice-keyed
//! `HashMap<Box<[u32]>, u32>` depth-first explorer `ConfigGraph` used
//! before its storage became flat. Both must assign the same ids, the same
//! sorted successor lists and the same frontier peak, and every edge
//! weight must equal the ordered agent pairs that produce the edge.

use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_protocols::kpartition::UniformKPartition;
use pp_verify::ConfigGraph;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Serialises the tests of this binary: each checks the process-wide
/// frontier gauge, a high-water mark another exploration would move.
static GAUGE: Mutex<()> = Mutex::new(());

/// The reference exploration: ids, successor lists and frontier peak.
struct Reference {
    configs: Vec<Box<[u32]>>,
    index: HashMap<Box<[u32]>, u32>,
    succs: Vec<Vec<u32>>,
    frontier_peak: usize,
}

/// One enabled non-identity pair: its weight and the successor it makes.
type Move = (u64, Box<[u32]>);

/// The moves of `cfg` in pair enumeration order, plus the identity
/// pairs' weight.
fn transitions(proto: &CompiledProtocol, cfg: &[u32]) -> (Vec<Move>, u64) {
    let mut out = Vec::new();
    let mut identity = 0u64;
    for (pi, &cp) in cfg.iter().enumerate() {
        if cp == 0 {
            continue;
        }
        let p = StateId(pi as u16);
        for (qi, &cq) in cfg.iter().enumerate() {
            let partners = if pi == qi { cq - 1 } else { cq };
            if partners == 0 {
                continue;
            }
            let q = StateId(qi as u16);
            let w = u64::from(cp) * u64::from(partners);
            if proto.is_identity(p, q) {
                identity += w;
                continue;
            }
            let (p2, q2) = proto.delta(p, q);
            let mut next: Box<[u32]> = cfg.into();
            next[p.index()] -= 1;
            next[q.index()] -= 1;
            next[p2.index()] += 1;
            next[q2.index()] += 1;
            out.push((w, next));
        }
    }
    (out, identity)
}

fn reference_explore(proto: &CompiledProtocol, start: Vec<u32>, max_configs: usize) -> Reference {
    let mut configs: Vec<Box<[u32]>> = Vec::new();
    let mut index: HashMap<Box<[u32]>, u32> = HashMap::new();
    let mut succs: Vec<Vec<u32>> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let start: Box<[u32]> = start.into();
    index.insert(start.clone(), 0);
    configs.push(start);
    succs.push(Vec::new());
    frontier.push(0);
    let mut frontier_peak = frontier.len();
    while let Some(id) = frontier.pop() {
        let cfg = configs[id as usize].clone();
        let mut out: Vec<u32> = Vec::new();
        for (_, next) in transitions(proto, &cfg).0 {
            let nid = match index.get(&next) {
                Some(&nid) => nid,
                None => {
                    assert!(configs.len() < max_configs, "reference over budget");
                    let nid = configs.len() as u32;
                    index.insert(next.clone(), nid);
                    configs.push(next);
                    succs.push(Vec::new());
                    frontier.push(nid);
                    frontier_peak = frontier_peak.max(frontier.len());
                    nid
                }
            };
            out.push(nid);
        }
        out.sort_unstable();
        out.dedup();
        succs[id as usize] = out;
    }
    Reference {
        configs,
        index,
        succs,
        frontier_peak,
    }
}

fn frontier_gauge() -> u64 {
    pp_telemetry::global().gauge("verify.frontier_peak").get()
}

/// Explore `start` both ways and compare everything. `peak` is the
/// largest reference frontier peak so far; the process-wide gauge, a
/// high-water mark, must equal it afterwards.
fn assert_same_graph(
    what: &str,
    proto: &CompiledProtocol,
    start: Vec<u32>,
    max_configs: usize,
    peak: &mut u64,
) {
    let n: u64 = start.iter().map(|&c| u64::from(c)).sum();
    let reference = reference_explore(proto, start.clone(), max_configs);
    let graph = ConfigGraph::explore_from(proto, start, max_configs).unwrap();
    assert_eq!(graph.num_configs(), reference.configs.len(), "{what}");
    for id in 0..graph.num_configs() as u32 {
        let cfg = &reference.configs[id as usize];
        assert_eq!(graph.config(id), &cfg[..], "{what}: config {id}");
        assert_eq!(
            graph.successors(id),
            &reference.succs[id as usize][..],
            "{what}: successors of {id}"
        );
        let (moves, identity) = transitions(proto, cfg);
        let mut want: BTreeMap<u32, u64> = BTreeMap::new();
        for (w, next) in moves {
            *want.entry(reference.index[&next]).or_default() += w;
        }
        let want: Vec<u64> = want.into_values().collect();
        assert_eq!(graph.weights(id), &want[..], "{what}: weights of {id}");
        let total: u64 = graph.weights(id).iter().sum::<u64>() + identity;
        assert_eq!(total, n * n.saturating_sub(1), "{what}: pairs of {id}");
    }
    *peak = (*peak).max(reference.frontier_peak as u64);
    assert_eq!(frontier_gauge(), *peak, "{what}: frontier peak");
}

/// Every pp-lint registry protocol at n ≤ 8, from the all-initial
/// configuration and from a round-robin spread over all states (the
/// seeded classics are inert from all-initial).
#[test]
fn registry_graphs_match_the_reference_explorer() {
    let _serial = GAUGE.lock().unwrap_or_else(|e| e.into_inner());
    let mut peak = frontier_gauge();
    for entry in pp_lint::registry::all() {
        let proto = &entry.proto;
        let states = proto.num_states();
        for n in 0..=8u32 {
            let mut initial = vec![0u32; states];
            initial[proto.initial_state().index()] = n;
            let what = format!("{} n={n} all-initial", entry.slug);
            assert_same_graph(&what, proto, initial, 1_000_000, &mut peak);
            let mut spread = vec![0u32; states];
            for i in 0..n as usize {
                spread[i % states] += 1;
            }
            let what = format!("{} n={n} spread", entry.slug);
            assert_same_graph(&what, proto, spread, 1_000_000, &mut peak);
        }
    }
}

/// The whole `pp-verify report` envelope (k ≤ 6, n ≤ 30, about 1.4M
/// configurations). Slow in debug builds; run with
/// `cargo test --release -p pp-verify --test explorer_reference -- --ignored`.
#[test]
#[ignore = "about 15 s in release: the full BENCH_verify.json envelope"]
fn envelope_graphs_match_the_reference_explorer() {
    let _serial = GAUGE.lock().unwrap_or_else(|e| e.into_inner());
    let mut peak = frontier_gauge();
    for k in 2..=6usize {
        let proto = UniformKPartition::new(k).compile();
        for n in (k as u32).max(3)..=30 {
            let mut initial = vec![0u32; proto.num_states()];
            initial[proto.initial_state().index()] = n;
            assert_same_graph(&format!("k={k} n={n}"), &proto, initial, 200_000, &mut peak);
        }
    }
}
