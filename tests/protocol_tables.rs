//! Pins the compiled transition table of every registry protocol.
//!
//! Each entry of `pp_lint::registry::all()` is hashed over its name, its
//! state names, each state's group, its initial state, and — for every
//! ordered pair of states — the result of δ together with the rule label
//! the pair is attributed to. The digests were computed from the
//! hand-declared builders; any change to how a family is built (for
//! instance deriving one protocol from another's compiled table) must
//! leave every entry of every table where it was.

use pp_engine::seeds::fnv1a64;
use pp_engine::CompiledProtocol;
use pp_lint::registry;

fn table_digest(proto: &CompiledProtocol) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    let mut field = |text: &str| {
        bytes.extend_from_slice(text.as_bytes());
        bytes.push(0);
    };
    field(proto.name());
    for s in proto.states() {
        field(proto.state_name(s));
        field(&proto.group_of(s).number().to_string());
    }
    field(&proto.initial_state().index().to_string());
    for p in proto.states() {
        for q in proto.states() {
            let (p2, q2) = proto.delta(p, q);
            let label = proto.rule_of(p, q).map_or("-", |r| proto.rule_name(r));
            field(&format!("{},{}->{},{}:{label}", p.0, q.0, p2.0, q2.0));
        }
    }
    fnv1a64(&bytes)
}

/// `(registry slug, table digest)`, in `registry::all()` order.
const PINNED: &[(&str, u64)] = &[
    ("ukp-k2", 0x7172c75c3896b64f),
    ("ukp-k3", 0x715bcb39f528ff95),
    ("ukp-k4", 0xcbbda535e663068a),
    ("ukp-k5", 0xf645f943e51a378e),
    ("ukp-k8", 0xeff77c7c5d44f27a),
    ("basic-k3", 0x18a559416e0f6297),
    ("basic-k4", 0xca682596d157d814),
    ("oneside-k3", 0x6bb28ebc04d5d248),
    ("oneside-k4", 0xbd1dc0031afc9eaa),
    ("bipartition", 0x5f6b7e39a68dedc8),
    ("composed-h1", 0x3f725f79ec5aee1e),
    ("composed-h2", 0x19c3cf3180cb9393),
    ("composed-h3", 0xd18b6585e73ce75e),
    ("approx-k3", 0x12ffaae1014dbc9b),
    ("approx-k5", 0x91c4ddc4bfbbdfa0),
    ("ratio-1-2", 0xb7c0525fd06860db),
    ("ratio-2-3-1", 0xccd56fc1ba5301cc),
    ("epidemic", 0xcd94c59090acba1a),
    ("leader-election", 0x2430cfc34c172716),
    ("approx-majority", 0x23ef03fac4de665b),
];

#[test]
fn every_registry_table_matches_its_pinned_digest() {
    let got: Vec<(String, u64)> = registry::all()
        .iter()
        .map(|e| (e.slug.clone(), table_digest(&e.proto)))
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(s, d)| (s.to_string(), d)).collect();
    assert_eq!(got, want);
}
