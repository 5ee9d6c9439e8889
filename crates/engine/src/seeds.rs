//! Deterministic seed derivation.
//!
//! Experiments fan out into many independent trials (the paper runs 100
//! per data point). Each trial must get a statistically independent RNG
//! stream, and the whole experiment must be reproducible from one recorded
//! master seed. [`derive()`] maps `(master, index)` to a trial seed with a
//! SplitMix64 finaliser — the standard well-mixed 64-bit permutation — so
//! trial seeds are decorrelated even for adjacent indices. [`fnv1a64`]
//! is the repository's one persisted byte hash (store content addresses,
//! trace checksums).

/// SplitMix64 finalisation step: a bijective avalanche mix on 64 bits.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit: the persisted hash of store content addresses and
/// trace checksums, spelled out because `DefaultHasher` may change
/// between Rust releases.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive the seed for trial `index` of an experiment with the given
/// `master` seed.
#[inline]
pub fn derive(master: u64, index: u64) -> u64 {
    // Two rounds: one to spread the master, one to mix in the index.
    splitmix64(splitmix64(master).wrapping_add(index))
}

/// Derive a sub-experiment master from a master seed and a label hash —
/// used when one experiment sweeps several (n, k) cells and each cell runs
/// its own batch of trials.
#[inline]
pub fn derive_labelled(master: u64, label_a: u64, label_b: u64) -> u64 {
    splitmix64(derive(master, label_a).wrapping_add(splitmix64(label_b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive(42, 7), derive(42, 7));
        assert_eq!(derive_labelled(42, 7, 9), derive_labelled(42, 7, 9));
    }

    #[test]
    fn derive_separates_indices() {
        let seeds: HashSet<u64> = (0..10_000).map(|i| derive(123, i)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn derive_separates_masters() {
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_ne!(derive_labelled(1, 2, 3), derive_labelled(1, 3, 2));
    }

    #[test]
    fn splitmix_avalanche_changes_many_bits() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0);
        let b = splitmix64(1);
        let differing = (a ^ b).count_ones();
        assert!((16..=48).contains(&differing), "{differing} bits differ");
    }
}
