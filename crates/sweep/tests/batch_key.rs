//! Batch-kernel cells under their own key version.
//!
//! The batch kernel's exact fallback runs stretches of free-agent flips
//! as one lumped step, so batch trial records keep their law but not
//! their seed-by-seed values. Batch cells therefore key under
//! `KEY_VERSION` (v5): a batch cell stored or journaled under the v3 key
//! it had before misses, and a resumed batch cell still equals a fresh
//! one.

use pp_engine::seeds::fnv1a64;
use pp_sweep::exec::{run_cell, CellOutcome, ExecOptions};
use pp_sweep::observer::NullObserver;
use pp_sweep::spec::{
    CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId, KEY_VERSION, LEGACY_KEY_VERSION,
};
use pp_sweep::store::{encode_cell_doc, ResultStore};

const TRIALS: usize = 6;

fn batch_cell(seed: u64) -> CellSpec {
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 3 },
        n: 60,
        trials: TRIALS,
        seed,
        criterion: CriterionKind::Stable,
        budget: 10_000_000,
        mode: CellMode::Full,
        kernel: KernelChoice::Batch,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!(
        "pp_sweep_batch_key_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::at(dir)
}

fn complete(spec: &CellSpec, store: &ResultStore) -> pp_sweep::store::CellResult {
    run_cell(spec, store, &NullObserver, &ExecOptions::default())
        .unwrap()
        .expect_complete()
}

/// A result file and a journal written under the v3 key a batch cell
/// had before v5 — at that key's address, and the result file also at
/// the new address — are not found: the cell runs every trial afresh
/// and stores what a clean store gets.
#[test]
fn a_batch_cell_stored_under_the_old_key_misses() {
    let spec = batch_cell(77);
    let key = spec.canonical_key();
    assert!(key.starts_with(&format!("{KEY_VERSION}|")), "{key}");
    let old_key = key.replacen(KEY_VERSION, LEGACY_KEY_VERSION, 1);
    // The stem is `<slug>-n<n>-<hash>`; the old key's differs in the hash.
    let stem = spec.file_stem();
    let old_stem = format!(
        "{}{:016x}",
        &stem[..stem.len() - 16],
        fnv1a64(old_key.as_bytes())
    );

    let clean = temp_store("clean");
    let fresh = complete(&spec, &clean);

    // The old entry holds trial records that differ from this kernel's:
    // every trial claims one interaction.
    let stale: Vec<_> = fresh
        .records
        .iter()
        .map(|r| pp_sweep::store::TrialRecord {
            interactions: Some(1),
            ..r.clone()
        })
        .collect();
    let old_doc = encode_cell_doc(&spec, &stale).replacen(&key, &old_key, 1);
    assert!(old_doc.contains(&old_key));
    let journal_line = stale[0].to_json().encode();

    let store = temp_store("old");
    std::fs::create_dir_all(store.dir()).unwrap();
    std::fs::write(store.dir().join(format!("{old_stem}.json")), &old_doc).unwrap();
    std::fs::write(
        store.dir().join(format!("{old_stem}.jsonl")),
        format!("{journal_line}\n"),
    )
    .unwrap();
    assert!(store.load(&spec).is_none(), "the old result file hit");
    assert!(
        store.journal_state(&spec).records.is_empty(),
        "the old journal was recovered"
    );
    // Under the new address the old document still misses: its key
    // does not match.
    std::fs::write(store.result_path(&spec), &old_doc).unwrap();
    assert!(
        store.load(&spec).is_none(),
        "a v3 document hit at the v5 address"
    );

    let rerun = complete(&spec, &store);
    assert_eq!(rerun.records, fresh.records);
    assert_eq!(
        std::fs::read(store.result_path(&spec)).unwrap(),
        std::fs::read(clean.result_path(&spec)).unwrap()
    );

    let _ = std::fs::remove_dir_all(clean.dir());
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Kill a batch cell after some trials and resume it: the stored bytes
/// equal an uninterrupted run's, for several kill points.
#[test]
fn a_resumed_batch_cell_equals_a_fresh_one() {
    for (seed, kill) in [(5u64, 0usize), (6, 2), (7, 5)] {
        let spec = batch_cell(seed);
        let store_fresh = temp_store("fresh");
        let fresh = complete(&spec, &store_fresh);

        let store_resumed = temp_store("resumed");
        let out = run_cell(
            &spec,
            &store_resumed,
            &NullObserver,
            &ExecOptions {
                kill_after: Some(kill),
            },
        )
        .unwrap();
        assert!(
            matches!(out, CellOutcome::Interrupted { journaled } if journaled == kill),
            "kill after {kill}"
        );
        let resumed = complete(&spec, &store_resumed);

        assert_eq!(fresh.records, resumed.records, "seed {seed}, kill {kill}");
        assert_eq!(
            std::fs::read(store_fresh.result_path(&spec)).unwrap(),
            std::fs::read(store_resumed.result_path(&spec)).unwrap(),
            "seed {seed}, kill {kill}: stored cell files must be bit-identical"
        );
        let _ = std::fs::remove_dir_all(store_fresh.dir());
        let _ = std::fs::remove_dir_all(store_resumed.dir());
    }
}
