#!/bin/bash
# Regenerates every experiment artifact at paper fidelity (100 trials).
#
# One `pp-sweep run all` executes the union of every plan's cells —
# deduplicated, sharded across cores, checkpointed to per-cell journals
# (safe to ctrl-C and re-run: it resumes), and cached in results/store/
# (a completed rerun is a no-op). The per-plan invocations afterwards are
# pure cache hits that just re-render the per-figure logs.
#
# Figure logs + CSVs land in results/. Dominated by fig6's k >= 12 points
# on a cold cache; nearly instant on a warm one.
set -e
cd "$(dirname "$0")/.."

cargo build --release -q

echo "=== pp-sweep run all (executes every plan's cells, cached + resumable)"
cargo run --release -q -p pp-sweep --bin pp-sweep -- run all \
  > results/run_all.log 2>&1

echo "=== re-rendering per-plan logs from the store (cache hits)"
for plan in fig3 fig4 fig5 fig6 ablation_d_states baselines variants distributions trajectory; do
  cargo run --release -q -p pp-sweep --bin pp-sweep -- run $plan \
    > results/$plan.log 2>&1
done

echo "=== running exact_vs_sim (closed-form check; standalone, not a sweep plan)"
cargo run --release -q -p pp-bench --bin exact_vs_sim > results/exact_vs_sim.log 2>&1

echo "ALL EXPERIMENTS DONE"
