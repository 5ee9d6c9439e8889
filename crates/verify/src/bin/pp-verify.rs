//! `pp-verify` — command-line front end for the exhaustive verifier.
//!
//! ```text
//! pp-verify report [--k-max K] [--n-cap N] [--max-configs M]
//!                  [--wall-budget-secs S] [--hitting-cap C] [--out PATH]
//! ```
//!
//! `report` climbs the `(k, n)` ladder of the paper's uniform
//! k-partition protocol and, for every instance it can afford, builds
//! the full reachable-configuration graph and verifies the partition
//! stably correct under global fairness (Lemmas 4–6 as an exact
//! terminal-SCC check). The result is the repo's **checked envelope** —
//! how far exhaustive verification currently reaches — written as
//! `BENCH_verify.json` in the same trajectory-append schema as
//! `BENCH_engine.json`:
//!
//! * integer-only numbers (micros, counts);
//! * per-cell `censored` flags — a cell that blew the configuration
//!   budget is reported with how far exploration got, not dropped;
//! * explicit `speedup_basis` on every speedup-style ratio. Here the
//!   ratio is the *scheduler gap*: exact expected interactions under
//!   the uniform random scheduler (first-step analysis) over the
//!   shortest stabilising schedule (what global fairness must
//!   eventually realise), basis `"interactions"`.
//!
//! Budgets: `--max-configs` bounds one exploration (the cell is
//! censored past it), `--wall-budget-secs` bounds the whole report
//! (remaining ladder rungs are censored), and `--hitting-cap` bounds
//! the graphs on which the hitting-time solve is attempted. A
//! non-censored cell without the gap fields says why in `gap_omitted`:
//! `"hitting_cap"`, or the solver's error kind
//! ([`HittingError::kind`](pp_verify::hitting::HittingError::kind)) when
//! the shortest schedule or the solve failed.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

use std::process::ExitCode;
use std::time::Instant;

use pp_protocols::kpartition::UniformKPartition;
use pp_verify::hitting::{expected_interactions, HittingError, SolverOptions};
use pp_verify::ConfigGraph;

fn usage() -> ! {
    eprintln!(
        "usage: pp-verify report [--k-max K] [--n-cap N] [--max-configs M] \
         [--wall-budget-secs S] [--hitting-cap C] [--out PATH]"
    );
    std::process::exit(2)
}

struct Opts {
    k_max: usize,
    n_cap: u64,
    max_configs: usize,
    wall_budget_secs: u64,
    hitting_cap: usize,
    out: String,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            k_max: 6,
            n_cap: 30,
            max_configs: 200_000,
            wall_budget_secs: 120,
            hitting_cap: 20_000,
            out: "BENCH_verify.json".to_string(),
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        let parse_num = |name: &str, v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name}: not a number: {v}");
                usage()
            })
        };
        match flag.as_str() {
            "--k-max" => opts.k_max = parse_num("--k-max", val("--k-max")) as usize,
            "--n-cap" => {
                opts.n_cap = parse_num("--n-cap", val("--n-cap"));
                if u32::try_from(opts.n_cap).is_err() {
                    eprintln!("--n-cap: at most {} agents", u32::MAX);
                    usage()
                }
            }
            "--max-configs" => {
                opts.max_configs = parse_num("--max-configs", val("--max-configs")) as usize
            }
            "--wall-budget-secs" => {
                opts.wall_budget_secs = parse_num("--wall-budget-secs", val("--wall-budget-secs"))
            }
            "--hitting-cap" => {
                opts.hitting_cap = parse_num("--hitting-cap", val("--hitting-cap")) as usize
            }
            "--out" => opts.out = val("--out").to_string(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    opts
}

/// One `(k, n)` rung of the verification ladder.
struct Cell {
    k: usize,
    n: u64,
    /// Reachable configurations explored (partial tally when censored).
    configs: u64,
    terminal_sccs: u64,
    micros: u64,
    /// True when the configuration or wall budget cut exploration short.
    censored: bool,
    /// True only when the terminal-SCC check established stability.
    verified: bool,
    /// Scheduler gap, when the graph was small enough to solve exactly:
    /// (shortest stabilising schedule, exact E[interactions] under the
    /// uniform random scheduler, their rounded ratio).
    gap: Option<(u64, u64, u64)>,
    /// Why a non-censored cell has no gap: `"hitting_cap"` or the
    /// solver's error kind.
    gap_omitted: Option<&'static str>,
}

/// Checked-envelope row: how far the ladder got for one `k`.
struct EnvelopeRow {
    k: usize,
    /// Largest `n` verified; 0 when even the smallest rung was censored.
    n_max: u64,
    /// True when the ladder stopped on a budget rather than the n-cap.
    censored: bool,
}

fn cell_json(c: &Cell) -> String {
    let mut s = format!("{{\"censored\":{},\"configs\":{}", c.censored, c.configs);
    if let Some((_, expected, _)) = c.gap {
        s.push_str(&format!(",\"expected_interactions\":{expected}"));
    }
    if let Some(why) = c.gap_omitted {
        s.push_str(&format!(",\"gap_omitted\":\"{why}\""));
    }
    s.push_str(&format!(",\"k\":{},\"micros\":{}", c.k, c.micros));
    if let Some((min, _, _)) = c.gap {
        s.push_str(&format!(",\"min_interactions\":{min}"));
    }
    s.push_str(&format!(",\"n\":{}", c.n));
    if let Some((_, _, speedup)) = c.gap {
        s.push_str(&format!(
            ",\"speedup\":{speedup},\"speedup_basis\":\"interactions\""
        ));
    }
    if !c.censored {
        s.push_str(&format!(",\"terminal_sccs\":{}", c.terminal_sccs));
    }
    s.push_str(&format!(",\"verified\":{}}}", c.verified));
    s
}

fn report_json(cells: &[Cell], envelope: &[EnvelopeRow], opts: &Opts, wall_micros: u64) -> String {
    let cells_json: Vec<String> = cells.iter().map(cell_json).collect();
    let rows_json: Vec<String> = envelope
        .iter()
        .map(|r| {
            format!(
                "{{\"censored\":{},\"k\":{},\"n_max\":{}}}",
                r.censored, r.k, r.n_max
            )
        })
        .collect();
    let configs_total: u64 = cells.iter().map(|c| c.configs).sum();
    let frontier_peak = pp_telemetry::Snapshot::capture_global()
        .value("verify.frontier_peak")
        .unwrap_or(0);
    format!(
        "{{\"bench\":\"verify_envelope\",\"cells\":[{}],\"configs_total\":{},\
         \"envelope\":[{}],\"frontier_peak\":{},\"k_max\":{},\"max_configs\":{},\
         \"micros\":{}}}",
        cells_json.join(","),
        configs_total,
        rows_json.join(","),
        frontier_peak,
        opts.k_max,
        opts.max_configs,
        wall_micros,
    )
}

fn configs_explored() -> u64 {
    pp_telemetry::Snapshot::capture_global()
        .value("verify.configs_explored")
        .unwrap_or(0)
}

/// Verify one ladder rung, censoring on the configuration budget.
fn verify_cell(kp: &UniformKPartition, n: u64, opts: &Opts) -> Cell {
    let k = kp.k();
    let _span = pp_obs::span_labelled("verify.cell", &format!("k{k}n{n}"));
    let proto = kp.compile();
    let before = configs_explored();
    let t0 = Instant::now();
    let graph = match ConfigGraph::explore(&proto, n, opts.max_configs) {
        Ok(g) => g,
        // `--n-cap` fits u32 counts, so the budget is the only error.
        Err(_) => {
            return Cell {
                k,
                n,
                configs: configs_explored() - before,
                terminal_sccs: 0,
                micros: t0.elapsed().as_micros() as u64,
                censored: true,
                verified: false,
                gap: None,
                gap_omitted: None,
            };
        }
    };
    let expected = kp.expected_group_sizes(n);
    let report = graph.verify_stable_partition(|groups| groups == expected);
    let (gap, gap_omitted) = if graph.num_configs() > opts.hitting_cap {
        (None, Some("hitting_cap"))
    } else {
        match scheduler_gap(kp, &graph, n) {
            Ok(gap) => (Some(gap), None),
            Err(e) => (None, Some(e.kind())),
        }
    };
    Cell {
        k,
        n,
        configs: graph.num_configs() as u64,
        terminal_sccs: report.num_terminal_sccs as u64,
        micros: t0.elapsed().as_micros() as u64,
        censored: false,
        verified: report.verified(),
        gap,
        gap_omitted,
    }
}

/// Exact scheduler gap on a solved instance: optimal schedule length vs
/// expected interactions under the uniform random scheduler.
fn scheduler_gap(
    kp: &UniformKPartition,
    graph: &ConfigGraph<'_>,
    n: u64,
) -> Result<(u64, u64, u64), HittingError> {
    let sig = kp.stable_signature(n);
    let stable = |cfg: &[u32]| {
        let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
        sig.matches(&counts)
    };
    // The graph holds exactly the configurations reachable from its
    // root, so no shortest schedule means no stable configuration.
    let optimal = graph
        .min_interactions_to(stable)
        .ok_or(HittingError::NoStableConfigs)?;
    let exact = expected_interactions(graph, stable, SolverOptions::default())?;
    let expected = exact.expected_from_initial.round() as u64;
    let speedup = (exact.expected_from_initial / optimal.max(1) as f64).round() as u64;
    Ok((optimal, expected, speedup))
}

fn run_report(opts: &Opts) -> ExitCode {
    let _root = pp_obs::span("verify.report");
    let t_start = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    let mut envelope: Vec<EnvelopeRow> = Vec::new();
    let mut failed = false;

    for k in 2..=opts.k_max {
        let kp = UniformKPartition::new(k);
        let mut n_max = 0u64;
        let mut censored_k = false;
        let mut n = (k as u64).max(3);
        while n <= opts.n_cap {
            if t_start.elapsed().as_secs() >= opts.wall_budget_secs {
                censored_k = true;
                break;
            }
            let cell = verify_cell(&kp, n, opts);
            println!(
                "  k={} n={:>3}: {} configs, {} µs{}{}",
                cell.k,
                cell.n,
                cell.configs,
                cell.micros,
                if cell.censored {
                    " (censored: budget)"
                } else if cell.verified {
                    ", verified"
                } else {
                    ", VERIFICATION FAILED"
                },
                match (cell.gap, cell.gap_omitted) {
                    (Some((min, exp, gap)), _) => format!(", scheduler gap {exp}/{min} = {gap}×"),
                    (None, Some(why)) => format!(", no scheduler gap ({why})"),
                    (None, None) => String::new(),
                },
            );
            let censored = cell.censored;
            if cell.verified {
                n_max = n;
            } else if !censored {
                failed = true;
            }
            cells.push(cell);
            if censored {
                censored_k = true;
                break;
            }
            n += 1;
        }
        envelope.push(EnvelopeRow {
            k,
            n_max,
            censored: censored_k,
        });
    }

    let wall_micros = t_start.elapsed().as_micros() as u64;
    let json = report_json(&cells, &envelope, opts, wall_micros);
    if let Err(e) = std::fs::write(&opts.out, format!("{json}\n")) {
        eprintln!("pp-verify: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    for row in &envelope {
        println!(
            "envelope: k={} verified up to n={}{}",
            row.k,
            row.n_max,
            if row.censored {
                " (budget-censored)"
            } else {
                ""
            }
        );
    }
    println!("pp-verify: report written to {}", opts.out);
    if failed {
        eprintln!("pp-verify: a non-censored instance FAILED verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => run_report(&parse_opts(&args[1..])),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ladder_rung_verifies() {
        let opts = Opts::default();
        let kp = UniformKPartition::new(2);
        let cell = verify_cell(&kp, 4, &opts);
        assert!(cell.verified);
        assert!(!cell.censored);
        assert!(cell.configs > 0);
        let (min, expected, speedup) = cell.gap.expect("tiny graph is solvable");
        // The random scheduler can never beat the optimal schedule.
        assert!(expected >= min);
        assert!(speedup >= 1);
    }

    #[test]
    fn censored_cells_report_partial_progress() {
        let opts = Opts {
            max_configs: 3,
            ..Opts::default()
        };
        let kp = UniformKPartition::new(3);
        let cell = verify_cell(&kp, 9, &opts);
        assert!(cell.censored);
        assert!(!cell.verified);
        assert!(cell.configs >= 3);
        let json = cell_json(&cell);
        assert!(json.contains("\"censored\":true"));
        assert!(!json.contains("speedup"));
    }

    #[test]
    fn report_json_is_schema_stable() {
        let cell = Cell {
            k: 2,
            n: 4,
            configs: 10,
            terminal_sccs: 1,
            micros: 123,
            censored: false,
            verified: true,
            gap: Some((4, 9, 2)),
            gap_omitted: None,
        };
        assert_eq!(
            cell_json(&cell),
            "{\"censored\":false,\"configs\":10,\"expected_interactions\":9,\
             \"k\":2,\"micros\":123,\"min_interactions\":4,\"n\":4,\
             \"speedup\":2,\"speedup_basis\":\"interactions\",\
             \"terminal_sccs\":1,\"verified\":true}"
        );
        let opts = Opts::default();
        let row = EnvelopeRow {
            k: 2,
            n_max: 4,
            censored: false,
        };
        let json = report_json(&[cell], &[row], &opts, 456);
        assert!(json.starts_with("{\"bench\":\"verify_envelope\""));
        assert!(json.contains("\"configs_total\":10"));
        assert!(json.contains("\"envelope\":[{\"censored\":false,\"k\":2,\"n_max\":4}]"));
        assert!(json.ends_with("\"micros\":456}"));

        // A verified cell over the hitting cap says why it has no gap,
        // with the reason in its alphabetical place.
        let capped = Cell {
            k: 4,
            n: 28,
            configs: 20115,
            terminal_sccs: 1,
            micros: 789,
            censored: false,
            verified: true,
            gap: None,
            gap_omitted: Some("hitting_cap"),
        };
        assert_eq!(
            cell_json(&capped),
            "{\"censored\":false,\"configs\":20115,\"gap_omitted\":\"hitting_cap\",\
             \"k\":4,\"micros\":789,\"n\":28,\"terminal_sccs\":1,\"verified\":true}"
        );
    }

    #[test]
    fn gap_omission_names_its_reason() {
        let kp = UniformKPartition::new(3);
        let opts = Opts {
            hitting_cap: 3,
            ..Opts::default()
        };
        let cell = verify_cell(&kp, 6, &opts);
        assert!(cell.verified && cell.gap.is_none());
        assert_eq!(cell.gap_omitted, Some("hitting_cap"));
        let cell = verify_cell(&kp, 6, &Opts::default());
        assert!(cell.gap.is_some());
        assert_eq!(cell.gap_omitted, None);
    }
}
