//! The `pp-lint` command-line interface.
//!
//! ```text
//! pp-lint --all-protocols [--format text|json] [--deny warnings] [--out FILE]
//! pp-lint --protocol FAMILY [--k N] [--h N] [--format text|json] [--deny warnings] [--out FILE]
//! pp-lint list
//! ```
//!
//! `FAMILY` is `ukp`, `basic`, `oneside`, `bipartition`, `composed`
//! (size via `--h`), `approx`, or a classics slug (`epidemic`,
//! `leader-election`, `approx-majority`). Exit code is 0 when every
//! linted protocol is clean at the chosen threshold, 1 when any has an
//! `Error` finding (or a `Warning`, under `--deny warnings`), and 2 on
//! usage errors. A failed write to standard output ends the run with
//! [`stdout_failed`]'s code: 0 when the reader has gone, else 1.

use std::io::{self, Write};

use crate::checks::lint;
use crate::findings::Severity;
use crate::registry::{self, Entry};
use pp_engine::cli::stdout_failed;
use pp_telemetry::json::Value;

/// Entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    match run(args, &mut io::stdout()) {
        Ok(denied) => i32::from(denied),
        Err(Failure::Usage(msg)) => {
            eprintln!("pp-lint: {msg}");
            2
        }
        Err(Failure::Stdout(e)) => i32::from(stdout_failed(&e)),
    }
}

/// Why [`run`] stopped.
enum Failure {
    /// Bad arguments, or an `--out` file that cannot be written.
    Usage(String),
    /// A write to standard output failed.
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

struct Options {
    all: bool,
    protocol: Option<String>,
    k: Option<usize>,
    h: Option<usize>,
    format: String,
    deny_warnings: bool,
    out: Option<String>,
    list: bool,
    help: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        all: false,
        protocol: None,
        k: None,
        h: None,
        format: "text".to_string(),
        deny_warnings: false,
        out: None,
        list: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("--{flag} requires a value"))
        };
        match a.as_str() {
            "--all-protocols" => o.all = true,
            "--protocol" => o.protocol = Some(value("protocol")?),
            "--k" => o.k = Some(value("k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--h" => o.h = Some(value("h")?.parse().map_err(|e| format!("--h: {e}"))?),
            "--format" => {
                let f = value("format")?;
                if f != "text" && f != "json" {
                    return Err(format!("--format must be text or json, got `{f}`"));
                }
                o.format = f;
            }
            "--deny" => {
                let d = value("deny")?;
                if d != "warnings" {
                    return Err(format!("--deny accepts only `warnings`, got `{d}`"));
                }
                o.deny_warnings = true;
            }
            "--out" => o.out = Some(value("out")?),
            "list" => o.list = true,
            "help" | "--help" | "-h" => o.help = true,
            other => return Err(format!("unknown argument `{other}` (try `pp-lint help`)")),
        }
    }
    Ok(o)
}

fn print_usage(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "pp-lint: static analysis of population protocols

usage:
  pp-lint --all-protocols [--format text|json] [--deny warnings] [--out FILE]
  pp-lint --protocol FAMILY [--k N] [--h N] [--format text|json] [--deny warnings] [--out FILE]
  pp-lint list"
    )
}

/// Returns `Ok(true)` when findings at/above the threshold were found.
fn run(args: &[String], out: &mut dyn Write) -> Result<bool, Failure> {
    let o = parse(args)?;
    if o.help {
        print_usage(out)?;
        return Ok(false);
    }
    if o.list {
        for e in registry::all() {
            writeln!(out, "{}", e.slug)?;
        }
        return Ok(false);
    }

    let entries: Vec<Entry> = if o.all {
        registry::all()
    } else if let Some(name) = &o.protocol {
        let size = o.k.or(o.h);
        vec![registry::by_name(name, size)
            .ok_or_else(|| format!("unknown protocol `{name}` (try `pp-lint list`)"))?]
    } else {
        // The usage error's exit code stands even if the usage text
        // cannot be written.
        let _ = print_usage(out);
        return Err(Failure::Usage(
            "nothing to lint: pass --all-protocols or --protocol".to_string(),
        ));
    };

    let threshold = if o.deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    let mut denied = false;
    let mut text = String::new();
    let mut reports: Vec<Value> = Vec::new();
    for entry in &entries {
        let report = lint(&entry.proto, &entry.expect);
        if report.max_severity() >= Some(threshold) {
            denied = true;
        }
        if o.format == "json" || o.out.is_some() {
            reports.push(report.to_json(&entry.proto));
        }
        if o.format == "text" {
            text.push_str(&report.render_text(&entry.proto));
        }
    }

    let json = Value::Arr(reports).encode();
    if let Some(path) = &o.out {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    match o.format.as_str() {
        "json" => writeln!(out, "{json}")?,
        _ => write!(out, "{text}")?,
    }
    if denied {
        eprintln!(
            "pp-lint: findings at severity {} or above in {} protocol(s)",
            threshold,
            entries.len()
        );
    }
    Ok(denied)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn all_protocols_clean_under_deny_warnings() {
        assert_eq!(
            main_with_args(&s(&[
                "--all-protocols",
                "--deny",
                "warnings",
                "--format",
                "json"
            ])),
            0
        );
    }

    #[test]
    fn single_protocol_by_family_and_k() {
        assert_eq!(main_with_args(&s(&["--protocol", "ukp", "--k", "4"])), 0);
    }

    #[test]
    fn unknown_protocol_is_usage_error() {
        assert_eq!(main_with_args(&s(&["--protocol", "nope"])), 2);
    }

    #[test]
    fn missing_target_is_usage_error() {
        assert_eq!(main_with_args(&s(&["--format", "json"])), 2);
    }

    #[test]
    fn bad_format_rejected() {
        assert_eq!(
            main_with_args(&s(&["--all-protocols", "--format", "yaml"])),
            2
        );
    }
}
