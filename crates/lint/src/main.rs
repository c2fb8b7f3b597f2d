//! CLI entry point for `magellan-lint`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p magellan-lint                         # lint, exit 1 on findings
//! cargo run -p magellan-lint -- --format sarif --output lint.sarif
//! cargo run -p magellan-lint -- --counts             # per-crate unwrap counts
//! cargo run -p magellan-lint -- --list-rules
//! cargo run -p magellan-lint -- --explain D4         # rationale + fix guidance
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use magellan_lint::{
    find_workspace_root, lint_workspace, render_human, render_sarif, Config, RULES,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Sarif,
}

#[derive(Debug)]
struct Cli {
    format: Format,
    output: Option<PathBuf>,
    counts: bool,
    list_rules: bool,
    explain: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        format: Format::Human,
        output: None,
        counts: false,
        list_rules: false,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--counts" => cli.counts = true,
            "--list-rules" => cli.list_rules = true,
            "--explain" => {
                let value = it.next().ok_or("--explain needs a rule id (e.g. D4)")?;
                cli.explain = Some(value.clone());
            }
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                cli.format = match value.as_str() {
                    "human" => Format::Human,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--output" => {
                let value = it.next().ok_or("--output needs a path")?;
                cli.output = Some(PathBuf::from(value));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(cli))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print_help();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("magellan-lint: {e}");
            print_help();
            return ExitCode::FAILURE;
        }
    };
    if cli.list_rules {
        for rule in RULES {
            println!("{:3} {}", rule.id(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(wanted) = &cli.explain {
        let wanted = wanted.to_ascii_uppercase();
        let Some(rule) = RULES.iter().find(|r| r.id() == wanted) else {
            eprintln!("magellan-lint: unknown rule `{wanted}` — see --list-rules for the table");
            return ExitCode::FAILURE;
        };
        println!("{} — {}", rule.id(), rule.describe());
        println!();
        println!("Fix: {}", rule.fix_guidance());
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("magellan-lint: cannot read current directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("magellan-lint: no workspace root (Cargo.toml with [workspace]) above {cwd:?}");
        return ExitCode::FAILURE;
    };

    let config = Config::default();
    let report = match lint_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("magellan-lint: walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if cli.counts {
        println!("non-test unwrap()/expect( per crate (rule C1 input):");
        for (krate, count) in &report.unwrap_counts {
            let budget = config.unwrap_budgets.get(krate).copied().unwrap_or(0);
            println!("  {krate:20} {count:4}  (budget {budget})");
        }
        return ExitCode::SUCCESS;
    }

    let rendered = match cli.format {
        Format::Human => render_human(&report, &root),
        Format::Sarif => render_sarif(&report),
    };
    match &cli.output {
        Some(path) => {
            // Write the machine report to the file and keep the human
            // view on stdout, so one CI invocation does both jobs.
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("magellan-lint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            print!("{}", render_human(&report, &root));
        }
        None => print!("{rendered}"),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "magellan-lint: {} violation(s) in {} files — fix them or annotate with \
             `// lint:allow(<rule>): <justification>`",
            report.violations.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!(
        "magellan-lint — determinism & invariant static-analysis gate\n\
         \n\
         USAGE:\n\
         \x20   magellan-lint [OPTIONS]\n\
         \n\
         OPTIONS:\n\
         \x20   --format <human|sarif>  report format (default human)\n\
         \x20   --output <path>         write the report to a file, keep human\n\
         \x20                           output on stdout\n\
         \x20   --counts                dump per-crate unwrap counts (C1 budgets)\n\
         \x20   --list-rules            print the rule table\n\
         \x20   --explain <RULE>        print one rule's rationale + fix guidance\n\
         \x20   --help                  this text\n\
         \n\
         Exits 0 when the workspace is clean, 1 when violations are found or\n\
         an argument is not understood. Waive a finding with\n\
         `// lint:allow(<rule>): <justification>` on the offending line or the\n\
         line above it. Mark a hot entry point for the H2/H3 hot-path cost pass\n\
         with `// lint:hot` on or above its `fn` line; the built-in registry\n\
         seeds the tick/sample surface regardless."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Cli>, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_args(&args)
    }

    #[test]
    fn surviving_flags_parse() {
        let cli = parse(&[]).expect("no args").expect("a run, not help");
        assert_eq!(cli.format, Format::Human);
        assert!(cli.output.is_none() && !cli.counts && !cli.list_rules);
        assert!(cli.explain.is_none());

        let cli = parse(&[
            "--format",
            "sarif",
            "--output",
            "target/lint.sarif",
            "--counts",
            "--list-rules",
            "--explain",
            "h2",
        ])
        .expect("valid flags")
        .expect("a run, not help");
        assert_eq!(cli.format, Format::Sarif);
        assert_eq!(cli.output, Some(PathBuf::from("target/lint.sarif")));
        assert!(cli.counts && cli.list_rules);
        assert_eq!(cli.explain.as_deref(), Some("h2"));

        let human = parse(&["--format", "human"]).expect("human").expect("run");
        assert_eq!(human.format, Format::Human);
        assert!(parse(&["--help"]).expect("help").is_none());
        assert!(parse(&["-h"]).expect("help").is_none());
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--format", "--output", "--explain"] {
            assert!(parse(&[flag]).is_err(), "{flag} without a value");
        }
    }

    #[test]
    fn retired_flags_are_unknown() {
        for flag in ["--no-cache", "--write-baseline", "--no-baseline"] {
            let err = parse(&[flag]).expect_err(flag);
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
        let err = parse(&["--format", "json"]).expect_err("json format");
        assert_eq!(err, "unknown format `json`");
    }
}
