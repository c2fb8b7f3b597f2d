//! Crash-safe study runner.
//!
//! ```text
//! magellan study  --archive DIR [--seed N] [--scale F] [--days N]
//!                 [--sample-every-mins N] [--checkpoint-every-ticks N]
//!                 [--segment-bytes N] [--resume] [--kill-at-tick N]
//!                 [--report FILE] [--threads N]
//! magellan replay --archive DIR [--report FILE]
//! ```
//!
//! `study` runs the full Magellan pipeline with every admitted report
//! archived durably and the simulator checkpointed; `--resume` picks
//! up a killed run from its newest valid checkpoint and finishes with
//! byte-identical archives and report. `--kill-at-tick` aborts the
//! process at a deterministic tick (the crash drill in
//! `scripts/check.sh` uses it). `replay` re-analyzes an existing
//! archive offline, tolerating damage and reporting what recovery had
//! to skip. The run directory carries a `study.cfg` describing the
//! study parameters so `--resume` and `replay` reconstruct the exact
//! configuration. A flag the command does not read exits 1 with
//! usage before anything is written.

use magellan::analysis::durable::DurableStudy;
use magellan::runcfg::{cfg_path, load_params, Args, RunParams, PARAM_FLAGS};
use magellan::trace::atomic_write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  magellan study  --archive DIR [--seed N] [--scale F] [--days N]\n                  \
         [--sample-every-mins N] [--checkpoint-every-ticks N] [--segment-bytes N]\n                  \
         [--resume] [--kill-at-tick N] [--report FILE] [--threads N]\n  \
         magellan replay --archive DIR [--report FILE]"
    );
    ExitCode::FAILURE
}

fn emit_report(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            atomic_write(Path::new(path), text.as_bytes()).map_err(|e| format!("write {path}: {e}"))
        }
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

/// The flags `command` reads, or `None` for an unknown command.
fn known_flags(command: &str) -> Option<Vec<&'static str>> {
    let common = ["--archive", "--report", "--threads"];
    match command {
        "study" => Some(
            [
                &common[..],
                &PARAM_FLAGS,
                &["--checkpoint-every-ticks", "--resume", "--kill-at-tick"],
            ]
            .concat(),
        ),
        "replay" => Some(common.to_vec()),
        _ => None,
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args(argv);
    if let Some(n) = args.num("--threads")? {
        magellan::par::set_threads(n as usize);
    }
    let dir = PathBuf::from(
        args.get("--archive")
            .ok_or_else(|| "--archive DIR is required".to_string())?,
    );
    let report_out = args.get("--report").map(String::as_str);

    match argv.first().map(String::as_str) {
        Some("study") => {
            let resume = args.has("--resume");
            let mut params = args.params(if resume {
                load_params(&dir)?
            } else {
                RunParams::default()
            })?;
            if let Some(v) = args.num("--checkpoint-every-ticks")? {
                params.checkpoint_every_ticks = v;
            }
            let kill_at = args.num("--kill-at-tick")?;

            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            // Persist the parameters before simulating so a run killed
            // at any tick can still be resumed.
            atomic_write(&cfg_path(&dir), params.render().as_bytes())
                .map_err(|e| format!("write study.cfg: {e}"))?;

            let study = DurableStudy::new(&dir, params.study_config(), params.durable_config());
            let observer = |tick: u64| {
                if Some(tick) == kill_at {
                    eprintln!("magellan: simulating crash at tick {tick}");
                    std::process::abort();
                }
            };
            let report = if resume {
                study.resume_observed(observer)
            } else {
                study.run_observed(observer)
            }
            .map_err(|e| format!("study: {e}"))?;
            emit_report(&report.render_text(), report_out)
        }
        Some("replay") => {
            let params = load_params(&dir)?;
            let study = DurableStudy::new(&dir, params.study_config(), params.durable_config());
            let report = study
                .analyze_archive()
                .map_err(|e| format!("replay: {e}"))?;
            emit_report(&report.render_text(), report_out)
        }
        _ => Err("unknown command".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(known) = args.first().and_then(|command| known_flags(command)) else {
        return usage();
    };
    if let Err(e) = Args(&args).check(&known) {
        eprintln!("error: {e}");
        return usage();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
