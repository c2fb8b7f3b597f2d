//! `pipeline_bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! pipeline_bench --workload study_flash|study_outage|replay_dense|ingest_tcp
//!                [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!                [--traced-bin PATH] [--out-dir DIR]
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is per workload),
//! prints every metric by name with its unit and every output check,
//! and ends its standard output with one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is the separate
//! traced run that yields the per-layer ones. `run.py` next to this
//! package builds everything and adds `--all` and `--repeat-check`.
//! README.md is the glossary.

#![forbid(unsafe_code)]

mod ingest;
mod measure;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{metric, Checks, Env, Metric, Sizes, Workload};

const USAGE: &str = "usage: pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--traced-bin PATH] [--out-dir DIR]
workloads: study_flash study_outage replay_dense ingest_tcp";

struct Cli {
    env: Env,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (2006u64, None, false, false);
    let (mut traced_bin, mut out_dir) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad(v));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => smoke = true,
            "--traced-bin" => traced_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Both binaries are built into one target directory: the service
    // is this executable's sibling, scratch space its grandparent's.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("executable has no parent directory")?;
    let out_dir =
        out_dir.unwrap_or_else(|| profile_dir.parent().unwrap_or(profile_dir).join("bench"));
    Ok(Cli {
        env: Env {
            workload,
            seed,
            seconds: seconds.unwrap_or(if smoke { 0.0 } else { 10.0 }),
            sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
            run_dir: out_dir.join(format!("run-{}-{}", workload.name(), std::process::id())),
            out_dir,
            traced_bin: traced_bin.unwrap_or_else(|| profile_dir.join("magellan-traced")),
        },
        trace,
    })
}

fn end_to_end_metrics(env: &Env, checks: &mut Checks) -> std::io::Result<(Vec<Metric>, u64, u64)> {
    let e = workloads::run_untraced(env, checks)?;
    let metrics = vec![
        metric("setup_s", e.setup_s, "s", ""),
        metric("study_wall_s", e.study_wall_s, "s", ""),
        metric("replay_wall_s", e.replay_wall_s, "s", ""),
        metric(
            "ingest_reports_per_s",
            e.ingest_reports_per_s,
            "1/s",
            format!(
                "base {} ops over the fastest of {} measured pass(es): {:.3?} s",
                e.ops_total,
                e.pass_walls_s.len(),
                e.pass_walls_s
            ),
        ),
        metric("delivered_ratio", e.delivered_ratio, "ratio", ""),
        metric(
            "peak_rss_mb",
            e.peak_rss_mb,
            "MB",
            "VmHWM at the end of the measured phase",
        ),
        metric("archive_mb", e.archive_mb, "MB", ""),
    ];
    Ok((metrics, e.ops_total, e.failed_ops))
}

fn run(cli: &Cli) -> std::io::Result<bool> {
    let env = &cli.env;
    workloads::cold_dir(&env.run_dir)?;
    let mut checks = Checks::default();
    let (metrics, attempted, failed_ops) = if cli.trace {
        let (metrics, ops) = traced::run_traced(env, &mut checks)?;
        (metrics, ops, 0)
    } else {
        end_to_end_metrics(env, &mut checks)?
    };

    let z = &env.sizes;
    println!(
        "workload {} seed {} trace {} seconds {} scale {} days {} sample_mins {} dense_sample_mins {} \
         mark_mins {} checkpoint_every_ticks {} min_passes {} host_cores {}",
        env.workload.name(),
        env.seed,
        u8::from(cli.trace),
        env.seconds,
        env.scale(),
        z.days,
        z.sample_mins,
        z.dense_sample_mins,
        z.mark_mins,
        z.checkpoint_every_ticks,
        z.min_passes,
        magellan::par::host_cores(),
    );
    for m in &metrics {
        println!("metric {} = {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    for (what, ok) in &checks.0 {
        println!("check {} — {what}", if *ok { "ok" } else { "FAILED" });
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check FAILED — a metric is not a finite number");
    }
    let correct = finite && checks.failed() == 0 && failed_ops == 0;
    let failed = failed_ops + checks.failed() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        std::fs::remove_dir_all(&env.run_dir)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pipeline_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "pipeline_bench: output checks failed; run directory kept at {}",
                cli.env.run_dir.display()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
