//! Regenerates every figure of the paper from one simulated study.
//!
//! ```text
//! cargo run --release -p magellan-bench --bin figures -- \
//!     [--scale 0.01] [--days 14] [--seed 2006] [--sample-mins 60] \
//!     [--fig all|1a|1b|2|3|4|5|6|7|8] [--csv-dir out/] [--svg-dir out/]
//! ```
//!
//! `--svg-dir` renders each figure as an SVG chart. To archive a run
//! and re-analyze it offline, use `magellan study --archive <dir>`
//! and `magellan replay --archive <dir>`.
//!
//! At `--scale 1.0` this is the paper's full population (~100k
//! concurrent peers); the default 0.01 preserves every reported shape
//! at ~1000 concurrent peers and runs in minutes.

use magellan_analysis::study::{MagellanStudy, StudyConfig};
use magellan_analysis::timeseries::to_csv;
use magellan_netsim::SimDuration;

struct Args {
    scale: f64,
    days: u64,
    seed: u64,
    sample_mins: u64,
    fig: String,
    csv_dir: Option<String>,
    svg_dir: Option<String>,
    isp: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    Args {
        scale: get("--scale").and_then(|v| v.parse().ok()).unwrap_or(0.01),
        days: get("--days").and_then(|v| v.parse().ok()).unwrap_or(14),
        seed: get("--seed").and_then(|v| v.parse().ok()).unwrap_or(2006),
        sample_mins: get("--sample-mins")
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
        fig: get("--fig").unwrap_or_else(|| "all".to_owned()),
        csv_dir: get("--csv-dir"),
        svg_dir: get("--svg-dir"),
        isp: get("--isp"),
    }
}

fn parse_isp(name: &str) -> Option<magellan_netsim::Isp> {
    use magellan_netsim::Isp;
    Isp::ALL.into_iter().find(|i| {
        i.name().eq_ignore_ascii_case(name) || format!("{i:?}").eq_ignore_ascii_case(name)
    })
}

fn main() {
    let args = parse_args();
    eprintln!(
        "running Magellan study: seed {}, scale {}, {} days, {}-minute samples",
        args.seed, args.scale, args.days, args.sample_mins
    );
    let mut cfg = StudyConfig {
        seed: args.seed,
        scale: args.scale,
        window_days: args.days,
        sample_every: SimDuration::from_mins(args.sample_mins),
        ..StudyConfig::default()
    };
    if let Some(name) = &args.isp {
        match parse_isp(name) {
            Some(isp) => cfg.isp_panel = isp,
            None => {
                eprintln!("unknown ISP '{name}' (try Netcom, Telecom, Unicom, Tietong, Edu)");
                std::process::exit(2);
            }
        }
    }
    let start = std::time::Instant::now();
    let report = MagellanStudy::new(cfg).run();
    eprintln!("study complete in {:.1}s\n", start.elapsed().as_secs_f64());

    let want = |k: &str| args.fig == "all" || args.fig == k;
    if want("1a") {
        print!("{}", report.fig1a.render_text());
    }
    if want("1b") {
        print!("{}", report.fig1b.render_text());
    }
    if want("2") {
        print!("{}", report.fig2.render_text());
    }
    if want("3") {
        print!("{}", report.fig3.render_text());
    }
    if want("4") {
        print!("{}", report.fig4.render_text());
    }
    if want("5") {
        print!("{}", report.fig5.render_text());
    }
    if want("6") {
        print!("{}", report.fig6.render_text());
    }
    if want("7") {
        print!("{}", report.fig7.render_text());
    }
    if want("8") {
        print!("{}", report.fig8.render_text());
    }

    if let Some(dir) = &args.svg_dir {
        use magellan_analysis::plot::{
            render_bars_svg, render_loglog_svg, render_series_svg, PlotOptions,
        };
        std::fs::create_dir_all(dir).expect("create svg dir");
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}.svg");
            magellan_trace::atomic_write(std::path::Path::new(&path), contents.as_bytes())
                .expect("write svg");
            eprintln!("wrote {path}");
        };
        let opts = |title: &str, y: &str| PlotOptions {
            title: title.to_owned(),
            y_label: y.to_owned(),
            ..PlotOptions::default()
        };
        write(
            "fig1a_population",
            render_series_svg(
                &[&report.fig1a.total, &report.fig1a.stable],
                &opts("Fig 1(A): concurrent peers", "peers"),
            ),
        );
        write(
            "fig1b_daily_ips",
            render_bars_svg(
                &report
                    .fig1b
                    .total
                    .iter()
                    .map(|&(d, n)| (format!("d{d}"), n as f64))
                    .collect::<Vec<_>>(),
                &opts("Fig 1(B): distinct IPs per day", "distinct IPs"),
            ),
        );
        write(
            "fig2_isp_shares",
            render_bars_svg(
                &report
                    .fig2
                    .shares
                    .iter()
                    .map(|&(isp, s)| (isp.name().to_owned(), s * 100.0))
                    .collect::<Vec<_>>(),
                &opts("Fig 2: ISP shares (%)", "%"),
            ),
        );
        write(
            "fig3_quality",
            render_series_svg(
                &[&report.fig3.cctv1, &report.fig3.cctv4],
                &opts("Fig 3: viewers at >=90% of stream rate", "fraction"),
            ),
        );
        write(
            "fig5_degree_evolution",
            render_series_svg(
                &[
                    &report.fig5.partners,
                    &report.fig5.indegree,
                    &report.fig5.outdegree,
                ],
                &opts("Fig 5: average degrees", "degree"),
            ),
        );
        write(
            "fig6_intra_isp",
            render_series_svg(
                &[&report.fig6.indegree, &report.fig6.outdegree],
                &opts("Fig 6: intra-ISP degree fractions", "fraction"),
            ),
        );
        write(
            "fig7a_smallworld",
            render_series_svg(
                &[
                    &report.fig7.global.c,
                    &report.fig7.global.c_rand,
                    &report.fig7.global.l,
                    &report.fig7.global.l_rand,
                ],
                &opts("Fig 7(A): small-world metrics, global", "C / L"),
            ),
        );
        write(
            "fig7b_smallworld_isp",
            render_series_svg(
                &[
                    &report.fig7.isp.c,
                    &report.fig7.isp.c_rand,
                    &report.fig7.isp.l,
                    &report.fig7.isp.l_rand,
                ],
                &opts("Fig 7(B): small-world metrics, ISP subgraph", "C / L"),
            ),
        );
        write(
            "fig8_reciprocity",
            render_series_svg(
                &[&report.fig8.all, &report.fig8.intra, &report.fig8.inter],
                &opts("Fig 8: edge reciprocity", "rho"),
            ),
        );
        for snap in &report.fig4.snapshots {
            let slug: String = snap
                .label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let partners = snap.partners.pmf();
            let indeg = snap.indegree.pmf();
            let outdeg = snap.outdegree.pmf();
            write(
                &format!("fig4_degrees_{slug}"),
                render_loglog_svg(
                    &[
                        ("partners", partners.as_slice()),
                        ("indegree", indeg.as_slice()),
                        ("outdegree", outdeg.as_slice()),
                    ],
                    &opts(&format!("Fig 4 [{}]", snap.label), "fraction of peers"),
                ),
            );
        }
    }

    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}.csv");
            magellan_trace::atomic_write(std::path::Path::new(&path), contents.as_bytes())
                .expect("write csv");
            eprintln!("wrote {path}");
        };
        write("fig1a_population", report.fig1a.to_csv());
        write("fig3_quality", report.fig3.to_csv());
        write("fig5_degree_evolution", report.fig5.to_csv());
        write("fig6_intra_isp", report.fig6.to_csv());
        write("fig7a_smallworld_global", report.fig7.global.to_csv());
        write("fig7b_smallworld_isp", report.fig7.isp.to_csv());
        write("fig8_reciprocity", report.fig8.to_csv());
        // Fig. 2 and Fig. 4 are not time series; emit simple tables.
        let mut f2 = String::from("isp,share\n");
        for (isp, share) in &report.fig2.shares {
            f2.push_str(&format!("{},{share}\n", isp.name()));
        }
        write("fig2_isp_shares", f2);
        for snap in &report.fig4.snapshots {
            let slug: String = snap
                .label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let mut body = String::from("degree,partners_frac,indegree_frac,outdegree_frac\n");
            let max_d = snap
                .partners
                .max_degree()
                .max(snap.indegree.max_degree())
                .max(snap.outdegree.max_degree())
                .unwrap_or(0);
            for d in 0..=max_d {
                body.push_str(&format!(
                    "{d},{},{},{}\n",
                    snap.partners.fraction_at(d),
                    snap.indegree.fraction_at(d),
                    snap.outdegree.fraction_at(d)
                ));
            }
            write(&format!("fig4_degrees_{slug}"), body);
        }
        // The raw aligned evolution bundle.
        write(
            "evolution_all",
            to_csv(&[
                &report.fig1a.total,
                &report.fig1a.stable,
                &report.fig5.partners,
                &report.fig5.indegree,
                &report.fig5.outdegree,
                &report.fig6.indegree,
                &report.fig6.outdegree,
                &report.fig8.all,
            ]),
        );
    }
}
