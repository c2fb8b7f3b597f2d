//! Same-seed determinism of the whole pipeline.
//!
//! The Magellan analyses are only reproducible if the simulator is a
//! pure function of its scenario seed: two independent runs with the
//! same seed must produce *byte-identical* trace archives, down to the
//! iteration order of every internal collection. This is the dynamic
//! counterpart of `magellan-lint`'s static D1/D2 rules — the lint pass
//! bans the sources of nondeterminism (hash iteration, wall clocks,
//! entropy), and this test catches anything the ban missed.

use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::prelude::*;
use magellan::workload::DiurnalProfile;

fn small_day(seed: u64, faults: FaultPlan) -> Scenario {
    let mut b = Scenario::builder(seed, 0.0004)
        .calendar(StudyCalendar { window_days: 1 })
        .diurnal(DiurnalProfile::flat());
    if !faults.is_empty() {
        b = b.faults(faults);
    }
    b.build()
}

fn archive_bytes_with(seed: u64, faults: FaultPlan) -> Vec<u8> {
    let mut sim = OverlaySim::new(small_day(seed, faults), SimConfig::default());
    let (store, summary) = sim.run_collecting().expect("run succeeds");
    assert!(summary.reports > 0, "a run with no reports proves nothing");
    let mut buf = Vec::new();
    for r in store.reports() {
        magellan::trace::wire::encode_into(r, &mut buf);
    }
    buf
}

fn archive_bytes(seed: u64) -> Vec<u8> {
    archive_bytes_with(seed, FaultPlan::default())
}

/// FNV-1a, so a mismatch shows up as a compact hash diff before the
/// (potentially megabytes-long) byte diff.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = archive_bytes(2006);
    let b = archive_bytes(2006);
    assert_eq!(
        fnv1a(&a),
        fnv1a(&b),
        "same-seed trace archives hash differently: the simulator leaked nondeterminism"
    );
    assert_eq!(a, b, "hash collision hid a byte-level divergence");
}

/// A small full study whose report exercises every parallel kernel:
/// clustering, sampled paths, small-world, reciprocity.
fn study_report_debug(seed: u64) -> String {
    let cfg = StudyConfig {
        seed,
        scale: 0.0008,
        window_days: 2,
        sample_every: SimDuration::from_hours(2),
        degree_captures: vec![("9pm d1".into(), SimTime::at(1, 21, 0))],
        min_graph_nodes: 10,
        ..StudyConfig::default()
    };
    format!("{:?}", MagellanStudy::new(cfg).run())
}

#[test]
fn thread_count_does_not_change_output_bytes() {
    // The parallel-equivalence guarantee of magellan-par: the worker
    // count trades wall clock only, never output. Same seed at 1 and
    // 8 workers must yield a byte-identical trace archive and an
    // identical StudyReport (the Debug rendering covers every series
    // point of every figure, so any f64 that drifted by one ulp under
    // a different reduction order would show here).
    magellan::par::set_threads(1);
    let archive_seq = archive_bytes(2006);
    let report_seq = study_report_debug(2006);
    magellan::par::set_threads(8);
    let archive_par = archive_bytes(2006);
    let report_par = study_report_debug(2006);
    magellan::par::set_threads(0);
    assert_eq!(
        fnv1a(&archive_seq),
        fnv1a(&archive_par),
        "trace archives diverge across thread counts"
    );
    assert_eq!(archive_seq, archive_par);
    assert_eq!(
        report_seq, report_par,
        "StudyReport diverges across thread counts"
    );
}

#[test]
fn fault_runs_are_byte_identical_across_repeats_and_thread_counts() {
    // The fault subsystem draws every probabilistic event (crash
    // membership, report loss) from its own RNG fork, so a faulted
    // run must be exactly as reproducible as a clean one — same seed,
    // same plan, same bytes, at any worker count.
    magellan::par::set_threads(1);
    let a = archive_bytes_with(2006, FaultPlan::combined_stress(0));
    magellan::par::set_threads(8);
    let b = archive_bytes_with(2006, FaultPlan::combined_stress(0));
    magellan::par::set_threads(0);
    assert_eq!(
        fnv1a(&a),
        fnv1a(&b),
        "same-seed fault-injected archives hash differently"
    );
    assert_eq!(a, b, "hash collision hid a byte-level divergence");
    // And the plan must actually change the run relative to clean.
    assert_ne!(
        fnv1a(&a),
        fnv1a(&archive_bytes(2006)),
        "the combined stress plan had no effect on the trace"
    );
}

#[test]
fn checkpoint_bytes_at_tick_150_are_pinned() {
    // The complete simulator state — every partner link of every peer,
    // the tracker's ordered lists, all five RNG streams — mid-run.
    // Recorded before the partner table became a flat id-sorted vector;
    // a change to the peer-state *layout* must not move these, only a
    // change to the protocol may.
    let fnv_at_150 = |faults: FaultPlan| {
        let mut sim = OverlaySim::new(small_day(2006, faults), SimConfig::default());
        let mut state = sim.begin();
        let mut sink = |_| {};
        while state.next_tick() < 150 {
            assert!(sim.tick_once(&mut state, &mut sink).expect("tick"));
        }
        fnv1a(&sim.capture(&state).encode())
    };
    let got = [
        fnv_at_150(FaultPlan::default()),
        fnv_at_150(FaultPlan::combined_stress(0)),
    ];
    assert_eq!(
        got,
        [0x4474_147c_bcf9_632e, 0xaf2a_3f3a_4aa3_a704],
        "checkpoint bytes moved: {got:#x?}"
    );
}

#[test]
fn different_seeds_diverge() {
    let a = archive_bytes(2006);
    let b = archive_bytes(2007);
    assert_ne!(
        fnv1a(&a),
        fnv1a(&b),
        "different seeds produced identical archives: the seed is not reaching the simulator"
    );
}

#[test]
fn incremental_engine_matches_full_recompute_bytes() {
    // The incremental snapshot engine of `magellan-graph` must be
    // interchangeable with a from-scratch rebuild at every snapshot it
    // is synced to — not just approximately, but in the exact bytes of
    // every metric it answers. (The library
    // asserts this internally in debug builds; this test keeps the
    // guarantee pinned in release runs too.) Drive one engine through
    // an evolving overlay-like snapshot sequence with link churn,
    // weight growth, and node turnover, and compare every metric's
    // bit pattern against a fresh engine built from the same snapshot.
    use magellan::graph::IncrementalTopology;

    let g = magellan::graph::random::watts_strogatz(150, 6, 0.2, 42);
    let mut edges: Vec<(u32, u32, u64)> = g
        .node_ids()
        .flat_map(|u| {
            let row = g.out(u).iter().zip(g.out_weights(u));
            row.map(move |(v, &w)| (u.index() as u32, v.index() as u32, w.max(1)))
        })
        .collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    let mut nodes: Vec<u32> = (0..150).collect();

    let mut live = IncrementalTopology::new();
    for round in 0u64..10 {
        // Persisting links accumulate weight; a slice of links churns
        // out; a new peer joins with two links.
        for e in edges.iter_mut() {
            e.2 += round;
        }
        let cut = edges.len() / 12;
        edges.drain(..cut);
        let fresh = 500 + round as u32;
        edges.push((fresh, (round as u32) % 100, 5));
        edges.push(((round as u32) % 100, fresh, 3));
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        nodes.push(fresh);
        nodes.sort_unstable();
        nodes.dedup();

        live.sync_snapshot(&nodes, &edges);
        let rebuilt = IncrementalTopology::from_snapshot(&nodes, &edges);
        assert!(
            live == rebuilt,
            "round {round}: incremental state diverged from rebuild"
        );
        assert_eq!(
            live.clustering_coefficient().to_bits(),
            rebuilt.clustering_coefficient().to_bits(),
            "round {round}: clustering bytes diverged"
        );
        assert_eq!(
            live.garlaschelli_reciprocity().map(f64::to_bits),
            rebuilt.garlaschelli_reciprocity().map(f64::to_bits),
            "round {round}: reciprocity bytes diverged"
        );
        assert_eq!(
            live.weighted_reciprocity().map(f64::to_bits),
            rebuilt.weighted_reciprocity().map(f64::to_bits),
            "round {round}: weighted reciprocity bytes diverged"
        );
    }
}

/// FNV-1a over `(time_ms, f64::to_bits)` of every evolution series
/// the study samples at a boundary (Figs. 1a/3/5/6/7/8) plus the
/// partial-sample list, paired with the partial-sample count.
fn study_series_digest(cfg: StudyConfig) -> (u64, usize) {
    let r = MagellanStudy::new(cfg).run();
    let mut bytes = Vec::new();
    for s in [
        &r.fig1a.total,
        &r.fig1a.stable,
        &r.fig3.cctv1,
        &r.fig3.cctv4,
        &r.fig3.cctv1_viewers,
        &r.fig3.cctv4_viewers,
        &r.fig5.partners,
        &r.fig5.indegree,
        &r.fig5.outdegree,
        &r.fig6.indegree,
        &r.fig6.outdegree,
        &r.fig6.pool,
        &r.fig7.global.c,
        &r.fig7.global.c_rand,
        &r.fig7.global.l,
        &r.fig7.global.l_rand,
        &r.fig7.isp.c,
        &r.fig7.isp.c_rand,
        &r.fig7.isp.l,
        &r.fig7.isp.l_rand,
        &r.fig8.all,
        &r.fig8.intra,
        &r.fig8.inter,
        &r.fig8.weighted,
    ] {
        assert!(!s.is_empty(), "series {:?} is empty: pins nothing", s.name);
        for &(t, v) in &s.points {
            bytes.extend_from_slice(&t.as_millis().to_le_bytes());
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for p in &r.partial_samples {
        bytes.extend_from_slice(&p.time.as_millis().to_le_bytes());
        bytes.extend_from_slice(&p.coverage.to_bits().to_le_bytes());
    }
    (fnv1a(&bytes), r.partial_samples.len())
}

#[test]
fn study_series_bits_are_pinned() {
    // The sampling path (`Accumulator::finalize_boundary`) may be
    // restructured for speed, but never at the cost of a single bit of
    // any figure series. These constants were recorded before the
    // snapshot-proportional rewrite of the sampler and must survive any
    // later one; a legitimate change to the *simulator* (which moves
    // every series) re-records them, a change to the analysis must not.
    let day_at_ten_minutes = |seed: u64| StudyConfig {
        seed,
        scale: 0.005,
        window_days: 1,
        sample_every: SimDuration::from_mins(10),
        degree_captures: vec![],
        ..StudyConfig::default()
    };
    // The stress plan's outages sit on day 1, so that run covers two
    // days (at a smaller scale) and must record partial samples.
    let stressed = StudyConfig {
        scale: 0.002,
        window_days: 2,
        faults: FaultPlan::combined_stress(1),
        ..day_at_ten_minutes(2006)
    };
    for threads in [1, 8] {
        magellan::par::set_threads(threads);
        let got = [
            study_series_digest(day_at_ten_minutes(2006)),
            study_series_digest(day_at_ten_minutes(42)),
            study_series_digest(stressed.clone()),
        ];
        magellan::par::set_threads(0);
        assert_eq!(
            got,
            [
                (0xc1ab_b398_3bf3_31ff, 0),
                (0xd646_6dce_b235_3a30, 0),
                (0x817a_dba8_c89c_c722, 8),
            ],
            "study series moved at {threads} worker(s): {got:#x?}"
        );
    }
}

#[test]
fn boundary_fan_out_matches_one_lane_and_archive_replay() {
    // Finalized boundaries are measured side by side, one per pool
    // lane, and applied in boundary order. At a 10-minute cadence
    // under the stress plan a batch mixes full samples, partial samples
    // (day-1 server outage, 12:00–13:00) and a capture-only boundary;
    // one capture sits on the sample grid inside the outage, one off
    // it. The report must not depend on the lane count, and replaying
    // the archive must reproduce the live study.
    use magellan::analysis::{DurableConfig, DurableStudy};
    let cfg = StudyConfig {
        seed: 2006,
        scale: 0.002,
        window_days: 2,
        sample_every: SimDuration::from_mins(10),
        degree_captures: vec![
            ("on-grid 12:30 d1".into(), SimTime::at(1, 12, 30)),
            ("off-grid 13:05 d1".into(), SimTime::at(1, 13, 5)),
        ],
        faults: FaultPlan::combined_stress(1),
        ..StudyConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("magellan-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let study = DurableStudy::new(&dir, cfg, DurableConfig::default());

    magellan::par::set_threads(8);
    let live = study.run().expect("live run");
    let mut replays = Vec::new();
    for threads in [1, 2, 8] {
        magellan::par::set_threads(threads);
        replays.push(study.analyze_archive().expect("replay"));
    }
    magellan::par::set_threads(0);
    std::fs::remove_dir_all(&dir).expect("clean up");

    assert!(!live.partial_samples.is_empty(), "no partial sample");
    assert_eq!(live.fig4.snapshots.len(), 2, "both captures recorded");
    assert!(
        live.fig4.snapshots.iter().all(|s| s.coverage < 1.0),
        "both captures sit inside the outage horizon"
    );
    let one_lane = format!("{:?}", replays[0]);
    for (threads, r) in [2, 8].into_iter().zip(&replays[1..]) {
        assert_eq!(
            one_lane,
            format!("{r:?}"),
            "replay at {threads} worker(s) diverged from one lane"
        );
    }
    // Replay carries recovery accounting and no simulator or
    // collection summary; everything else must match the live run.
    let mut replay = replays.swap_remove(0);
    assert!(replay.recovery.take().is_some_and(|r| r.is_clean()));
    replay.sim = live.sim;
    replay.collection = live.collection;
    assert_eq!(
        format!("{live:?}"),
        format!("{replay:?}"),
        "archive replay diverged from the live study"
    );
}

/// FNV-1a over everything [`study_series_digest`] leaves out: Fig. 1B's
/// daily counts, Fig. 2's share bits, every Fig. 4 capture (label,
/// time, coverage, the three histograms and the partner power-law
/// fit) and the session summary. Paired with the capture count.
fn study_tail_digest(cfg: StudyConfig) -> (u64, usize) {
    let r = MagellanStudy::new(cfg).run();
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    assert!(!r.fig1b.total.is_empty(), "Fig. 1B is empty: pins nothing");
    for &(day, n) in r.fig1b.total.iter().chain(&r.fig1b.stable) {
        put(day);
        put(n);
    }
    assert!(!r.fig2.shares.is_empty(), "Fig. 2 is empty: pins nothing");
    for &(isp, share) in &r.fig2.shares {
        put(isp.index() as u64);
        put(share.to_bits());
    }
    for s in &r.fig4.snapshots {
        put(s.label.len() as u64);
        for b in s.label.bytes() {
            put(u64::from(b));
        }
        put(s.time.as_millis());
        put(s.coverage.to_bits());
        for h in [&s.partners, &s.indegree, &s.outdegree] {
            put(h.total());
            let max = h.max_degree().unwrap_or(0);
            put(max as u64);
            for d in 0..=max {
                put(h.count_at(d));
            }
        }
        match s.partner_powerlaw {
            None => put(0),
            Some(v) => {
                put(1);
                put(v.fit.alpha.to_bits());
                put(v.fit.xmin as u64);
                put(v.fit.ks.to_bits());
                put(v.fit.n_tail as u64);
                put(v.threshold.to_bits());
                put(u64::from(v.plausible));
            }
        }
    }
    let s = r.sessions.expect("a day of reports closes sessions");
    put(s.sessions as u64);
    put(s.mean_mins.to_bits());
    put(s.median_mins.to_bits());
    put(s.p90_mins.to_bits());
    (fnv1a(&bytes), r.fig4.snapshots.len())
}

#[test]
fn study_tail_bits_are_pinned() {
    // The companion of `study_series_bits_are_pinned` for the figures
    // that are not evolution series. Fig. 2 folds each boundary's ISP
    // counts and Fig. 4 histograms each capture's stable set, so a
    // restructured boundary measurement must leave these bits alone
    // too. Captures sit on and off the sample grid, and in the
    // stressed run inside the day-1 server outage.
    let day = StudyConfig {
        seed: 2006,
        scale: 0.005,
        window_days: 1,
        sample_every: SimDuration::from_mins(10),
        degree_captures: vec![
            ("on-grid 9am d0".into(), SimTime::at(0, 9, 0)),
            ("off-grid 9:05pm d0".into(), SimTime::at(0, 21, 5)),
        ],
        ..StudyConfig::default()
    };
    let stressed = StudyConfig {
        scale: 0.002,
        window_days: 2,
        degree_captures: vec![
            ("on-grid 12:30 d1".into(), SimTime::at(1, 12, 30)),
            ("off-grid 13:05 d1".into(), SimTime::at(1, 13, 5)),
        ],
        faults: FaultPlan::combined_stress(1),
        ..day.clone()
    };
    for threads in [1, 8] {
        magellan::par::set_threads(threads);
        let got = [
            study_tail_digest(day.clone()),
            study_tail_digest(stressed.clone()),
        ];
        magellan::par::set_threads(0);
        assert_eq!(
            got,
            [(0x767b_f207_a1ac_11d8, 2), (0x8f7a_31e6_ed22_4e41, 2)],
            "Fig. 1B/2/4 or session bits moved at {threads} worker(s): {got:#x?}"
        );
    }
}
