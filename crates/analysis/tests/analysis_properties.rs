//! Property tests for the analysis layer: graph construction from
//! arbitrary report sets and series invariants.

use magellan_analysis::classify::{classify, degree_triple, PartnerClass};
use magellan_analysis::graphs::{active_link_graph, NodeScope, SnapshotTable};
use magellan_analysis::timeseries::{to_csv, Series};
use magellan_graph::reciprocity::label_split_link_counts_csr;
use magellan_graph::{Csr, DiGraph, NodeId};
use magellan_netsim::{Isp, IspDatabase, PeerAddr, SimDuration, SimTime};
use magellan_trace::{BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A per-interval segment counter: around the activity threshold
/// half of the time, anywhere in `u32` the other half.
fn arb_counter() -> impl Strategy<Value = u32> {
    (any::<bool>(), 0u32..60, any::<u32>())
        .prop_map(|(near, small, wide)| if near { small } else { wide })
}

fn arb_report() -> impl Strategy<Value = PeerReport> {
    (
        0u32..40,
        proptest::collection::vec((0u32..40, arb_counter(), arb_counter()), 0..20),
        0u64..1_000_000,
    )
        .prop_map(|(addr, partners, time)| PeerReport {
            time: SimTime::from_millis(time),
            addr: PeerAddr::from_u32(addr),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 300.0,
            send_throughput_kbps: 100.0,
            partners: partners
                .into_iter()
                .filter(|&(p, _, _)| p != addr)
                .map(|(p, sent, recv)| PartnerRecord {
                    addr: PeerAddr::from_u32(p),
                    tcp_port: 0,
                    udp_port: 0,
                    segments_sent: sent,
                    segments_received: recv,
                })
                .collect(),
        })
}

fn record(addr: PeerAddr, sent: u32, received: u32) -> PartnerRecord {
    PartnerRecord {
        addr,
        tcp_port: 0,
        udp_port: 0,
        segments_sent: sent,
        segments_received: received,
    }
}

/// A stable set as the study freezes it — one report per reporter, in
/// address order — with addresses spread over every ISP and the cases
/// the one-pass table must number and count right present in every
/// set: a peer listing itself, a partner listed twice, a partner
/// non-active in one report and active in a later one, and reporters
/// that appear as partners.
fn arb_stable_set() -> impl Strategy<Value = Vec<PeerReport>> {
    proptest::collection::vec(arb_report(), 1..25).prop_map(|raw| {
        let db = IspDatabase::default();
        let bases: Vec<u32> = Isp::ALL.iter().map(|&i| db.ranges_of(i)[0].0).collect();
        let spread = |a: PeerAddr| {
            let k = a.as_u32();
            PeerAddr::from_u32(bases[k as usize % bases.len()] + k / 7)
        };
        let mut by_addr = BTreeMap::new();
        for mut r in raw {
            r.addr = spread(r.addr);
            for p in &mut r.partners {
                p.addr = spread(p.addr);
            }
            by_addr.insert(r.addr, r);
        }
        let mut set: Vec<PeerReport> = by_addr.into_values().collect();
        let last = set.len() - 1;
        let first_addr = set[0].addr;
        let late = PeerAddr::from_u32(bases[1] + 1000);
        set[0].partners.push(record(first_addr, 50, 50));
        if let Some(p) = set[0].partners.first().cloned() {
            set[0].partners.push(p);
        }
        set[0].partners.push(record(late, 1, 1));
        set[last].partners.push(record(late, 0, 50));
        set[last].partners.push(record(late, 0, 30));
        set[last].partners.push(record(first_addr, 50, 0));
        set
    })
}

/// What the study measured before the one-pass table, kept here as
/// the reference: sort-and-dedup population, a `BTreeMap`-keyed edge
/// set flattened through a keyed graph, and the per-report Fig. 5/6
/// loops.
#[derive(Debug)]
struct Reference {
    csr: Csr,
    nodes: Vec<PeerAddr>,
    node_isps: Vec<Isp>,
    known: usize,
    isp_counts: [u64; 7],
    sums: (usize, usize, usize),
    fig6_bits: [u64; 3],
}

fn reference(reports: &[PeerReport], db: &IspDatabase) -> Reference {
    let mut known: Vec<PeerAddr> = reports
        .iter()
        .flat_map(|r| std::iter::once(r.addr).chain(r.partners.iter().map(|p| p.addr)))
        .collect();
    known.sort_unstable();
    known.dedup();
    let mut isp_counts = [0u64; 7];
    for a in &known {
        isp_counts[db.lookup(*a).index()] += 1;
    }

    let mut nodes: Vec<PeerAddr> = reports.iter().map(|r| r.addr).collect();
    let mut ids: BTreeMap<PeerAddr, usize> =
        nodes.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut add = |from: usize, to: usize, w: u64| {
        let sum = edges.entry((from, to)).or_insert(0);
        *sum = sum.saturating_add(w);
    };
    for (me, r) in reports.iter().enumerate() {
        for rec in &r.partners {
            let class = classify(rec);
            if rec.addr == r.addr || class == PartnerClass::NonActive {
                continue;
            }
            let partner = *ids.entry(rec.addr).or_insert_with(|| {
                nodes.push(rec.addr);
                nodes.len() - 1
            });
            if matches!(
                class,
                PartnerClass::ActiveSupplier | PartnerClass::ActiveBoth
            ) {
                add(partner, me, u64::from(rec.segments_received));
            }
            if matches!(
                class,
                PartnerClass::ActiveReceiver | PartnerClass::ActiveBoth
            ) {
                add(me, partner, u64::from(rec.segments_sent));
            }
        }
    }
    let mut g: DiGraph<PeerAddr> = DiGraph::new();
    for &a in &nodes {
        g.intern(a);
    }
    for (&(from, to), &w) in &edges {
        g.add_edge(NodeId::from_index(from), NodeId::from_index(to), w);
    }

    let mut sums = (0, 0, 0);
    for r in reports {
        let (p, i, o) = degree_triple(r);
        sums = (sums.0 + p, sums.1 + i, sums.2 + o);
    }
    // The Fig. 6 loops as they stood before the table.
    let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0, 0usize, 0.0, 0usize);
    for r in reports {
        let my_isp = db.lookup(r.addr);
        let (mut in_total, mut in_same, mut out_total, mut out_same) = (0u32, 0u32, 0u32, 0u32);
        for rec in &r.partners {
            let same = db.lookup(rec.addr) == my_isp;
            match classify(rec) {
                PartnerClass::ActiveSupplier => {
                    in_total += 1;
                    in_same += same as u32;
                }
                PartnerClass::ActiveReceiver => {
                    out_total += 1;
                    out_same += same as u32;
                }
                PartnerClass::ActiveBoth => {
                    in_total += 1;
                    in_same += same as u32;
                    out_total += 1;
                    out_same += same as u32;
                }
                PartnerClass::NonActive => {}
            }
        }
        if in_total > 0 {
            in_sum += in_same as f64 / in_total as f64;
            in_n += 1;
        }
        if out_total > 0 {
            out_sum += out_same as f64 / out_total as f64;
            out_n += 1;
        }
    }
    let (mut pool_sum, mut pool_n) = (0.0, 0usize);
    for r in reports {
        if r.partners.is_empty() {
            continue;
        }
        let my_isp = db.lookup(r.addr);
        let same = r
            .partners
            .iter()
            .filter(|p| db.lookup(p.addr) == my_isp)
            .count();
        pool_sum += same as f64 / r.partners.len() as f64;
        pool_n += 1;
    }
    let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
    Reference {
        csr: Csr::from_digraph(&g),
        node_isps: nodes.iter().map(|&a| db.lookup(a)).collect(),
        nodes,
        known: known.len(),
        isp_counts,
        sums,
        fig6_bits: [
            mean(in_sum, in_n).to_bits(),
            mean(out_sum, out_n).to_bits(),
            mean(pool_sum, pool_n).to_bits(),
        ],
    }
}

/// The contract the study's single topology build rests on: the
/// stable-peer graph is the all-known graph's reporter prefix — same
/// node ids and keys, same edges, same weights. `Err` names the first
/// difference.
fn stable_graph_is_the_reporter_prefix(reports: &[PeerReport]) -> Result<(), String> {
    let stable = active_link_graph(reports, NodeScope::StableOnly);
    let all = active_link_graph(reports, NodeScope::AllKnown);
    let reporters = stable.node_count();
    for (id, key) in stable.nodes() {
        if all.node_id(key) != Some(id) {
            return Err(format!(
                "reporter {key:?} is not node {id} of the all-known graph"
            ));
        }
    }
    let prefix = Csr::from_digraph(&all).induced(|id| id.index() < reporters);
    if prefix != Csr::from_digraph(&stable) {
        return Err(format!(
            "prefix of {reporters} reporters differs from the stable-only build"
        ));
    }
    Ok(())
}

#[test]
fn stable_prefix_holds_on_a_simulated_window_with_duplicate_and_late_reports() {
    // A 25-minute window of a real run holds up to three reports per
    // stable peer (one every 10 minutes), in emission order: the
    // builder must pick the freshest of each and still put reporters
    // first.
    let scenario = magellan_workload::Scenario::builder(2006, 0.001)
        .calendar(magellan_netsim::StudyCalendar { window_days: 1 })
        .build();
    let mut sim = magellan_overlay::OverlaySim::new(scenario, Default::default());
    let (store, _) = sim.run_collecting().expect("run succeeds");
    let at = SimTime::at(0, 21, 0);
    let window: Vec<PeerReport> = store
        .reports()
        .iter()
        .filter(|r| r.time <= at && r.time > at - SimDuration::from_mins(25))
        .cloned()
        .collect();
    let reporters = active_link_graph(&window, NodeScope::StableOnly).node_count();
    assert!(reporters >= 20, "window too thin: {reporters} reporters");
    assert!(
        window.len() > reporters + reporters / 2,
        "{} reports from {reporters} reporters: no duplicates to dedup",
        window.len()
    );
    stable_graph_is_the_reporter_prefix(&window).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stable_graph_is_reporter_prefix_of_all_known(reports in proptest::collection::vec(arb_report(), 0..25)) {
        prop_assert_eq!(stable_graph_is_the_reporter_prefix(&reports), Ok(()));
    }

    #[test]
    fn one_pass_table_matches_the_separate_passes(reports in arb_stable_set()) {
        let db = IspDatabase::default();
        let t = SnapshotTable::build(&reports, &db);
        let want = reference(&reports, &db);
        prop_assert_eq!(&t.nodes, &want.nodes);
        prop_assert_eq!(Csr::from_edges(t.nodes.len(), &t.edges), want.csr);
        prop_assert_eq!(&t.node_isps, &want.node_isps);
        prop_assert_eq!(t.reporters, reports.len());
        prop_assert_eq!(t.known, want.known);
        prop_assert_eq!(t.isp_counts, want.isp_counts);
        prop_assert_eq!(t.degrees.sums, want.sums);
        let d = t.degrees;
        prop_assert_eq!(
            [d.intra_in.to_bits(), d.intra_out.to_bits(), d.pool.to_bits()],
            want.fig6_bits
        );
    }

    #[test]
    fn isp_split_partitions_edges(reports in arb_stable_set()) {
        let db = IspDatabase::default();
        let t = SnapshotTable::build(&reports, &db);
        let g = Csr::from_edges(t.nodes.len(), &t.edges);
        let (intra, inter) = label_split_link_counts_csr(&g, &t.node_isps);
        prop_assert_eq!(intra.edges + inter.edges, g.edge_count());
        prop_assert!(intra.nodes <= g.node_count() && inter.nodes <= g.node_count());
    }

    #[test]
    fn graph_construction_is_input_order_invariant(mut reports in proptest::collection::vec(arb_report(), 0..20)) {
        let forward = active_link_graph(&reports, NodeScope::AllKnown);
        reports.reverse();
        let backward = active_link_graph(&reports, NodeScope::AllKnown);
        prop_assert_eq!(forward.node_count(), backward.node_count());
        prop_assert_eq!(forward.edge_count(), backward.edge_count());
        for e in forward.edges() {
            let f = backward.node_id(forward.key(e.from)).expect("node");
            let t = backward.node_id(forward.key(e.to)).expect("node");
            prop_assert!(backward.has_edge(f, t));
        }
    }

    #[test]
    fn degree_triple_is_bounded_by_partner_count(report in arb_report()) {
        let (p, i, o) = degree_triple(&report);
        prop_assert_eq!(p, report.partners.len());
        prop_assert!(i <= p);
        prop_assert!(o <= p);
    }

    #[test]
    fn edge_count_bounded_by_active_records(reports in proptest::collection::vec(arb_report(), 0..25)) {
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        // Each partner record contributes at most 2 directed edges.
        let record_bound: usize = reports.iter().map(|r| r.partners.len() * 2).sum();
        prop_assert!(g.edge_count() <= record_bound);
    }

    #[test]
    fn series_csv_has_one_row_per_distinct_time(points in proptest::collection::vec(0u64..1_000, 0..50)) {
        let mut sorted = points.clone();
        sorted.sort();
        let mut s = Series::new("x");
        for (i, &t) in sorted.iter().enumerate() {
            s.push(SimTime::from_millis(t), i as f64);
        }
        let csv = to_csv(&[&s]);
        let mut distinct = sorted.clone();
        distinct.dedup();
        prop_assert_eq!(csv.lines().count(), 1 + distinct.len());
    }

    #[test]
    fn series_stats_agree(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = Series::new("v");
        for (i, &v) in values.iter().enumerate() {
            s.push(SimTime::from_millis(i as u64), v);
        }
        let max = s.max_point().unwrap().1;
        let min = s.min_point().unwrap().1;
        prop_assert!(min <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= max + 1e-9);
        prop_assert_eq!(s.len(), values.len());
    }
}
