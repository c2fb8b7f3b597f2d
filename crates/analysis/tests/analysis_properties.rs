//! Property tests for the analysis layer: graph construction from
//! arbitrary report sets and series invariants.

use magellan_analysis::classify::degree_triple;
use magellan_analysis::graphs::{
    active_link_graph, inter_isp_link_graph, intra_isp_link_graph, NodeScope,
};
use magellan_analysis::timeseries::{to_csv, Series};
use magellan_graph::Csr;
use magellan_netsim::{IspDatabase, PeerAddr, SimDuration, SimTime};
use magellan_trace::{BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use proptest::prelude::*;

fn arb_report() -> impl Strategy<Value = PeerReport> {
    (
        0u32..40,
        proptest::collection::vec((0u32..40, 0u64..60, 0u64..60), 0..20),
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
    fn isp_split_partitions_edges(reports in proptest::collection::vec(arb_report(), 0..25)) {
        let db = IspDatabase::default();
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        let intra = intra_isp_link_graph(&g, &db);
        let inter = inter_isp_link_graph(&g, &db);
        prop_assert_eq!(intra.edge_count() + inter.edge_count(), g.edge_count());
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
