//! Topology construction from trace reports.
//!
//! The study derives two directed graphs from each snapshot:
//!
//! * the **stable-peer graph** — stable peers and the active links
//!   among them (§4.3's clustering and path-length subject);
//! * the **active-link topology** — "all the directed active links
//!   among peers that appeared in the trace at the time" (§4.4's
//!   reciprocity subject), whose node set also includes non-reporting
//!   partners.
//!
//! Edges point in the direction of data flow: an active *supplying*
//! partner contributes an edge toward the reporter, an active
//! *receiving* partner an edge away from it.

use crate::classify::{classify, PartnerClass};
use magellan_graph::{subgraph, DiGraph};
use magellan_netsim::{Isp, IspDatabase, PeerAddr};
use magellan_trace::PeerReport;

/// Which peers become graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeScope {
    /// Only stable (reporting) peers; edges require both endpoints
    /// stable. Fig. 7's stable-peer graph.
    StableOnly,
    /// Every address in the trace at this instant — reporters and
    /// their partners. Fig. 8's reciprocity topology.
    AllKnown,
}

/// Builds the directed active-link graph from a snapshot's reports.
///
/// Reports are sorted by reporter address internally, so the result
/// is deterministic regardless of input order. Edge weights
/// accumulate reported segment counts (a link reported from both ends
/// sums both observations; metrics in this crate use structure, not
/// weight).
///
/// Reporters are interned first, in address order, in either scope. So
/// the first `r` nodes of the [`NodeScope::AllKnown`] graph (`r`
/// distinct reporters) are the nodes of the [`NodeScope::StableOnly`]
/// graph under the same ids, and the subgraph they induce *is* that
/// graph, weights included: one `AllKnown` build serves both (the
/// study takes the prefix with [`magellan_graph::Csr::induced`]).
pub fn active_link_graph<'a, I>(reports: I, scope: NodeScope) -> DiGraph<PeerAddr>
where
    I: IntoIterator<Item = &'a PeerReport>,
{
    // One report per reporter: keep the freshest, with a content-based
    // tie-break so the choice never depends on input order (snapshots
    // provide one report per peer; raw streams may not).
    let mut sorted: Vec<&PeerReport> = reports.into_iter().collect(); // lint:allow(H2): materializes the report window once per figure sample, bounded by the stable set
    sorted.sort_by_key(|r| (r.addr, r.time, r.partners.len()));
    let mut deduped: Vec<&PeerReport> = Vec::with_capacity(sorted.len());
    for r in sorted {
        match deduped.last() {
            Some(last) if last.addr == r.addr => {
                *deduped.last_mut().expect("non-empty") = r;
            }
            _ => deduped.push(r),
        }
    }
    let sorted = deduped;
    let mut g: DiGraph<PeerAddr> = DiGraph::new();
    // Intern stable peers first so even isolated reporters are nodes;
    // reporter `i` of the sorted list is node `i`.
    for r in &sorted {
        g.intern(r.addr);
    }
    for (me, r) in g.node_ids().zip(&sorted) {
        for rec in &r.partners {
            if rec.addr == r.addr {
                continue;
            }
            let (supplies, receives) = match classify(rec) {
                PartnerClass::ActiveSupplier => (true, false),
                PartnerClass::ActiveReceiver => (false, true),
                PartnerClass::ActiveBoth => (true, true),
                PartnerClass::NonActive => continue,
            };
            // In the stable scope only reporters ever become nodes, so
            // "is a node" is "is stable".
            let partner = match scope {
                NodeScope::AllKnown => g.intern(rec.addr),
                NodeScope::StableOnly => match g.node_id(&rec.addr) {
                    Some(id) => id,
                    None => continue,
                },
            };
            if supplies {
                g.add_edge(partner, me, rec.segments_received);
            }
            if receives {
                g.add_edge(me, partner, rec.segments_sent);
            }
        }
    }
    g
}

/// ISO of every node, indexed by [`NodeId::index`].
pub fn node_isps(g: &DiGraph<PeerAddr>, db: &IspDatabase) -> Vec<Isp> {
    g.node_ids().map(|id| db.lookup(*g.key(id))).collect() // lint:allow(H2): one label vector per boundary, shared by the Fig. 7B and Fig. 8B panels
}

/// The subgraph induced by the peers of one ISP (Fig. 7B).
pub fn isp_subgraph(g: &DiGraph<PeerAddr>, db: &IspDatabase, isp: Isp) -> DiGraph<PeerAddr> {
    subgraph::induced_by_nodes(g, |_, addr| db.lookup(*addr) == isp)
}

/// The sub-topology of intra-ISP links and their incident peers
/// (Fig. 8B, "links among peers in the same ISPs").
pub fn intra_isp_link_graph(g: &DiGraph<PeerAddr>, db: &IspDatabase) -> DiGraph<PeerAddr> {
    subgraph::filtered_by_edges(g, |g, e| {
        db.lookup(*g.key(e.from)) == db.lookup(*g.key(e.to))
    })
}

/// The sub-topology of inter-ISP links and their incident peers
/// (Fig. 8B, "links across different ISPs").
pub fn inter_isp_link_graph(g: &DiGraph<PeerAddr>, db: &IspDatabase) -> DiGraph<PeerAddr> {
    subgraph::filtered_by_edges(g, |g, e| {
        db.lookup(*g.key(e.from)) != db.lookup(*g.key(e.to))
    })
}

/// Average fractions of each stable peer's active degree that stays
/// inside its own ISP: `(indegree fraction, outdegree fraction)` —
/// the two curves of Fig. 6. Peers with zero active degree in a
/// direction are excluded from that average, matching the per-peer
/// proportion the paper defines.
pub fn intra_isp_degree_fractions<'a, I>(reports: I, db: &IspDatabase) -> (f64, f64)
where
    I: IntoIterator<Item = &'a PeerReport>,
{
    let mut in_sum = 0.0;
    let mut in_n = 0usize;
    let mut out_sum = 0.0;
    let mut out_n = 0usize;
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
    (
        if in_n > 0 { in_sum / in_n as f64 } else { 0.0 },
        if out_n > 0 {
            out_sum / out_n as f64
        } else {
            0.0
        },
    )
}

/// Average fraction of each stable peer's *whole partner list*
/// (active or not) inside its own ISP. Not a curve of the paper's
/// Fig. 6 — which uses active degrees — but the quantity a
/// locality-aware tracker directly controls, so the extension
/// analyses track it alongside.
pub fn intra_isp_pool_fraction<'a, I>(reports: I, db: &IspDatabase) -> f64
where
    I: IntoIterator<Item = &'a PeerReport>,
{
    let mut sum = 0.0;
    let mut n = 0usize;
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
        sum += same as f64 / r.partners.len() as f64;
        n += 1;
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// Small-world panels for every China ISP with at least `min_nodes`
/// stable peers in the snapshot — the paper's remark that "similar
/// properties were observed for sub topologies for other ISPs as
/// well" (§4.3), made checkable.
pub fn per_isp_smallworld(
    g: &DiGraph<PeerAddr>,
    db: &IspDatabase,
    min_nodes: usize,
) -> Vec<(Isp, magellan_graph::smallworld::SmallWorldReport)> {
    use magellan_graph::smallworld::{assess, SmallWorldConfig};
    let mut out = Vec::new();
    for isp in Isp::ALL {
        if !isp.is_china() {
            continue;
        }
        let sub = isp_subgraph(g, db, isp);
        if sub.node_count() < min_nodes {
            continue;
        }
        out.push((isp, assess(&sub, &SmallWorldConfig::default())));
    }
    out
}

/// The random-mixing baseline for Fig. 6: if partners were chosen
/// with no quality gradient, the expected intra-ISP fraction is the
/// sum of squared ISP shares.
pub fn isp_share_baseline(db: &IspDatabase) -> f64 {
    db.shares().normalized().iter().map(|s| s * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::{IspShares, SimTime};
    use magellan_trace::{BufferMap, PartnerRecord};
    use magellan_workload::ChannelId;

    fn report(addr: PeerAddr, partners: Vec<(PeerAddr, u64, u64)>) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN,
            addr,
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 380.0,
            send_throughput_kbps: 100.0,
            partners: partners
                .into_iter()
                .map(|(a, sent, recv)| PartnerRecord {
                    addr: a,
                    tcp_port: 0,
                    udp_port: 0,
                    segments_sent: sent,
                    segments_received: recv,
                })
                .collect(),
        }
    }

    fn addr(x: u32) -> PeerAddr {
        PeerAddr::from_u32(x)
    }

    #[test]
    fn edge_directions_follow_data_flow() {
        // Reporter 1: partner 2 supplies it (recv=50); partner 3
        // receives from it (sent=50).
        let reports = vec![report(addr(1), vec![(addr(2), 0, 50), (addr(3), 50, 0)])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        let n1 = g.node_id(&addr(1)).unwrap();
        let n2 = g.node_id(&addr(2)).unwrap();
        let n3 = g.node_id(&addr(3)).unwrap();
        assert!(g.has_edge(n2, n1));
        assert!(g.has_edge(n1, n3));
        assert!(!g.has_edge(n1, n2));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn stable_scope_drops_non_reporters() {
        let reports = vec![
            report(addr(1), vec![(addr(2), 0, 50), (addr(99), 0, 50)]),
            report(addr(2), vec![(addr(1), 50, 0)]),
        ];
        let g = active_link_graph(&reports, NodeScope::StableOnly);
        assert!(g.node_id(&addr(99)).is_none());
        assert_eq!(g.node_count(), 2);
        // The 2→1 link is reported by both ends; structure dedupes.
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn all_known_scope_keeps_partner_ips() {
        let reports = vec![report(addr(1), vec![(addr(99), 0, 50)])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        assert!(g.node_id(&addr(99)).is_some());
    }

    #[test]
    fn non_active_partners_make_no_edges() {
        let reports = vec![report(addr(1), vec![(addr(2), 1, 1)])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        assert_eq!(g.edge_count(), 0);
        // Reporter is still a node; the lazy partner only matters for
        // population counts, not topology.
        assert!(g.node_id(&addr(1)).is_some());
    }

    #[test]
    fn both_direction_partner_creates_reciprocal_pair() {
        let reports = vec![report(addr(1), vec![(addr(2), 50, 50)])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        let n1 = g.node_id(&addr(1)).unwrap();
        let n2 = g.node_id(&addr(2)).unwrap();
        assert!(g.has_edge(n1, n2) && g.has_edge(n2, n1));
    }

    #[test]
    fn duplicate_reports_from_same_peer_are_deduped() {
        let reports = vec![
            report(addr(1), vec![(addr(2), 0, 50)]),
            report(addr(1), vec![(addr(2), 0, 50)]),
        ];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn isp_machinery_partitions_edges() {
        let db = IspDatabase::synthetic(IspShares::default());
        // Two addresses in the same ISP range + one in a different one.
        let telecom = db.ranges_of(Isp::Telecom);
        let netcom = db.ranges_of(Isp::Netcom);
        let a = addr(telecom[0].0);
        let b = addr(telecom[0].0 + 1);
        let c = addr(netcom[0].0);
        let reports = vec![report(a, vec![(b, 50, 50), (c, 50, 50)])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        let intra = intra_isp_link_graph(&g, &db);
        let inter = inter_isp_link_graph(&g, &db);
        assert_eq!(intra.edge_count(), 2); // a<->b
        assert_eq!(inter.edge_count(), 2); // a<->c
        assert_eq!(intra.edge_count() + inter.edge_count(), g.edge_count());
        let telecom_sub = isp_subgraph(&g, &db, Isp::Telecom);
        assert_eq!(telecom_sub.node_count(), 2);
        assert_eq!(telecom_sub.edge_count(), 2);
    }

    #[test]
    fn intra_fraction_on_synthetic_reports() {
        let db = IspDatabase::synthetic(IspShares::default());
        let telecom = db.ranges_of(Isp::Telecom);
        let netcom = db.ranges_of(Isp::Netcom);
        let me = addr(telecom[0].0);
        let same = addr(telecom[0].0 + 1);
        let other = addr(netcom[0].0);
        // Indegree: 1 same + 1 other = 0.5; outdegree: only same = 1.0.
        let reports = vec![report(me, vec![(same, 50, 50), (other, 0, 50)])];
        let (fin, fout) = intra_isp_degree_fractions(&reports, &db);
        assert!((fin - 0.5).abs() < 1e-12);
        assert!((fout - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_matches_share_squares() {
        let db = IspDatabase::synthetic(IspShares::default());
        let b = isp_share_baseline(&db);
        let norm = db.shares().normalized();
        let expect: f64 = norm.iter().map(|s| s * s).sum();
        assert!((b - expect).abs() < 1e-12);
        assert!(b > 0.2 && b < 0.3, "baseline = {b}");
    }

    #[test]
    fn per_isp_panels_cover_populated_isps_only() {
        let db = IspDatabase::synthetic(IspShares::default());
        let telecom = db.ranges_of(Isp::Telecom);
        let netcom = db.ranges_of(Isp::Netcom);
        // Three telecom peers in a reciprocal triangle; one isolated
        // netcom reporter.
        let a = addr(telecom[0].0);
        let b = addr(telecom[0].0 + 1);
        let c = addr(telecom[0].0 + 2);
        let d = addr(netcom[0].0);
        let reports = vec![
            report(a, vec![(b, 50, 50), (c, 50, 50)]),
            report(b, vec![(a, 50, 50), (c, 50, 50)]),
            report(c, vec![(a, 50, 50), (b, 50, 50)]),
            report(d, vec![]),
        ];
        let g = active_link_graph(&reports, NodeScope::StableOnly);
        let panels = per_isp_smallworld(&g, &db, 2);
        assert_eq!(panels.len(), 1, "only Telecom has >= 2 nodes");
        let (isp, r) = &panels[0];
        assert_eq!(*isp, Isp::Telecom);
        assert_eq!(r.n, 3);
        assert!((r.c - 1.0).abs() < 1e-9, "triangle C = {}", r.c);
    }

    #[test]
    fn node_isps_align_with_lookup() {
        let db = IspDatabase::synthetic(IspShares::default());
        let telecom = db.ranges_of(Isp::Telecom);
        let reports = vec![report(addr(telecom[0].0), vec![])];
        let g = active_link_graph(&reports, NodeScope::AllKnown);
        let isps = node_isps(&g, &db);
        assert_eq!(isps, vec![Isp::Telecom]);
    }
}
