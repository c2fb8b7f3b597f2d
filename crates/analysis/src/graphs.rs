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
//!
//! [`SnapshotTable`] builds the all-known topology in one pass together
//! with the population and degree statistics the study samples beside
//! it; [`active_link_graph`] is the keyed [`DiGraph`] form of the same
//! build, in either scope.

use crate::classify::{classify, PartnerClass};
use magellan_graph::{DiGraph, NodeId};
use magellan_netsim::{Isp, IspDatabase, PeerAddr};
use magellan_trace::PeerReport;
use std::borrow::Borrow;
use std::collections::HashMap;

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

/// One snapshot's stable set, measured in a single pass over its
/// partner lists: an address table with one entry — and one ISP lookup
/// — per distinct address, and everything the per-snapshot figures
/// read from it.
///
/// * Figs. 1a/2: [`SnapshotTable::known`] and
///   [`SnapshotTable::isp_counts`] count every address visible —
///   reporters and all their partners, active or not — once.
/// * Figs. 5/6: [`SnapshotTable::degrees`].
/// * Figs. 7/8: the all-known active-link topology as a node table
///   ([`SnapshotTable::nodes`], [`SnapshotTable::node_isps`]) and an
///   edge list ([`SnapshotTable::edges`]) that
///   [`magellan_graph::Csr::from_edges`] flattens.
///
/// Node ids follow the keyed build of [`active_link_graph`]: reporter
/// `i` is node `i`, then each partner takes the next id at its first
/// *active* record, a partner listing its own reporter excepted.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotTable {
    /// Node addresses by [`NodeId::index`].
    pub nodes: Vec<PeerAddr>,
    /// Node ISPs by [`NodeId::index`].
    pub node_isps: Vec<Isp>,
    /// The directed active links `(from, to, segments)` in record
    /// order; a link reported from both ends appears twice, and
    /// [`magellan_graph::Csr::from_edges`] sums the two weights.
    pub edges: Vec<(NodeId, NodeId, u64)>,
    /// Number of reporters: nodes `0..reporters` are the stable-peer
    /// graph's nodes.
    pub reporters: usize,
    /// Distinct addresses visible (Fig. 1a's total).
    pub known: usize,
    /// [`SnapshotTable::known`] split by [`Isp::index`] (Fig. 2).
    pub isp_counts: [u64; 7],
    /// Figs. 5 and 6.
    pub degrees: DegreeStats,
}

/// The degree statistics of Figs. 5 and 6 over one stable set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Summed (partners, active indegree, active outdegree) — the
    /// per-report [`crate::classify::degree_triple`]s added up.
    pub sums: (usize, usize, usize),
    /// Fig. 6: the average fraction of each reporter's active
    /// indegree inside its own ISP, over reporters with a nonzero
    /// indegree (0.0 when there are none).
    pub intra_in: f64,
    /// Fig. 6: the same for active outdegree.
    pub intra_out: f64,
    /// The average fraction of each reporter's *whole partner list*
    /// (active or not) inside its own ISP, over reporters with
    /// partners. Not a curve of the paper's Fig. 6 — which uses active
    /// degrees — but the quantity a locality-aware tracker directly
    /// controls, so the extension analyses track it alongside.
    pub pool: f64,
}

/// One distinct address of a [`SnapshotTable`] scan.
#[derive(Debug, Clone, Copy)]
struct Slot {
    isp: Isp,
    /// Its node id, once a reporter or an active link made it a node.
    node: Option<NodeId>,
}

impl SnapshotTable {
    /// Measures `reporters`, one report per stable peer in ascending
    /// address order (what a snapshot or the study's frozen stable set
    /// holds).
    pub fn build<R: Borrow<PeerReport>>(reporters: &[R], db: &IspDatabase) -> SnapshotTable {
        Self::scan(reporters, |addr| db.lookup(addr))
    }

    /// The one pass behind [`SnapshotTable::build`], with the ISP of
    /// each distinct address from `isp_of`.
    fn scan<R, F>(reporters: &[R], mut isp_of: F) -> SnapshotTable
    where
        R: Borrow<PeerReport>,
        F: FnMut(PeerAddr) -> Isp,
    {
        debug_assert!(
            reporters
                .windows(2)
                .all(|w| w[0].borrow().addr < w[1].borrow().addr),
            "reporters must be distinct and in address order"
        );
        let r = reporters.len();
        let records: usize = reporters.iter().map(|x| x.borrow().partners.len()).sum();
        // The map is only ever probed, never iterated: its order cannot
        // reach a figure. The default keyed hasher keeps a crafted
        // address set from degrading the probes. Live snapshots show
        // about four distinct addresses per reporter.
        let mut slots: HashMap<PeerAddr, Slot> = HashMap::with_capacity(4 * r);
        let mut t = SnapshotTable {
            nodes: Vec::with_capacity(4 * r),
            node_isps: Vec::with_capacity(4 * r),
            edges: Vec::with_capacity(records),
            reporters: r,
            known: 0,
            isp_counts: [0; 7],
            degrees: DegreeStats {
                sums: (0, 0, 0),
                intra_in: 0.0,
                intra_out: 0.0,
                pool: 0.0,
            },
        };
        let mut new_slot = |addr: PeerAddr, t: &mut SnapshotTable| {
            let isp = isp_of(addr);
            t.known += 1;
            t.isp_counts[isp.index()] += 1;
            Slot { isp, node: None }
        };
        // Reporters first, so reporter `i` is node `i`.
        for rep in reporters {
            let addr = rep.borrow().addr;
            let mut slot = new_slot(addr, &mut t);
            slot.node = Some(NodeId::from_index(t.nodes.len()));
            slots.insert(addr, slot);
            t.nodes.push(addr);
            t.node_isps.push(slot.isp);
        }
        let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0, 0usize, 0.0, 0usize);
        let (mut pool_sum, mut pool_n) = (0.0, 0usize);
        for (me, rep) in reporters.iter().map(Borrow::borrow).enumerate() {
            let (me, my_isp) = (NodeId::from_index(me), t.node_isps[me]);
            let (mut in_total, mut in_same, mut out_total, mut out_same) = (0u32, 0u32, 0u32, 0u32);
            let mut pool_same = 0u32;
            for rec in &rep.partners {
                let slot = slots
                    .entry(rec.addr)
                    .or_insert_with(|| new_slot(rec.addr, &mut t));
                let same = u32::from(slot.isp == my_isp);
                pool_same += same;
                let (supplies, receives) = match classify(rec) {
                    PartnerClass::ActiveSupplier => (true, false),
                    PartnerClass::ActiveReceiver => (false, true),
                    PartnerClass::ActiveBoth => (true, true),
                    PartnerClass::NonActive => continue,
                };
                if supplies {
                    in_total += 1;
                    in_same += same;
                }
                if receives {
                    out_total += 1;
                    out_same += same;
                }
                if rec.addr == rep.addr {
                    continue;
                }
                let partner = *slot.node.get_or_insert_with(|| {
                    t.nodes.push(rec.addr);
                    t.node_isps.push(slot.isp);
                    NodeId::from_index(t.nodes.len() - 1)
                });
                if supplies {
                    t.edges
                        .push((partner, me, u64::from(rec.segments_received)));
                }
                if receives {
                    t.edges.push((me, partner, u64::from(rec.segments_sent)));
                }
            }
            let sums = &mut t.degrees.sums;
            sums.0 += rep.partners.len();
            sums.1 += in_total as usize;
            sums.2 += out_total as usize;
            if in_total > 0 {
                in_sum += in_same as f64 / in_total as f64;
                in_n += 1;
            }
            if out_total > 0 {
                out_sum += out_same as f64 / out_total as f64;
                out_n += 1;
            }
            if !rep.partners.is_empty() {
                pool_sum += pool_same as f64 / rep.partners.len() as f64;
                pool_n += 1;
            }
        }
        let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
        t.degrees.intra_in = mean(in_sum, in_n);
        t.degrees.intra_out = mean(out_sum, out_n);
        t.degrees.pool = mean(pool_sum, pool_n);
        t
    }
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
/// graph, weights included. The keyed form of a [`SnapshotTable`]'s
/// topology, for callers that look nodes up by address.
pub fn active_link_graph<'a, I>(reports: I, scope: NodeScope) -> DiGraph<PeerAddr>
where
    I: IntoIterator<Item = &'a PeerReport>,
{
    // One report per reporter: keep the freshest, with a content-based
    // tie-break so the choice never depends on input order (snapshots
    // provide one report per peer; raw streams may not).
    let mut sorted: Vec<&PeerReport> = reports.into_iter().collect();
    sorted.sort_by_key(|r| (r.addr, r.time, r.partners.len()));
    let mut deduped: Vec<&PeerReport> = Vec::with_capacity(sorted.len());
    for r in sorted {
        match deduped.last_mut() {
            Some(last) if last.addr == r.addr => *last = r,
            _ => deduped.push(r),
        }
    }
    // No ISP field is read here, so every address gets one label.
    let t = SnapshotTable::scan(&deduped, |_| Isp::Oversea);
    // In the stable scope only reporters are nodes.
    let n = match scope {
        NodeScope::AllKnown => t.nodes.len(),
        NodeScope::StableOnly => t.reporters,
    };
    let mut g: DiGraph<PeerAddr> = DiGraph::with_capacity(n);
    for &addr in &t.nodes[..n] {
        g.intern(addr);
    }
    for &(from, to, w) in &t.edges {
        if from.index() < n && to.index() < n {
            g.add_edge(from, to, w);
        }
    }
    g
}

/// The ISP of every node, indexed by [`NodeId::index`].
pub fn node_isps(g: &DiGraph<PeerAddr>, db: &IspDatabase) -> Vec<Isp> {
    g.node_ids().map(|id| db.lookup(*g.key(id))).collect()
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

    fn report(addr: PeerAddr, partners: Vec<(PeerAddr, u32, u32)>) -> PeerReport {
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
    fn isp_labels_split_and_induce_the_table_topology() {
        use magellan_graph::reciprocity::label_split_link_counts_csr;
        use magellan_graph::Csr;
        let db = IspDatabase::synthetic(IspShares::default());
        // Two addresses in the same ISP range + one in a different one.
        let telecom = db.ranges_of(Isp::Telecom);
        let netcom = db.ranges_of(Isp::Netcom);
        let a = addr(telecom[0].0);
        let b = addr(telecom[0].0 + 1);
        let c = addr(netcom[0].0);
        let reports = vec![report(a, vec![(b, 50, 50), (c, 50, 50)])];
        let t = SnapshotTable::build(&reports, &db);
        let g = Csr::from_edges(t.nodes.len(), &t.edges);
        let (intra, inter) = label_split_link_counts_csr(&g, &t.node_isps);
        assert_eq!(intra.edges, 2); // a<->b
        assert_eq!(inter.edges, 2); // a<->c
        assert_eq!(intra.edges + inter.edges, g.edge_count());
        let telecom_sub = g.induced(|id| t.node_isps[id.index()] == Isp::Telecom);
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
        // Indegree: 1 same + 1 other = 0.5; outdegree: only same = 1.0;
        // pool: 1 of 3 records in-ISP (the lazy one counts).
        let lazy = addr(netcom[0].0 + 1);
        let reports = vec![report(
            me,
            vec![(same, 50, 50), (other, 0, 50), (lazy, 1, 1)],
        )];
        let d = SnapshotTable::build(&reports, &db).degrees;
        assert_eq!(d.sums, (3, 2, 1));
        assert!((d.intra_in - 0.5).abs() < 1e-12);
        assert!((d.intra_out - 1.0).abs() < 1e-12);
        assert!((d.pool - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_counts_every_address_once_and_numbers_active_partners_late() {
        let db = IspDatabase::synthetic(IspShares::default());
        // Reporter 1 lists 9 lazily, then itself; reporter 2 lists 1
        // and 9 actively. 9 becomes a node only at its active record.
        let reports = vec![
            report(addr(1), vec![(addr(9), 1, 1), (addr(1), 50, 50)]),
            report(addr(2), vec![(addr(1), 0, 50), (addr(9), 50, 0)]),
        ];
        let t = SnapshotTable::build(&reports, &db);
        assert_eq!(t.known, 3);
        assert_eq!(t.isp_counts.iter().sum::<u64>(), 3);
        assert_eq!(t.nodes, vec![addr(1), addr(2), addr(9)]);
        let (n1, n2, n9) = (
            NodeId::from_index(0),
            NodeId::from_index(1),
            NodeId::from_index(2),
        );
        assert_eq!(t.edges, vec![(n1, n2, 50), (n2, n9, 50)]);
        assert_eq!(t.degrees.sums, (4, 2, 2), "the self record still counts");
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
    fn isp_panel_is_the_induced_stable_subgraph() {
        use magellan_graph::smallworld::{assess_csr, SmallWorldConfig};
        use magellan_graph::Csr;
        let db = IspDatabase::synthetic(IspShares::default());
        let telecom = db.ranges_of(Isp::Telecom);
        let netcom = db.ranges_of(Isp::Netcom);
        // Three telecom peers in a reciprocal triangle; one isolated
        // netcom reporter; a lazy non-reporting partner.
        let a = addr(telecom[0].0);
        let b = addr(telecom[0].0 + 1);
        let c = addr(telecom[0].0 + 2);
        let d = addr(netcom[0].0);
        let mut reports = vec![
            report(a, vec![(b, 50, 50), (c, 50, 50)]),
            report(
                b,
                vec![(a, 50, 50), (c, 50, 50), (addr(telecom[0].0 + 9), 0, 50)],
            ),
            report(c, vec![(a, 50, 50), (b, 50, 50)]),
            report(d, vec![]),
        ];
        reports.sort_by_key(|r| r.addr);
        // The study's route: the table's topology, its reporter prefix,
        // then one ISP's induced subgraph.
        let t = SnapshotTable::build(&reports, &db);
        let full = Csr::from_edges(t.nodes.len(), &t.edges);
        let stable = full.induced(|id| id.index() < t.reporters);
        assert_eq!(stable.node_count(), 4);
        let panel = |isp: Isp| stable.induced(|id| t.node_isps[id.index()] == isp);
        assert_eq!(panel(Isp::Netcom).node_count(), 1);
        let r = assess_csr(&panel(Isp::Telecom), &SmallWorldConfig::default());
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
