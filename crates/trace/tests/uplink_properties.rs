//! Property tests over the report uplink's store-and-forward buffer:
//! the delivery books always balance, overflow always evicts oldest
//! first, and a post-outage flush drains everything that survived.

use magellan_netsim::{FaultWindow, PeerAddr, SimDuration, SimTime};
use magellan_trace::{BufferMap, GatewayCore, PeerReport, ReportUplink, SinkGateway};
use magellan_workload::ChannelId;
use proptest::prelude::*;

const WINDOW_END_MIN: u64 = 14 * 24 * 60;

fn report(ip: u32, minute: u64) -> PeerReport {
    PeerReport {
        time: SimTime::ORIGIN + SimDuration::from_mins(minute),
        addr: PeerAddr::from_u32(ip),
        channel: ChannelId::CCTV1,
        buffer_map: BufferMap::new(0, 8),
        download_capacity_kbps: 2000.0,
        upload_capacity_kbps: 512.0,
        recv_throughput_kbps: 400.0,
        send_throughput_kbps: 50.0,
        partners: vec![],
    }
}

proptest! {
    /// Every offered report ends in exactly one of: delivered,
    /// still pending, evicted on overflow, or rejected — whatever the
    /// interleaving of sends and a downtime window.
    #[test]
    fn delivery_accounting_always_balances(
        capacity in 1usize..8,
        minutes in proptest::collection::vec(0u64..200, 1..40),
        down_start in 0u64..150,
        down_len in 1u64..120,
    ) {
        let mut core = GatewayCore::new(
            SimTime::ORIGIN + SimDuration::from_mins(WINDOW_END_MIN),
            vec![FaultWindow::new(
                SimTime::ORIGIN + SimDuration::from_mins(down_start),
                SimTime::ORIGIN + SimDuration::from_mins(down_start + down_len),
            )],
        );
        let mut stored = 0u64;
        let mut server = SinkGateway::new(&mut core, |_| stored += 1);
        let mut up = ReportUplink::new(capacity);
        let mut sorted = minutes.clone();
        sorted.sort_unstable();
        for (i, m) in sorted.iter().enumerate() {
            up.send_via(report(i as u32 + 1, *m), SimTime::ORIGIN + SimDuration::from_mins(*m), &mut server);
            let st = up.stats();
            prop_assert_eq!(st.offered, i as u64 + 1);
            prop_assert_eq!(
                st.offered,
                st.delivered + up.pending() as u64 + st.dropped_overflow + st.rejected,
                "books out of balance mid-stream: {:?} pending {}", st, up.pending()
            );
            prop_assert!(up.pending() <= capacity);
            prop_assert!(st.retransmitted <= st.delivered);
        }
        // The collector keeps listening after the outage: a flush past
        // the window drains every survivor.
        up.flush_via(
            SimTime::ORIGIN + SimDuration::from_mins(down_start + down_len + 1),
            &mut server,
        );
        let st = up.stats();
        prop_assert_eq!(up.pending(), 0, "flush past the outage left a backlog");
        prop_assert_eq!(st.offered, st.delivered + st.dropped_overflow + st.rejected);
        prop_assert_eq!(st.rejected, 0, "well-formed reports were rejected");
        prop_assert_eq!(stored, st.delivered - core.stats().duplicates);
    }

    /// Overflow during an outage always evicts the *oldest* buffered
    /// report: the server ends up with exactly the newest `capacity`
    /// reports, in FIFO order.
    #[test]
    fn overflow_evicts_oldest_first(
        capacity in 1usize..6,
        extra in 1usize..10,
    ) {
        let n = capacity + extra;
        let down_end = 1000u64;
        let mut core = GatewayCore::new(
            SimTime::ORIGIN + SimDuration::from_mins(WINDOW_END_MIN),
            vec![FaultWindow::new(
                SimTime::ORIGIN,
                SimTime::ORIGIN + SimDuration::from_mins(down_end),
            )],
        );
        let mut delivered: Vec<u32> = Vec::new();
        let mut server = SinkGateway::new(&mut core, |r| delivered.push(r.addr.as_u32()));
        let mut up = ReportUplink::new(capacity);
        for i in 0..n {
            let m = i as u64;
            up.send_via(report(i as u32 + 1, m), SimTime::ORIGIN + SimDuration::from_mins(m), &mut server);
        }
        prop_assert_eq!(up.pending(), capacity);
        prop_assert_eq!(up.stats().dropped_overflow, extra as u64);
        up.flush_via(SimTime::ORIGIN + SimDuration::from_mins(down_end + 1), &mut server);
        let expected: Vec<u32> = ((extra + 1) as u32..=n as u32).collect();
        prop_assert_eq!(delivered, expected, "eviction was not oldest-first");
    }
}
