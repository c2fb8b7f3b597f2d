//! Property tests over the trace codecs: any structurally valid
//! report must survive the wire format byte-for-byte, and malformed
//! inputs must fail cleanly and be counted exactly once by the shard
//! that receives them.

use magellan_netsim::{PeerAddr, SimTime};
use magellan_trace::{wire, BufferMap, PartnerRecord, PeerReport, Shard, StatusCode};
use magellan_workload::ChannelId;
use proptest::prelude::*;

fn arb_buffer_map() -> impl Strategy<Value = BufferMap> {
    (
        0u64..1_000_000,
        0u16..256,
        proptest::collection::vec(any::<u64>(), 0..40),
    )
        .prop_map(|(start, len, seqs)| {
            let mut bm = BufferMap::new(start, len);
            for s in seqs {
                bm.set(start + s % (len as u64 + 1));
            }
            bm
        })
}

fn arb_partner() -> impl Strategy<Value = PartnerRecord> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        0u64..100_000,
        0u64..100_000,
    )
        .prop_map(|(addr, tcp, udp, sent, recv)| PartnerRecord {
            addr: PeerAddr::from_u32(addr),
            tcp_port: tcp,
            udp_port: udp,
            segments_sent: sent,
            segments_received: recv,
        })
}

prop_compose! {
    fn arb_report()(
        time in 0u64..(14 * 86_400_000),
        addr in any::<u32>(),
        channel in 0u16..800,
        bm in arb_buffer_map(),
        down in 0.0f64..1e6,
        up in 0.0f64..1e6,
        recv in 0.0f64..1e5,
        send in 0.0f64..1e5,
        partners in proptest::collection::vec(arb_partner(), 0..60),
    ) -> PeerReport {
        PeerReport {
            time: SimTime::from_millis(time),
            addr: PeerAddr::from_u32(addr),
            channel: ChannelId(channel),
            buffer_map: bm,
            download_capacity_kbps: down,
            upload_capacity_kbps: up,
            recv_throughput_kbps: recv,
            send_throughput_kbps: send,
            partners,
        }
    }
}

proptest! {
    #[test]
    fn wire_roundtrip(report in arb_report()) {
        let bytes = wire::encode(&report);
        let back = wire::decode(&mut bytes.clone()).expect("decode");
        prop_assert_eq!(back, report);
    }

    #[test]
    fn wire_truncation_never_panics(report in arb_report(), cut_frac in 0.0f64..1.0) {
        let bytes = wire::encode(&report);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let mut short = bytes.slice(0..cut.min(bytes.len().saturating_sub(1)));
        // Either EOF or (never) success-with-equal; must not panic.
        let _ = wire::decode(&mut short);
    }

    #[test]
    fn wire_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = bytes::Bytes::from(bytes);
        let _ = wire::decode(&mut buf);
    }

    /// A truncated datagram fired at a shard must land in a
    /// rejection (almost always `Malformed`), never a panic, and
    /// exactly one [`magellan_trace::ShardStats`] counter must move.
    #[test]
    fn server_counts_truncated_datagrams(report in arb_report(), cut_frac in 0.0f64..1.0) {
        let mut shard = Shard::new(SimTime::from_millis(14 * 86_400_000), usize::MAX);
        let bytes = wire::encode(&report);
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len().saturating_sub(1));
        let status = shard.ingest_wire(&bytes[..cut]);
        prop_assert_one_verdict(&shard, status)?;
    }

    /// A single flipped bit either still decodes into a report the
    /// validator can judge, or fails decoding — both are counted
    /// verdicts; nothing panics and the books balance.
    #[test]
    fn server_counts_bitflipped_datagrams(
        report in arb_report(),
        idx in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let mut shard = Shard::new(SimTime::from_millis(14 * 86_400_000), usize::MAX);
        let mut bytes = wire::encode(&report).to_vec();
        let i = idx.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let status = shard.ingest_wire(&bytes);
        prop_assert_one_verdict(&shard, status)?;
    }
}

/// One datagram into a fresh shard: exactly one counter moved — an
/// admission iff the verdict is `Ack` — and any rejection carries a
/// message.
fn prop_assert_one_verdict(shard: &Shard, status: StatusCode) -> Result<(), TestCaseError> {
    let st = shard.stats();
    prop_assert_eq!(st.received(), 1);
    prop_assert_eq!(st.admitted + st.rejected + st.malformed, 1);
    prop_assert_eq!(status == StatusCode::Ack, st.admitted == 1);
    if let Err(e) = status.into_admission(SimTime::ORIGIN) {
        prop_assert!(!e.to_string().is_empty());
    }
    Ok(())
}
