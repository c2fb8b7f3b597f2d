//! Property tests over the trace codecs: any structurally valid
//! report must survive the wire format byte-for-byte, malformed
//! inputs must fail cleanly and be counted exactly once by the shard
//! that receives them, and the TCP frame reader must hand out the
//! same bodies however the stream is chunked.

use magellan_netsim::{PeerAddr, SimTime};
use magellan_trace::codec::{encode_client_msg, frame};
use magellan_trace::{
    wire, BufferMap, ClientMsg, FrameReader, PartnerRecord, PeerReport, Shard, StatusCode,
};
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

/// Feeds `stream` to a fresh reader in `chunk`-byte pieces, pulling
/// every complete frame after each piece (borrowed and copied out on
/// alternate frames). Returns the bodies and the bytes left buffered.
fn read_in_chunks(stream: &[u8], chunk: usize) -> (Vec<Vec<u8>>, usize) {
    let mut reader = FrameReader::new();
    let mut bodies = Vec::new();
    let mut fed = 0;
    let mut consumed = 0;
    for piece in stream.chunks(chunk) {
        reader.extend(piece);
        fed += piece.len();
        loop {
            let body = if bodies.len() % 2 == 0 {
                reader.next_frame_ref().unwrap().map(<[u8]>::to_vec)
            } else {
                reader.next_frame().unwrap().map(|b| b.to_vec())
            };
            let Some(body) = body else { break };
            consumed += 4 + body.len();
            bodies.push(body);
        }
        assert_eq!(reader.buffered(), fed - consumed, "chunk {chunk}");
    }
    (bodies, reader.buffered())
}

/// 256 framed reports of varied sizes, then half a frame: one
/// `extend`, 1-byte pieces and 16 KiB pieces yield the same bodies
/// and leave the same partial frame buffered.
#[test]
fn frame_reader_chunking_is_invisible() {
    let mut stream = Vec::new();
    let mut expected = Vec::new();
    for seq in 0..256u64 {
        let report = PeerReport {
            time: SimTime::from_millis(seq * 1_000),
            addr: PeerAddr::from_u32(0x0A00_0000 + seq as u32),
            channel: ChannelId(1),
            buffer_map: BufferMap::new(seq, 150),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: (0..seq % 50)
                .map(|i| PartnerRecord {
                    addr: PeerAddr::from_u32(i as u32),
                    tcp_port: 1,
                    udp_port: 2,
                    segments_sent: i,
                    segments_received: seq,
                })
                .collect(),
        };
        let body = encode_client_msg(&ClientMsg::Report {
            seq,
            payload: wire::encode(&report),
        });
        stream.extend_from_slice(&frame(&body));
        expected.push(body.to_vec());
    }
    let tail = frame(&encode_client_msg(&ClientMsg::Finish {
        client_id: 0,
        sent: 256,
    }));
    let partial = tail.len() / 2;
    stream.extend_from_slice(&tail[..partial]);

    let whole = read_in_chunks(&stream, stream.len());
    assert_eq!(whole.0, expected);
    assert_eq!(whole.1, partial);
    assert_eq!(read_in_chunks(&stream, 1), whole);
    assert_eq!(read_in_chunks(&stream, 16 * 1024), whole);
}
