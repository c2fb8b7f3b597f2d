//! Property tests over the networked ingest path: the framed-TCP
//! codec and the UDP datagram path must never panic on truncated,
//! bit-flipped, duplicated, or reordered input; a corrupt datagram
//! must cost at most the one report it carried; the service
//! accounting must balance no matter what arrives; and a shard admits
//! exactly what the in-process gateway admits.

use magellan_netsim::{PeerAddr, SimDuration, SimTime};
use magellan_trace::codec::{
    decode_client_msg, decode_reply, encode_client_msg, encode_reply, frame,
};
use magellan_trace::{
    wire, BufferMap, ClientMsg, FrameReader, GatewayCore, PeerReport, ReplyMsg, ReportGateway,
    ServiceCore, Shard, SinkGateway,
};
use magellan_workload::ChannelId;
use proptest::prelude::*;

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

fn window_end() -> SimTime {
    SimTime::at(14, 0, 0)
}

/// Deterministic Fisher-Yates (the proptest stand-in has no shuffle
/// strategy); splitmix64 stream seeded by the generated `seed`.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

fn arb_msg() -> impl Strategy<Value = ClientMsg> {
    (
        0u8..4,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        0u64..(14 * 86_400_000),
        0u32..5_000,
        0u64..200,
    )
        .prop_map(
            |(kind, client_id, clients, seq, at, ip, minute)| match kind {
                0 => ClientMsg::Hello { client_id, clients },
                1 => ClientMsg::Report {
                    seq,
                    payload: wire::encode(&report(ip, minute)),
                },
                2 => ClientMsg::WindowMark {
                    client_id,
                    up_to: SimTime::from_millis(at),
                },
                _ => ClientMsg::Finish {
                    client_id,
                    sent: seq,
                },
            },
        )
}

proptest! {
    #[test]
    fn client_messages_roundtrip(msg in arb_msg()) {
        let mut body = encode_client_msg(&msg);
        let back = decode_client_msg(&mut body).expect("decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn replies_roundtrip_and_truncations_never_panic(
        seq in any::<u64>(),
        status_byte in 0u8..8,
        cut in 0usize..9,
    ) {
        let status = wire::StatusCode::from_u8(status_byte).expect("valid code");
        let reply = ReplyMsg { seq, status };
        let bytes = encode_reply(&reply);
        prop_assert_eq!(decode_reply(&mut bytes.clone()).expect("decode"), reply);
        let mut short = bytes.slice(0..cut);
        prop_assert!(decode_reply(&mut short).is_err());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_client_msg(&mut bytes::Bytes::from(bytes));
    }

    /// A framed TCP stream delivered in arbitrary chunk sizes — with
    /// the tail truncated mid-frame — reassembles exactly the
    /// complete frames, in order, and never panics.
    #[test]
    fn frame_reader_survives_chunking_and_truncation(
        msgs in proptest::collection::vec(arb_msg(), 0..12),
        chunk_size in 1usize..64,
        cut_tail in 0usize..40,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&frame(&encode_client_msg(m)));
        }
        let keep = stream.len().saturating_sub(cut_tail);
        let truncated_tail = keep < stream.len();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for chunk in stream[..keep].chunks(chunk_size.max(1)) {
            reader.extend(chunk);
            while let Some(mut body) = reader.next_frame().expect("well-formed lengths") {
                out.push(decode_client_msg(&mut body).expect("framed bodies decode"));
            }
        }
        if truncated_tail {
            prop_assert!(out.len() < msgs.len() || msgs.is_empty() || cut_tail == 0);
        }
        prop_assert_eq!(&msgs[..out.len()], &out[..], "frames out of order or corrupted");
    }

    /// A bit-flipped frame length that exceeds the cap is rejected as
    /// an error (connection teardown), not a panic or a huge
    /// allocation.
    #[test]
    fn frame_reader_rejects_oversized_lengths(len in (64 * 1024u32 + 1)..u32::MAX) {
        let mut reader = FrameReader::new();
        reader.extend(&len.to_be_bytes());
        prop_assert!(reader.next_frame().is_err());
    }

    /// The UDP datagram path: corrupt payload bytes cost at most the
    /// one report they carried — every datagram fed is classified
    /// exactly once and the books balance.
    #[test]
    fn corrupt_datagrams_cost_at_most_one_report(
        ips in proptest::collection::vec(1u32..500, 1..40),
        flip_at in any::<prop::sample::Index>(),
        flip_with in 1u8..=255,
        corrupt_every in 2usize..5,
    ) {
        let mut core = ServiceCore::new(window_end(), 4, 1024, 1);
        core.handle(&ClientMsg::Hello { client_id: 0, clients: 1 });
        let mut fed = 0u64;
        for (i, ip) in ips.iter().enumerate() {
            let mut payload = wire::encode(&report(*ip, 20)).to_vec();
            if i % corrupt_every == 0 {
                let at = flip_at.index(payload.len());
                payload[at] ^= flip_with;
            }
            let msg = ClientMsg::Report { seq: i as u64, payload: payload.into() };
            let (reply, _) = core.handle(&msg);
            prop_assert!(reply.is_some(), "every report datagram gets a verdict");
            fed += 1;
        }
        core.handle(&ClientMsg::Finish { client_id: 0, sent: fed });
        let (_, stats) = core.finalize();
        prop_assert!(stats.balanced(), "unbalanced: {stats:?}");
        prop_assert_eq!(stats.received(), fed, "a datagram was classified twice or not at all");
        prop_assert_eq!(stats.lost, 0);
    }

    /// Duplicated, reordered, corrupted traffic interleaved with
    /// window marks: the service stays balanced, classifies every
    /// datagram exactly once, and two runs over the same stream agree
    /// on both the archive batch and the accounting (determinism).
    #[test]
    fn service_balances_and_is_deterministic_under_hostile_traffic(
        ips in proptest::collection::vec(1u32..200, 1..30),
        seed in any::<u64>(),
        flip_with in 1u8..=255,
        mark_minute in 5u64..120,
    ) {
        // Build the hostile datagram list: every report once, every
        // third duplicated, every fourth corrupted, then shuffled.
        let mut datagrams: Vec<Vec<u8>> = Vec::new();
        for (i, ip) in ips.iter().enumerate() {
            let payload = wire::encode(&report(*ip, (i as u64 * 7) % 100)).to_vec();
            datagrams.push(payload.clone());
            if i % 3 == 0 {
                datagrams.push(payload.clone());
            }
            if i % 4 == 0 {
                let mut bad = payload;
                let at = (seed as usize) % bad.len();
                bad[at] ^= flip_with;
                datagrams.push(bad);
            }
        }
        shuffle(&mut datagrams, seed);
        let mark_at = datagrams.len() / 2;

        let run = || {
            let mut core = ServiceCore::new(window_end(), 3, 1024, 1);
            core.handle(&ClientMsg::Hello { client_id: 0, clients: 1 });
            let mut sent = 0u64;
            let mut archive = Vec::new();
            for (i, payload) in datagrams.iter().enumerate() {
                if i == mark_at {
                    // A mid-stream mark seals a window; everything
                    // older arriving after it is Late or a duplicate.
                    let (_, sealed) = core.handle(&ClientMsg::WindowMark {
                        client_id: 0,
                        up_to: SimTime::ORIGIN + SimDuration::from_mins(mark_minute),
                    });
                    archive.extend(sealed.unwrap_or_default());
                }
                let msg = ClientMsg::Report {
                    seq: i as u64,
                    payload: payload.clone().into(),
                };
                let (reply, _) = core.handle(&msg);
                assert!(reply.is_some());
                sent += 1;
            }
            core.handle(&ClientMsg::Finish { client_id: 0, sent });
            let (tail, stats) = core.finalize();
            archive.extend(tail);
            (archive, stats)
        };

        let (batch_a, stats_a) = run();
        let (batch_b, stats_b) = run();
        prop_assert!(stats_a.balanced(), "unbalanced: {stats_a:?}");
        prop_assert_eq!(stats_a.received(), datagrams.len() as u64);
        prop_assert_eq!(stats_a, stats_b, "accounting not deterministic");
        prop_assert_eq!(batch_a, batch_b, "final batch not deterministic");
        // Dedup holds: no (time, addr) identity is archived twice.
        let mut ids: Vec<(u64, u32)> = batch_a
            .iter()
            .map(|r| (r.time.as_millis(), r.addr.as_u32()))
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len(), "duplicate identity archived");
    }

    /// With no downtime, the in-process path (a `SinkGateway` over a
    /// `GatewayCore`) and a shard with its frontier at the origin and
    /// an unbounded pending buffer are one admission authority: every
    /// verdict agrees, the admitted sets are equal, and so are the
    /// counts.
    #[test]
    fn sink_gateway_and_shard_admit_the_same_set(
        sends in proptest::collection::vec((0u32..12, 0u64..40, 0u8..6), 0..120),
    ) {
        // Minutes 30..40 fall outside the window; every sixth report
        // carries an implausible field; the narrow address and time
        // ranges make duplicates common.
        let end = SimTime::ORIGIN + SimDuration::from_mins(30);
        let mut core = GatewayCore::new(end, vec![]);
        let mut stored = Vec::new();
        let mut gateway = SinkGateway::new(&mut core, |r| stored.push(r));
        let mut shard = Shard::new(end, usize::MAX);
        for (ip, minute, flaw) in sends {
            let mut r = report(ip, minute);
            if flaw == 0 {
                r.upload_capacity_kbps = -1.0;
            }
            let now = r.time;
            let in_process = gateway.submit_report(r.clone(), now);
            let sharded = shard.ingest(r, now);
            prop_assert_eq!(in_process.is_ok(), sharded.is_delivered(), "verdicts differ: {:?}", sharded);
        }
        stored.sort_by_key(|r| (r.time, r.addr.as_u32()));
        prop_assert_eq!(shard.drain_below(end), stored);
        let (gs, ss) = (core.stats(), shard.stats());
        prop_assert_eq!(gs.accepted, ss.admitted);
        prop_assert_eq!(gs.duplicates, ss.deduped);
        prop_assert_eq!(gs.rejected, ss.rejected);
        prop_assert_eq!(gs.unavailable + ss.unavailable, 0);
        prop_assert_eq!(ss.received(), ss.admitted + ss.deduped + ss.rejected);
    }
}
