//! Property tests driving the framed-TCP ingest codec through the
//! nemesis chaos engine: a byte stream mangled by a seeded
//! [`FlowSchedule`] — re-chunked, split, coalesced, bit-flipped, cut
//! short — must never panic the reader, must reassemble exactly the
//! original messages when the schedule only repaces (no corruption,
//! no connection death), must degrade to a clean prefix when the
//! connection dies, and must leave the service books balanced no
//! matter what arrives.

use magellan_netsim::{ChaosAction, ChaosProfile, FlowSchedule, PeerAddr, SimDuration, SimTime};
use magellan_trace::codec::{decode_client_msg, encode_client_msg, frame};
use magellan_trace::{wire, BufferMap, ClientMsg, FrameReader, PeerReport, ServiceCore};
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

/// A full client conversation: Hello, `ips.len()` reports, Finish.
fn conversation(ips: &[u32]) -> Vec<ClientMsg> {
    let mut msgs = vec![ClientMsg::Hello {
        client_id: 0,
        clients: 1,
    }];
    for (i, ip) in ips.iter().enumerate() {
        msgs.push(ClientMsg::Report {
            seq: i as u64,
            payload: wire::encode(&report(*ip, (i as u64 * 7) % 100)),
        });
    }
    msgs.push(ClientMsg::Finish {
        client_id: 0,
        sent: ips.len() as u64,
    });
    msgs
}

fn framed_stream(msgs: &[ClientMsg]) -> Vec<u8> {
    let mut stream = Vec::new();
    for m in msgs {
        stream.extend_from_slice(&frame(&encode_client_msg(m)));
    }
    stream
}

/// Pure model of the `tracetool nemesis` TCP pump: cuts `stream` into
/// `chunk`-byte reads, asks the schedule what to do with each, and
/// returns the write sequence the downstream socket would observe
/// plus whether the connection was cut short (Reset/Kill). Timing
/// actions (Delay/Stall) are delivery in this model — the bytes are
/// what the codec sees; the clock is the shell's business.
fn pump_model(stream: &[u8], chunk: usize, sched: &mut FlowSchedule) -> (Vec<Vec<u8>>, bool) {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut held: Vec<u8> = Vec::new();
    for piece in stream.chunks(chunk.max(1)) {
        held.extend_from_slice(piece);
        match sched.next_action() {
            ChaosAction::Coalesce => continue,
            ChaosAction::Deliver | ChaosAction::Delay { .. } | ChaosAction::Stall { .. } => {
                out.push(std::mem::take(&mut held));
            }
            ChaosAction::SplitAt { at_pm } => {
                let cut = ((held.len() * at_pm as usize) / 1000).clamp(1, held.len());
                let rest = held.split_off(cut);
                out.push(std::mem::take(&mut held));
                if !rest.is_empty() {
                    out.push(rest);
                }
            }
            ChaosAction::FlipBit { offset, bit } => {
                if !held.is_empty() {
                    let i = offset as usize % held.len();
                    held[i] ^= 1 << bit;
                }
                out.push(std::mem::take(&mut held));
            }
            ChaosAction::Reset => return (out, true),
            ChaosAction::Kill => {
                out.push(std::mem::take(&mut held));
                return (out, true);
            }
        }
    }
    if !held.is_empty() {
        out.push(held);
    }
    (out, false)
}

/// Feeds mangled chunks through a [`FrameReader`], decoding whole
/// frames as they surface. A framing error (corrupt length prefix)
/// models connection teardown: stop reading, keep what arrived.
fn reassemble(chunks: &[Vec<u8>]) -> (Vec<ClientMsg>, bool) {
    let mut reader = FrameReader::new();
    let mut msgs = Vec::new();
    for chunk in chunks {
        reader.extend(chunk);
        loop {
            match reader.next_frame() {
                Ok(Some(mut body)) => match decode_client_msg(&mut body) {
                    Ok(m) => msgs.push(m),
                    Err(_) => return (msgs, true),
                },
                Ok(None) => break,
                Err(_) => return (msgs, true),
            }
        }
    }
    (msgs, false)
}

/// The TCP drill's pacing faults only: everything that reshapes the
/// byte stream without corrupting or killing it.
fn pacing_only() -> ChaosProfile {
    ChaosProfile {
        reset_pm: 0,
        kill_pm: 0,
        ..ChaosProfile::tcp_drill()
    }
}

/// Corruption-heavy profile: pacing hostility plus frequent bit
/// flips, so damage lands in length prefixes, message tags, and
/// opaque report payloads alike.
fn corrupting() -> ChaosProfile {
    ChaosProfile {
        flip_pm: 150,
        ..pacing_only()
    }
}

proptest! {
    /// Re-pacing is invisible to the codec: any schedule of splits,
    /// coalesces, delays, and stalls delivers exactly the original
    /// conversation, and the service books it cleanly.
    #[test]
    fn pacing_chaos_is_transparent(
        ips in proptest::collection::vec(1u32..500, 1..24),
        seed in any::<u64>(),
        flow in 0u64..8,
        chunk in 1usize..96,
    ) {
        let msgs = conversation(&ips);
        let stream = framed_stream(&msgs);
        let mut sched = FlowSchedule::new(seed, flow, pacing_only());
        let (chunks, killed) = pump_model(&stream, chunk, &mut sched);
        prop_assert!(!killed, "pacing profile must never cut the connection");
        let (got, torn) = reassemble(&chunks);
        prop_assert!(!torn, "pacing profile must never corrupt framing");
        prop_assert_eq!(&got, &msgs, "re-paced stream decoded differently");

        let mut core = ServiceCore::new(window_end(), 3, 1024, 1);
        for m in &got {
            core.handle(m);
        }
        let (_, stats) = core.finalize();
        prop_assert!(stats.balanced(), "unbalanced: {stats:?}");
        prop_assert_eq!(stats.received(), ips.len() as u64);
    }

    /// The full TCP drill (resets and kills allowed, still no
    /// corruption): whatever survives is a clean prefix of the
    /// conversation — never reordered, never mangled — and the reader
    /// never errors.
    #[test]
    fn connection_death_degrades_to_a_prefix(
        ips in proptest::collection::vec(1u32..500, 1..24),
        seed in any::<u64>(),
        flow in 0u64..8,
        chunk in 1usize..96,
    ) {
        let msgs = conversation(&ips);
        let stream = framed_stream(&msgs);
        let mut sched = FlowSchedule::new(seed, flow, ChaosProfile::tcp_drill());
        let (chunks, _killed) = pump_model(&stream, chunk, &mut sched);
        let (got, torn) = reassemble(&chunks);
        prop_assert!(!torn, "drill profile does not corrupt, reader must not error");
        prop_assert_eq!(&msgs[..got.len()], &got[..], "survivors are not a clean prefix");
    }

    /// Corrupting chaos: the reader and service never panic, and
    /// every report that does get through is classified exactly once
    /// with balanced books — a flipped bit costs at most the frames
    /// after it on that connection, never the accounting identity.
    #[test]
    fn corruption_never_panics_and_books_balance(
        ips in proptest::collection::vec(1u32..500, 1..24),
        seed in any::<u64>(),
        flow in 0u64..8,
        chunk in 1usize..96,
    ) {
        let msgs = conversation(&ips);
        let stream = framed_stream(&msgs);
        let mut sched = FlowSchedule::new(seed, flow, corrupting());
        let (chunks, _killed) = pump_model(&stream, chunk, &mut sched);
        let (got, _torn) = reassemble(&chunks);
        prop_assert!(got.len() <= msgs.len() + 1, "chaos conjured extra frames");

        let mut core = ServiceCore::new(window_end(), 3, 1024, 1);
        core.handle(&ClientMsg::Hello { client_id: 0, clients: 1 });
        let mut verdicts = 0u64;
        let mut reports = 0u64;
        for m in &got {
            if let ClientMsg::Report { .. } = m {
                reports += 1;
                let (reply, _) = core.handle(m);
                prop_assert!(reply.is_some(), "a report went unclassified");
                verdicts += 1;
            }
        }
        let (_, stats) = core.finalize();
        prop_assert_eq!(verdicts, reports);
        prop_assert!(stats.balanced(), "unbalanced: {stats:?}");
        prop_assert_eq!(stats.received(), reports, "classified twice or not at all");
    }
}
