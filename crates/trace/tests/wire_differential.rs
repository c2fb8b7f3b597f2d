//! Differential tests of the report codec: the fixed-layout encoder
//! and in-place decoder in `wire` against the accessor-based codec
//! they replaced, kept here as the reference. Its one change since is
//! the segment counters: `u32` in memory, 8 bytes on the wire, and a
//! value above `u32::MAX` is an invalid field. Every encoding must be
//! byte-identical, and every decode — of a whole datagram, of every
//! truncation of it, with trailing bytes, and with a counter out of
//! range — must give the same report or the same error with the same
//! context.

use bytes::{Buf, BufMut};
use magellan_netsim::{PeerAddr, SimTime};
use magellan_trace::wire::{self, WireError, MAX_WIRE_PARTNERS};
use magellan_trace::{BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

/// The reference codec: the `BufMut`/`Buf` encoder and decoder.
mod reference {
    use super::*;

    pub fn encode_into(report: &PeerReport, out: &mut Vec<u8>) {
        out.put_u64(report.time.as_millis());
        out.put_u32(report.addr.as_u32());
        out.put_u16(report.channel.0);
        out.put_u64(report.buffer_map.start());
        out.put_u16(report.buffer_map.len());
        out.put_slice(report.buffer_map.raw_bits());
        out.put_f64(report.download_capacity_kbps);
        out.put_f64(report.upload_capacity_kbps);
        out.put_f64(report.recv_throughput_kbps);
        out.put_f64(report.send_throughput_kbps);
        out.put_u16(report.partners.len() as u16);
        for p in &report.partners {
            out.put_u32(p.addr.as_u32());
            out.put_u16(p.tcp_port);
            out.put_u16(p.udp_port);
            out.put_u64(u64::from(p.segments_sent));
            out.put_u64(u64::from(p.segments_received));
        }
    }

    fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
        if buf.remaining() < n {
            Err(WireError::UnexpectedEof { context })
        } else {
            Ok(())
        }
    }

    fn counter(v: u64, context: &'static str) -> Result<u32, WireError> {
        u32::try_from(v).map_err(|_| WireError::Invalid { context })
    }

    pub fn decode(buf: &mut impl Buf) -> Result<PeerReport, WireError> {
        need(buf, 8 + 4 + 2 + 8 + 2, "header")?;
        let time = SimTime::from_millis(buf.get_u64());
        let addr = PeerAddr::from_u32(buf.get_u32());
        let channel = ChannelId(buf.get_u16());
        let bm_start = buf.get_u64();
        let bm_len = buf.get_u16();
        let bm_bytes = (bm_len as usize).div_ceil(8);
        need(buf, bm_bytes, "buffer map")?;
        let mut bits = vec![0u8; bm_bytes];
        buf.copy_to_slice(&mut bits);
        let buffer_map = BufferMap::from_raw(bm_start, bm_len, bits);
        need(buf, 8 * 4 + 2, "capacities")?;
        let download_capacity_kbps = buf.get_f64();
        let upload_capacity_kbps = buf.get_f64();
        let recv_throughput_kbps = buf.get_f64();
        let send_throughput_kbps = buf.get_f64();
        for (v, context) in [
            (download_capacity_kbps, "download capacity"),
            (upload_capacity_kbps, "upload capacity"),
            (recv_throughput_kbps, "recv throughput"),
            (send_throughput_kbps, "send throughput"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(WireError::Invalid { context });
            }
        }
        let n = buf.get_u16() as usize;
        if n > MAX_WIRE_PARTNERS {
            return Err(WireError::Invalid {
                context: "partner count",
            });
        }
        let mut partners = Vec::with_capacity(n);
        for _ in 0..n {
            need(buf, 4 + 2 + 2 + 8 + 8, "partner record")?;
            partners.push(PartnerRecord {
                addr: PeerAddr::from_u32(buf.get_u32()),
                tcp_port: buf.get_u16(),
                udp_port: buf.get_u16(),
                segments_sent: counter(buf.get_u64(), "segments sent")?,
                segments_received: counter(buf.get_u64(), "segments received")?,
            });
        }
        Ok(PeerReport {
            time,
            addr,
            channel,
            buffer_map,
            download_capacity_kbps,
            upload_capacity_kbps,
            recv_throughput_kbps,
            send_throughput_kbps,
            partners,
        })
    }
}

/// A buffer whose unread bytes come in two chunks, so `wire::decode`
/// takes its copy-out path instead of the in-place one. It keeps the
/// provided `copy_to_slice`: the fallback must get by with `chunk` and
/// `advance`.
struct TwoChunks<'a> {
    first: &'a [u8],
    second: &'a [u8],
}

impl Buf for TwoChunks<'_> {
    fn remaining(&self) -> usize {
        self.first.len() + self.second.len()
    }
    fn chunk(&self) -> &[u8] {
        if self.first.is_empty() {
            self.second
        } else {
            self.first
        }
    }
    fn advance(&mut self, mut n: usize) {
        let head = n.min(self.first.len());
        self.first = &self.first[head..];
        n -= head;
        self.second = &self.second[n..];
    }
}

/// Decodes with `decode` and reports the outcome plus the unread
/// byte count left behind on success.
fn outcome<B: Buf>(
    mut buf: B,
    decode: impl Fn(&mut B) -> Result<PeerReport, WireError>,
) -> Result<(PeerReport, usize), WireError> {
    decode(&mut buf).map(|r| (r, buf.remaining()))
}

/// Asserts the fast decoder, the chunked fallback and the reference
/// agree on `bytes`.
fn assert_decodes_alike(bytes: &[u8]) {
    let expected = outcome(bytes, reference::decode);
    assert_eq!(outcome(bytes, wire::decode), expected, "in place");
    let mid = bytes.len() / 2;
    let chunked = TwoChunks {
        first: &bytes[..mid],
        second: &bytes[mid..],
    };
    assert_eq!(outcome(chunked, wire::decode), expected, "chunked");
}

/// Picks an index by weight.
fn weighted(rng: &mut TestRng, weights: &[u64]) -> usize {
    let mut roll = rng.below(weights.iter().sum());
    for (i, &w) in weights.iter().enumerate() {
        if roll < w {
            return i;
        }
        roll -= w;
    }
    weights.len() - 1
}

/// A value in `lo..=hi`.
fn between(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

fn gen_bitmap(rng: &mut TestRng) -> BufferMap {
    let len = match weighted(rng, &[6, 3, 1]) {
        0 => between(rng, 0, 64),
        1 => between(rng, 65, 2048),
        _ => between(rng, 0xFF00, u64::from(u16::MAX)),
    } as u16;
    let start = rng.next_u64();
    let fill = rng.next_u64() as u8;
    // Bitmaps may carry spare bytes past `len`; the wire trusts
    // `raw_bits` and the decoder reads back exactly `len` bits.
    let spare = rng.below(3) as usize;
    BufferMap::from_raw(start, len, vec![fill; (len as usize).div_ceil(8) + spare])
}

fn gen_rate(rng: &mut TestRng) -> f64 {
    match weighted(rng, &[12, 1, 1, 1, 1, 1, 1]) {
        0 => rng.unit_f64() * 1e6,
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -rng.unit_f64() * 1e6 - f64::MIN_POSITIVE,
        5 => -0.0,
        _ => f64::MAX,
    }
}

/// A segment counter anywhere in `u32`, its ends included.
fn gen_counter(rng: &mut TestRng) -> u32 {
    match weighted(rng, &[1, 1, 6]) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

fn gen_report(rng: &mut TestRng) -> PeerReport {
    let partners = match weighted(rng, &[6, 3, 1]) {
        0 => between(rng, 0, 8),
        1 => between(rng, 9, MAX_WIRE_PARTNERS as u64),
        _ => MAX_WIRE_PARTNERS as u64,
    };
    let time = match weighted(rng, &[1, 1, 2]) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64(),
    };
    PeerReport {
        time: SimTime::from_millis(time),
        addr: PeerAddr::from_u32(rng.next_u64() as u32),
        channel: ChannelId(rng.next_u64() as u16),
        buffer_map: gen_bitmap(rng),
        download_capacity_kbps: gen_rate(rng),
        upload_capacity_kbps: gen_rate(rng),
        recv_throughput_kbps: gen_rate(rng),
        send_throughput_kbps: gen_rate(rng),
        partners: (0..partners)
            .map(|_| PartnerRecord {
                addr: PeerAddr::from_u32(rng.next_u64() as u32),
                tcp_port: rng.next_u64() as u16,
                udp_port: rng.next_u64() as u16,
                segments_sent: gen_counter(rng),
                segments_received: gen_counter(rng),
            })
            .collect(),
    }
}

/// Random reports: 0–512 partners, bitmaps of 0–65 535 bits (odd
/// lengths and spare bytes included), extreme times and starts,
/// counters over all of `u32`, and negative or non-finite rates.
fn arb_report() -> FnStrategy<fn(&mut TestRng) -> PeerReport> {
    FnStrategy(gen_report)
}

/// The encoding of a random report with at least one partner, with
/// one record's sent or received counter raised past `u32::MAX`
/// (2³² itself a quarter of the time).
fn gen_out_of_range(rng: &mut TestRng) -> Vec<u8> {
    let mut report = gen_report(rng);
    if report.partners.is_empty() {
        report.partners.push(PartnerRecord {
            addr: PeerAddr::from_u32(1),
            tcp_port: 1,
            udp_port: 2,
            segments_sent: 0,
            segments_received: 0,
        });
    }
    let mut bytes = Vec::new();
    reference::encode_into(&report, &mut bytes);
    let n = report.partners.len();
    let record = bytes.len() - 24 * (n - rng.below(n as u64) as usize);
    let at = record + [8, 16][rng.below(2) as usize];
    let value = match weighted(rng, &[1, 3]) {
        0 => 1 << 32,
        _ => between(rng, 1 << 32, u64::MAX),
    };
    bytes[at..at + 8].copy_from_slice(&value.to_be_bytes());
    bytes
}

fn arb_out_of_range() -> FnStrategy<fn(&mut TestRng) -> Vec<u8>> {
    FnStrategy(gen_out_of_range)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same bytes from both encoders, `encoded_len` exact, and the
    /// whole datagram — alone, and with trailing bytes — decodes
    /// alike.
    #[test]
    fn encoding_and_whole_decode_match_the_reference(
        report in arb_report(),
        trailer in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut expected = Vec::new();
        reference::encode_into(&report, &mut expected);
        let mut fresh = Vec::new();
        wire::encode_into(&report, &mut fresh);
        prop_assert_eq!(&fresh, &expected);
        prop_assert_eq!(wire::encoded_len(&report), expected.len());
        prop_assert_eq!(&wire::encode(&report)[..], &expected[..]);
        // Appending to a non-empty buffer leaves the prefix alone.
        let mut appended = vec![0xA5; 3];
        wire::encode_into(&report, &mut appended);
        prop_assert_eq!(&appended[..3], &[0xA5; 3][..]);
        prop_assert_eq!(&appended[3..], &expected[..]);

        assert_decodes_alike(&expected);
        let mut padded = expected.clone();
        padded.extend_from_slice(&trailer);
        assert_decodes_alike(&padded);
    }

    /// Every truncation of every encoding fails (or, for a cut in
    /// spare bitmap bytes, succeeds) exactly as the reference does.
    #[test]
    fn every_truncation_decodes_like_the_reference(report in arb_report()) {
        let mut bytes = Vec::new();
        reference::encode_into(&report, &mut bytes);
        for cut in 0..bytes.len() {
            assert_decodes_alike(&bytes[..cut]);
        }
    }

    /// A counter past `u32::MAX` fails as the reference fails — an
    /// invalid counter, or whichever error a record before it or the
    /// header earns first — whole, with trailing bytes, and cut
    /// anywhere.
    #[test]
    fn out_of_range_counters_decode_like_the_reference(bytes in arb_out_of_range()) {
        assert!(outcome(&bytes[..], reference::decode).is_err());
        assert_decodes_alike(&bytes);
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 24]);
        assert_decodes_alike(&padded);
        for cut in 0..bytes.len() {
            assert_decodes_alike(&bytes[..cut]);
        }
    }
}

/// A clean report with three partners, all counters small.
fn three_partner_report() -> PeerReport {
    PeerReport {
        time: SimTime::at(0, 9, 0),
        addr: PeerAddr::from_u32(0x0B00_0001),
        channel: ChannelId(1),
        buffer_map: BufferMap::new(500, 150),
        download_capacity_kbps: 1_000.0,
        upload_capacity_kbps: 500.0,
        recv_throughput_kbps: 400.0,
        send_throughput_kbps: 100.0,
        partners: (0..3u32)
            .map(|i| PartnerRecord {
                addr: PeerAddr::from_u32(0x0C00_0000 + i),
                tcp_port: 1,
                udp_port: 2,
                segments_sent: 40 + i,
                segments_received: 7_700 - i,
            })
            .collect(),
    }
}

/// Decodes `bytes` in place and through the chunked copy-out path.
fn decode_both_ways(bytes: &[u8]) -> [Result<PeerReport, WireError>; 2] {
    let mid = bytes.len() / 2;
    [
        wire::decode(&mut &bytes[..]),
        wire::decode(&mut TwoChunks {
            first: &bytes[..mid],
            second: &bytes[mid..],
        }),
    ]
}

/// 2³² in either counter of any record is `Invalid`, naming the
/// counter, on both decode paths — never truncated to 0.
#[test]
fn counter_of_two_to_the_32_is_invalid_on_both_paths() {
    let report = three_partner_report();
    let clean = wire::encode(&report);
    let records = clean.len() - 24 * report.partners.len();
    for record in 0..report.partners.len() {
        for (offset, context) in [(8, "segments sent"), (16, "segments received")] {
            let mut bytes = clean.to_vec();
            let at = records + 24 * record + offset;
            bytes[at..at + 8].copy_from_slice(&(1u64 << 32).to_be_bytes());
            for outcome in decode_both_ways(&bytes) {
                assert_eq!(
                    outcome,
                    Err(WireError::Invalid { context }),
                    "record {record}"
                );
            }
        }
    }
}

/// `u32::MAX` in both counters survives the wire on both decode
/// paths.
#[test]
fn u32_max_counters_round_trip() {
    let mut report = three_partner_report();
    for p in &mut report.partners {
        p.segments_sent = u32::MAX;
        p.segments_received = u32::MAX;
    }
    let bytes = wire::encode(&report);
    for outcome in decode_both_ways(&bytes) {
        assert_eq!(outcome.as_ref(), Ok(&report));
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixed report's encoding is pinned: the wire format is
/// protocol and archive format at once, so neither encoder may move
/// a byte.
#[test]
fn fixed_report_encoding_is_pinned() {
    let mut buffer_map = BufferMap::new(1_000, 150);
    for seg in [1_000, 1_001, 1_077, 1_149] {
        buffer_map.set(seg);
    }
    let report = PeerReport {
        time: SimTime::at(3, 21, 10),
        addr: PeerAddr::from_u32(0x0B01_0203),
        channel: ChannelId(7),
        buffer_map,
        download_capacity_kbps: 2048.5,
        upload_capacity_kbps: 512.25,
        recv_throughput_kbps: 398.0,
        send_throughput_kbps: 610.0,
        partners: (0..45u32)
            .map(|i| PartnerRecord {
                addr: PeerAddr::from_u32(0x0C00_0000 + i),
                tcp_port: 9000 + i as u16,
                udp_port: 9100 + i as u16,
                segments_sent: i * 17,
                segments_received: i * 31,
            })
            .collect(),
    };
    let mut expected = Vec::new();
    reference::encode_into(&report, &mut expected);
    let bytes = wire::encode(&report);
    assert_eq!(&bytes[..], &expected[..]);
    assert_eq!(bytes.len(), 77 + 24 * 45);
    assert_eq!(wire::encoded_len(&report), bytes.len());
    assert_eq!(
        fnv1a(&bytes),
        0x9E134D7C529DAA0D,
        "fixed report encoding moved"
    );
}
