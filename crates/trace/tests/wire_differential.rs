//! Differential tests of the report codec: the fixed-layout encoder
//! and in-place decoder in `wire` against the accessor-based codec
//! they replaced, kept here verbatim as the reference. Every encoding
//! must be byte-identical, and every decode — of a whole datagram, of
//! every truncation of it, and with trailing bytes — must give the
//! same report or the same error with the same context.

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
            out.put_u64(p.segments_sent);
            out.put_u64(p.segments_received);
        }
    }

    fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
        if buf.remaining() < n {
            Err(WireError::UnexpectedEof { context })
        } else {
            Ok(())
        }
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
                segments_sent: buf.get_u64(),
                segments_received: buf.get_u64(),
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
                segments_sent: rng.next_u64(),
                segments_received: rng.next_u64(),
            })
            .collect(),
    }
}

/// Random reports: 0–512 partners, bitmaps of 0–65 535 bits (odd
/// lengths and spare bytes included), extreme times and starts, and
/// negative or non-finite rates.
fn arb_report() -> FnStrategy<fn(&mut TestRng) -> PeerReport> {
    FnStrategy(gen_report)
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
                segments_sent: u64::from(i) * 17,
                segments_received: u64::from(i) * 31,
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
