//! Binary wire encoding of peer reports.
//!
//! The real system shipped reports to the trace server as UDP
//! datagrams; this module provides the equivalent compact encoding on
//! top of the `bytes` crate, with a strict, length-checked decoder.

use crate::buffer::BufferMap;
use crate::gateway::SubmitError;
use crate::report::{PartnerRecord, PeerReport};
use bytes::{Buf, Bytes};
use magellan_netsim::{PeerAddr, SimTime};
use magellan_workload::ChannelId;
use std::error::Error;
use std::fmt;

/// Errors produced while decoding a report datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    UnexpectedEof {
        /// What was being decoded.
        context: &'static str,
    },
    /// A decoded field failed validation.
    Invalid {
        /// What was wrong.
        context: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { context } => {
                write!(f, "unexpected end of datagram while reading {context}")
            }
            WireError::Invalid { context } => write!(f, "invalid field: {context}"),
        }
    }
}

impl Error for WireError {}

/// Upper bound on the partner list length a datagram may carry;
/// bootstrap hands out at most 50 partners and gossip adds few more,
/// so anything beyond this is corruption.
pub const MAX_WIRE_PARTNERS: usize = 512;

/// Wire-level admission status, one byte on the reply path of the
/// networked service. Every [`SubmitError`] variant maps to exactly
/// one code (plus the two success codes), so the in-process and
/// networked paths cannot drift: [`StatusCode::from_admission`] and
/// [`StatusCode::into_admission`] are inverse total mappings, pinned
/// by an exhaustive round-trip test.
///
/// The numeric values are part of the protocol — never renumber, only
/// append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StatusCode {
    /// Fresh report admitted and stored.
    Ack = 0,
    /// Duplicate `(peer, timestamp)` absorbed idempotently — the
    /// client should treat this as delivered.
    AckDuplicate = 1,
    /// Ingest saturated; back off and retransmit
    /// ([`SubmitError::Busy`]).
    Busy = 2,
    /// Endpoint down; buffer and retransmit
    /// ([`SubmitError::Unavailable`]).
    Unavailable = 3,
    /// Timestamp outside the collection window
    /// ([`SubmitError::OutOfWindow`]).
    OutOfWindow = 4,
    /// A field failed sanity checks ([`SubmitError::Implausible`]).
    Implausible = 5,
    /// The datagram could not be decoded
    /// ([`SubmitError::Malformed`]).
    Malformed = 6,
    /// Report arrived behind the sealed merge frontier
    /// ([`SubmitError::Late`]).
    Late = 7,
    /// Sender over its token-bucket allowance; back off and
    /// retransmit ([`SubmitError::RateLimited`]).
    RateLimited = 8,
}

impl StatusCode {
    /// Every status code, in wire order — exhaustiveness harness.
    pub const ALL: [StatusCode; 9] = [
        StatusCode::Ack,
        StatusCode::AckDuplicate,
        StatusCode::Busy,
        StatusCode::Unavailable,
        StatusCode::OutOfWindow,
        StatusCode::Implausible,
        StatusCode::Malformed,
        StatusCode::Late,
        StatusCode::RateLimited,
    ];

    /// The one-byte wire value.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte; `None` for codes this build does not know
    /// (a newer server talking to an older client).
    pub fn from_u8(v: u8) -> Option<StatusCode> {
        StatusCode::ALL.get(v as usize).copied()
    }

    /// Maps an admission outcome ([`crate::gateway::GatewayCore`]'s
    /// `Ok(fresh)` / [`SubmitError`]) to its wire code.
    pub fn from_admission(outcome: &Result<bool, SubmitError>) -> StatusCode {
        match outcome {
            Ok(true) => StatusCode::Ack,
            Ok(false) => StatusCode::AckDuplicate,
            Err(SubmitError::Busy { .. }) => StatusCode::Busy,
            Err(SubmitError::Unavailable { .. }) => StatusCode::Unavailable,
            Err(SubmitError::OutOfWindow { .. }) => StatusCode::OutOfWindow,
            Err(SubmitError::Implausible { .. }) => StatusCode::Implausible,
            Err(SubmitError::Malformed(_)) => StatusCode::Malformed,
            Err(SubmitError::Late { .. }) => StatusCode::Late,
            // Exhaustive on purpose: adding a `SubmitError` variant
            // must force a decision about its wire code here.
            Err(SubmitError::RateLimited { .. }) => StatusCode::RateLimited,
        }
    }

    /// Reconstructs the client-side admission outcome from a wire
    /// code. `at` stamps the time-carrying variants (the client's
    /// send time — the server's own clock never crosses the wire).
    /// Error payloads that cannot cross the wire (`&'static str`
    /// contexts) come back as fixed remote-failure markers.
    pub fn into_admission(self, at: SimTime) -> Result<bool, SubmitError> {
        match self {
            StatusCode::Ack => Ok(true),
            StatusCode::AckDuplicate => Ok(false),
            StatusCode::Busy => Err(SubmitError::Busy { time: at }),
            StatusCode::Unavailable => Err(SubmitError::Unavailable { time: at }),
            StatusCode::OutOfWindow => Err(SubmitError::OutOfWindow { time: at }),
            StatusCode::Implausible => Err(SubmitError::Implausible {
                what: "rejected by remote validation",
            }),
            StatusCode::Malformed => Err(SubmitError::Malformed(WireError::Invalid {
                context: "rejected by remote decoder",
            })),
            StatusCode::Late => Err(SubmitError::Late { time: at }),
            StatusCode::RateLimited => Err(SubmitError::RateLimited { time: at }),
        }
    }

    /// Whether a retransmission of the same report can succeed later.
    /// Retryable bounces are transient server states; everything else
    /// is a permanent verdict on this report.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            StatusCode::Busy | StatusCode::Unavailable | StatusCode::RateLimited
        )
    }

    /// Whether the report is settled server-side (stored or absorbed)
    /// — the client counts it delivered and must not retransmit.
    pub fn is_delivered(self) -> bool {
        matches!(self, StatusCode::Ack | StatusCode::AckDuplicate)
    }
}

/// Bytes of the fixed header: time (`u64`), address (`u32`), channel
/// (`u16`), bitmap start (`u64`), bitmap length (`u16`).
const HEADER_LEN: usize = 8 + 4 + 2 + 8 + 2;

/// Bytes of the capacity block after the bitmap: four `f64` rates and
/// the partner count (`u16`).
const CAPACITY_LEN: usize = 8 * 4 + 2;

/// Bytes of one partner record: address (`u32`), TCP and UDP ports
/// (`u16` each), segments sent and received (`u64` each, holding a
/// `u32` counter).
const PARTNER_LEN: usize = 4 + 2 + 2 + 8 + 8;

/// Exact length of `report`'s datagram encoding — what [`encode`]
/// allocates and [`encode_into`] appends.
pub fn encoded_len(report: &PeerReport) -> usize {
    HEADER_LEN
        + report.buffer_map.raw_bits().len()
        + CAPACITY_LEN
        + PARTNER_LEN * report.partners.len()
}

/// Encodes a report into a datagram.
pub fn encode(report: &PeerReport) -> Bytes {
    let mut b = Vec::with_capacity(encoded_len(report));
    encode_into(report, &mut b);
    Bytes::from(b)
}

/// Appends the datagram encoding of `report` to `out` — [`encode`]
/// for callers that own a reusable buffer or are assembling a larger
/// frame around the payload.
///
/// The layout is fixed-width records (header, bitmap, capacity block,
/// partner records), each filled in place as a big-endian array.
pub fn encode_into(report: &PeerReport, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + encoded_len(report), 0);
    let Some(dst) = out.get_mut(start..) else {
        return;
    };
    let bits = report.buffer_map.raw_bits();
    let (head, rest) = dst.split_at_mut(HEADER_LEN);
    head[0..8].copy_from_slice(&report.time.as_millis().to_be_bytes());
    head[8..12].copy_from_slice(&report.addr.as_u32().to_be_bytes());
    head[12..14].copy_from_slice(&report.channel.0.to_be_bytes());
    head[14..22].copy_from_slice(&report.buffer_map.start().to_be_bytes());
    head[22..24].copy_from_slice(&report.buffer_map.len().to_be_bytes());
    let (bitmap, rest) = rest.split_at_mut(bits.len());
    bitmap.copy_from_slice(bits);
    let (caps, records) = rest.split_at_mut(CAPACITY_LEN);
    caps[0..8].copy_from_slice(&report.download_capacity_kbps.to_bits().to_be_bytes());
    caps[8..16].copy_from_slice(&report.upload_capacity_kbps.to_bits().to_be_bytes());
    caps[16..24].copy_from_slice(&report.recv_throughput_kbps.to_bits().to_be_bytes());
    caps[24..32].copy_from_slice(&report.send_throughput_kbps.to_bits().to_be_bytes());
    caps[32..34].copy_from_slice(&(report.partners.len() as u16).to_be_bytes());
    for (rec, p) in records.chunks_exact_mut(PARTNER_LEN).zip(&report.partners) {
        rec[0..4].copy_from_slice(&p.addr.as_u32().to_be_bytes());
        rec[4..6].copy_from_slice(&p.tcp_port.to_be_bytes());
        rec[6..8].copy_from_slice(&p.udp_port.to_be_bytes());
        rec[8..16].copy_from_slice(&u64::from(p.segments_sent).to_be_bytes());
        rec[16..24].copy_from_slice(&u64::from(p.segments_received).to_be_bytes());
    }
}

/// Decodes a datagram produced by [`encode`].
///
/// The report is parsed as fixed-width records straight out of a
/// contiguous buffer (every [`Buf`] this workspace uses); a chunked
/// one is first copied out. Either way exactly the report's bytes are
/// consumed on success.
///
/// # Errors
///
/// Returns [`WireError`] when the datagram is truncated or carries an
/// impossible field (oversized bitmap or partner list, non-finite
/// capacity, a segment counter above `u32::MAX`).
pub fn decode(buf: &mut impl Buf) -> Result<PeerReport, WireError> {
    if buf.chunk().len() < buf.remaining() {
        return decode_chunked(buf);
    }
    let (report, used) = decode_slice(buf.chunk())?;
    buf.advance(used);
    Ok(report)
}

fn be_u16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn be_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn be_u64(b: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&b[at..at + 8]);
    u64::from_be_bytes(raw)
}

/// The error of a partner record whose sent or received counter (8
/// bytes each on the wire) does not fit the `u32` it decodes into.
fn counter_error(rec: &[u8]) -> Option<WireError> {
    let context = if be_u32(rec, 8) != 0 {
        "segments sent"
    } else if be_u32(rec, 16) != 0 {
        "segments received"
    } else {
        return None;
    };
    Some(WireError::Invalid { context })
}

fn take<'a>(src: &mut &'a [u8], n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
    if src.len() < n {
        return Err(WireError::UnexpectedEof { context });
    }
    let (head, rest) = src.split_at(n);
    *src = rest;
    Ok(head)
}

fn check_capacities(caps: [f64; 4]) -> Result<(), WireError> {
    const CONTEXTS: [&str; 4] = [
        "download capacity",
        "upload capacity",
        "recv throughput",
        "send throughput",
    ];
    for (v, context) in caps.into_iter().zip(CONTEXTS) {
        if !v.is_finite() || v < 0.0 {
            return Err(WireError::Invalid { context });
        }
    }
    Ok(())
}

/// [`decode`] over one contiguous slice: the report and the bytes it
/// took.
fn decode_slice(src: &[u8]) -> Result<(PeerReport, usize), WireError> {
    let mut rest = src;
    let head = take(&mut rest, HEADER_LEN, "header")?;
    let bm_len = be_u16(head, 22);
    let bits = take(&mut rest, (bm_len as usize).div_ceil(8), "buffer map")?;
    let caps = take(&mut rest, CAPACITY_LEN, "capacities")?;
    let rates = [0, 8, 16, 24].map(|at| f64::from_bits(be_u64(caps, at)));
    check_capacities(rates)?;
    let n = be_u16(caps, 32) as usize;
    if n > MAX_WIRE_PARTNERS {
        return Err(WireError::Invalid {
            context: "partner count",
        });
    }
    // Records are checked in order, each before the next one's length:
    // a bad counter ahead of a truncation is the error, as when the
    // records were read one at a time.
    let whole = n.min(rest.len() / PARTNER_LEN);
    let (records, tail) = rest.split_at(whole * PARTNER_LEN);
    if let Some(e) = records.chunks_exact(PARTNER_LEN).find_map(counter_error) {
        return Err(e);
    }
    if whole < n {
        return Err(WireError::UnexpectedEof {
            context: "partner record",
        });
    }
    rest = tail;
    // The report owns its bitmap and partner list: one allocation
    // each, sized exactly.
    let mut partners = Vec::with_capacity(n);
    partners.extend(records.chunks_exact(PARTNER_LEN).map(|rec| PartnerRecord {
        addr: PeerAddr::from_u32(be_u32(rec, 0)),
        tcp_port: be_u16(rec, 4),
        udp_port: be_u16(rec, 6),
        // Each counter's high half is zero: checked above.
        segments_sent: be_u32(rec, 12),
        segments_received: be_u32(rec, 20),
    }));
    let mut bitmap = Vec::with_capacity(bits.len());
    bitmap.extend_from_slice(bits);
    let [download_capacity_kbps, upload_capacity_kbps, recv_throughput_kbps, send_throughput_kbps] =
        rates;
    let report = PeerReport {
        time: SimTime::from_millis(be_u64(head, 0)),
        addr: PeerAddr::from_u32(be_u32(head, 8)),
        channel: ChannelId(be_u16(head, 12)),
        buffer_map: BufferMap::from_raw(be_u64(head, 14), bm_len, bitmap),
        download_capacity_kbps,
        upload_capacity_kbps,
        recv_throughput_kbps,
        send_throughput_kbps,
        partners,
    };
    Ok((report, src.len() - rest.len()))
}

/// [`decode`] for a buffer whose unread bytes are not one slice:
/// copies out exactly the report's bytes — the header gives the bitmap
/// length, the capacity block the partner count — or all that remain
/// when they are fewer, and parses the copy as one slice. Only
/// `chunk` and `advance` are used, so the bytes past the report stay
/// unread.
fn decode_chunked(buf: &mut impl Buf) -> Result<PeerReport, WireError> {
    let mut bytes = Vec::new();
    copy_up_to(buf, &mut bytes, HEADER_LEN);
    if let Some(head) = bytes.get(..HEADER_LEN) {
        let caps_end = HEADER_LEN + (be_u16(head, 22) as usize).div_ceil(8) + CAPACITY_LEN;
        copy_up_to(buf, &mut bytes, caps_end);
        if let Some(count) = bytes.get(caps_end - 2..caps_end) {
            let records = be_u16(count, 0) as usize * PARTNER_LEN;
            copy_up_to(buf, &mut bytes, caps_end + records);
        }
    }
    decode_slice(&bytes).map(|(report, _)| report)
}

/// Moves bytes from `buf` to `out` until `out` holds `len` of them
/// or `buf` runs dry.
fn copy_up_to(buf: &mut impl Buf, out: &mut Vec<u8>, len: usize) {
    while out.len() < len && buf.has_remaining() {
        let chunk = buf.chunk();
        let n = chunk.len().min(len - out.len());
        out.extend_from_slice(&chunk[..n]);
        buf.advance(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> PeerReport {
        let mut bm = BufferMap::new(1000, 32);
        bm.set(1001);
        bm.set(1030);
        PeerReport {
            time: SimTime::at(3, 21, 10),
            addr: PeerAddr::from_u32(0x0B01_0203),
            channel: ChannelId(7),
            buffer_map: bm,
            download_capacity_kbps: 2048.5,
            upload_capacity_kbps: 512.25,
            recv_throughput_kbps: 398.0,
            send_throughput_kbps: 610.0,
            partners: vec![
                PartnerRecord {
                    addr: PeerAddr::from_u32(0x0C000001),
                    tcp_port: 9000,
                    udp_port: 9001,
                    segments_sent: 120,
                    segments_received: 14,
                },
                PartnerRecord {
                    addr: PeerAddr::from_u32(0x0D000002),
                    tcp_port: 9100,
                    udp_port: 9101,
                    segments_sent: 0,
                    segments_received: 999,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let bytes = encode(&r);
        let back = decode(&mut bytes.clone()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn roundtrip_empty_partner_list() {
        let mut r = sample();
        r.partners.clear();
        let bytes = encode(&r);
        assert_eq!(decode(&mut bytes.clone()).unwrap(), r);
    }

    #[test]
    fn truncation_at_every_length_is_an_eof_not_a_panic() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let mut short = bytes.slice(0..cut);
            match decode(&mut short) {
                Err(WireError::UnexpectedEof { .. }) => {}
                Ok(_) => panic!("decode succeeded on {cut}-byte truncation"),
                Err(e) => panic!("wrong error on truncation at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn oversized_partner_count_is_rejected() {
        let mut r = sample();
        r.partners.clear();
        let mut raw = BytesMut::from(&encode(&r)[..]);
        // Overwrite the trailing partner-count u16 with a huge value.
        let len = raw.len();
        raw[len - 2..].copy_from_slice(&(u16::MAX).to_be_bytes());
        let mut buf = raw.freeze();
        assert_eq!(
            decode(&mut buf),
            Err(WireError::Invalid {
                context: "partner count"
            })
        );
    }

    #[test]
    fn non_finite_capacity_is_rejected() {
        let mut r = sample();
        r.upload_capacity_kbps = f64::NAN;
        let bytes = encode(&r);
        assert!(matches!(
            decode(&mut bytes.clone()),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::UnexpectedEof { context: "header" };
        assert!(e.to_string().contains("header"));
    }

    /// Every admission outcome a gateway can produce — both success
    /// arms and *every* [`SubmitError`] variant — maps to a status
    /// code and back to a semantically equivalent outcome. Adding a
    /// `SubmitError` variant without extending [`StatusCode`] breaks
    /// this test (via the `debug_assert` in `from_admission`), which
    /// is the point: the in-process and networked paths cannot drift.
    #[test]
    fn every_submit_error_round_trips_through_a_status_code() {
        let at = SimTime::at(0, 3, 0);
        let outcomes: Vec<Result<bool, SubmitError>> = vec![
            Ok(true),
            Ok(false),
            Err(SubmitError::Busy { time: at }),
            Err(SubmitError::Unavailable { time: at }),
            Err(SubmitError::OutOfWindow { time: at }),
            Err(SubmitError::Implausible {
                what: "rejected by remote validation",
            }),
            Err(SubmitError::Malformed(WireError::Invalid {
                context: "rejected by remote decoder",
            })),
            Err(SubmitError::Late { time: at }),
            Err(SubmitError::RateLimited { time: at }),
        ];
        // One outcome per code: the mapping is a bijection over ALL.
        assert_eq!(outcomes.len(), StatusCode::ALL.len());
        let mut seen = std::collections::BTreeSet::new();
        for outcome in &outcomes {
            let code = StatusCode::from_admission(outcome);
            assert!(seen.insert(code), "two outcomes map to {code:?}");
            // The representative outcomes above are exactly the fixed
            // points of the wire mapping, so the round trip is exact.
            assert_eq!(&code.into_admission(at), outcome, "code {code:?}");
        }
        assert_eq!(seen.len(), StatusCode::ALL.len(), "unreached status code");
    }

    /// The numeric wire values are frozen protocol; `from_u8` is the
    /// exact inverse on known codes and `None` past the end.
    #[test]
    fn status_code_bytes_are_stable_and_invertible() {
        let pinned: [(StatusCode, u8); 9] = [
            (StatusCode::Ack, 0),
            (StatusCode::AckDuplicate, 1),
            (StatusCode::Busy, 2),
            (StatusCode::Unavailable, 3),
            (StatusCode::OutOfWindow, 4),
            (StatusCode::Implausible, 5),
            (StatusCode::Malformed, 6),
            (StatusCode::Late, 7),
            (StatusCode::RateLimited, 8),
        ];
        for (code, byte) in pinned {
            assert_eq!(code.as_u8(), byte, "{code:?} renumbered");
            assert_eq!(StatusCode::from_u8(byte), Some(code));
        }
        for unknown in StatusCode::ALL.len() as u8..=u8::MAX {
            assert_eq!(StatusCode::from_u8(unknown), None);
        }
    }

    /// Retry classification partitions the codes: delivered and
    /// retryable are disjoint, and the permanent rejections are
    /// everything else.
    #[test]
    fn retry_classification_partitions_the_codes() {
        for code in StatusCode::ALL {
            assert!(
                !(code.is_delivered() && code.is_retryable()),
                "{code:?} both delivered and retryable"
            );
            let expect_retry = matches!(
                code,
                StatusCode::Busy | StatusCode::Unavailable | StatusCode::RateLimited
            );
            assert_eq!(code.is_retryable(), expect_retry);
            // A retryable bounce must come back as an error the
            // uplink buffers rather than counts rejected.
            if code.is_retryable() {
                assert!(matches!(
                    code.into_admission(SimTime::ORIGIN),
                    Err(SubmitError::Busy { .. }
                        | SubmitError::Unavailable { .. }
                        | SubmitError::RateLimited { .. })
                ));
            }
        }
    }
}
