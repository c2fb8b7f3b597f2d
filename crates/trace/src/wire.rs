//! Binary wire encoding of peer reports.
//!
//! The real system shipped reports to the trace server as UDP
//! datagrams; this module provides the equivalent compact encoding on
//! top of the `bytes` crate, with a strict, length-checked decoder.

use crate::buffer::BufferMap;
use crate::gateway::SubmitError;
use crate::report::{PartnerRecord, PeerReport};
use bytes::{Buf, BufMut, Bytes};
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

/// Encodes a report into a datagram.
pub fn encode(report: &PeerReport) -> Bytes {
    let mut b = Vec::with_capacity(64 + report.partners.len() * 24);
    encode_into(report, &mut b);
    Bytes::from(b)
}

/// Appends the datagram encoding of `report` to `out` — [`encode`]
/// for callers that own a reusable buffer or are assembling a larger
/// frame around the payload.
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

/// Decodes a datagram produced by [`encode`].
///
/// # Errors
///
/// Returns [`WireError`] when the datagram is truncated or carries an
/// impossible field (oversized bitmap or partner list, non-finite
/// capacity).
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
