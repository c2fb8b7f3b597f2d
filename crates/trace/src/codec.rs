//! Message codec of the networked ingest service.
//!
//! `magellan-traced` speaks one message vocabulary over TCP: each
//! encoded [`ClientMsg`] body travels inside a length-prefixed frame
//! (u32 big-endian length, then the body — [`frame`] /
//! [`FrameReader`]). Replies travel the opposite way as
//! fixed-size [`ReplyMsg`]s carrying the report sequence number and
//! its [`StatusCode`].
//!
//! Report payloads stay opaque [`Bytes`] at this layer: the service
//! routes a report to its shard by peeking the address field
//! ([`peek_report_addr`]) and only the owning shard runs the full
//! [`crate::wire::decode`], so a corrupt payload is charged to
//! exactly one shard's `malformed` counter and costs at most that one
//! report.

use crate::wire::{StatusCode, WireError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use magellan_netsim::{PeerAddr, SimTime};

/// Upper bound on a frame body. A report datagram is a few hundred
/// bytes (≤ [`crate::wire::MAX_WIRE_PARTNERS`] partner records at 24
/// bytes each plus a small header), so anything near this bound is
/// corruption — the reader drops the connection rather than buffering
/// an attacker-controlled length.
pub const MAX_FRAME: usize = 64 * 1024;

/// Bytes of the fixed-size length prefix in front of every TCP frame.
pub const FRAME_HEADER: usize = 4;

const TAG_HELLO: u8 = 1;
const TAG_REPORT: u8 = 2;
const TAG_WINDOW_MARK: u8 = 3;
const TAG_FINISH: u8 = 4;

/// One client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Session open: which client of how many is speaking. The
    /// coordinator waits for all `clients` hellos before sequencing
    /// any merge.
    Hello {
        /// This client's index in `0..clients`.
        client_id: u32,
        /// Total clients participating in the drill.
        clients: u32,
    },
    /// One wire-encoded peer report ([`crate::wire::encode`]) with a
    /// per-connection sequence number the reply echoes back.
    Report {
        /// Client-chosen sequence number, echoed in the [`ReplyMsg`].
        seq: u64,
        /// The opaque `wire::encode`d report body.
        payload: Bytes,
    },
    /// Barrier mark: this client has sent every report with
    /// `time < up_to`. The coordinator merges a window once all
    /// clients' marks have passed it.
    WindowMark {
        /// This client's index.
        client_id: u32,
        /// Exclusive frontier of the client's sent reports.
        up_to: SimTime,
    },
    /// Session close: the client is done and transmitted `sent` report
    /// datagrams in total (including retransmissions) — the number the
    /// server reconciles its loss accounting against.
    Finish {
        /// This client's index.
        client_id: u32,
        /// Report datagrams the client put on the wire.
        sent: u64,
    },
}

/// Server-to-client reply for one report submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMsg {
    /// The sequence number of the report being answered.
    pub seq: u64,
    /// Admission verdict.
    pub status: StatusCode,
}

/// Encodes a message body (no frame header — [`frame`] adds it).
pub fn encode_client_msg(msg: &ClientMsg) -> Bytes {
    let mut b = BytesMut::with_capacity(32);
    match msg {
        ClientMsg::Hello { client_id, clients } => {
            b.put_u8(TAG_HELLO);
            b.put_u32(*client_id);
            b.put_u32(*clients);
        }
        ClientMsg::Report { seq, payload } => {
            b.reserve(9 + payload.len());
            b.put_u8(TAG_REPORT);
            b.put_u64(*seq);
            b.put_slice(payload);
        }
        ClientMsg::WindowMark { client_id, up_to } => {
            b.put_u8(TAG_WINDOW_MARK);
            b.put_u32(*client_id);
            b.put_u64(up_to.as_millis());
        }
        ClientMsg::Finish { client_id, sent } => {
            b.put_u8(TAG_FINISH);
            b.put_u32(*client_id);
            b.put_u64(*sent);
        }
    }
    b.freeze()
}

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::UnexpectedEof { context })
    } else {
        Ok(())
    }
}

fn reject_trailing(buf: &impl Buf) -> Result<(), WireError> {
    if buf.has_remaining() {
        Err(WireError::Invalid {
            context: "trailing bytes after message",
        })
    } else {
        Ok(())
    }
}

/// Decodes one message body produced by [`encode_client_msg`].
///
/// # Errors
///
/// [`WireError`] on a truncated body, an unknown tag, or trailing
/// bytes after a fixed-size message. A `Report`'s payload is *not*
/// validated here — see the module docs.
pub fn decode_client_msg(buf: &mut impl Buf) -> Result<ClientMsg, WireError> {
    need(buf, 1, "message tag")?;
    match buf.get_u8() {
        TAG_HELLO => {
            need(buf, 8, "hello body")?;
            let msg = ClientMsg::Hello {
                client_id: buf.get_u32(),
                clients: buf.get_u32(),
            };
            reject_trailing(buf)?;
            Ok(msg)
        }
        TAG_REPORT => {
            need(buf, 8, "report seq")?;
            let seq = buf.get_u64();
            Ok(ClientMsg::Report {
                seq,
                payload: buf.copy_to_bytes(buf.remaining()),
            })
        }
        TAG_WINDOW_MARK => {
            need(buf, 12, "window mark body")?;
            let msg = ClientMsg::WindowMark {
                client_id: buf.get_u32(),
                up_to: SimTime::from_millis(buf.get_u64()),
            };
            reject_trailing(buf)?;
            Ok(msg)
        }
        TAG_FINISH => {
            need(buf, 12, "finish body")?;
            let msg = ClientMsg::Finish {
                client_id: buf.get_u32(),
                sent: buf.get_u64(),
            };
            reject_trailing(buf)?;
            Ok(msg)
        }
        _ => Err(WireError::Invalid {
            context: "message tag",
        }),
    }
}

/// Exact size of an encoded [`ReplyMsg`]. Replies are fixed-size, so
/// they travel as raw [`REPLY_LEN`]-byte records (no length framing
/// needed).
pub const REPLY_LEN: usize = 9;

/// Encodes a reply ([`REPLY_LEN`] bytes).
pub fn encode_reply(reply: &ReplyMsg) -> Bytes {
    let mut b = Vec::with_capacity(REPLY_LEN);
    put_reply(&mut b, reply);
    Bytes::from(b)
}

/// Appends the [`REPLY_LEN`]-byte encoding of `reply` to `out` — for
/// a server writing a run of replies in one go.
pub fn put_reply(out: &mut Vec<u8>, reply: &ReplyMsg) {
    out.extend_from_slice(&reply.seq.to_be_bytes());
    out.push(reply.status.as_u8());
}

/// Decodes a reply produced by [`encode_reply`].
///
/// # Errors
///
/// [`WireError`] on truncation, an unknown status byte, or trailing
/// bytes.
pub fn decode_reply(buf: &mut impl Buf) -> Result<ReplyMsg, WireError> {
    need(buf, REPLY_LEN, "reply")?;
    let seq = buf.get_u64();
    let status = StatusCode::from_u8(buf.get_u8()).ok_or(WireError::Invalid {
        context: "status code",
    })?;
    reject_trailing(buf)?;
    Ok(ReplyMsg { seq, status })
}

/// Reads the peer address out of a wire-encoded report payload
/// without a full decode — the 4 bytes after the 8-byte timestamp.
/// `None` when the payload is too short to carry one (the caller
/// routes it anywhere and lets the shard count it malformed).
pub fn peek_report_addr(payload: &[u8]) -> Option<PeerAddr> {
    let raw = payload.get(8..12)?;
    Some(PeerAddr::from_u32(u32::from_be_bytes(raw.try_into().ok()?)))
}

/// Wraps a message body in a TCP frame: u32 big-endian body length,
/// then the body.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME`] — encoded service messages
/// are bounded far below it, so an oversized body is a programming
/// error, not input.
pub fn frame(body: &[u8]) -> Bytes {
    assert!(body.len() <= MAX_FRAME, "frame body over MAX_FRAME");
    let mut b = BytesMut::with_capacity(FRAME_HEADER + body.len());
    b.put_u32(body.len() as u32);
    b.put_slice(body);
    b.freeze()
}

/// Appends one framed `Report` message — `len | tag | seq | payload`,
/// exactly the bytes of `frame(&encode_client_msg(&Report { seq,
/// payload }))` — to `out` without building the intermediate buffers.
///
/// # Panics
///
/// As [`frame`], if the body would exceed [`MAX_FRAME`].
pub(crate) fn put_report_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let body = 1 + 8 + payload.len();
    assert!(body <= MAX_FRAME, "frame body over MAX_FRAME");
    out.reserve(FRAME_HEADER + body);
    out.extend_from_slice(&(body as u32).to_be_bytes());
    out.push(TAG_REPORT);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Splits a `Report` message body into its sequence number and
/// payload without copying. `None` for any other message, and for a
/// `Report` too short to carry its sequence number — hand those to
/// [`decode_client_msg`], which decodes or rejects them.
pub fn peek_report(body: &[u8]) -> Option<(u64, &[u8])> {
    let (&tag, rest) = body.split_first()?;
    if tag != TAG_REPORT || rest.len() < 8 {
        return None;
    }
    let (seq, payload) = rest.split_at(8);
    let seq = u64::from_be_bytes(seq.try_into().ok()?);
    Some((seq, payload))
}

/// Incremental TCP frame extractor: feed it whatever the socket
/// produced, pull complete frame bodies out. Tolerates arbitrary
/// chunking (a frame split across many reads, many frames in one
/// read). Consumed frames only move a read cursor; the unread tail is
/// compacted to the front once per [`FrameReader::extend`].
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unread bytes in `buf`.
    pos: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly read socket bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Extracts the next complete frame body, `Ok(None)` when more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] when a frame header announces a body
    /// over [`MAX_FRAME`] — the stream is corrupt or hostile and the
    /// connection must be dropped (the reader cannot resynchronize a
    /// length-prefixed stream).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        Ok(self.next_frame_ref()?.map(Bytes::from))
    }

    /// As [`FrameReader::next_frame`], but borrows the body from the
    /// reader's buffer instead of copying it out.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_frame`].
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let unread = self.buf.get(self.pos..).unwrap_or(&[]);
        let Some(header) = unread.get(..FRAME_HEADER) else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Invalid {
                context: "frame length",
            });
        }
        let start = self.pos + FRAME_HEADER;
        let Some(body) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        self.pos = start + len;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Hello {
                client_id: 3,
                clients: 8,
            },
            ClientMsg::Report {
                seq: 0xDEAD_BEEF_0BAD_F00D,
                payload: Bytes::from_static(b"opaque report bytes"),
            },
            ClientMsg::WindowMark {
                client_id: 3,
                up_to: SimTime::at(0, 2, 30),
            },
            ClientMsg::Finish {
                client_id: 3,
                sent: 12_345,
            },
        ]
    }

    #[test]
    fn client_messages_round_trip() {
        for msg in sample_msgs() {
            let body = encode_client_msg(&msg);
            let back = decode_client_msg(&mut body.clone()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn replies_round_trip_for_every_status() {
        for (i, status) in StatusCode::ALL.into_iter().enumerate() {
            let reply = ReplyMsg {
                seq: i as u64 * 71,
                status,
            };
            let body = encode_reply(&reply);
            assert_eq!(body.len(), 9);
            assert_eq!(decode_reply(&mut body.clone()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_messages_never_panic() {
        for msg in sample_msgs() {
            let body = encode_client_msg(&msg);
            for cut in 0..body.len() {
                // Report bodies are length-delimited by the frame, so
                // a truncated Report "decodes" into a shorter payload
                // — that is the shard decoder's problem. Fixed-size
                // messages must error.
                let _ = decode_client_msg(&mut body.slice(0..cut));
            }
        }
        let reply = encode_reply(&ReplyMsg {
            seq: 9,
            status: StatusCode::Busy,
        });
        for cut in 0..reply.len() {
            assert!(decode_reply(&mut reply.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn unknown_tag_and_status_are_invalid() {
        let mut bad_tag = BytesMut::new();
        bad_tag.put_u8(99);
        assert!(matches!(
            decode_client_msg(&mut bad_tag.freeze()),
            Err(WireError::Invalid { .. })
        ));
        let mut bad_status = BytesMut::new();
        bad_status.put_u64(1);
        bad_status.put_u8(200);
        assert!(matches!(
            decode_reply(&mut bad_status.freeze()),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn trailing_bytes_on_fixed_messages_are_invalid() {
        for msg in sample_msgs() {
            if matches!(msg, ClientMsg::Report { .. }) {
                continue;
            }
            let mut body = BytesMut::from(&encode_client_msg(&msg)[..]);
            body.put_u8(0);
            assert!(matches!(
                decode_client_msg(&mut body.freeze()),
                Err(WireError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn frame_reader_handles_arbitrary_chunking() {
        let msgs = sample_msgs();
        let mut stream = BytesMut::new();
        for msg in &msgs {
            stream.extend_from_slice(&frame(&encode_client_msg(msg)));
        }
        // Feed the whole stream one byte at a time.
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in stream.iter() {
            reader.extend(std::slice::from_ref(b));
            while let Some(body) = reader.next_frame().unwrap() {
                out.push(decode_client_msg(&mut body.clone()).unwrap());
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn report_frames_match_framed_encoded_reports() {
        let (mut out, mut expected) = (vec![0xEE], vec![0xEE]);
        for (seq, payload) in [(0u64, &b""[..]), (u64::MAX, &b"opaque report bytes"[..])] {
            put_report_frame(&mut out, seq, payload);
            let payload = Bytes::from(payload);
            let msg = ClientMsg::Report { seq, payload };
            expected.extend_from_slice(&frame(&encode_client_msg(&msg)));
        }
        assert_eq!(out, expected);
        let body = &expected[1 + FRAME_HEADER..1 + FRAME_HEADER + 9];
        assert_eq!(peek_report(body), Some((0, &b""[..])));
        assert_eq!(peek_report(&body[..8]), None, "seq cut short");
        let hello = encode_client_msg(&ClientMsg::Hello {
            client_id: 1,
            clients: 2,
        });
        assert_eq!(peek_report(&hello), None);
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn peek_addr_matches_full_decode() {
        let r = crate::report::PeerReport {
            time: SimTime::at(0, 1, 0),
            addr: PeerAddr::from_u32(0x0A0B_0C0D),
            channel: magellan_workload::ChannelId::CCTV1,
            buffer_map: crate::buffer::BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: vec![],
        };
        let payload = crate::wire::encode(&r);
        assert_eq!(peek_report_addr(&payload), Some(r.addr));
        assert_eq!(peek_report_addr(&payload[..11]), None);
    }
}
