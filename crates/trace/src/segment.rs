//! The on-disk frame and segment codec of the durable trace archive.
//!
//! Reports persist as **frames** — `magic | payload length | CRC32 |
//! payload` — appended to fixed-size **segments**. Each segment opens
//! with a checksummed header naming its index and first record, and a
//! sealed segment closes with a checksummed footer recording its frame
//! count and the CRC of the whole frame region. The codec is designed
//! for recovery: every frame is independently verifiable, so a reader
//! can skip a damaged region and resynchronise at the next valid
//! frame boundary (see [`scan_frames`]).

/// Marks the start of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MGFR";

/// Bytes of frame overhead before the payload: magic, payload length
/// (`u32`), payload CRC32 (`u32`).
pub const FRAME_HEADER_LEN: usize = 12;

/// Upper bound on a frame payload. Wire-encoded reports top out
/// around 12 KiB (512 partners); anything claiming more is corruption.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Marks the start of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MGSEG1\0\0";

/// Marks the footer of a sealed segment.
pub const FOOTER_MAGIC: [u8; 8] = *b"MGSEAL\0\0";

/// Bytes of a segment header: magic, version (`u32`), segment index
/// (`u64`), first record index (`u64`), header CRC32 (`u32`).
pub const SEGMENT_HEADER_LEN: usize = 32;

/// Bytes of a sealed-segment footer: magic, frame count (`u64`),
/// frame-region bytes (`u64`), frame-region CRC32 (`u32`), footer
/// CRC32 (`u32`).
pub const SEGMENT_FOOTER_LEN: usize = 32;

/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC state
/// contribution of byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the state with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Extends a running IEEE CRC32 state with more bytes. Start from
/// [`CRC32_INIT`] and finish with [`crc32_finish`].
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Initial state for an incremental CRC32.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Finalises an incremental CRC32 state into the checksum value.
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// The IEEE CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

/// The reflected IEEE CRC32 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `a · b` modulo the generator, in the CRC's reflected bit order
/// (bit 31 is the coefficient of x⁰).
const fn crc_multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `CRC_X2N[k]` is x^(2^k) modulo the generator.
const CRC_X2N: [u32; 32] = build_x2n_table();

const fn build_x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    // x¹ in reflected order.
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = crc_multmodp(p, p);
        k += 1;
    }
    table
}

/// x^(8·`bytes`) modulo the generator: the operator that shifts a CRC
/// past `bytes` zero bytes.
fn crc_shift_bytes(mut bytes: u64) -> u32 {
    let mut p = 1u32 << 31;
    let mut k = 3;
    while bytes != 0 {
        if bytes & 1 != 0 {
            p = crc_multmodp(CRC_X2N[k % 32], p);
        }
        bytes >>= 1;
        k += 1;
    }
    p
}

/// The CRC32 of `A ‖ B` from `crc32(A)`, `crc32(B)` and `B`'s length,
/// without reading either (zlib's `crc32_combine`). Lets a writer
/// that already checksummed a payload extend a running checksum past
/// it in O(log len) instead of a second pass over its bytes.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc_multmodp(crc_shift_bytes(len_b), crc_a) ^ crc_b
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw = bytes.get(at..at + 4)?;
    Some(u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let raw = bytes.get(at..at + 8)?;
    Some(u64::from_be_bytes([
        raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
    ]))
}

/// Appends one frame (`magic | len | crc | payload`) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — the writer
/// never produces such payloads (wire reports are bounded far below).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    append_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `fill` writes straight onto the
/// end of `out`, so an encoder can produce the payload in place; the
/// length and CRC fields are patched in afterwards.
///
/// # Panics
///
/// As [`append_frame`].
pub fn append_frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN - 4]);
    let body = out.len();
    fill(out);
    let len = out.len() - body;
    assert!(len <= MAX_FRAME_PAYLOAD, "oversized frame");
    let crc = crc32(&out[body..]);
    out[start + 4..start + 8].copy_from_slice(&(len as u32).to_be_bytes());
    out[start + 8..body].copy_from_slice(&crc.to_be_bytes());
}

/// A decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Zero-based index of this segment within the archive.
    pub index: u64,
    /// Archive-wide index of the first record in this segment.
    pub first_record: u64,
}

/// Encodes a segment header.
pub fn encode_header(header: SegmentHeader) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&SEGMENT_VERSION.to_be_bytes());
    out[12..20].copy_from_slice(&header.index.to_be_bytes());
    out[20..28].copy_from_slice(&header.first_record.to_be_bytes());
    let crc = crc32(&out[0..28]);
    out[28..32].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Decodes and verifies a segment header from the start of `bytes`.
/// Returns `None` on truncation, bad magic, version, or checksum.
pub fn decode_header(bytes: &[u8]) -> Option<SegmentHeader> {
    let raw = bytes.get(0..SEGMENT_HEADER_LEN)?;
    if raw.get(0..8)? != SEGMENT_MAGIC {
        return None;
    }
    if read_u32(raw, 8)? != SEGMENT_VERSION {
        return None;
    }
    if read_u32(raw, 28)? != crc32(&raw[0..28]) {
        return None;
    }
    Some(SegmentHeader {
        index: read_u64(raw, 12)?,
        first_record: read_u64(raw, 20)?,
    })
}

/// A decoded sealed-segment footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFooter {
    /// Number of frames sealed into the segment.
    pub records: u64,
    /// Bytes of the frame region (between header and footer).
    pub frame_bytes: u64,
    /// CRC32 of the whole frame region.
    pub frame_crc: u32,
}

/// Encodes a sealed-segment footer.
pub fn encode_footer(footer: SegmentFooter) -> [u8; SEGMENT_FOOTER_LEN] {
    let mut out = [0u8; SEGMENT_FOOTER_LEN];
    out[0..8].copy_from_slice(&FOOTER_MAGIC);
    out[8..16].copy_from_slice(&footer.records.to_be_bytes());
    out[16..24].copy_from_slice(&footer.frame_bytes.to_be_bytes());
    out[24..28].copy_from_slice(&footer.frame_crc.to_be_bytes());
    let crc = crc32(&out[0..28]);
    out[28..32].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Decodes and verifies a footer from the **last**
/// [`SEGMENT_FOOTER_LEN`] bytes of `bytes`. Returns `None` when the
/// file is too short, unsealed, or the footer is damaged.
pub fn decode_footer(bytes: &[u8]) -> Option<SegmentFooter> {
    let start = bytes.len().checked_sub(SEGMENT_FOOTER_LEN)?;
    let raw = bytes.get(start..)?;
    if raw.get(0..8)? != FOOTER_MAGIC {
        return None;
    }
    if read_u32(raw, 28)? != crc32(&raw[0..28]) {
        return None;
    }
    Some(SegmentFooter {
        records: read_u64(raw, 8)?,
        frame_bytes: read_u64(raw, 16)?,
        frame_crc: read_u32(raw, 24)?,
    })
}

/// Outcome of scanning one frame region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameScan {
    /// Frames recovered (structurally valid and accepted by the
    /// caller's decoder).
    pub frames: u64,
    /// Damaged regions skipped; each held at least one ruined frame.
    pub corrupt_regions: u64,
    /// Quarantined `(start, end)` byte ranges, relative to the scanned
    /// region plus the caller-supplied base offset.
    pub quarantined: Vec<(u64, u64)>,
    /// The region ends mid-frame — the signature of a torn tail write,
    /// counted separately from corruption.
    pub truncated_tail: bool,
}

impl FrameScan {
    /// Total quarantined bytes.
    pub fn bytes_quarantined(&self) -> u64 {
        self.quarantined.iter().map(|(s, e)| e - s).sum()
    }
}

/// Walks a frame region, recovering every intact frame and
/// resynchronising past damage.
///
/// `on_frame(offset, payload)` receives each structurally valid frame
/// (magic, length and CRC all check out) and returns whether the
/// payload actually decodes; a `false` verdict is treated like
/// corruption and the scan resynchronises just past the frame's magic.
/// A final frame whose declared length runs past the end of the
/// region is reported as a *truncated tail* rather than corruption —
/// the expected aftermath of a crash mid-append.
pub fn scan_frames(
    bytes: &[u8],
    base: u64,
    mut on_frame: impl FnMut(u64, &[u8]) -> bool,
) -> FrameScan {
    let mut scan = FrameScan::default();
    let mut pos = 0usize;
    // Open quarantine run: (start, started as a plausible torn frame).
    let mut bad_run: Option<(usize, bool)> = None;

    while pos < bytes.len() {
        let frame_ok = (|| {
            let magic = bytes.get(pos..pos + 4)?;
            if magic != FRAME_MAGIC {
                return None;
            }
            let len = read_u32(bytes, pos + 4)? as usize;
            if len > MAX_FRAME_PAYLOAD {
                return None;
            }
            let crc = read_u32(bytes, pos + 8)?;
            let payload = bytes.get(pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len)?;
            if crc32(payload) != crc {
                return None;
            }
            Some((len, payload))
        })();

        if let Some((len, payload)) = frame_ok {
            if on_frame(base + pos as u64, payload) {
                if let Some((start, _)) = bad_run.take() {
                    // Damage followed by a recovered frame: corruption,
                    // whatever the run looked like when it opened.
                    scan.corrupt_regions += 1;
                    scan.quarantined
                        .push((base + start as u64, base + pos as u64));
                }
                scan.frames += 1;
                pos += FRAME_HEADER_LEN + len;
                continue;
            }
        }

        // Corrupt (or undecodable) at `pos`: open a quarantine run and
        // hunt for the next candidate magic.
        if bad_run.is_none() {
            bad_run = Some((pos, starts_truncated_frame(bytes, pos)));
        }
        pos += 1;
        while pos < bytes.len() && !bytes[pos..].starts_with(&FRAME_MAGIC) {
            pos += 1;
        }
    }

    if let Some((start, tail_candidate)) = bad_run {
        scan.quarantined
            .push((base + start as u64, base + bytes.len() as u64));
        if tail_candidate {
            // The run opened at a well-formed magic whose frame runs
            // past EOF and no later frame was recovered: a torn tail
            // (the expected crash signature), not corruption.
            scan.truncated_tail = true;
        } else {
            scan.corrupt_regions += 1;
        }
    }
    scan
}

/// Whether `pos` starts a frame header that is cut off by the end of
/// the region: either an incomplete header that is a prefix of the
/// magic, or a full header whose declared payload does not fit.
fn starts_truncated_frame(bytes: &[u8], pos: usize) -> bool {
    let rest = &bytes[pos..];
    if rest.len() < FRAME_HEADER_LEN {
        let n = rest.len().min(4);
        return rest[..n] == FRAME_MAGIC[..n];
    }
    if rest[..4] != FRAME_MAGIC {
        return false;
    }
    match read_u32(rest, 4) {
        Some(len) => {
            (len as usize) <= MAX_FRAME_PAYLOAD && FRAME_HEADER_LEN + len as usize > rest.len()
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            append_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_equals_one_shot() {
        let data = b"hello, durable world";
        let mut st = CRC32_INIT;
        for chunk in data.chunks(3) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(crc32_finish(st), crc32(data));
    }

    /// The byte-at-a-time table walk `crc32_update` used before
    /// slicing-by-8, kept as the reference.
    fn crc32_update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    proptest! {
        #[test]
        fn sliced_crc_equals_bytewise_under_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut state = CRC32_INIT;
            let mut from = 0;
            for cut in cuts {
                state = crc32_update(state, &data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(state, crc32_update_bytewise(CRC32_INIT, &data));
            prop_assert_eq!(crc32(&data), crc32_finish(state));
        }

        #[test]
        fn combine_equals_one_pass_over_the_concatenation(
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b in proptest::collection::vec(any::<u8>(), 0..2000),
            seed in any::<u32>(),
        ) {
            let joined = [a.as_slice(), b.as_slice()].concat();
            prop_assert_eq!(
                crc32_combine(crc32(&a), crc32(&b), b.len() as u64),
                crc32(&joined)
            );
            // From an arbitrary running state, as the archive writer
            // folds each frame into its segment CRC.
            let state = crc32_update(seed, &a);
            let combined = crc32_combine(crc32_finish(state), crc32(&b), b.len() as u64);
            prop_assert_eq!(crc32_finish(combined), crc32_update(state, &b));
        }

        #[test]
        fn in_place_frame_equals_copied_frame(
            prefix in proptest::collection::vec(any::<u8>(), 0..20),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut copied = prefix.clone();
            copied.extend_from_slice(&FRAME_MAGIC);
            copied.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            copied.extend_from_slice(&crc32_finish(crc32_update_bytewise(CRC32_INIT, &payload)).to_be_bytes());
            copied.extend_from_slice(&payload);
            let mut in_place = prefix.clone();
            append_frame_with(&mut in_place, |out| out.extend_from_slice(&payload));
            prop_assert_eq!(in_place, copied);
        }
    }

    #[test]
    fn header_and_footer_roundtrip() {
        let h = SegmentHeader {
            index: 7,
            first_record: 12_345,
        };
        assert_eq!(decode_header(&encode_header(h)), Some(h));
        let f = SegmentFooter {
            records: 99,
            frame_bytes: 65_536,
            frame_crc: 0xDEAD_BEEF,
        };
        assert_eq!(decode_footer(&encode_footer(f)), Some(f));
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let mut h = encode_header(SegmentHeader {
            index: 1,
            first_record: 2,
        });
        h[13] ^= 0x40;
        assert_eq!(decode_header(&h), None);
        assert_eq!(decode_header(&h[..10]), None);
    }

    #[test]
    fn scan_recovers_clean_frames() {
        let region = frames(&[b"alpha", b"beta", b"gamma"]);
        let mut got = Vec::new();
        let scan = scan_frames(&region, 0, |_, p| {
            got.push(p.to_vec());
            true
        });
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.corrupt_regions, 0);
        assert!(!scan.truncated_tail);
        assert_eq!(
            got,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
    }

    #[test]
    fn scan_resynchronises_past_bit_flip() {
        let mut region = frames(&[b"alpha", b"beta", b"gamma"]);
        // Damage a payload byte of the middle frame.
        let second = FRAME_HEADER_LEN + 5 + FRAME_HEADER_LEN;
        region[second + 2] ^= 0xFF;
        let mut got = Vec::new();
        let scan = scan_frames(&region, 0, |_, p| {
            got.push(p.to_vec());
            true
        });
        assert_eq!(scan.frames, 2, "frames before and after survive");
        assert_eq!(scan.corrupt_regions, 1);
        assert!(scan.bytes_quarantined() >= 5);
        assert_eq!(got, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
    }

    #[test]
    fn scan_flags_torn_tail() {
        let mut region = frames(&[b"alpha", b"beta"]);
        region.truncate(region.len() - 3);
        let scan = scan_frames(&region, 0, |_, _| true);
        assert_eq!(scan.frames, 1);
        assert!(scan.truncated_tail);
        assert_eq!(scan.corrupt_regions, 0);
    }

    #[test]
    fn scan_treats_decoder_veto_as_corruption() {
        let region = frames(&[b"alpha", b"beta"]);
        let scan = scan_frames(&region, 0, |_, p| p != b"alpha");
        assert_eq!(scan.frames, 1);
        assert_eq!(scan.corrupt_regions, 1);
    }

    #[test]
    fn scan_of_pure_garbage_never_panics() {
        let garbage: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let scan = scan_frames(&garbage, 0, |_, _| true);
        assert_eq!(scan.frames, 0);
        assert!(scan.corrupt_regions >= 1 || scan.truncated_tail);
    }
}
