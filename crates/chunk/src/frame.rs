//! On-disk chunk framing and the extent scanner (§2.1, §5 of the paper).
//!
//! Chunk data is framed on disk with a two-byte magic header and a random
//! UUID repeated on both ends, allowing the chunk's length to be validated
//! (§5's worked example). The frame layout is:
//!
//! ```text
//! | magic (2) | len (4, LE) | uuid (16) | payload (len) | uuid (16) |
//! ```
//!
//! Deliberately, there is **no payload checksum**: integrity is validated
//! by the leading/trailing UUID match, exactly as in the paper — that
//! design is what makes the issue #10 UUID-collision bug possible, and the
//! fixed scanner closes it with an overlap check instead (see
//! [`scan_extent`]).
//!
//! All decoding is panic-free on arbitrary bytes (§7): the property suite
//! in this crate fuzzes [`decode_frame_at`] and [`scan_extent`] over
//! random buffers.

use shardstore_faults::{coverage, BugId, FaultConfig};
use shardstore_vdisk::codec::CodecError;

/// The two magic bytes opening every chunk frame.
pub const MAGIC: [u8; 2] = *b"MC";

/// Length of the frame header preceding the payload: magic + length +
/// leading UUID.
pub const FRAME_HEADER_LEN: usize = 2 + 4 + 16;

/// Fixed framing overhead: the header plus the trailing UUID copy.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + 16;

/// Maximum payload length accepted by the decoder (an extent can never
/// hold more than this, and a corrupt length field must not cause large
/// allocations).
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Encodes a payload into a frame with the given UUID.
pub fn encode_frame(payload: &[u8], uuid: u128) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&uuid.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&uuid.to_le_bytes());
    out
}

/// A chunk successfully decoded from an extent image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Byte offset of the frame start within the scanned region.
    pub offset: usize,
    /// Payload length.
    pub payload_len: usize,
    /// The frame's UUID.
    pub uuid: u128,
}

impl DecodedFrame {
    /// Total frame length including overhead.
    pub fn frame_len(&self) -> usize {
        self.payload_len + FRAME_OVERHEAD
    }

    /// End offset (exclusive) of the frame.
    pub fn end(&self) -> usize {
        self.offset + self.frame_len()
    }

    /// Extracts the payload bytes from the containing buffer.
    pub fn payload<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        let start = self.offset + FRAME_HEADER_LEN;
        &buf[start..start + self.payload_len]
    }
}

/// True if `header` (exactly [`FRAME_HEADER_LEN`] bytes) opens a frame
/// with this payload length and UUID — the check a ranged read makes in
/// place of the full [`decode_frame_at`], which needs the trailer too.
pub fn frame_header_matches(header: &[u8], payload_len: u32, uuid: u128) -> bool {
    header.len() == FRAME_HEADER_LEN
        && header[..2] == MAGIC
        && header[2..6] == payload_len.to_le_bytes()
        && header[6..] == uuid.to_le_bytes()
}

/// Attempts to decode a frame starting at `offset` in `buf`, reading no
/// further than `limit` (the extent's soft write pointer).
///
/// Returns `Ok` only if the magic matches, the length is in range, the
/// whole frame fits below `limit`, and the trailing UUID equals the
/// leading UUID.
pub fn decode_frame_at(buf: &[u8], offset: usize, limit: usize) -> Result<DecodedFrame, CodecError> {
    let limit = limit.min(buf.len());
    if offset + FRAME_HEADER_LEN > limit {
        return Err(CodecError::Truncated {
            needed: FRAME_HEADER_LEN,
            remaining: limit.saturating_sub(offset),
        });
    }
    if buf[offset..offset + 2] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let len = u32::from_le_bytes([
        buf[offset + 2],
        buf[offset + 3],
        buf[offset + 4],
        buf[offset + 5],
    ]) as usize;
    if len > MAX_PAYLOAD {
        return Err(CodecError::BadLength);
    }
    let end = offset + FRAME_OVERHEAD + len;
    if end > limit {
        return Err(CodecError::BadLength);
    }
    let mut uuid_bytes = [0u8; 16];
    uuid_bytes.copy_from_slice(&buf[offset + 6..offset + FRAME_HEADER_LEN]);
    let uuid = u128::from_le_bytes(uuid_bytes);
    let mut trailer = [0u8; 16];
    trailer.copy_from_slice(&buf[end - 16..end]);
    if u128::from_le_bytes(trailer) != uuid {
        return Err(CodecError::BadChecksum);
    }
    Ok(DecodedFrame { offset, payload_len: len, uuid })
}

/// Scans an extent image for chunk frames, mirroring the reclamation scan
/// of §5: start at offset 0; on a failed decode, skip to the next page
/// boundary and retry; on success, continue right after the frame.
///
/// The *fixed* scanner additionally guards against the issue #10 failure
/// mode: before accepting a decoded frame, it checks whether another valid
/// frame starts at a page boundary strictly inside the candidate. Real
/// append-only writes never produce such an overlap, so its presence means
/// the outer candidate is a corrupt (torn) frame whose trailing bytes
/// happen to parse — the candidate is rejected and scanning restarts at
/// the inner frame. With [`BugId::B10UuidCollision`] seeded, the guard is
/// skipped, reproducing the historical bug where the overlapped live chunk
/// was silently dropped by reclamation.
pub fn scan_extent(
    buf: &[u8],
    write_ptr: usize,
    page_size: usize,
    faults: &FaultConfig,
) -> Vec<DecodedFrame> {
    let mut found = Vec::new();
    let mut offset = 0usize;
    let limit = write_ptr.min(buf.len());
    while offset < limit {
        match decode_frame_at(buf, offset, limit) {
            Ok(frame) => {
                if !faults.is(BugId::B10UuidCollision) {
                    // Overlap guard (the fix for issue #10).
                    if let Some(inner) = overlapping_frame(buf, &frame, page_size, limit) {
                        coverage::hit("chunk.scan.overlap_rejected");
                        found.push(inner.clone());
                        offset = inner.end();
                        continue;
                    }
                }
                let mut advance = frame.frame_len();
                if faults.is(BugId::B1ReclamationOffByOne) && frame.frame_len() % page_size == 0 {
                    // BUG B1 (seeded): off-by-one advance for chunks whose
                    // frame is an exact multiple of the page size. The
                    // scanner overshoots by one byte, so a chunk starting
                    // right at the following page boundary is never
                    // decoded (the page-skip recovery jumps past it).
                    advance += 1;
                }
                offset = frame.offset + advance;
                found.push(frame);
            }
            Err(e) => {
                if faults.is(BugId::B10UuidCollision) && e == CodecError::BadChecksum {
                    // BUG B10 (seeded): the historical decoder, when the
                    // trailing UUID mismatched, accepted the frame anyway
                    // if the bytes where the trailer should start look
                    // like a fresh magic header — confusing the *next*
                    // chunk's header (written after a crash recovered the
                    // write pointer into this torn frame's span) with its
                    // own trailer. The accepted phantom frame makes the
                    // scanner skip the live overlapping chunk (§5's
                    // worked example).
                    if let Some(frame) = b10_phantom_accept(buf, offset, limit) {
                        coverage::hit("chunk.scan.b10_phantom_accept");
                        offset = frame.offset + frame.frame_len();
                        found.push(frame);
                        continue;
                    }
                }
                coverage::hit("chunk.scan.skip_page");
                // Skip to the next page boundary and retry.
                let next = (offset / page_size + 1) * page_size;
                offset = next;
            }
        }
    }
    found
}

/// The issue #10 phantom decode: header parses, frame fits below the
/// limit, trailer mismatches, but the trailer position holds magic bytes.
fn b10_phantom_accept(buf: &[u8], offset: usize, limit: usize) -> Option<DecodedFrame> {
    let limit = limit.min(buf.len());
    if offset + FRAME_HEADER_LEN > limit || buf[offset..offset + 2] != MAGIC {
        return None;
    }
    let len = u32::from_le_bytes([
        buf[offset + 2],
        buf[offset + 3],
        buf[offset + 4],
        buf[offset + 5],
    ]) as usize;
    if len > MAX_PAYLOAD {
        return None;
    }
    let end = offset + FRAME_OVERHEAD + len;
    if end > limit || end < 16 {
        return None;
    }
    if buf[end - 16..end - 14] != MAGIC {
        return None;
    }
    let mut uuid_bytes = [0u8; 16];
    uuid_bytes.copy_from_slice(&buf[offset + 6..offset + FRAME_HEADER_LEN]);
    Some(DecodedFrame { offset, payload_len: len, uuid: u128::from_le_bytes(uuid_bytes) })
}

/// Looks for a valid frame starting at a page boundary strictly inside
/// `frame`'s span. Returns the earliest such frame.
fn overlapping_frame(
    buf: &[u8],
    frame: &DecodedFrame,
    page_size: usize,
    limit: usize,
) -> Option<DecodedFrame> {
    let first_boundary = (frame.offset / page_size + 1) * page_size;
    let mut boundary = first_boundary;
    while boundary < frame.end() {
        if let Ok(inner) = decode_frame_at(buf, boundary, limit) {
            if inner.uuid != frame.uuid {
                return Some(inner);
            }
        }
        boundary += page_size;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 128;

    #[test]
    fn roundtrip_single_frame() {
        let frame = encode_frame(b"payload", 0xDEAD_BEEF);
        let decoded = decode_frame_at(&frame, 0, frame.len()).unwrap();
        assert_eq!(decoded.payload_len, 7);
        assert_eq!(decoded.uuid, 0xDEAD_BEEF);
        assert_eq!(decoded.payload(&frame), b"payload");
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut frame = encode_frame(b"x", 1);
        frame[0] = b'Z';
        assert_eq!(decode_frame_at(&frame, 0, frame.len()), Err(CodecError::BadMagic));
    }

    #[test]
    fn decode_rejects_mismatched_trailer() {
        let mut frame = encode_frame(b"xyz", 7);
        let end = frame.len();
        frame[end - 1] ^= 0xFF;
        assert_eq!(decode_frame_at(&frame, 0, frame.len()), Err(CodecError::BadChecksum));
    }

    #[test]
    fn decode_respects_write_pointer_limit() {
        let frame = encode_frame(b"hello", 3);
        // Limit cuts the trailer off: must not decode.
        assert!(decode_frame_at(&frame, 0, frame.len() - 1).is_err());
    }

    #[test]
    fn decode_rejects_absurd_length() {
        let mut frame = encode_frame(b"p", 1);
        frame[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame_at(&frame, 0, frame.len()).is_err());
    }

    #[test]
    fn scan_finds_back_to_back_frames() {
        let mut buf = encode_frame(b"first", 1);
        buf.extend_from_slice(&encode_frame(b"second", 2));
        let found = scan_extent(&buf, buf.len(), PAGE, &FaultConfig::none());
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].uuid, 1);
        assert_eq!(found[1].uuid, 2);
        assert_eq!(found[1].offset, found[0].end());
    }

    #[test]
    fn scan_skips_torn_frame_to_next_page() {
        // A torn frame at offset 0 (trailer corrupted), then a good frame
        // at the next page boundary.
        let mut buf = vec![0u8; 3 * PAGE];
        let torn = encode_frame(&[7u8; 20], 11);
        buf[..torn.len()].copy_from_slice(&torn);
        buf[torn.len() - 1] ^= 0xFF; // corrupt the trailer
        let good = encode_frame(b"live", 22);
        buf[PAGE..PAGE + good.len()].copy_from_slice(&good);
        let found = scan_extent(&buf, buf.len(), PAGE, &FaultConfig::none());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].uuid, 22);
        assert_eq!(found[0].offset, PAGE);
    }

    /// Reconstructs the §5 / issue #10 scenario: a torn first frame whose
    /// length spills onto page 1, a crash that loses page 1, and a second
    /// live frame written from page 1. The torn frame *appears* valid
    /// because the second frame's bytes happen to sit exactly where the
    /// torn frame's trailer should be (the "UUID collision").
    fn uuid_collision_buf() -> (Vec<u8>, u128) {
        let mut buf = vec![0u8; 4 * PAGE];
        // The live second chunk, written from page 1 after the crash.
        let live_uuid: u128 = 0x11FE;
        let live = encode_frame(&[9u8; 30], live_uuid);
        buf[PAGE..PAGE + live.len()].copy_from_slice(&live);
        // The torn first chunk: header on page 0 claiming a length whose
        // trailer lands exactly on bytes inside the live chunk that equal
        // the torn chunk's UUID (we *choose* the UUID to collide, just as
        // the historical bug required a specific random UUID).
        // Pick the trailer position: start of live payload region.
        let trailer_pos = PAGE + 22; // live frame payload start
        let mut uuid_bytes = [0u8; 16];
        uuid_bytes.copy_from_slice(&buf[trailer_pos..trailer_pos + 16]);
        let colliding_uuid = u128::from_le_bytes(uuid_bytes);
        let payload_len = trailer_pos + 16 - FRAME_OVERHEAD; // frame end = trailer_pos+16
        buf[0..2].copy_from_slice(&MAGIC);
        buf[2..6].copy_from_slice(&(payload_len as u32).to_le_bytes());
        buf[6..22].copy_from_slice(&colliding_uuid.to_le_bytes());
        // Page 0's payload bytes are the (lost) torn chunk's head; leave
        // arbitrary.
        (buf, live_uuid)
    }

    #[test]
    fn fixed_scan_survives_uuid_collision() {
        let (buf, live_uuid) = uuid_collision_buf();
        let found = scan_extent(&buf, buf.len(), PAGE, &FaultConfig::none());
        // The fixed scanner must find the live chunk.
        assert!(
            found.iter().any(|f| f.uuid == live_uuid),
            "fixed scan lost the live chunk: {found:?}"
        );
    }

    #[test]
    fn b10_seeded_scan_drops_overlapped_live_chunk() {
        let (buf, live_uuid) = uuid_collision_buf();
        let faults = FaultConfig::seed(BugId::B10UuidCollision);
        let found = scan_extent(&buf, buf.len(), PAGE, &faults);
        // The buggy scanner accepts the torn frame and skips the live one.
        assert!(
            !found.iter().any(|f| f.uuid == live_uuid),
            "expected the buggy scan to lose the live chunk: {found:?}"
        );
    }

    #[test]
    fn b1_seeded_off_by_one_loses_following_chunks() {
        // First frame exactly one page long (payload = PAGE - overhead).
        let mut buf = encode_frame(&[1u8; PAGE - FRAME_OVERHEAD], 5);
        assert_eq!(buf.len(), PAGE);
        buf.extend_from_slice(&encode_frame(b"second", 6));
        let fixed = scan_extent(&buf, buf.len(), PAGE, &FaultConfig::none());
        assert_eq!(fixed.len(), 2);
        let buggy =
            scan_extent(&buf, buf.len(), PAGE, &FaultConfig::seed(BugId::B1ReclamationOffByOne));
        assert!(buggy.len() < 2, "off-by-one should corrupt the scan: {buggy:?}");
    }

    #[test]
    fn scan_of_garbage_never_panics_and_finds_nothing() {
        let buf: Vec<u8> = (0..1024).map(|i| (i * 31 % 251) as u8).collect();
        let found = scan_extent(&buf, buf.len(), PAGE, &FaultConfig::none());
        assert!(found.is_empty());
    }

    #[test]
    fn empty_and_zero_regions_scan_clean() {
        assert!(scan_extent(&[], 0, PAGE, &FaultConfig::none()).is_empty());
        let zeros = vec![0u8; 5 * PAGE];
        assert!(scan_extent(&zeros, zeros.len(), PAGE, &FaultConfig::none()).is_empty());
    }
}
