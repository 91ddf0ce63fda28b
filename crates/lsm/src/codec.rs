//! On-disk codecs for SSTables and LSM metadata records.
//!
//! Both formats carry CRCs and decode panic-free from arbitrary bytes
//! (§7 of the paper). The metadata record is the LSM tree's root pointer
//! structure: it lists the chunk locators currently backing the tree, and
//! the record with the highest sequence number among valid records wins at
//! recovery.
//!
//! SSTables are block-indexed (format version 2, the only one): entries
//! grouped into fixed-size blocks, each with its own CRC, followed by a
//! footer holding a per-block fence index (min/max key + byte range) and
//! a trailer `[footer_offset, crc]` where the CRC covers header, footer
//! and offset. A reader can verify and parse the index from the header
//! and tail alone, then fetch and decode exactly the one block a point
//! lookup needs — the full table is never read or materialized on the
//! hot path. Any other version byte is a typed [`CodecError`].

use shardstore_chunk::Locator;
use shardstore_vdisk::codec::{crc32, CodecError, Reader, Writer};
use shardstore_vdisk::ExtentId;

const SSTABLE_MAGIC: &[u8; 4] = b"SSTB";
const META_MAGIC: &[u8; 4] = b"SSMD";
/// The block-indexed table format.
const SSTABLE_VERSION: u16 = 2;
/// The metadata record format.
const META_VERSION: u16 = 1;

/// v2 header: magic (4) + version (2) + entry count (4).
pub const V2_HEADER_LEN: usize = 10;
/// v2 trailer: footer offset (4) + CRC (4).
pub const V2_TRAILER_LEN: usize = 8;
/// One fence in the v2 footer: min key (16) + max key (16) + offset (4)
/// + len (4).
const V2_FENCE_LEN: usize = 40;
/// Smallest possible v2 block: count (4) + one tombstone entry (17) +
/// CRC (4).
const V2_MIN_BLOCK_LEN: usize = 25;

/// An index value: a shard's chunk list, or a tombstone marking deletion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexValue {
    /// The shard exists and its data lives in these chunks, in order.
    Present(Vec<Locator>),
    /// The shard was deleted.
    Tombstone,
}

/// One SSTable entry.
pub type SsEntry = (u128, IndexValue);

fn write_locator(w: &mut Writer, l: &Locator) {
    w.u32(l.extent.0);
    w.u32(l.offset);
    w.u32(l.len);
    w.bytes(&l.uuid.to_le_bytes());
}

fn read_locator(r: &mut Reader<'_>) -> Result<Locator, CodecError> {
    let extent = ExtentId(r.u32()?);
    let offset = r.u32()?;
    let len = r.u32()?;
    let mut uuid = [0u8; 16];
    uuid.copy_from_slice(r.bytes(16)?);
    Ok(Locator { extent, offset, len, uuid: u128::from_le_bytes(uuid) })
}

fn write_entry(w: &mut Writer, entry: &SsEntry) {
    let (key, value) = entry;
    w.bytes(&key.to_le_bytes());
    match value {
        IndexValue::Tombstone => {
            w.u8(0);
        }
        IndexValue::Present(locators) => {
            w.u8(1);
            w.u16(locators.len() as u16);
            for l in locators {
                write_locator(w, l);
            }
        }
    }
}

fn read_entry(r: &mut Reader<'_>) -> Result<SsEntry, CodecError> {
    let mut key = [0u8; 16];
    key.copy_from_slice(r.bytes(16)?);
    let key = u128::from_le_bytes(key);
    let value = match r.u8()? {
        0 => IndexValue::Tombstone,
        1 => {
            let n = r.u16()? as usize;
            if n.checked_mul(28).map(|b| b > r.remaining()).unwrap_or(true) {
                return Err(CodecError::BadLength);
            }
            let mut locators = Vec::with_capacity(n);
            for _ in 0..n {
                locators.push(read_locator(r)?);
            }
            IndexValue::Present(locators)
        }
        _ => return Err(CodecError::BadValue),
    };
    Ok((key, value))
}

/// One block's fence in a v2 table footer: the key range the block
/// covers and the byte range (within the serialized table) holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFence {
    /// Smallest key in the block.
    pub min_key: u128,
    /// Largest key in the block.
    pub max_key: u128,
    /// Byte offset of the block from the start of the table.
    pub offset: u32,
    /// Byte length of the block, including its CRC.
    pub len: u32,
}

/// The parsed v2 fence index: enough to route a point lookup to exactly
/// one block, or a range scan to the overlapping blocks, without
/// decoding anything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableIndex {
    /// Total entries across all blocks (from the header).
    pub entry_count: u32,
    /// Per-block fences, ascending and non-overlapping by key.
    pub fences: Vec<BlockFence>,
}

impl TableIndex {
    /// Index of the block that may contain `key`, if any. Blocks are
    /// disjoint, so at most one qualifies.
    pub fn locate(&self, key: u128) -> Option<usize> {
        let i = self.fences.partition_point(|f| f.max_key < key);
        (i < self.fences.len() && self.fences[i].min_key <= key).then_some(i)
    }

    /// Range of block indices whose fences overlap `[start, end]`.
    pub fn overlapping(&self, start: u128, end: u128) -> std::ops::Range<usize> {
        let lo = self.fences.partition_point(|f| f.max_key < start);
        let hi = self.fences.partition_point(|f| f.min_key <= end);
        lo..hi.max(lo)
    }
}

/// Serializes a sorted entry list in the block-indexed v2 format, with
/// at most `block_size` entries per block (clamped to at least 1).
pub fn encode_sstable(entries: &[SsEntry], block_size: usize) -> Vec<u8> {
    let block_size = block_size.max(1);
    let mut w = Writer::new();
    w.bytes(SSTABLE_MAGIC).u16(SSTABLE_VERSION).u32(entries.len() as u32);
    let mut fences: Vec<BlockFence> = Vec::new();
    for chunk in entries.chunks(block_size) {
        let mut bw = Writer::new();
        bw.u32(chunk.len() as u32);
        for entry in chunk {
            write_entry(&mut bw, entry);
        }
        let crc = crc32(bw.as_bytes());
        bw.u32(crc);
        let block = bw.into_bytes();
        fences.push(BlockFence {
            min_key: chunk[0].0,
            max_key: chunk[chunk.len() - 1].0,
            offset: w.as_bytes().len() as u32,
            len: block.len() as u32,
        });
        w.bytes(&block);
    }
    let footer_off = w.as_bytes().len() as u32;
    w.u32(fences.len() as u32);
    for f in &fences {
        w.bytes(&f.min_key.to_le_bytes());
        w.bytes(&f.max_key.to_le_bytes());
        w.u32(f.offset);
        w.u32(f.len);
    }
    w.u32(footer_off);
    // The trailer CRC covers header + footer + footer offset; each block
    // carries its own CRC, so a partial reader never trusts unverified
    // bytes.
    let all = w.as_bytes();
    let mut covered = Vec::with_capacity(V2_HEADER_LEN + (all.len() - footer_off as usize));
    covered.extend_from_slice(&all[..V2_HEADER_LEN]);
    covered.extend_from_slice(&all[footer_off as usize..]);
    let crc = crc32(&covered);
    w.u32(crc);
    w.into_bytes()
}

/// Checks the magic + version prefix of a serialized table.
fn check_sstable_version(header: &[u8]) -> Result<(), CodecError> {
    if header.len() < 6 {
        return Err(CodecError::Truncated { needed: 6, remaining: header.len() });
    }
    if &header[..4] != SSTABLE_MAGIC || u16::from_le_bytes([header[4], header[5]]) != SSTABLE_VERSION {
        return Err(CodecError::BadValue);
    }
    Ok(())
}

/// Parses and bounds-checks the footer offset from a v2 table's 8-byte
/// trailer. `total_len` is the full serialized table length.
pub fn footer_offset(trailer: &[u8], total_len: usize) -> Result<u32, CodecError> {
    if trailer.len() != V2_TRAILER_LEN {
        return Err(CodecError::BadLength);
    }
    let off = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let footer_end = total_len.checked_sub(V2_TRAILER_LEN).ok_or(CodecError::BadLength)?;
    // The footer holds at least its block count.
    if (off as usize) < V2_HEADER_LEN || (off as usize) + 4 > footer_end {
        return Err(CodecError::BadLength);
    }
    Ok(off)
}

/// Parses the v2 fence index from the three pieces a partial reader
/// fetches separately: the 10-byte header, the footer (the bytes between
/// `footer_offset` and the trailer), and the 8-byte trailer. Verifies
/// the trailer CRC over exactly those pieces; block bytes are verified
/// later, per block, by [`decode_block`].
pub fn decode_index(
    header: &[u8],
    footer: &[u8],
    trailer: &[u8],
    total_len: usize,
) -> Result<TableIndex, CodecError> {
    if header.len() != V2_HEADER_LEN || trailer.len() != V2_TRAILER_LEN {
        return Err(CodecError::BadLength);
    }
    check_sstable_version(header)?;
    let footer_off = footer_offset(trailer, total_len)? as usize;
    if footer_off + footer.len() + V2_TRAILER_LEN != total_len {
        return Err(CodecError::BadLength);
    }
    let mut covered = Vec::with_capacity(V2_HEADER_LEN + footer.len() + 4);
    covered.extend_from_slice(header);
    covered.extend_from_slice(footer);
    covered.extend_from_slice(&trailer[..4]);
    let mut crc_r = Reader::new(&trailer[4..]);
    if crc32(&covered) != crc_r.u32()? {
        return Err(CodecError::BadChecksum);
    }
    let entry_count = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    let mut r = Reader::new(footer);
    let block_count = r.u32()? as usize;
    // The footer must be exactly the fence array — this also rejects
    // absurd counts before allocating.
    if block_count.checked_mul(V2_FENCE_LEN).map(|n| n != r.remaining()).unwrap_or(true) {
        return Err(CodecError::BadLength);
    }
    let mut fences = Vec::with_capacity(block_count);
    let mut expected_off = V2_HEADER_LEN as u32;
    let mut prev_max: Option<u128> = None;
    for _ in 0..block_count {
        let mut k = [0u8; 16];
        k.copy_from_slice(r.bytes(16)?);
        let min_key = u128::from_le_bytes(k);
        k.copy_from_slice(r.bytes(16)?);
        let max_key = u128::from_le_bytes(k);
        let offset = r.u32()?;
        let len = r.u32()?;
        if min_key > max_key || prev_max.is_some_and(|p| min_key <= p) {
            return Err(CodecError::BadValue);
        }
        // Blocks tile the region between header and footer exactly.
        if offset != expected_off || (len as usize) < V2_MIN_BLOCK_LEN {
            return Err(CodecError::BadLength);
        }
        expected_off = offset.checked_add(len).ok_or(CodecError::BadLength)?;
        prev_max = Some(max_key);
        fences.push(BlockFence { min_key, max_key, offset, len });
    }
    if expected_off as usize != footer_off {
        return Err(CodecError::BadLength);
    }
    Ok(TableIndex { entry_count, fences })
}

/// Parses the v2 fence index from a fully materialized table.
pub fn decode_table_index(bytes: &[u8]) -> Result<TableIndex, CodecError> {
    check_sstable_version(bytes)?;
    let len = bytes.len();
    if len < V2_HEADER_LEN + 4 + V2_TRAILER_LEN {
        return Err(CodecError::Truncated { needed: V2_HEADER_LEN + 4 + V2_TRAILER_LEN, remaining: len });
    }
    let trailer = &bytes[len - V2_TRAILER_LEN..];
    let footer_off = footer_offset(trailer, len)? as usize;
    decode_index(&bytes[..V2_HEADER_LEN], &bytes[footer_off..len - V2_TRAILER_LEN], trailer, len)
}

/// Decodes one v2 block given exactly its bytes and the fence the index
/// advertised for it. Verifies the block CRC and that the decoded keys
/// are sorted and match the fence — a corrupt index cannot smuggle
/// out-of-range entries past a partial reader.
pub fn decode_block(block: &[u8], fence: &BlockFence) -> Result<Vec<SsEntry>, CodecError> {
    if block.len() != fence.len as usize || block.len() < V2_MIN_BLOCK_LEN {
        return Err(CodecError::BadLength);
    }
    let body = &block[..block.len() - 4];
    let mut crc_r = Reader::new(&block[block.len() - 4..]);
    if crc32(body) != crc_r.u32()? {
        return Err(CodecError::BadChecksum);
    }
    let mut r = Reader::new(body);
    let count = r.u32()? as usize;
    if count == 0 || count.checked_mul(17).map(|n| n > r.remaining()).unwrap_or(true) {
        return Err(CodecError::BadLength);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let entry = read_entry(&mut r)?;
        if let Some((prev, _)) = entries.last() {
            if entry.0 <= *prev {
                return Err(CodecError::BadValue);
            }
        }
        entries.push(entry);
    }
    if r.remaining() != 0 {
        return Err(CodecError::BadLength);
    }
    if entries[0].0 != fence.min_key || entries[entries.len() - 1].0 != fence.max_key {
        return Err(CodecError::BadValue);
    }
    Ok(entries)
}

/// Decodes a whole serialized table. Never panics on corrupt input; a
/// full decode verifies every byte of the table.
pub fn decode_sstable(bytes: &[u8]) -> Result<Vec<SsEntry>, CodecError> {
    let index = decode_table_index(bytes)?;
    // Bound the claimed entry count by the bytes actually present
    // (minimum 17 bytes per entry) before allocating.
    let block_bytes: usize = index.fences.iter().map(|f| f.len as usize).sum();
    if (index.entry_count as usize).checked_mul(17).map(|n| n > block_bytes).unwrap_or(true)
        && index.entry_count != 0
    {
        return Err(CodecError::BadLength);
    }
    let mut entries = Vec::with_capacity(index.entry_count as usize);
    for fence in &index.fences {
        let start = fence.offset as usize;
        let end = start + fence.len as usize;
        // Tiling was validated against total_len during index decode.
        entries.extend(decode_block(&bytes[start..end], fence)?);
    }
    if entries.len() != index.entry_count as usize {
        return Err(CodecError::BadValue);
    }
    Ok(entries)
}

/// A descriptor of one live SSTable in the metadata record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDescriptor {
    /// Monotonic table id (newer tables have higher ids).
    pub id: u64,
    /// Chunks holding the serialized table, in order (a large table spans
    /// several chunks, exactly as shard data does).
    pub locators: Vec<Locator>,
}

/// The LSM metadata record: the authoritative list of live tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataRecord {
    /// Monotonic sequence; highest valid record wins at recovery.
    pub seq: u64,
    /// Live tables, newest first.
    pub tables: Vec<TableDescriptor>,
}

/// Serializes a metadata record.
pub fn encode_metadata(record: &MetadataRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(META_MAGIC).u16(META_VERSION).u64(record.seq).u32(record.tables.len() as u32);
    for t in &record.tables {
        w.u64(t.id);
        w.u16(t.locators.len() as u16);
        for l in &t.locators {
            write_locator(&mut w, l);
        }
    }
    let crc = crc32(w.as_bytes());
    w.u32(crc);
    w.into_bytes()
}

/// Decodes a metadata record. Never panics on corrupt input.
pub fn decode_metadata(bytes: &[u8]) -> Result<MetadataRecord, CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated { needed: 4, remaining: bytes.len() });
    }
    let body = &bytes[..bytes.len() - 4];
    let mut crc_r = Reader::new(&bytes[bytes.len() - 4..]);
    if crc32(body) != crc_r.u32()? {
        return Err(CodecError::BadChecksum);
    }
    let mut r = Reader::new(body);
    r.expect(META_MAGIC)?;
    if r.u16()? != META_VERSION {
        return Err(CodecError::BadValue);
    }
    let seq = r.u64()?;
    let count = r.u32()? as usize;
    // Each table needs at least 10 bytes (id + locator count).
    if count.checked_mul(10).map(|n| n > r.remaining()).unwrap_or(true) {
        return Err(CodecError::BadLength);
    }
    let mut tables = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u64()?;
        let n = r.u16()? as usize;
        if n.checked_mul(28).map(|b| b > r.remaining()).unwrap_or(true) {
            return Err(CodecError::BadLength);
        }
        let mut locators = Vec::with_capacity(n);
        for _ in 0..n {
            locators.push(read_locator(&mut r)?);
        }
        tables.push(TableDescriptor { id, locators });
    }
    if r.remaining() != 0 {
        return Err(CodecError::BadLength);
    }
    Ok(MetadataRecord { seq, tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(e: u32, off: u32) -> Locator {
        Locator { extent: ExtentId(e), offset: off, len: 10, uuid: (e as u128) << 64 | off as u128 }
    }

    fn sample_entries(n: u128) -> Vec<SsEntry> {
        (0..n)
            .map(|k| {
                if k % 3 == 2 {
                    (k * 5, IndexValue::Tombstone)
                } else {
                    (k * 5, IndexValue::Present(vec![loc(k as u32, (k * 7) as u32)]))
                }
            })
            .collect()
    }

    #[test]
    fn sstable_roundtrip() {
        let entries = vec![
            (1u128, IndexValue::Present(vec![loc(1, 0), loc(2, 50)])),
            (2u128, IndexValue::Tombstone),
            (u128::MAX, IndexValue::Present(vec![])),
        ];
        let bytes = encode_sstable(&entries, 2);
        assert_eq!(decode_sstable(&bytes).unwrap(), entries);
    }

    #[test]
    fn sstable_roundtrips_at_every_block_size() {
        let entries = sample_entries(13);
        for block_size in [1usize, 2, 3, 5, 13, 64] {
            let bytes = encode_sstable(&entries, block_size);
            assert_eq!(decode_sstable(&bytes).unwrap(), entries, "block_size {block_size}");
        }
    }

    #[test]
    fn sstable_detects_bit_flips() {
        let entries = vec![(7u128, IndexValue::Present(vec![loc(3, 9)]))];
        let bytes = encode_sstable(&entries, 4);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_sstable(&bad).is_err(), "flip at {i} undetected");
        }
    }

    #[test]
    fn v2_detects_bit_flips_across_blocks() {
        let entries = sample_entries(11);
        let bytes = encode_sstable(&entries, 3);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_sstable(&bad).is_err(), "flip at {i} undetected");
        }
    }

    #[test]
    fn sstable_rejects_trailing_garbage() {
        let entries = vec![(7u128, IndexValue::Tombstone)];
        let mut bytes = encode_sstable(&entries, 4);
        bytes.extend_from_slice(b"junk");
        assert!(decode_sstable(&bytes).is_err());
    }

    #[test]
    fn index_routes_point_lookups_to_one_block() {
        let entries = sample_entries(20);
        let bytes = encode_sstable(&entries, 4);
        let index = decode_table_index(&bytes).unwrap();
        assert_eq!(index.fences.len(), 5);
        assert_eq!(index.entry_count, 20);
        for (key, value) in &entries {
            let b = index.locate(*key).expect("present key must land in a block");
            let fence = &index.fences[b];
            let block = decode_block(
                &bytes[fence.offset as usize..(fence.offset + fence.len) as usize],
                fence,
            )
            .unwrap();
            let i = block.binary_search_by_key(key, |e| e.0).expect("key in routed block");
            assert_eq!(&block[i].1, value);
        }
        // A key inside a block's fence range routes there even if absent
        // (the block decode then reports the miss)…
        assert_eq!(index.locate(3), Some(0));
        // …but keys in the gap between fences (17 ∈ (15, 20)) and outside
        // the table route nowhere: the fence skip.
        assert_eq!(index.locate(17), None);
        assert_eq!(index.locate(u128::MAX), None);
    }

    #[test]
    fn index_overlapping_selects_exactly_covering_blocks() {
        // Keys 0, 5, ..., 95; blocks of 4 cover 20-key spans.
        let entries = sample_entries(20);
        let bytes = encode_sstable(&entries, 4);
        let index = decode_table_index(&bytes).unwrap();
        assert_eq!(index.overlapping(0, u128::MAX), 0..5);
        assert_eq!(index.overlapping(0, 15), 0..1);
        assert_eq!(index.overlapping(16, 22), 1..2);
        assert_eq!(index.overlapping(96, 200), 5..5);
        assert_eq!(index.overlapping(21, 44), 1..3);
    }

    #[test]
    fn corrupt_block_fails_decode_but_index_still_parses() {
        let entries = sample_entries(8);
        let mut bytes = encode_sstable(&entries, 4);
        let index = decode_table_index(&bytes).unwrap();
        let fence = index.fences[0];
        // Flip a byte inside the first block's body.
        bytes[fence.offset as usize + 6] ^= 0xFF;
        // The index (header + footer + trailer CRC) is untouched...
        assert_eq!(decode_table_index(&bytes).unwrap(), index);
        // ...but the block's own CRC catches the damage, for partial and
        // full readers alike.
        let block = &bytes[fence.offset as usize..(fence.offset + fence.len) as usize];
        assert!(matches!(decode_block(block, &fence), Err(CodecError::BadChecksum)));
        assert!(decode_sstable(&bytes).is_err());
    }

    #[test]
    fn block_decode_rejects_wrong_fence() {
        let entries = sample_entries(8);
        let bytes = encode_sstable(&entries, 4);
        let index = decode_table_index(&bytes).unwrap();
        let fence = index.fences[0];
        let block = &bytes[fence.offset as usize..(fence.offset + fence.len) as usize];
        // A fence advertising a different key range than the block holds
        // is rejected: a corrupt index cannot reroute lookups.
        let lying = BlockFence { min_key: fence.min_key + 1, ..fence };
        assert!(decode_block(block, &lying).is_err());
    }

    #[test]
    fn metadata_roundtrip() {
        let record = MetadataRecord {
            seq: 42,
            tables: vec![
                TableDescriptor { id: 9, locators: vec![loc(4, 100), loc(4, 200)] },
                TableDescriptor { id: 3, locators: vec![loc(5, 0)] },
            ],
        };
        let bytes = encode_metadata(&record);
        assert_eq!(decode_metadata(&bytes).unwrap(), record);
    }

    #[test]
    fn metadata_detects_corruption() {
        let record = MetadataRecord { seq: 1, tables: vec![] };
        let mut bytes = encode_metadata(&record);
        bytes[8] ^= 0xFF;
        assert!(decode_metadata(&bytes).is_err());
    }

    #[test]
    fn empty_sstable_roundtrips() {
        let bytes = encode_sstable(&[], 4);
        assert_eq!(decode_sstable(&bytes).unwrap(), vec![]);
        let index = decode_table_index(&bytes).unwrap();
        assert_eq!(index.fences.len(), 0);
        assert_eq!(index.locate(0), None);
    }

    #[test]
    fn decoders_reject_absurd_counts_without_allocating() {
        // A footer claiming u32::MAX blocks (with a valid trailer CRC, so
        // the count guard itself is what rejects it).
        let mut w = Writer::new();
        w.bytes(SSTABLE_MAGIC).u16(SSTABLE_VERSION).u32(0);
        w.u32(u32::MAX); // footer: absurd block count
        w.u32(V2_HEADER_LEN as u32); // trailer: footer offset
        let crc = crc32(w.as_bytes());
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_sstable(&bytes), Err(CodecError::BadLength)));
    }

    #[test]
    fn unknown_version_is_rejected() {
        // 1 is the retired flat format; it is as unknown as any other.
        for version in [1u16, 99] {
            let mut w = Writer::new();
            w.bytes(SSTABLE_MAGIC).u16(version).u32(0);
            let mut bytes = w.into_bytes();
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            assert!(matches!(decode_sstable(&bytes), Err(CodecError::BadValue)));
            assert!(matches!(decode_table_index(&bytes), Err(CodecError::BadValue)));
        }
    }
}
