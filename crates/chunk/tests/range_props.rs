//! Ranged chunk reads: `get_range` must be `get` restricted to a byte
//! range — same bytes, same error classification — while reading only
//! the frame header and the range itself.

use proptest::prelude::*;
use shardstore_chunk::{ChunkError, ChunkStore, Locator, Referencer, Stream, FRAME_HEADER_LEN};
use shardstore_dependency::{Dependency, IoScheduler};
use shardstore_faults::FaultConfig;
use shardstore_superblock::{ExtentError, ExtentManager};
use shardstore_vdisk::{Disk, Geometry, IoError};

fn setup() -> ChunkStore {
    let sched = IoScheduler::new(Disk::new(Geometry::small()));
    let em = ExtentManager::format(sched, FaultConfig::none());
    ChunkStore::new(em, FaultConfig::none(), 42)
}

fn put(cs: &ChunkStore, payload: &[u8]) -> Locator {
    let none = cs.extent_manager().scheduler().none();
    cs.put(Stream::Data, payload, &none).unwrap().locator
}

fn is_out_of_range(r: &Result<Vec<u8>, ChunkError>) -> bool {
    matches!(r, Err(ChunkError::Extent(ExtentError::Io(IoError::OutOfRange { .. }))))
}

/// Nothing is referenced: reclamation drops every chunk.
struct NoneLive;

impl Referencer for NoneLive {
    fn is_live(&self, _l: &Locator) -> bool {
        false
    }
    fn relocated(&self, _o: &Locator, _n: &Locator, d: &Dependency) -> Dependency {
        d.clone()
    }
    fn quiesce(&self) -> Result<Option<Dependency>, ChunkError> {
        Ok(None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `get_range(l, off, len) == get(l)[off..off + len]` for payloads
    /// spanning one to all pages of an extent, whether the chunk is still
    /// pending in the scheduler (served by its overlay), issued but
    /// unflushed (in the disk's volatile pages) or durable; and a range
    /// reaching past the payload is a typed error.
    #[test]
    fn get_range_is_get_restricted_to_the_range(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..900), 1..4),
        state in 0u8..3,
        ranges in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..6),
    ) {
        let cs = setup();
        let locators: Vec<Locator> = payloads.iter().map(|p| put(&cs, p)).collect();
        match state {
            0 => {}
            1 => {
                cs.extent_manager().scheduler().issue_ready(usize::MAX).unwrap();
            }
            _ => cs.extent_manager().pump().unwrap(),
        }
        for (locator, payload) in locators.iter().zip(&payloads) {
            let whole = cs.get(locator).unwrap();
            prop_assert_eq!(&whole, payload);
            for (a, b) in &ranges {
                let off = *a as usize % (whole.len() + 1);
                let len = *b as usize % (whole.len() - off + 1);
                let got = cs.get_range(locator, off, len).unwrap();
                prop_assert_eq!(&got[..], &whole[off..off + len], "range {}+{}", off, len);
                let past = cs.get_range(locator, off, whole.len() - off + 1);
                prop_assert!(is_out_of_range(&past), "{:?}", past);
            }
            prop_assert!(is_out_of_range(&cs.get_range(locator, usize::MAX, 2)));
        }
    }

    /// A ranged read moves only the header and the range off the disk,
    /// whatever the chunk's size.
    #[test]
    fn get_range_reads_header_plus_range(
        payload in proptest::collection::vec(any::<u8>(), 600..900),
        off in 0usize..500,
        len in 0usize..100,
    ) {
        let cs = setup();
        let locator = put(&cs, &payload);
        cs.extent_manager().pump().unwrap();
        let disk = cs.extent_manager().scheduler().disk().clone();
        let before = disk.stats();
        cs.get_range(&locator, off, len).unwrap();
        let after = disk.stats();
        prop_assert_eq!(after.bytes_read - before.bytes_read, (FRAME_HEADER_LEN + len) as u64);
        prop_assert_eq!(after.reads - before.reads, 2);
    }
}

#[test]
fn reclaimed_chunk_is_not_found_on_both_paths() {
    let cs = setup();
    let locator = put(&cs, &[7u8; 300]);
    cs.extent_manager().pump().unwrap();
    cs.reclaim(locator.extent, Stream::Data, &NoneLive).unwrap().unwrap();
    assert_eq!(cs.get(&locator), Err(ChunkError::NotFound(locator)));
    assert_eq!(cs.get_range(&locator, 10, 20), Err(ChunkError::NotFound(locator)));
    // A new chunk reusing the position does not resurrect the old locator.
    let reused = put(&cs, &[9u8; 300]);
    assert_eq!((reused.extent, reused.offset), (locator.extent, locator.offset));
    assert_eq!(cs.get_range(&locator, 10, 20), Err(ChunkError::NotFound(locator)));
    assert_eq!(cs.get_range(&reused, 10, 20).unwrap(), vec![9u8; 20]);
}

#[test]
fn quarantined_extent_is_degraded_on_both_paths() {
    let cs = setup();
    let locator = put(&cs, &[7u8; 300]);
    cs.extent_manager().pump().unwrap();
    cs.extent_manager().quarantine(locator.extent);
    assert_eq!(cs.get(&locator), Err(ChunkError::Degraded(locator)));
    assert_eq!(cs.get_range(&locator, 0, 300), Err(ChunkError::Degraded(locator)));
}

#[test]
fn permanent_read_fault_quarantines_and_degrades_on_the_ranged_path() {
    let cs = setup();
    let locator = put(&cs, &[7u8; 300]);
    cs.extent_manager().pump().unwrap();
    let disk = cs.extent_manager().scheduler().disk().clone();
    // Transient faults are retried within the read budget …
    disk.inject_fail_times(locator.extent, 2);
    assert_eq!(cs.get_range(&locator, 5, 5).unwrap(), vec![7u8; 5]);
    // … a permanent one quarantines the extent, as on `get`.
    disk.inject_fail_always(locator.extent);
    assert_eq!(cs.get_range(&locator, 5, 5), Err(ChunkError::Degraded(locator)));
    assert!(cs.extent_manager().is_quarantined(locator.extent));
}

#[test]
fn header_mismatch_is_corrupt_on_both_paths() {
    // Each header field in turn: magic, length, UUID.
    for (at, with) in [(0usize, 0x5Au8), (3, 0x01), (9, 0xFF)] {
        let cs = setup();
        let locator = put(&cs, &[7u8; 300]);
        cs.extent_manager().pump().unwrap();
        let disk = cs.extent_manager().scheduler().disk().clone();
        let pos = locator.offset as usize + at;
        let old = disk.read(locator.extent, pos, 1).unwrap()[0];
        disk.write(locator.extent, pos, &[old ^ with]).unwrap();
        assert_eq!(cs.get(&locator), Err(ChunkError::Corrupt(locator)), "byte {at}");
        assert_eq!(cs.get_range(&locator, 100, 50), Err(ChunkError::Corrupt(locator)), "byte {at}");
    }
}
