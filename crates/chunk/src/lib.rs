//! Chunk storage for ShardStore: on-disk framing, the chunk store
//! (PUT/GET over opaque locators), and crash-consistent chunk reclamation
//! (§2.1 and §5 of the paper).

pub mod frame;
mod store;

pub use frame::{
    decode_frame_at, encode_frame, scan_extent, DecodedFrame, FRAME_HEADER_LEN, FRAME_OVERHEAD, MAGIC,
};
pub use store::{
    ChunkError, ChunkStats, ChunkStore, EvacuationReport, Locator, PutGuard, PutOutcome,
    ReclaimReport, Referencer, Stream,
};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use shardstore_conc::sync::Mutex;
    use shardstore_dependency::{Dependency, IoScheduler};
    use shardstore_faults::{BugId, FaultConfig};
    use shardstore_superblock::ExtentManager;
    use shardstore_vdisk::{CrashPlan, Disk, Geometry};

    use super::*;

    fn setup() -> ChunkStore {
        setup_with(FaultConfig::none())
    }

    fn setup_with(faults: FaultConfig) -> ChunkStore {
        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(disk);
        let em = ExtentManager::format(sched, faults.clone());
        ChunkStore::new(em, faults, 42)
    }

    trait PutParts {
        fn put_parts(
            &self,
            stream: Stream,
            payload: &[u8],
            dep: &Dependency,
        ) -> Result<(Locator, Dependency, PutGuard), ChunkError>;
    }

    impl PutParts for ChunkStore {
        fn put_parts(
            &self,
            stream: Stream,
            payload: &[u8],
            dep: &Dependency,
        ) -> Result<(Locator, Dependency, PutGuard), ChunkError> {
            self.put(stream, payload, dep).map(|o| o.into_parts())
        }
    }

    /// A referencer over an explicit live map, recording relocations.
    #[derive(Default)]
    struct MapReferencer {
        live: Mutex<BTreeMap<u128, Locator>>,
    }

    impl MapReferencer {
        fn insert(&self, loc: Locator) {
            self.live.lock().insert(loc.uuid, loc);
        }
    }

    impl Referencer for MapReferencer {
        fn is_live(&self, locator: &Locator) -> bool {
            self.live.lock().get(&locator.uuid) == Some(locator)
        }

        fn relocated(&self, old: &Locator, new: &Locator, copy_dep: &Dependency) -> Dependency {
            let mut live = self.live.lock();
            if live.get(&old.uuid) == Some(old) {
                live.remove(&old.uuid);
                live.insert(new.uuid, *new);
            }
            // A real index would persist the pointer update; the map is
            // memory-only, so the update "persists" with the copy.
            copy_dep.clone()
        }

        fn quiesce(&self) -> Result<Option<Dependency>, ChunkError> {
            Ok(None)
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let (loc, dep, _g) = cs.put_parts(Stream::Data, b"hello chunk", &none).unwrap();
        cs.extent_manager().pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(cs.get(&loc).unwrap(), b"hello chunk");
    }

    #[test]
    fn put_batch_roundtrips_each_chunk() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let payloads: Vec<&[u8]> = vec![b"alpha", b"bb", b"cccccc"];
        let outs = cs.put_batch(Stream::Data, &payloads, &none).unwrap();
        assert_eq!(outs.len(), 3);
        cs.extent_manager().pump().unwrap();
        for (out, payload) in outs.iter().zip(&payloads) {
            assert!(out.dep.is_persistent());
            assert_eq!(cs.get(&out.locator).unwrap(), *payload);
        }
        // All three chunks landed on one extent, back to back.
        let ext = outs[0].locator.extent;
        assert!(outs.iter().all(|o| o.locator.extent == ext));
    }

    #[test]
    fn put_batch_coalesces_disk_ios() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let sched = cs.extent_manager().scheduler().clone();
        let submitted_before = sched.counter("sched.writes_submitted");
        let coalesced_before = sched.counter("sched.writes_coalesced");
        let payloads: Vec<&[u8]> = vec![b"one", b"two", b"three", b"four"];
        let outs = cs.put_batch(Stream::Data, &payloads, &none).unwrap();
        cs.extent_manager().pump().unwrap();
        // 4 frames + 1 shared superblock update submitted...
        assert_eq!(sched.counter("sched.writes_submitted") - submitted_before, 5);
        // ...and the 4 contiguous frames merged into fewer disk IOs.
        assert!(sched.counter("sched.writes_coalesced") > coalesced_before);
        drop(outs);
    }

    #[test]
    fn put_batch_guards_pin_extent_against_reclaim() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let outs = cs.put_batch(Stream::Data, &[b"a".as_slice(), b"b".as_slice()], &none).unwrap();
        cs.extent_manager().pump().unwrap();
        let ext = outs[0].locator.extent;
        let referencer = MapReferencer::default();
        // Drop one guard: the extent must stay pinned by the other.
        let (first, second) = {
            let mut it = outs.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        drop(first.guard);
        assert!(cs.reclaim(ext, Stream::Data, &referencer).unwrap().is_none());
        drop(second.guard);
        assert!(cs.reclaim(ext, Stream::Data, &referencer).unwrap().is_some());
    }

    #[test]
    fn put_batch_overflow_falls_back_to_single_puts() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let size = cs.extent_manager().extent_size();
        let big = vec![7u8; size / 2];
        let payloads: Vec<&[u8]> = vec![&big, &big, &big];
        let outs = cs.put_batch(Stream::Data, &payloads, &none).unwrap();
        cs.extent_manager().pump().unwrap();
        assert_eq!(outs.len(), 3);
        for (out, payload) in outs.iter().zip(&payloads) {
            assert_eq!(cs.get(&out.locator).unwrap(), *payload);
        }
    }

    #[test]
    fn get_unknown_locator_fails_not_found() {
        let cs = setup();
        let bogus = Locator {
            extent: shardstore_vdisk::ExtentId(3),
            offset: 0,
            len: 4,
            uuid: 99,
        };
        assert!(matches!(cs.get(&bogus), Err(ChunkError::NotFound(_))));
    }

    #[test]
    fn locators_are_unique() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..20u8 {
            let (loc, _, _g) = cs.put_parts(Stream::Data, &[i], &none).unwrap();
            assert!(seen.insert(loc.uuid), "duplicate uuid for {loc}");
        }
    }

    #[test]
    fn puts_fill_extent_then_spill_to_new_one() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let payload = vec![7u8; 200];
        let mut extents = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let (loc, _, _g) = cs.put_parts(Stream::Data, &payload, &none).unwrap();
            extents.insert(loc.extent);
        }
        assert!(extents.len() >= 2, "large puts should spill to multiple extents");
    }

    #[test]
    fn streams_do_not_share_extents() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let (a, _, _g1) = cs.put_parts(Stream::Data, b"d", &none).unwrap();
        let (b, _, _g2) = cs.put_parts(Stream::Lsm, b"l", &none).unwrap();
        let (c, _, _g3) = cs.put_parts(Stream::Meta, b"m", &none).unwrap();
        assert_ne!(a.extent, b.extent);
        assert_ne!(b.extent, c.extent);
        assert_ne!(a.extent, c.extent);
    }

    #[test]
    fn oversized_chunk_is_rejected() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let size = cs.extent_manager().extent_size();
        assert!(matches!(
            cs.put(Stream::Data, &vec![0u8; size + 1], &none),
            Err(ChunkError::NoSpace { .. })
        ));
    }

    #[test]
    fn recover_rebuilds_registry_from_scan() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let (loc, _, _g) = cs.put_parts(Stream::Data, b"durable", &none).unwrap();
        cs.extent_manager().pump().unwrap();
        cs.extent_manager().scheduler().crash(&CrashPlan::LoseAll);
        let em = ExtentManager::recover(
            cs.extent_manager().scheduler().clone(),
            FaultConfig::none(),
        )
        .unwrap();
        let cs2 = ChunkStore::recover(em, FaultConfig::none(), 43).unwrap();
        assert_eq!(cs2.get(&loc).unwrap(), b"durable");
    }

    #[test]
    fn unpersisted_chunk_is_gone_after_crash() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let (loc, dep, _g) = cs.put_parts(Stream::Data, b"volatile", &none).unwrap();
        cs.extent_manager().scheduler().crash(&CrashPlan::LoseAll);
        assert!(!dep.is_persistent());
        let em = ExtentManager::recover(
            cs.extent_manager().scheduler().clone(),
            FaultConfig::none(),
        )
        .unwrap();
        let cs2 = ChunkStore::recover(em, FaultConfig::none(), 44).unwrap();
        assert!(matches!(cs2.get(&loc), Err(ChunkError::NotFound(_))));
    }

    #[test]
    fn reclaim_evacuates_live_and_drops_dead() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (live, _, g1) = cs.put_parts(Stream::Data, b"live data", &none).unwrap();
        refs.insert(live);
        let (dead, _, g2) = cs.put_parts(Stream::Data, b"dead data", &none).unwrap();
        cs.mark_dead(&dead);
        cs.extent_manager().pump().unwrap();
        drop((g1, g2));
        assert_eq!(live.extent, dead.extent);
        let report = cs.reclaim(live.extent, Stream::Data, &refs).unwrap().unwrap();
        assert_eq!(report.evacuated, 1);
        assert_eq!(report.dropped, 1);
        cs.extent_manager().pump().unwrap();
        assert!(report.reset_dep.is_persistent());
        // The live chunk moved and is readable at its new locator.
        let new_loc = refs.get_by_payload();
        assert_ne!(new_loc.extent, live.extent);
        assert_eq!(cs.get(&new_loc).unwrap(), b"live data");
        // The old locators are gone.
        assert!(cs.get(&live).is_err());
        assert!(cs.get(&dead).is_err());
        // The extent is reusable.
        assert_eq!(cs.extent_manager().write_pointer(live.extent), 0);
    }

    impl MapReferencer {
        /// Returns the single live locator (test helper).
        fn get_by_payload(&self) -> Locator {
            let live = self.live.lock();
            assert_eq!(live.len(), 1);
            *live.values().next().unwrap()
        }
    }

    #[test]
    fn reclaim_reset_waits_for_evacuations() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (live, _, g) = cs.put_parts(Stream::Data, b"precious", &none).unwrap();
        refs.insert(live);
        cs.extent_manager().pump().unwrap();
        drop(g);
        let report = cs.reclaim(live.extent, Stream::Data, &refs).unwrap().unwrap();
        // Nothing pumped yet: the reset must not be persistent before the
        // evacuation copy is.
        assert!(!report.reset_dep.is_persistent());
        // Crash now: the evacuated copy is lost, but so is the reset — the
        // original chunk is still on disk after recovery.
        cs.extent_manager().scheduler().crash(&CrashPlan::LoseAll);
        let em = ExtentManager::recover(
            cs.extent_manager().scheduler().clone(),
            FaultConfig::none(),
        )
        .unwrap();
        let cs2 = ChunkStore::recover(em, FaultConfig::none(), 45).unwrap();
        assert_eq!(cs2.get(&live).unwrap(), b"precious");
    }

    #[test]
    fn reclaim_skips_pinned_extents() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (loc, _, guard) = cs.put_parts(Stream::Data, b"in flight", &none).unwrap();
        cs.extent_manager().pump().unwrap();
        // Pin held: reclamation refuses.
        assert!(cs.reclaim(loc.extent, Stream::Data, &refs).unwrap().is_none());
        drop(guard);
        // Pin released: reclamation proceeds (chunk unreferenced → drop).
        let report = cs.reclaim(loc.extent, Stream::Data, &refs).unwrap().unwrap();
        assert_eq!(report.dropped, 1);
    }

    #[test]
    fn b11_seeded_put_does_not_pin() {
        let cs = setup_with(FaultConfig::seed(BugId::B11LocatorRace));
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (loc, _, _guard) = cs.put_parts(Stream::Data, b"racy", &none).unwrap();
        cs.extent_manager().pump().unwrap();
        // Even while the guard is alive, reclamation does not skip: the
        // historical race window.
        let report = cs.reclaim(loc.extent, Stream::Data, &refs).unwrap();
        assert!(report.is_some(), "buggy reclaim must not skip the in-flight extent");
        assert!(cs.get(&loc).is_err(), "locator invalidated under the caller");
    }

    #[test]
    fn b5_seeded_transient_read_error_forgets_chunks() {
        // Fixed behaviour: reclamation aborts on a transient read error.
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (live, _, g) = cs.put_parts(Stream::Data, b"keep me", &none).unwrap();
        refs.insert(live);
        cs.extent_manager().pump().unwrap();
        drop(g);
        cs.extent_manager().scheduler().disk().inject_fail_once(live.extent);
        assert!(cs.reclaim(live.extent, Stream::Data, &refs).is_err());
        assert_eq!(cs.get(&live).unwrap(), b"keep me");

        // Buggy behaviour: the error is swallowed and the extent reset,
        // losing the live chunk.
        let cs = setup_with(FaultConfig::seed(BugId::B5ReclamationTransientError));
        let none = cs.extent_manager().scheduler().none();
        let refs = MapReferencer::default();
        let (live, _, g) = cs.put_parts(Stream::Data, b"keep me", &none).unwrap();
        refs.insert(live);
        cs.extent_manager().pump().unwrap();
        drop(g);
        cs.extent_manager().scheduler().disk().inject_fail_once(live.extent);
        let report = cs.reclaim(live.extent, Stream::Data, &refs).unwrap().unwrap();
        assert_eq!(report.evacuated, 0);
        cs.extent_manager().pump().unwrap();
        assert!(cs.get(&live).is_err(), "live chunk forgotten by buggy reclamation");
    }

    #[test]
    fn corrupt_frame_is_detected_not_returned() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        let (loc, _, _g) = cs.put_parts(Stream::Data, b"fragile", &none).unwrap();
        cs.extent_manager().pump().unwrap();
        // Corrupt one payload byte directly on the disk.
        let disk = Arc::clone(cs.extent_manager().scheduler().disk());
        disk.write(loc.extent, loc.offset as usize + 22, &[0xFF]).unwrap();
        disk.flush_all().unwrap();
        // Payload corruption alone is invisible without a payload CRC
        // (faithful to the paper's frame); corrupt the trailer instead to
        // verify detection.
        let trailer_off = loc.offset as usize + 22 + loc.len as usize;
        disk.write(loc.extent, trailer_off, &[0x00, 0x01, 0x02]).unwrap();
        disk.flush_all().unwrap();
        assert!(matches!(cs.get(&loc), Err(ChunkError::Corrupt(_))));
    }

    #[test]
    fn victim_selection_prefers_most_garbage() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        // Fill two extents; mark everything in the second dead.
        let big = vec![1u8; 400];
        let (a, _, g1) = cs.put_parts(Stream::Data, &big, &none).unwrap();
        let (b, _, g2) = cs.put_parts(Stream::Data, &big, &none).unwrap();
        let (c, _, g3) = cs.put_parts(Stream::Data, &big, &none).unwrap();
        drop((g1, g2, g3));
        // Find a chunk on a non-open extent and mark it dead.
        let all = [a, b, c];
        let open_extent = all.last().unwrap().extent;
        let dead = all.iter().find(|l| l.extent != open_extent).unwrap();
        cs.mark_dead(dead);
        assert_eq!(cs.select_victim(Stream::Data), Some(dead.extent));
    }

    #[test]
    fn forced_uuid_is_used_once() {
        let cs = setup();
        let none = cs.extent_manager().scheduler().none();
        cs.force_next_uuid(0x1234);
        let (a, _, _g1) = cs.put_parts(Stream::Data, b"x", &none).unwrap();
        let (b, _, _g2) = cs.put_parts(Stream::Data, b"y", &none).unwrap();
        assert_eq!(a.uuid, 0x1234);
        assert_ne!(b.uuid, 0x1234);
    }
}
