//! Integration tests of the LSM index over the full substrate stack
//! (chunk store, cache, extent manager, IO scheduler, virtual disk).

use shardstore_cache::CachedChunkStore;
use shardstore_chunk::{ChunkStore, Locator, Referencer, Stream};
use shardstore_dependency::IoScheduler;
use shardstore_faults::{BugId, FaultConfig};
use shardstore_lsm::LsmIndex;
use shardstore_superblock::ExtentManager;
use shardstore_vdisk::{CrashPlan, Disk, ExtentId, Geometry};

fn setup_with(geometry: Geometry, faults: FaultConfig) -> LsmIndex {
    let disk = Disk::new(geometry);
    let sched = IoScheduler::new(disk);
    let em = ExtentManager::format(sched, faults.clone());
    let cs = ChunkStore::new(em, faults.clone(), 99);
    let cache = CachedChunkStore::new(cs, faults.clone(), 4096);
    LsmIndex::new(cache, faults)
}

fn setup() -> LsmIndex {
    setup_with(Geometry::small(), FaultConfig::none())
}

fn loc(e: u32, off: u32, uuid: u128) -> Locator {
    Locator { extent: ExtentId(e), offset: off, len: 8, uuid }
}

fn pump(index: &LsmIndex) {
    index.cache().chunk_store().extent_manager().pump().unwrap();
}

/// Test helper: put with no data dependency (synthetic locators).
trait PutNoData {
    fn put2(&self, key: u128, locators: Vec<Locator>) -> shardstore_dependency::Dependency;
}

impl PutNoData for LsmIndex {
    fn put2(&self, key: u128, locators: Vec<Locator>) -> shardstore_dependency::Dependency {
        let none = self.cache().chunk_store().extent_manager().scheduler().none();
        self.put(key, locators, none)
    }
}

fn recover(index: &LsmIndex, faults: FaultConfig) -> LsmIndex {
    let sched = index.cache().chunk_store().extent_manager().scheduler().clone();
    let em = ExtentManager::recover(sched, faults.clone()).unwrap();
    let cs = ChunkStore::recover(em, faults.clone(), 100).unwrap();
    let cache = CachedChunkStore::new(cs, faults.clone(), 4096);
    LsmIndex::recover(cache, faults).unwrap()
}

#[test]
fn put_get_from_memtable() {
    let index = setup();
    index.put2(5, vec![loc(3, 0, 11)]);
    assert_eq!(index.get(5).unwrap(), Some(vec![loc(3, 0, 11)]));
    assert_eq!(index.get(6).unwrap(), None);
}

#[test]
fn delete_shadows_earlier_put() {
    let index = setup();
    index.put2(5, vec![loc(3, 0, 11)]);
    index.delete(5);
    assert_eq!(index.get(5).unwrap(), None);
}

#[test]
fn get_reads_from_sstable_after_flush() {
    let index = setup();
    index.put2(5, vec![loc(3, 0, 11)]);
    index.flush().unwrap();
    assert_eq!(index.memtable_len(), 0);
    assert_eq!(index.table_count(), 1);
    assert_eq!(index.get(5).unwrap(), Some(vec![loc(3, 0, 11)]));
}

#[test]
fn newer_table_shadows_older() {
    let index = setup();
    index.put2(5, vec![loc(3, 0, 1)]);
    index.flush().unwrap();
    index.put2(5, vec![loc(4, 0, 2)]);
    index.flush().unwrap();
    assert_eq!(index.get(5).unwrap(), Some(vec![loc(4, 0, 2)]));
}

#[test]
fn tombstone_in_newer_table_hides_older_entry() {
    let index = setup();
    index.put2(5, vec![loc(3, 0, 1)]);
    index.flush().unwrap();
    index.delete(5);
    index.flush().unwrap();
    assert_eq!(index.get(5).unwrap(), None);
}

#[test]
fn put_dependency_persists_after_flush_and_pump() {
    let index = setup();
    let dep = index.put2(5, vec![loc(3, 0, 1)]);
    assert!(!dep.is_persistent());
    index.flush().unwrap();
    assert!(!dep.is_persistent(), "flush alone does not persist (IO not pumped)");
    pump(&index);
    assert!(dep.is_persistent());
}

#[test]
fn shutdown_seals_every_dependency() {
    let index = setup();
    let deps: Vec<_> = (0..10u128).map(|k| index.put2(k, vec![loc(3, k as u32, k)])).collect();
    index.shutdown().unwrap();
    for (i, d) in deps.iter().enumerate() {
        assert!(d.is_persistent(), "dependency {i} not persistent after clean shutdown");
    }
}

#[test]
fn recovery_restores_flushed_entries() {
    let index = setup();
    index.put2(1, vec![loc(3, 0, 1)]);
    index.put2(2, vec![loc(3, 50, 2)]);
    index.shutdown().unwrap();
    index.cache().chunk_store().extent_manager().scheduler().crash(&CrashPlan::LoseAll);
    let index2 = recover(&index, FaultConfig::none());
    assert_eq!(index2.get(1).unwrap(), Some(vec![loc(3, 0, 1)]));
    assert_eq!(index2.get(2).unwrap(), Some(vec![loc(3, 50, 2)]));
}

#[test]
fn unflushed_entries_lost_after_crash_and_deps_report_it() {
    let index = setup();
    index.put2(1, vec![loc(3, 0, 1)]);
    index.shutdown().unwrap();
    let dep2 = index.put2(2, vec![loc(3, 50, 2)]);
    // Crash without flushing the second put.
    index.cache().chunk_store().extent_manager().scheduler().crash(&CrashPlan::LoseAll);
    assert!(!dep2.is_persistent());
    let index2 = recover(&index, FaultConfig::none());
    assert_eq!(index2.get(1).unwrap(), Some(vec![loc(3, 0, 1)]));
    assert_eq!(index2.get(2).unwrap(), None);
}

#[test]
fn compaction_preserves_merged_view() {
    let index = setup();
    for k in 0..6u128 {
        index.put2(k, vec![loc(3, k as u32 * 10, k)]);
        index.flush().unwrap();
    }
    index.delete(0);
    index.put2(1, vec![loc(4, 0, 100)]);
    index.flush().unwrap();
    assert!(index.table_count() >= 3);
    // Tiered compaction is incremental: each round merges a bounded run
    // and strictly reduces the table count, so repeated rounds converge.
    while index.table_count() > 1 {
        let before = index.table_count();
        index.compact().unwrap();
        assert!(index.table_count() < before, "compaction round made no progress");
    }
    assert_eq!(index.get(0).unwrap(), None);
    assert_eq!(index.get(1).unwrap(), Some(vec![loc(4, 0, 100)]));
    for k in 2..6u128 {
        assert_eq!(index.get(k).unwrap(), Some(vec![loc(3, k as u32 * 10, k)]));
    }
}

#[test]
fn compaction_result_survives_recovery() {
    let index = setup();
    for k in 0..4u128 {
        index.put2(k, vec![loc(3, k as u32 * 10, k)]);
        index.flush().unwrap();
    }
    while index.table_count() > 1 {
        index.compact().unwrap();
    }
    index.shutdown().unwrap();
    index.cache().chunk_store().extent_manager().scheduler().crash(&CrashPlan::LoseAll);
    let index2 = recover(&index, FaultConfig::none());
    for k in 0..4u128 {
        assert_eq!(index2.get(k).unwrap(), Some(vec![loc(3, k as u32 * 10, k)]));
    }
    assert_eq!(index2.table_count(), 1);
}

#[test]
fn keys_lists_merged_present_view() {
    let index = setup();
    index.put2(3, vec![loc(3, 0, 1)]);
    index.put2(1, vec![loc(3, 10, 2)]);
    index.flush().unwrap();
    index.delete(3);
    index.put2(2, vec![loc(3, 20, 3)]);
    assert_eq!(index.keys().unwrap(), vec![1, 2]);
}

#[test]
fn overwrite_during_flush_window_is_not_lost() {
    // Sequential variant: overwrite between mutation and flush must win.
    let index = setup();
    index.put2(7, vec![loc(3, 0, 1)]);
    index.put2(7, vec![loc(3, 10, 2)]);
    index.flush().unwrap();
    assert_eq!(index.get(7).unwrap(), Some(vec![loc(3, 10, 2)]));
}

#[test]
fn data_referencer_tracks_liveness() {
    let index = setup();
    let referencer = index.data_referencer();
    let l1 = loc(3, 0, 1);
    let l2 = loc(3, 10, 2);
    index.put2(7, vec![l1, l2]);
    assert!(referencer.is_live(&l1));
    assert!(referencer.is_live(&l2));
    // Overwrite: old locators no longer referenced.
    let l3 = loc(4, 0, 3);
    index.put2(7, vec![l3]);
    assert!(!referencer.is_live(&l1));
    assert!(referencer.is_live(&l3));
    index.delete(7);
    assert!(!referencer.is_live(&l3));
}

#[test]
fn data_referencer_liveness_survives_flush_and_recovery() {
    let index = setup();
    let l1 = loc(3, 0, 1);
    index.put2(7, vec![l1]);
    index.shutdown().unwrap();
    index.cache().chunk_store().extent_manager().scheduler().crash(&CrashPlan::LoseAll);
    let index2 = recover(&index, FaultConfig::none());
    assert!(index2.data_referencer().is_live(&l1));
}

#[test]
fn data_referencer_relocation_rewrites_entry() {
    let index = setup();
    let referencer = index.data_referencer();
    let old = loc(3, 0, 1);
    let keep = loc(3, 10, 2);
    index.put2(7, vec![old, keep]);
    let new = loc(5, 0, 9);
    let none = index.cache().chunk_store().extent_manager().scheduler().none();
    let dep = referencer.relocated(&old, &new, &none);
    assert_eq!(index.get(7).unwrap(), Some(vec![new, keep]));
    // The rewrite becomes durable via the normal flush path.
    assert!(!dep.is_persistent());
    index.flush().unwrap();
    pump(&index);
    assert!(dep.is_persistent());
}

#[test]
fn lsm_referencer_covers_tables_and_metadata() {
    let index = setup();
    index.put2(1, vec![loc(3, 0, 1)]);
    index.flush().unwrap();
    pump(&index);
    let referencer = index.lsm_referencer();
    // Every registered chunk on Lsm/Meta extents must be live right after
    // a flush (one table + one metadata record; older metadata records
    // are dead).
    let em = index.cache().chunk_store().extent_manager().clone();
    let mut live = 0;
    let mut dead = 0;
    for l in index.cache().chunk_store().registered_locators() {
        match em.owner(l.extent) {
            shardstore_superblock::Owner::LsmData | shardstore_superblock::Owner::Metadata => {
                if referencer.is_live(&l) {
                    live += 1;
                } else {
                    dead += 1;
                }
            }
            _ => {}
        }
    }
    assert_eq!(live, 2, "one live table chunk + one live metadata record");
    assert_eq!(dead, 0);
    // After another flush, the old metadata record is dead.
    index.put2(2, vec![loc(3, 10, 2)]);
    index.flush().unwrap();
    let dead_now = index
        .cache()
        .chunk_store()
        .registered_locators()
        .iter()
        .filter(|l| {
            matches!(
                em.owner(l.extent),
                shardstore_superblock::Owner::LsmData | shardstore_superblock::Owner::Metadata
            ) && !referencer.is_live(l)
        })
        .count();
    assert!(dead_now >= 1, "old metadata records become garbage");
}

#[test]
fn reclaiming_lsm_extent_relocates_live_tables() {
    let index = setup_with(Geometry::small(), FaultConfig::none());
    // Create several tables so the LSM extent has content, then compact
    // so most are garbage.
    for k in 0..5u128 {
        index.put2(k, vec![loc(3, k as u32, k)]);
        index.flush().unwrap();
    }
    index.compact().unwrap();
    pump(&index);
    let referencer = index.lsm_referencer();
    // Reclaim every Lsm extent; live chunks must survive.
    let em = index.cache().chunk_store().extent_manager().clone();
    for ext in em.extents_owned_by(shardstore_superblock::Owner::LsmData) {
        index.cache().reclaim(ext, Stream::Lsm, &referencer).unwrap();
    }
    pump(&index);
    for k in 0..5u128 {
        assert_eq!(index.get(k).unwrap(), Some(vec![loc(3, k as u32, k)]));
    }
    // And the result survives a crash + recovery.
    index.shutdown().unwrap();
    index.cache().chunk_store().extent_manager().scheduler().crash(&CrashPlan::LoseAll);
    let index2 = recover(&index, FaultConfig::none());
    for k in 0..5u128 {
        assert_eq!(index2.get(k).unwrap(), Some(vec![loc(3, k as u32, k)]));
    }
}

#[test]
fn b3_seeded_shutdown_skips_flush_after_reset() {
    let faults = FaultConfig::seed(BugId::B3MetadataShutdownFlush);
    let index = setup_with(Geometry::small(), faults.clone());
    index.put2(1, vec![loc(3, 0, 1)]);
    index.note_extent_reset();
    let dep = index.put2(2, vec![loc(3, 10, 2)]);
    index.shutdown().unwrap();
    // Forward-progress violation: a clean shutdown left a dependency
    // non-persistent.
    assert!(!dep.is_persistent(), "buggy shutdown must skip the flush");
    // Fixed behaviour for contrast.
    let index = setup();
    index.put2(1, vec![loc(3, 0, 1)]);
    index.note_extent_reset();
    let dep = index.put2(2, vec![loc(3, 10, 2)]);
    index.shutdown().unwrap();
    assert!(dep.is_persistent());
}

#[test]
fn metadata_write_depends_on_table_chunk() {
    // Issue exactly one IO at a time and verify the metadata chunk is
    // never on disk before the table chunk it references.
    let index = setup();
    index.put2(1, vec![loc(3, 0, 1)]);
    index.flush().unwrap();
    let sched = index.cache().chunk_store().extent_manager().scheduler().clone();
    // At this point the SSTable + metadata writes are queued. Issue one.
    sched.issue_ready(1).unwrap();
    sched.crash(&CrashPlan::KeepAll);
    // Whatever survived, recovery must not see a metadata record that
    // references a missing table.
    let index2 = recover(&index, FaultConfig::none());
    // get() must not fail with corruption: either the entry is there
    // (both persisted) or cleanly absent.
    match index2.get(1) {
        Ok(_) => {}
        Err(e) => panic!("recovery produced a dangling metadata reference: {e}"),
    }
}

#[test]
fn many_entries_across_flushes_remain_consistent() {
    let index = setup_with(
        Geometry { extent_count: 32, pages_per_extent: 8, page_size: 128 },
        FaultConfig::none(),
    );
    let mut expected = std::collections::BTreeMap::new();
    for round in 0..8u128 {
        for k in 0..12u128 {
            if (k + round) % 4 == 0 {
                index.delete(k);
                expected.remove(&k);
            } else {
                let l = loc(3, (round * 16 + k) as u32, round * 100 + k);
                index.put2(k, vec![l]);
                expected.insert(k, vec![l]);
            }
        }
        index.flush().unwrap();
        if round % 3 == 2 {
            index.compact().unwrap();
        }
    }
    for k in 0..12u128 {
        assert_eq!(index.get(k).unwrap(), expected.get(&k).cloned(), "key {k}");
    }
    assert_eq!(
        index.keys().unwrap(),
        expected.keys().copied().collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Read path: fences, blooms, decoded-table cache, relocation retry.
//
// Coverage probes are process-global, so tests that assert on counts
// serialize on a local mutex (same pattern as the coverage module's own
// tests).
// ---------------------------------------------------------------------------

use shardstore_faults::coverage;
use shardstore_lsm::LsmConfig;
use std::sync::Mutex;

static COVERAGE_LOCK: Mutex<()> = Mutex::new(());

fn cov_guard() -> std::sync::MutexGuard<'static, ()> {
    COVERAGE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup_config(config: LsmConfig) -> LsmIndex {
    let disk = Disk::new(Geometry::small());
    let sched = IoScheduler::new(disk);
    let em = ExtentManager::format(sched, FaultConfig::none());
    let cs = ChunkStore::new(em, FaultConfig::none(), 99);
    let cache = CachedChunkStore::new(cs, FaultConfig::none(), 4096);
    LsmIndex::with_config(cache, FaultConfig::none(), config)
}

#[test]
fn fences_skip_tables_outside_key_range() {
    let _g = cov_guard();
    let index = setup();
    for k in 0..8u128 {
        index.put2(k, vec![loc(3, k as u32, k)]);
    }
    index.flush().unwrap();
    for k in 100..108u128 {
        index.put2(k, vec![loc(3, k as u32, k)]);
    }
    index.flush().unwrap();
    index.drop_decoded_cache();
    let _rec = coverage::Recording::start();
    // Key 3 lives in the older table; the newer table's fence is
    // [100, 107], so the lookup must skip it without reading a chunk.
    assert_eq!(index.get(3).unwrap(), Some(vec![loc(3, 3, 3)]));
    assert!(coverage::count("lsm.get.fence_skip") >= 1, "newest table not fence-skipped");
    assert_eq!(coverage::count("lsm.decoded.miss"), 1, "exactly one table decoded");
}

#[test]
fn blooms_skip_overlapping_tables_without_the_key() {
    let _g = cov_guard();
    let index = setup();
    // Even keys in one table, odd keys in another: the fences overlap,
    // so only the bloom can skip the wrong table.
    for k in (0..16u128).step_by(2) {
        index.put2(k, vec![loc(3, k as u32, k)]);
    }
    index.flush().unwrap();
    for k in (1..16u128).step_by(2) {
        index.put2(k, vec![loc(3, k as u32, k)]);
    }
    index.flush().unwrap();
    let _rec = coverage::Recording::start();
    for k in (2..16u128).step_by(2) {
        assert_eq!(index.get(k).unwrap(), Some(vec![loc(3, k as u32, k)]));
    }
    // Each even-key lookup is inside the odd table's fence; with a ~1%
    // false-positive rate at 10 bits/key the bloom must reject at least
    // one of the seven (the filter is deterministic, so this is stable).
    assert!(coverage::count("lsm.get.bloom_skip") >= 1, "bloom never skipped a table");
}

#[test]
fn decoded_cache_avoids_repeat_decodes() {
    let _g = cov_guard();
    let index = setup();
    index.put2(5, vec![loc(3, 0, 11)]);
    index.flush().unwrap();
    index.drop_decoded_cache();
    let _rec = coverage::Recording::start();
    assert_eq!(index.get(5).unwrap(), Some(vec![loc(3, 0, 11)]));
    assert_eq!(coverage::count("lsm.decoded.miss"), 1);
    assert_eq!(coverage::count("lsm.decoded.hit"), 0);
    assert_eq!(index.get(5).unwrap(), Some(vec![loc(3, 0, 11)]));
    assert_eq!(coverage::count("lsm.decoded.miss"), 1, "second read must not re-decode");
    assert_eq!(coverage::count("lsm.decoded.hit"), 1);
}

#[test]
fn decoded_cache_evicts_least_recently_used_table() {
    let _g = cov_guard();
    let index = setup_config(LsmConfig {
        decoded_cache_tables: 2,
        memtable_shards: 4,
        ..LsmConfig::default()
    });
    // Three single-key tables, capacity two: the fences route each get to
    // its own table, so three cold reads decode three blocks and must evict.
    for k in 0..3u128 {
        index.put2(k, vec![loc(3, k as u32, k)]);
        index.flush().unwrap();
    }
    index.drop_decoded_cache();
    let _rec = coverage::Recording::start();
    for k in 0..3u128 {
        assert_eq!(index.get(k).unwrap(), Some(vec![loc(3, k as u32, k)]));
    }
    assert_eq!(coverage::count("lsm.decoded.miss"), 3);
    assert!(coverage::count("lsm.decoded.evict") >= 1, "capacity-2 cache never evicted");
}

#[test]
fn relocation_between_snapshot_and_read_retries_with_new_locators() {
    let _g = cov_guard();
    let index = setup();
    for k in 0..5u128 {
        index.put2(k, vec![loc(3, k as u32, k)]);
        index.flush().unwrap();
    }
    index.compact().unwrap();
    pump(&index);
    let _rec = coverage::Recording::start();
    let em = index.cache().chunk_store().extent_manager().clone();
    let mut fired = false;
    let mut hook = || {
        // The reader has snapshotted the (old) table locators. Relocate
        // every live LSM chunk out from under it, then drop the decoded
        // cache so the lookup must follow the stale locators to disk.
        let referencer = index.lsm_referencer();
        for ext in em.extents_owned_by(shardstore_superblock::Owner::LsmData) {
            index.cache().reclaim(ext, Stream::Lsm, &referencer).unwrap();
        }
        pump(&index);
        index.drop_decoded_cache();
        fired = true;
    };
    assert_eq!(
        index.get_with_race_hook(3, &mut hook).unwrap(),
        Some(vec![loc(3, 3, 3)]),
        "retried read must return the value via the relocated table"
    );
    assert!(fired);
    assert!(
        coverage::count("lsm.get.retry_relocated") >= 1,
        "the stale-snapshot read must have retried"
    );
}

// ---------------------------------------------------------------------------
// Reverse-map (key -> locators) bookkeeping in the data referencer.
// ---------------------------------------------------------------------------

#[test]
fn shared_locator_claim_survives_first_owner_overwrite() {
    // Two keys claiming the same locator: the newer claim owns it, and
    // the older key's overwrite must not revoke the newer key's claim.
    let index = setup();
    let referencer = index.data_referencer();
    let l = loc(3, 0, 1);
    index.put2(1, vec![l]);
    index.put2(2, vec![l]);
    index.put2(1, vec![loc(4, 0, 2)]);
    assert!(referencer.is_live(&l), "key 2 still references the locator");
    index.put2(2, vec![loc(4, 10, 3)]);
    assert!(!referencer.is_live(&l), "no key references the locator anymore");
}

#[test]
fn data_referencer_matches_brute_force_model_under_churn() {
    use std::collections::{BTreeMap, BTreeSet};
    let index = setup_with(
        Geometry { extent_count: 64, pages_per_extent: 16, page_size: 128 },
        FaultConfig::none(),
    );
    let referencer = index.data_referencer();
    let mut expected: BTreeMap<u128, Vec<Locator>> = BTreeMap::new();
    let mut all: BTreeSet<Locator> = BTreeSet::new();
    let mut rng: u64 = 0xD00D_F00D;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for step in 0..400u32 {
        let key = (next() % 12) as u128;
        match next() % 6 {
            0..=3 => {
                let n = 1 + (next() % 3) as usize;
                let locators: Vec<Locator> = (0..n)
                    .map(|i| loc(3 + (next() % 4) as u32, step * 8 + i as u32, step as u128))
                    .collect();
                all.extend(locators.iter().copied());
                index.put2(key, locators.clone());
                expected.insert(key, locators);
            }
            4 => {
                index.delete(key);
                expected.remove(&key);
            }
            _ => {
                if index.memtable_len() > 0 && step % 3 == 0 {
                    index.flush().unwrap();
                }
            }
        }
    }
    // Every locator ever handed out is live iff some key still maps to it.
    for l in &all {
        let model_live = expected.values().any(|ls| ls.contains(l));
        assert_eq!(referencer.is_live(l), model_live, "locator {l:?} liveness diverged");
    }
}

/// §4 invariant, property-tested: under arbitrary interleavings of puts,
/// deletes, flushes, and compactions, the reverse map (`refs`) and the
/// forward map (`refs_by_key`) describe exactly the same relation — the
/// eager cleanup on delete/overwrite must never leave a dangling edge in
/// either direction.
mod refs_sync_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn refs_maps_stay_in_exact_sync(
            ops in proptest::collection::vec((0u8..6, 0u8..12, 1u8..4), 1..40),
        ) {
            let index = setup_with(
                Geometry { extent_count: 64, pages_per_extent: 16, page_size: 128 },
                FaultConfig::none(),
            );
            let mut step = 0u32;
            for (op, key, n) in ops {
                let key = key as u128;
                match op {
                    0..=2 => {
                        step += 1;
                        let locators: Vec<Locator> = (0..n as u32)
                            .map(|i| loc(3 + (step % 4), step * 8 + i, step as u128))
                            .collect();
                        index.put2(key, locators);
                    }
                    3 => {
                        index.delete(key);
                    }
                    4 => {
                        let _ = index.flush();
                    }
                    _ => {
                        let _ = index.compact();
                    }
                }
                prop_assert!(
                    index.refs_maps_in_sync(),
                    "refs/refs_by_key diverged after step {}",
                    step
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block-ranged table reads: a lookup reads the bytes its fence index names,
// not the chunks that hold them.
// ---------------------------------------------------------------------------

use shardstore_chunk::FRAME_HEADER_LEN;
use shardstore_lsm::codec::{self, IndexValue, SsEntry};
use shardstore_lsm::LsmError;
use shardstore_vdisk::codec::CodecError;

/// 64 pages × 4 KiB per extent: the geometry class the file-backed
/// benchmark runs on (one table chunk is up to one 256 KiB extent).
fn block_read_geometry() -> Geometry {
    Geometry::new(32, 64, 4096)
}

/// Flushes `n` keys (`3k` for `k < n`) as one durable table on the large
/// geometry and returns the index, the table's exact serialized bytes and
/// its chunk locators in table order.
fn big_table(n: u128) -> (LsmIndex, Vec<u8>, Vec<Locator>) {
    let index = setup_with(block_read_geometry(), FaultConfig::none());
    let entries: Vec<SsEntry> =
        (0..n).map(|k| (k * 3, IndexValue::Present(vec![loc(3, k as u32, k)]))).collect();
    for (key, value) in &entries {
        let IndexValue::Present(locators) = value else { unreachable!() };
        index.put2(*key, locators.clone());
    }
    index.flush().unwrap();
    pump(&index);
    assert_eq!(index.table_count(), 1);
    let bytes = codec::encode_sstable(&entries, LsmConfig::default().block_size);
    // The store is fresh, so the LSM-owned chunks are exactly this table's,
    // registered in append order; the reassembled payloads prove it.
    let store = index.cache().chunk_store();
    let chunks: Vec<Locator> = store
        .registered_locators()
        .into_iter()
        .filter(|l| store.extent_manager().owner(l.extent) == shardstore_superblock::Owner::LsmData)
        .collect();
    let on_disk: Vec<u8> = chunks.iter().flat_map(|l| store.get(l).unwrap()).collect();
    assert_eq!(on_disk, bytes, "table chunks are not the encoded table");
    (index, bytes, chunks)
}

fn drop_caches(index: &LsmIndex) {
    index.drop_decoded_cache();
    index.cache().clear();
}

#[test]
fn point_get_reads_the_block_not_the_table() {
    let n = 8000u128;
    let (index, bytes, chunks) = big_table(n);
    let table_index = codec::decode_table_index(&bytes).unwrap();
    assert!(chunks.len() >= 2, "table must span chunks, got {}", chunks.len());
    assert!(table_index.fences.len() >= 64, "table must have >= 64 blocks");
    let disk = index.cache().chunk_store().extent_manager().scheduler().disk().clone();
    let page = disk.geometry().page_size as u64;
    let max_block = table_index.fences.iter().map(|f| u64::from(f.len)).max().unwrap();
    let footer_len = 4 + 40 * table_index.fences.len() as u64;
    let index_bytes = codec::V2_HEADER_LEN as u64 + footer_len + codec::V2_TRAILER_LEN as u64;
    // Every ranged chunk read also fetches one frame header; a slice that
    // straddles a chunk boundary costs two such reads. Header, trailer,
    // footer and block: at most eight.
    let frame_headers = 8 * FRAME_HEADER_LEN as u64;

    drop_caches(&index);
    let before = disk.stats().bytes_read;
    assert_eq!(index.get(3 * 1234).unwrap(), Some(vec![loc(3, 1234, 1234)]));
    let cold = disk.stats().bytes_read - before;
    assert!(
        cold <= index_bytes + max_block + frame_headers,
        "cold get read {cold} B; index is {index_bytes} B, a block at most {max_block} B"
    );

    // Second get into the same table, another block: the index is cached,
    // so only that block is read.
    let before = disk.stats().bytes_read;
    assert_eq!(index.get(3 * 7001).unwrap(), Some(vec![loc(3, 7001, 7001)]));
    let warm = disk.stats().bytes_read - before;
    assert!(warm <= 2 * page, "index-cached get read {warm} B, more than two pages");
    assert!(warm >= u64::from(table_index.fences[0].len), "the block itself must be read");

    // A 64-key scan reads the blocks its range overlaps, nothing else.
    let before = disk.stats().bytes_read;
    let hits = index.scan(3 * 4000, 3 * 4063).unwrap();
    assert_eq!(hits.len(), 64);
    let scanned = disk.stats().bytes_read - before;
    assert!(scanned <= 5 * (max_block + 2 * FRAME_HEADER_LEN as u64), "64-key scan read {scanned} B");

    // None of it scales with the table.
    assert!(bytes.len() as u64 > 8 * (cold + warm + scanned), "table too small to tell");
}

#[test]
fn corrupt_block_fails_its_keys_and_spares_its_neighbours() {
    let (index, bytes, chunks) = big_table(2000);
    let table_index = codec::decode_table_index(&bytes).unwrap();
    let victim = 40usize;
    let fence = table_index.fences[victim];
    // Map a table offset inside the victim block to its byte on the medium.
    let mut at = fence.offset as usize + 9;
    let chunk = chunks
        .iter()
        .find(|l| {
            if at < l.len as usize {
                return true;
            }
            at -= l.len as usize;
            false
        })
        .unwrap();
    let disk = index.cache().chunk_store().extent_manager().scheduler().disk().clone();
    let pos = chunk.offset as usize + FRAME_HEADER_LEN + at;
    let old = disk.read(chunk.extent, pos, 1).unwrap()[0];
    disk.write(chunk.extent, pos, &[old ^ 0x10]).unwrap();
    disk.flush_extent(chunk.extent).unwrap();
    drop_caches(&index);

    let key_in = |block: usize| table_index.fences[block].min_key + 3;
    // The damaged block's keys fail with a typed error — never locators.
    for key in [fence.min_key, key_in(victim), fence.max_key] {
        assert_eq!(index.get(key), Err(LsmError::Codec(CodecError::BadChecksum)), "key {key}");
    }
    assert!(index.scan(fence.min_key, fence.max_key).is_err());
    // Keys in the neighbouring blocks (and a scan that stays inside one)
    // still read correctly: the damage is scoped to the block.
    for block in [victim - 1, victim + 1] {
        let key = key_in(block);
        let k = key / 3;
        assert_eq!(index.get(key).unwrap(), Some(vec![loc(3, k as u32, k)]), "block {block}");
    }
    let next = table_index.fences[victim + 1];
    assert_eq!(index.scan(next.min_key, next.max_key).unwrap().len(), 16);
}
