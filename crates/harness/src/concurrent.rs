//! Stateless-model-checking harnesses for ShardStore's concurrency
//! properties (§6 of the paper).
//!
//! Each function here is a hand-written harness in the style of Fig. 4:
//! it sets up component state, spawns a small number of concurrent tasks
//! (API calls racing background maintenance), and asserts a property that
//! must hold under *every* interleaving. The harnesses run under the
//! stateless model checker from `shardstore-conc`; small ones can be
//! explored exhaustively (Loom's role), larger ones are explored randomly
//! or with PCT (Shuttle's role).

use std::sync::Arc;

use shardstore_chunk::Stream;
use shardstore_conc::{check, thread, CheckError, CheckOptions, CheckReport};
use shardstore_core::{Node, Store, StoreConfig};
use shardstore_dependency::IoScheduler;
use shardstore_faults::FaultConfig;
use shardstore_superblock::{ExtentManager, Owner};
use shardstore_vdisk::{Disk, Geometry};

use crate::enable_background;
use crate::lin::{check_linearizable, HistoryRecorder, KvLinOp, KvLinRet, KvSpec};

fn small_store(faults: &FaultConfig) -> Store {
    Store::format(Geometry::small(), StoreConfig::small(), faults.clone())
}

/// The Fig. 4 harness, verbatim in structure: initialize the index with a
/// fixed set of keys, then run three concurrent tasks — chunk reclamation
/// over the LSM extents, LSM compaction, and a task that overwrites keys
/// and immediately reads them back, asserting read-after-write
/// consistency. With [`shardstore_faults::BugId::B14CompactionReclaimRace`]
/// seeded, some interleaving loses freshly compacted index entries.
pub fn fig4_index_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        // Set up some initial state in the index: several tables so
        // compaction has real work.
        for k in 0..4u128 {
            store.put(k, format!("value-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
        store.pump().unwrap();
        let lsm_extents = store
            .cache()
            .chunk_store()
            .extent_manager()
            .extents_owned_by(Owner::LsmData);

        // Spawn concurrent operations.
        let s1 = store.clone();
        let t1 = thread::spawn(move || {
            for ext in lsm_extents {
                let _ = s1.reclaim_extent(ext, Stream::Lsm);
            }
        });
        let s2 = store.clone();
        let t2 = thread::spawn(move || {
            let _ = s2.compact_index();
        });
        let s3 = store.clone();
        let t3 = thread::spawn(move || {
            // Overwrite keys and check the new value sticks.
            for k in 0..2u128 {
                let value = format!("new-{k}");
                s3.put(k, value.as_bytes()).unwrap();
                let read_back = s3.get(k).expect("get must not error");
                assert_eq!(read_back.as_deref(), Some(value.as_bytes()), "read-after-write");
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        t3.join().unwrap();
        // After everything quiesces, no index entry may have been lost.
        // Read cold: drop the volatile caches first so the check observes
        // on-disk state — a cache serving decoded tables from memory must
        // not hide chunks that reclamation dropped (the §8.3 lesson about
        // caches masking bugs, applied to the checker itself).
        store.drop_caches();
        for k in 0..4u128 {
            let got = store.get(k).expect("post-join get must not error");
            assert!(got.is_some(), "index entry for key {k} lost");
        }
    })
}

/// The Fig. 4 harness with the *background* writeback engine enabled: the
/// same three racing tasks, plus the group-commit pump running as a
/// fourth scheduled task signalled by every submit and seal. The checker
/// quiesce rule applies: the harness must stop the pump and drain
/// ([`IoScheduler::quiesce`]) before its assertions — and before the
/// controlled execution ends, since a parked worker task would otherwise
/// read as a deadlocked leftover. With
/// [`shardstore_faults::BugId::B14CompactionReclaimRace`] seeded the same
/// interleavings lose compacted index entries: the added asynchrony must
/// not mask the bug.
pub fn fig4_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        for k in 0..4u128 {
            store.put(k, format!("value-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
        store.pump().unwrap();
        let lsm_extents = store
            .cache()
            .chunk_store()
            .extent_manager()
            .extents_owned_by(Owner::LsmData);
        let sched = store.scheduler();
        enable_background(&sched);

        let s1 = store.clone();
        let t1 = thread::spawn(move || {
            for ext in lsm_extents {
                let _ = s1.reclaim_extent(ext, Stream::Lsm);
            }
        });
        let s2 = store.clone();
        let t2 = thread::spawn(move || {
            let _ = s2.compact_index();
        });
        let s3 = store.clone();
        let t3 = thread::spawn(move || {
            for k in 0..2u128 {
                let value = format!("new-{k}");
                s3.put(k, value.as_bytes()).unwrap();
                let read_back = s3.get(k).expect("get must not error");
                assert_eq!(read_back.as_deref(), Some(value.as_bytes()), "read-after-write");
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        t3.join().unwrap();
        // Quiesce before asserting: stop the worker, fall back to
        // deterministic writeback, drain everything.
        sched.quiesce().unwrap();
        store.drop_caches();
        for k in 0..4u128 {
            let got = store.get(k).expect("post-join get must not error");
            assert!(got.is_some(), "index entry for key {k} lost");
        }
    })
}

/// Group-commit race harness: a `put_batch` races an index flush, a
/// compaction, and data-extent reclamation. Whatever the interleaving,
/// every batched element must be readable right after the batch returns
/// (atomic per element — exactly the sequential-put guarantee), and the
/// batch must stay intact through the maintenance storm.
pub fn put_batch_maintenance_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        // Seed some state plus garbage so reclamation has real work.
        for k in 0..3u128 {
            store.put(k, format!("seed-{k}").as_bytes()).unwrap();
        }
        store.delete(0).unwrap();
        store.flush_index().unwrap();
        store.pump().unwrap();
        let data_extents =
            store.cache().chunk_store().extent_manager().extents_owned_by(Owner::Data);

        let s1 = store.clone();
        let batcher = thread::spawn(move || {
            let batch: Vec<(u128, Vec<u8>)> =
                (10..14u128).map(|k| (k, format!("batch-{k}").into_bytes())).collect();
            s1.put_batch(&batch).unwrap();
            for (k, v) in &batch {
                let got = s1.get(*k).expect("get must not error");
                assert_eq!(got.as_deref(), Some(v.as_slice()), "batched put lost (key {k})");
            }
        });
        let s2 = store.clone();
        let maintainer = thread::spawn(move || {
            let _ = s2.flush_index();
            let _ = s2.compact_index();
        });
        let s3 = store.clone();
        let reclaimer = thread::spawn(move || {
            for ext in data_extents {
                let _ = s3.reclaim_extent(ext, Stream::Data);
            }
        });
        batcher.join().unwrap();
        maintainer.join().unwrap();
        reclaimer.join().unwrap();
        store.pump().unwrap();
        store.drop_caches();
        for k in 10..14u128 {
            let got = store.get(k).expect("cold get must not error");
            assert_eq!(
                got,
                Some(format!("batch-{k}").into_bytes()),
                "batched key {k} lost after maintenance"
            );
        }
    })
}

/// Issue #12 harness: concurrent appenders race a background pump with a
/// one-permit superblock buffer pool. The fixed code waits for permits
/// without holding the extent-manager state lock; the seeded bug waits
/// while holding it, deadlocking against the permit-reclaiming pump.
pub fn superblock_pool_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || superblock_pool_body(&faults, false))
}

/// [`superblock_pool_harness`] with the background writeback engine
/// running as an extra scheduled task. The engine only flushes at the
/// scheduler level — permit reclamation stays with the extent manager —
/// so the seeded issue #12 deadlock must still be reached (the parked
/// worker counts as blocked, so deadlock detection is unaffected).
pub fn superblock_pool_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || superblock_pool_body(&faults, true))
}

fn superblock_pool_body(faults: &FaultConfig, background: bool) {
    let disk = Disk::new(Geometry::small());
    let sched = IoScheduler::new(disk);
    if background {
        enable_background(&sched);
    }
    let em = ExtentManager::format_with_pool(sched, faults.clone(), 1);
    let (ext, _) = em.allocate(Owner::Data).unwrap();
    em.pump().unwrap();
    // Writer/pumper rendezvous: the pumper blocks until the writer
    // queued new IO (a spin loop would starve under priority-based
    // schedulers), pumps, and exits once the writer is done.
    #[derive(Default)]
    struct Signal {
        done: bool,
        seq: u64,
    }
    let signal = Arc::new((
        shardstore_conc::sync::Mutex::new(Signal::default()),
        shardstore_conc::sync::Condvar::new(),
    ));
    let em1 = em.clone();
    let sig1 = Arc::clone(&signal);
    let writer = thread::spawn(move || {
        let none = em1.scheduler().none();
        for _ in 0..2 {
            em1.append(ext, b"block", &none).unwrap();
            // Issue the pending superblock write so the next append
            // needs a fresh one (and thus a fresh permit).
            let _ = em1.scheduler().issue_ready(usize::MAX);
            let (m, cv) = &*sig1;
            m.lock().seq += 1;
            cv.notify_all();
        }
        let (m, cv) = &*sig1;
        m.lock().done = true;
        cv.notify_all();
    });
    let em2 = em.clone();
    let sig2 = Arc::clone(&signal);
    let pumper = thread::spawn(move || {
        let (m, cv) = &*sig2;
        let mut seen = 0u64;
        loop {
            let mut st = m.lock();
            st = cv.wait_while(st, |s| !s.done && s.seq == seen);
            seen = st.seq;
            let done = st.done;
            drop(st);
            let _ = em2.pump();
            if done {
                break;
            }
        }
    });
    writer.join().unwrap();
    pumper.join().unwrap();
    em.pump().unwrap();
    if background {
        em.scheduler().quiesce().unwrap();
    }
}

/// Issue #11 harness: a put races chunk reclamation of its target extent.
/// The fixed put pins the extent until the index references the chunk;
/// the seeded bug drops the pin, letting reclamation invalidate the
/// freshly returned locator.
pub fn put_reclaim_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || put_reclaim_body(&faults, false))
}

/// [`put_reclaim_harness`] with the background writeback engine running
/// as an extra scheduled task (the engine must not mask issue #11).
pub fn put_reclaim_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || put_reclaim_body(&faults, true))
}

fn put_reclaim_body(faults: &FaultConfig, background: bool) {
    let store = small_store(faults);
    // Leave garbage on the open data extent so reclamation has a
    // reason to touch it.
    store.put(0, &[0u8; 40]).unwrap();
    store.delete(0).unwrap();
    store.flush_index().unwrap();
    store.pump().unwrap();
    let data_extents =
        store.cache().chunk_store().extent_manager().extents_owned_by(Owner::Data);
    if background {
        enable_background(&store.scheduler());
    }

    let s1 = store.clone();
    let putter = thread::spawn(move || {
        s1.put(1, b"fresh data").unwrap();
    });
    let s2 = store.clone();
    let reclaimer = thread::spawn(move || {
        for ext in data_extents {
            let _ = s2.reclaim_extent(ext, Stream::Data);
        }
    });
    putter.join().unwrap();
    reclaimer.join().unwrap();
    if background {
        store.scheduler().quiesce().unwrap();
    }
    let got = store.get(1).expect("locator must stay valid");
    assert_eq!(got.as_deref(), Some(&b"fresh data"[..]), "put lost to reclamation race");
}

/// Issue #13 harness: the control-plane listing races shard removal. The
/// fixed listing tolerates shards vanishing between the catalog snapshot
/// and the per-shard verification; the seeded bug asserts they still
/// exist and panics.
pub fn list_remove_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || list_remove_body(&faults, false))
}

/// [`list_remove_harness`] with the background writeback engine running
/// as an extra scheduled task (the engine must not mask issue #13).
pub fn list_remove_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || list_remove_body(&faults, true))
}

fn list_remove_body(faults: &FaultConfig, background: bool) {
    let node = Node::new(1, Geometry::small(), StoreConfig::small(), faults.clone());
    node.put(1, b"one").unwrap();
    node.put(2, b"two").unwrap();
    if background {
        enable_background(&node.store(0).expect("disk 0 in service").scheduler());
    }
    let n1 = node.clone();
    let lister = thread::spawn(move || {
        let listed = n1.list_verified().unwrap();
        // Whatever subset is returned must carry correct sizes.
        for (shard, size) in listed {
            assert!(size == 3, "shard {shard} listed with wrong size {size}");
        }
    });
    let n2 = node.clone();
    let remover = thread::spawn(move || {
        n2.delete(2).unwrap();
    });
    lister.join().unwrap();
    remover.join().unwrap();
    if background {
        node.store(0).expect("disk 0 in service").scheduler().quiesce().unwrap();
    }
}

/// Issue #16 harness: bulk create races bulk remove over the same shard.
/// Whatever the interleaving, the control-plane catalog and the per-disk
/// indexes must agree afterwards.
pub fn bulk_ops_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || bulk_ops_body(&faults, false))
}

/// [`bulk_ops_harness`] with the background writeback engine running as
/// an extra scheduled task (the engine must not mask issue #16).
pub fn bulk_ops_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || bulk_ops_body(&faults, true))
}

fn bulk_ops_body(faults: &FaultConfig, background: bool) {
    let node = Node::new(1, Geometry::small(), StoreConfig::small(), faults.clone());
    node.put(5, b"seed").unwrap();
    if background {
        enable_background(&node.store(0).expect("disk 0 in service").scheduler());
    }
    let n1 = node.clone();
    let creator = thread::spawn(move || {
        n1.bulk_create(&[(5, b"recreated".to_vec()), (6, b"six".to_vec())]).unwrap();
    });
    let n2 = node.clone();
    let remover = thread::spawn(move || {
        n2.bulk_remove(&[5]).unwrap();
    });
    creator.join().unwrap();
    remover.join().unwrap();
    if background {
        node.store(0).expect("disk 0 in service").scheduler().quiesce().unwrap();
    }
    node.check_catalog_consistent().expect("catalog and index diverged");
}

/// Generic §6 linearizability harness: concurrent request-plane workers
/// record their operations and responses; the recorded history must be
/// linearizable with respect to the sequential KV model.
pub fn kv_linearizability_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        store.put(1, b"init").unwrap();
        let recorder: HistoryRecorder<KvLinOp, KvLinRet> = HistoryRecorder::new();
        let rec0 = recorder.clone();
        // The setup put is part of the sequential prefix.
        {
            let t = rec0.invoke(KvLinOp::Put(1, b"init".to_vec()));
            rec0.complete(t, KvLinRet::Done);
        }
        let mut handles = Vec::new();
        let s1 = store.clone();
        let r1 = recorder.clone();
        handles.push(thread::spawn(move || {
            let t = r1.invoke(KvLinOp::Put(1, b"v1".to_vec()));
            s1.put(1, b"v1").unwrap();
            r1.complete(t, KvLinRet::Done);
            let t = r1.invoke(KvLinOp::Get(2));
            let got = s1.get(2).unwrap();
            r1.complete(t, KvLinRet::Value(got));
        }));
        let s2 = store.clone();
        let r2 = recorder.clone();
        handles.push(thread::spawn(move || {
            let t = r2.invoke(KvLinOp::Put(2, b"v2".to_vec()));
            s2.put(2, b"v2").unwrap();
            r2.complete(t, KvLinRet::Done);
            let t = r2.invoke(KvLinOp::Delete(1));
            s2.delete(1).unwrap();
            r2.complete(t, KvLinRet::Done);
        }));
        let s3 = store.clone();
        let r3 = recorder.clone();
        handles.push(thread::spawn(move || {
            let t = r3.invoke(KvLinOp::Get(1));
            let got = s3.get(1).unwrap();
            r3.complete(t, KvLinRet::Value(got));
        }));
        for h in handles {
            h.join().unwrap();
        }
        let history = recorder.take();
        let result = check_linearizable(&KvSpec, &history);
        assert!(result.is_ok(), "history not linearizable: {history:?}");
    })
}

/// Migration harness: request-plane reads and writes race a control-plane
/// shard migration. Linearizability demands a read never misses the shard
/// (it exists throughout) and a write racing the move is never silently
/// lost to the source-copy deletion.
pub fn migrate_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let node = Node::new(2, Geometry::small(), StoreConfig::small(), faults.clone());
        node.put(1, b"v0").unwrap();
        let n1 = node.clone();
        let migrator = thread::spawn(move || {
            n1.migrate(1, 0).unwrap();
        });
        let n2 = node.clone();
        let writer = thread::spawn(move || {
            n2.put(1, b"v1").unwrap();
        });
        let n3 = node.clone();
        let reader = thread::spawn(move || {
            let got = n3.get(1).expect("get must not error");
            let got = got.expect("the shard exists throughout");
            assert!(got == b"v0" || got == b"v1", "torn read: {got:?}");
        });
        migrator.join().unwrap();
        writer.join().unwrap();
        reader.join().unwrap();
        // The write must have won: it either landed before the copy (and
        // was copied), or waited out the migration.
        let final_value = node.get(1).unwrap().expect("shard exists");
        assert_eq!(final_value, b"v1", "racing write lost to migration");
        node.check_catalog_consistent().expect("catalog consistent");
    })
}

/// A deadlock-free sanity harness mixing flushes and compactions, used to
/// confirm the maintenance locking has no lock-order inversions.
pub fn maintenance_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        for k in 0..3u128 {
            store.put(k, b"x").unwrap();
            store.flush_index().unwrap();
        }
        let mut handles = Vec::new();
        for worker in 0..2 {
            let s = store.clone();
            handles.push(thread::spawn(move || {
                if worker == 0 {
                    let _ = s.flush_index();
                    let _ = s.compact_index();
                } else {
                    let _ = s.compact_index();
                    let _ = s.pump();
                }
            }));
        }
        let s = store.clone();
        handles.push(thread::spawn(move || {
            s.put(9, b"concurrent").unwrap();
            assert_eq!(s.get(9).unwrap().as_deref(), Some(&b"concurrent"[..]));
        }));
        for h in handles {
            h.join().unwrap();
        }
        Arc::new(store).pump().unwrap();
    })
}

/// Read-path cache-coherence harness: readers race an overwriting writer
/// plus compaction and LSM-extent reclamation, with every read-path
/// accelerator in play (table fences, bloom filters, the decoded-table
/// cache, the sharded chunk cache). Keys 1..3 never change, so a reader
/// observing anything but their stable value means a cache served a stale
/// or lost entry; the optimistic `tables_version` retry must absorb
/// relocations happening between a reader's snapshot and its table reads.
pub fn read_vs_relocation_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        for k in 0..4u128 {
            store.put(k, format!("stable-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
        store.pump().unwrap();
        let lsm_extents = store
            .cache()
            .chunk_store()
            .extent_manager()
            .extents_owned_by(Owner::LsmData);

        // Maintenance: compact, then evacuate the original table extents,
        // relocating whatever is still live.
        let s1 = store.clone();
        let t1 = thread::spawn(move || {
            let _ = s1.compact_index();
            for ext in lsm_extents {
                let _ = s1.reclaim_extent(ext, Stream::Lsm);
            }
        });
        // Writer: overwrite key 0 and flush, racing readers against the
        // memtable-to-table transition as well.
        let s2 = store.clone();
        let t2 = thread::spawn(move || {
            s2.put(0, b"replacement-0").unwrap();
            let _ = s2.flush_index();
        });
        // Readers: the stable keys must read back exactly, under every
        // interleaving.
        let mut readers = Vec::new();
        for r in 0..2 {
            let s = store.clone();
            readers.push(thread::spawn(move || {
                for k in 1..4u128 {
                    let got = s.get(k).expect("read must not error");
                    assert_eq!(
                        got,
                        Some(format!("stable-{k}").into_bytes()),
                        "reader {r} observed wrong state for stable key {k}"
                    );
                }
            }));
        }
        t1.join().unwrap();
        t2.join().unwrap();
        for h in readers {
            h.join().unwrap();
        }
        // Cold cross-check: what the caches say must match what disk says.
        let warm: Vec<_> = (0..4u128).map(|k| store.get(k).unwrap()).collect();
        store.drop_caches();
        for (k, warm_value) in warm.into_iter().enumerate() {
            let cold = store.get(k as u128).unwrap();
            assert_eq!(cold, warm_value, "cache diverged from disk for key {k}");
        }
        assert_eq!(
            store.get(0).unwrap().as_deref(),
            Some(&b"replacement-0"[..]),
            "overwrite lost"
        );
    })
}

/// Scan-vs-flush harness: scanners race the memtable-to-table transition
/// (an index flush plus a compaction) and an overwriting writer. The scan
/// takes a consistent cut — all memtable shard locks in index order, then
/// the table snapshot — so under every interleaving it must return the
/// stable keys exactly once, in strictly ascending order, with their exact
/// values; the racing key may show its old or new value but never a torn
/// or missing one.
pub fn scan_vs_flush_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        // Keys 1..3 flushed into tables; keys 0 and 4 left in the
        // memtable, so the scan's merge crosses the memtable/table
        // boundary while the flusher moves entries across it.
        for k in 1..4u128 {
            store.put(k, format!("stable-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
        store.put(0, b"stable-0").unwrap();
        store.put(4, b"racing-old").unwrap();
        store.pump().unwrap();

        let s1 = store.clone();
        let flusher = thread::spawn(move || {
            let _ = s1.flush_index();
            let _ = s1.compact_index();
        });
        let s2 = store.clone();
        let writer = thread::spawn(move || {
            s2.put(4, b"racing-new").unwrap();
            let _ = s2.flush_index();
        });
        let mut scanners = Vec::new();
        for r in 0..2 {
            let s = store.clone();
            scanners.push(thread::spawn(move || {
                let page = s.scan(0, 10).expect("scan must not error");
                let keys: Vec<u128> = page.iter().map(|(k, _)| *k).collect();
                assert_eq!(keys, vec![0, 1, 2, 3, 4], "scanner {r} saw wrong key set");
                for (k, v) in &page {
                    if *k == 4 {
                        assert!(
                            *v == b"racing-old"[..] || *v == b"racing-new"[..],
                            "scanner {r}: torn value for racing key: {v:?}"
                        );
                    } else {
                        assert!(
                            *v == *format!("stable-{k}").as_bytes(),
                            "scanner {r}: wrong value for stable key {k}: {v:?}"
                        );
                    }
                }
            }));
        }
        flusher.join().unwrap();
        writer.join().unwrap();
        for h in scanners {
            h.join().unwrap();
        }
        // Cold cross-check: a scan served from caches must agree with one
        // served from disk after everything quiesced.
        let warm = store.scan(0, 10).unwrap();
        store.drop_caches();
        let cold = store.scan(0, 10).unwrap();
        assert_eq!(warm, cold, "cached scan diverged from cold scan");
    })
}

/// Scan-vs-put_batch harness: a scanner races a batch put. `put_batch`
/// applies its elements in order, each completing its index insert before
/// the next starts, so a scan's consistent cut must observe a *prefix* of
/// the (ascending-key) batch — never a gap in the middle — while the
/// pre-existing stable keys stay exact throughout.
pub fn scan_vs_put_batch_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        for k in 0..3u128 {
            store.put(k, format!("stable-{k}").as_bytes()).unwrap();
        }
        store.flush_index().unwrap();
        store.pump().unwrap();

        let s1 = store.clone();
        let batcher = thread::spawn(move || {
            let batch: Vec<(u128, Vec<u8>)> =
                (10..14u128).map(|k| (k, format!("batch-{k}").into_bytes())).collect();
            s1.put_batch(&batch).unwrap();
        });
        let s2 = store.clone();
        let scanner = thread::spawn(move || {
            let page = s2.scan(0, 20).expect("scan must not error");
            assert!(
                page.windows(2).all(|w| w[0].0 < w[1].0),
                "scan not strictly ascending"
            );
            let stable: Vec<u128> = page.iter().map(|(k, _)| *k).filter(|k| *k < 10).collect();
            assert_eq!(stable, vec![0, 1, 2], "stable keys lost mid-batch");
            for (k, v) in &page {
                let expected = if *k < 10 {
                    format!("stable-{k}")
                } else {
                    format!("batch-{k}")
                };
                assert!(*v == *expected.as_bytes(), "wrong value for key {k}: {v:?}");
            }
            // Prefix-closedness: the visible batch keys must be exactly
            // 10..10+n for some n — a later element visible while an
            // earlier one is missing means the cut was not consistent.
            let batched: Vec<u128> = page.iter().map(|(k, _)| *k).filter(|k| *k >= 10).collect();
            let n = batched.len() as u128;
            assert_eq!(
                batched,
                (10..10 + n).collect::<Vec<_>>(),
                "scan observed a non-prefix subset of an in-flight batch"
            );
        });
        batcher.join().unwrap();
        scanner.join().unwrap();
        // After the batch returns, every element is visible to a scan.
        let keys: Vec<u128> = store.scan(0, 20).unwrap().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 1, 2, 10, 11, 12, 13], "batch not fully scan-visible");
    })
}

/// Get-vs-compaction harness for the *tiered* compactor: point reads race
/// two overlapping incremental compaction picks. Each pick merges a
/// bounded run of adjacent tables and swaps it in atomically under the
/// table-list version, so a reader must observe either the pre-swap or
/// the post-swap table set — never a half-replaced list where a key's
/// newest version is in a retired table and its older shadow in a merged
/// one. Every key is overwritten once across the table stack, making any
/// old/new mixing visible as a stale value.
pub fn get_vs_compaction_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || get_vs_compaction_body(&faults, false))
}

/// [`get_vs_compaction_harness`] with the background writeback engine
/// running as an extra scheduled task (the added asynchrony between
/// submit and durability must not open a window where a reader sees a
/// partially swapped table list).
pub fn get_vs_compaction_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || get_vs_compaction_body(&faults, true))
}

fn get_vs_compaction_body(faults: &FaultConfig, background: bool) {
    // Disable the automatic flush-time compaction trigger so setup keeps
    // its full table stack — the racing explicit picks below are the
    // compactions under test.
    let config = StoreConfig::small().to_builder().compaction_trigger_tables(64).build().unwrap();
    let store = Store::format(Geometry::small(), config, faults.clone());
    // Two generations of every key, each flushed into its own table:
    // eight tables total, enough that the tiered picker has real
    // windows to choose from and runs twice with work left over.
    for round in 0..2u32 {
        for k in 0..4u128 {
            store.put(k, format!("gen{round}-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
    }
    store.pump().unwrap();
    if background {
        enable_background(&store.scheduler());
    }

    let s1 = store.clone();
    let compactor = thread::spawn(move || {
        let _ = s1.compact_index();
    });
    let s2 = store.clone();
    let compactor2 = thread::spawn(move || {
        let _ = s2.compact_index();
    });
    let mut readers = Vec::new();
    for r in 0..2 {
        let s = store.clone();
        readers.push(thread::spawn(move || {
            for k in 0..4u128 {
                let got = s.get(k).expect("get must not error during compaction");
                assert_eq!(
                    got,
                    Some(format!("gen1-{k}").into_bytes()),
                    "reader {r} saw a stale or lost value for key {k} mid-compaction"
                );
            }
        }));
    }
    compactor.join().unwrap();
    compactor2.join().unwrap();
    for h in readers {
        h.join().unwrap();
    }
    if background {
        store.scheduler().quiesce().unwrap();
    }
    // Cold cross-check: the merged tables on disk must agree with what
    // the warm path served.
    store.drop_caches();
    for k in 0..4u128 {
        assert_eq!(
            store.get(k).unwrap(),
            Some(format!("gen1-{k}").into_bytes()),
            "compaction lost the newest version of key {k}"
        );
    }
}

/// Scan-vs-compaction harness for the tiered compactor: scanners race
/// incremental compaction picks whose merges drop shadowed versions and
/// (when the run reaches the oldest table) tombstones. A scan's
/// consistent cut must return exactly the live key set with newest
/// values under every interleaving — a deleted key reappearing means a
/// tombstone was dropped while an older shadow survived in a table
/// outside the picked run.
pub fn scan_vs_compaction_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || scan_vs_compaction_body(&faults, false))
}

/// [`scan_vs_compaction_harness`] with the background writeback engine
/// running as an extra scheduled task.
pub fn scan_vs_compaction_background_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || scan_vs_compaction_body(&faults, true))
}

fn scan_vs_compaction_body(faults: &FaultConfig, background: bool) {
    // As in `get_vs_compaction_body`: keep the automatic trigger out of
    // the way so the explicit racing picks see the whole table stack.
    let config = StoreConfig::small().to_builder().compaction_trigger_tables(64).build().unwrap();
    let store = Store::format(Geometry::small(), config, faults.clone());
    // Stack of tables where key 2 is deleted *above* its insert: the
    // tombstone sits in a newer table than the value, so a compaction
    // pick that merges the value's table but not the tombstone's (or
    // vice versa) must keep the delete winning. Keys 0,1,3 are
    // overwritten so shadow-dropping is exercised too.
    for k in 0..4u128 {
        store.put(k, format!("old-{k}").as_bytes()).unwrap();
        store.flush_index().unwrap();
    }
    for k in [0u128, 1, 3] {
        store.put(k, format!("new-{k}").as_bytes()).unwrap();
        store.flush_index().unwrap();
    }
    store.delete(2).unwrap();
    store.flush_index().unwrap();
    store.pump().unwrap();
    if background {
        enable_background(&store.scheduler());
    }

    let s1 = store.clone();
    let compactor = thread::spawn(move || {
        // Two picks: with eight tables the first pick leaves work for
        // the second, so the scanners race distinct swap points.
        let _ = s1.compact_index();
        let _ = s1.compact_index();
    });
    let mut scanners = Vec::new();
    for r in 0..2 {
        let s = store.clone();
        scanners.push(thread::spawn(move || {
            let page = s.scan(0, 10).expect("scan must not error during compaction");
            let keys: Vec<u128> = page.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                keys,
                vec![0, 1, 3],
                "scanner {r}: wrong live key set mid-compaction (deleted key \
                 resurrected or live key lost)"
            );
            for (k, v) in &page {
                assert!(
                    *v == *format!("new-{k}").as_bytes(),
                    "scanner {r}: stale value for key {k} mid-compaction: {v:?}"
                );
            }
        }));
    }
    compactor.join().unwrap();
    for h in scanners {
        h.join().unwrap();
    }
    if background {
        store.scheduler().quiesce().unwrap();
    }
    // Cold cross-check: the post-compaction on-disk state must agree.
    let warm = store.scan(0, 10).unwrap();
    store.drop_caches();
    let cold = store.scan(0, 10).unwrap();
    assert_eq!(warm, cold, "cached scan diverged from cold scan after tiered compaction");
    assert_eq!(store.get(2).unwrap(), None, "tombstone for key 2 lost to compaction");
}

/// Scan-vs-relocation harness: scanners race compaction plus LSM-extent
/// reclamation, the same relocation storm as
/// [`read_vs_relocation_harness`] but observed through the range-scan
/// path (fence pruning, the merged iterator, and the optimistic
/// `tables_version` retry in `Store::scan`). Stable keys must appear in
/// every scan with exact values no matter where relocation has moved
/// their chunks.
pub fn scan_vs_relocation_harness(
    faults: FaultConfig,
    options: CheckOptions,
) -> Result<CheckReport, CheckError> {
    check(options, move || {
        let store = small_store(&faults);
        for k in 0..4u128 {
            store.put(k, format!("stable-{k}").as_bytes()).unwrap();
            store.flush_index().unwrap();
        }
        store.pump().unwrap();
        let lsm_extents = store
            .cache()
            .chunk_store()
            .extent_manager()
            .extents_owned_by(Owner::LsmData);

        let s1 = store.clone();
        let relocator = thread::spawn(move || {
            let _ = s1.compact_index();
            for ext in lsm_extents {
                let _ = s1.reclaim_extent(ext, Stream::Lsm);
            }
        });
        let mut scanners = Vec::new();
        for r in 0..2 {
            let s = store.clone();
            scanners.push(thread::spawn(move || {
                let page = s.scan(0, 10).expect("scan must not error under relocation");
                let keys: Vec<u128> = page.iter().map(|(k, _)| *k).collect();
                assert_eq!(keys, vec![0, 1, 2, 3], "scanner {r} lost a key to relocation");
                for (k, v) in &page {
                    assert!(
                        *v == *format!("stable-{k}").as_bytes(),
                        "scanner {r}: relocation corrupted key {k}: {v:?}"
                    );
                }
            }));
        }
        relocator.join().unwrap();
        for h in scanners {
            h.join().unwrap();
        }
        // Cold cross-check against on-disk state.
        let warm = store.scan(0, 10).unwrap();
        store.drop_caches();
        let cold = store.scan(0, 10).unwrap();
        assert_eq!(warm, cold, "cached scan diverged from cold scan after relocation");
    })
}
