//! File-backend integration: booting the full stack on a real volume
//! file, killing and reopening it mid-flight, and property-testing
//! recovery over corrupted tail bytes.
//!
//! The paper's production claim — the code validated in-memory is the
//! code that runs against real storage — is only credible if recovery
//! treats real bytes as untrusted. These tests corrupt the volume file
//! *underneath* the stack (truncation, torn zeroed tails, bit flips) and
//! assert the CRC-guarded recovery path either rejects the damage with a
//! typed error or returns exactly the acked values: corruption is never
//! laundered into wrong data.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use proptest::prelude::*;
use shardstore_core::config::BackendKind;
use shardstore_core::rpc::{self, Request, Response};
use shardstore_core::{Node, Store, StoreConfig};
use shardstore_dependency::IoScheduler;
use shardstore_faults::FaultConfig;
use shardstore_obs::json::Json;
use shardstore_vdisk::{Disk, Geometry};

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "shardstore-file-backend-{}-{tag}-{}.ssvol",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

fn file_config() -> StoreConfig {
    let mut dir = std::env::temp_dir();
    dir.push("shardstore-file-backend-tests");
    StoreConfig::small()
        .to_builder()
        .backend(BackendKind::File { dir, preallocate: true })
        .build()
        .unwrap()
}

/// A node boots on real storage end to end: store-managed volume files,
/// request-plane puts/gets, and a version-2 introspect report that shows
/// the file backend actually fsyncing.
#[test]
fn node_boots_on_file_backend_end_to_end() {
    let node = Node::new(2, Geometry::small(), file_config(), FaultConfig::none());
    for shard in 0..8u128 {
        node.put(shard, format!("value-{shard}").as_bytes()).unwrap();
    }
    node.pump_all().unwrap();
    for shard in 0..8u128 {
        assert_eq!(node.get(shard).unwrap().unwrap(), format!("value-{shard}").as_bytes());
    }
    let json = match rpc::dispatch(&node, Request::Introspect) {
        Response::Introspect { json } => json,
        other => panic!("unexpected: {other:?}"),
    };
    let report = shardstore_obs::json::parse(&json).unwrap();
    let obj = report.as_object().unwrap();
    assert_eq!(obj.get("version").and_then(Json::as_u64), Some(rpc::INTROSPECT_VERSION));
    for disk in obj.get("disks").and_then(Json::as_array).unwrap() {
        let d = disk.as_object().unwrap();
        assert_eq!(d.get("backend").and_then(Json::as_str), Some("file"));
        assert!(d.get("fsyncs").and_then(Json::as_u64).unwrap() > 0, "real fences issued");
        assert!(d.get("bytes_synced").and_then(Json::as_u64).unwrap() > 0);
    }
}

/// Kill-and-reopen mid `put_batch`: acked-durable keys must survive the
/// reopened volume byte-for-byte; the in-flight batch (whose IO was still
/// queued, never fenced) must not surface as invented data.
#[test]
fn crash_restart_reopens_volume_mid_append_batch() {
    let path = unique_path("kill");
    let geometry = Geometry::small();
    let config = StoreConfig::small();
    let acked: Vec<(u128, Vec<u8>)> =
        (0..6u128).map(|k| (k, format!("durable-{k}").into_bytes())).collect();
    {
        // Named volume that outlives the store: unlink_on_drop=false.
        let disk = Disk::create_file(&path, geometry, false, false).unwrap();
        let sched = IoScheduler::new(disk);
        let store = Store::format_on(sched, config.clone(), FaultConfig::none());
        let deps = store.put_batch(&acked).unwrap();
        store.flush_index().unwrap();
        store.pump().unwrap();
        for dep in &deps {
            assert!(dep.is_persistent(), "pumped batch is acked durable");
        }
        // A second batch goes down but the process "dies" before any
        // pump/fence: its writes sit in the scheduler queue and the
        // disk's volatile cache, and the drop below models the kill (the
        // volume file keeps only what was fsynced).
        let doomed: Vec<(u128, Vec<u8>)> =
            (100..106u128).map(|k| (k, format!("in-flight-{k}").into_bytes())).collect();
        store.put_batch(&doomed).unwrap();
    }
    // Reopen the same file and recover.
    let disk = Disk::open_file(&path, false).unwrap();
    assert_eq!(disk.geometry(), geometry, "geometry comes from the volume header");
    let sched = IoScheduler::new(disk);
    let store = Store::recover(sched.clone(), config, FaultConfig::none()).unwrap();
    for (k, v) in &acked {
        assert_eq!(store.get(*k).unwrap().as_deref(), Some(v.as_slice()), "acked key {k}");
    }
    for k in 100..106u128 {
        assert_eq!(store.get(k).unwrap(), None, "unfenced in-flight key {k} must not appear");
    }
    assert!(sched.disk().stats().recovery_scan_ms < u64::MAX, "recovery scan was timed");
    fs::remove_file(&path).unwrap();
}

/// Writes a known key set through a file-backed store and cleanly shuts
/// down, returning the volume path and the expected contents.
fn seeded_volume(tag: &str, keys: u32) -> (PathBuf, Vec<(u128, Vec<u8>)>) {
    let path = unique_path(tag);
    let geometry = Geometry::small();
    let disk = Disk::create_file(&path, geometry, false, false).unwrap();
    let sched = IoScheduler::new(disk);
    let store = Store::format_on(sched, StoreConfig::small(), FaultConfig::none());
    let mut expect = Vec::new();
    for k in 0..keys {
        let value = vec![k as u8 ^ 0x5A; 48 + (k as usize % 32)];
        store.put(k as u128, &value).unwrap();
        expect.push((k as u128, value));
    }
    store.clean_shutdown().unwrap();
    (path, expect)
}

/// Reopens a (possibly corrupted) volume and classifies the outcome:
/// every step may fail with a typed error, but any value that *is*
/// returned must be exactly what was acked.
fn check_no_invented_reads(path: &PathBuf, expect: &[(u128, Vec<u8>)]) {
    let disk = match Disk::open_file(path, false) {
        Ok(d) => d,
        // Header or size validation rejected the volume: a typed error,
        // exactly what a torn header must produce.
        Err(shardstore_vdisk::IoError::Backend { .. }) => return,
        Err(e) => panic!("unexpected open error: {e}"),
    };
    let sched = IoScheduler::new(disk);
    let store = match Store::recover(sched, StoreConfig::small(), FaultConfig::none()) {
        Ok(s) => s,
        // CRC-guarded recovery refused the scan — honest rejection.
        Err(_) => return,
    };
    for (k, v) in expect {
        match store.get(*k) {
            // The only legal success with a value is the exact acked bytes.
            Ok(Some(got)) => assert_eq!(&got, v, "key {k} must read back exactly as acked"),
            // Degraded/corrupt reads surface as errors, never wrong data.
            Err(_) => {}
            // Absence is the torn-tail discipline at work: a CRC-invalid
            // record (flipped superblock slot, corrupted meta/LSM record)
            // is indistinguishable from a torn write, so recovery adopts
            // the newest fully valid prefix — keys may roll back, but no
            // read ever returns bytes that were never written.
            Ok(None) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncating any suffix of the volume file either fails validation
    /// outright or recovers without inventing data.
    #[test]
    fn recovery_survives_truncated_tail(cut in 1usize..4096) {
        let (path, expect) = seeded_volume("trunc", 12);
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len.saturating_sub(cut as u64)).unwrap();
        drop(f);
        check_no_invented_reads(&path, &expect);
        fs::remove_file(&path).unwrap();
    }

    /// Zeroing a torn tail window (as an interrupted writeback would
    /// leave it) never surfaces as wrong data.
    #[test]
    fn recovery_survives_torn_zeroed_tail(window in 1usize..2048, back in 0usize..4096) {
        let (path, expect) = seeded_volume("torn", 12);
        let len = fs::metadata(&path).unwrap().len() as usize;
        let start = len.saturating_sub(back + window);
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&vec![0u8; window], start as u64).unwrap();
        drop(f);
        check_no_invented_reads(&path, &expect);
        fs::remove_file(&path).unwrap();
    }

    /// Any single flipped bit anywhere in the volume — header included —
    /// is detected (typed error), rolled back (key absent), or harmless
    /// (byte was dead space); it never surfaces as wrong bytes.
    #[test]
    fn recovery_survives_bit_flips(offset_seed in 0u64..u64::MAX, bit in 0u8..8) {
        let (path, expect) = seeded_volume("flip", 12);
        let len = fs::metadata(&path).unwrap().len();
        let offset = offset_seed % len;
        let f = fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact_at(&mut byte, offset).unwrap();
        byte[0] ^= 1 << bit;
        f.write_all_at(&byte, offset).unwrap();
        drop(f);
        check_no_invented_reads(&path, &expect);
        fs::remove_file(&path).unwrap();
    }
}

/// The one guard between a `StoreConfig` and real IO under the model
/// checker: inside a checked execution, formatting with an explicit file
/// backend yields an in-memory disk and never touches the filesystem.
#[test]
fn explicit_file_backend_falls_back_to_memory_under_checker() {
    let dir = unique_path("checker-fallback");
    let config = StoreConfig::small()
        .to_builder()
        .backend(BackendKind::File { dir: dir.clone(), preallocate: false })
        .build()
        .unwrap();
    let _rec = shardstore_faults::coverage::Recording::start();
    shardstore_conc::check(shardstore_conc::CheckOptions::random(7, 2), || {
        let store = Store::format(Geometry::small(), config.clone(), FaultConfig::none());
        assert_eq!(store.scheduler().disk().backend_kind(), "memory");
    })
    .expect("checked format succeeds");
    assert_eq!(shardstore_faults::coverage::count("store.backend.checker_fallback"), 2);
    assert!(!dir.exists(), "the checked execution created the volume directory");
}
