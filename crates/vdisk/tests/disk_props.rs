//! Property-based tests of the virtual disk's core invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;
use shardstore_vdisk::{CrashPlan, Disk, ExtentId, Geometry};

/// A random disk operation for the property tests.
#[derive(Debug, Clone)]
enum DiskOp {
    Write { extent: u32, offset: usize, data: Vec<u8> },
    FlushExtent { extent: u32 },
    FlushAll,
    CrashLoseAll,
    CrashKeepSome { mask: u64 },
}

fn op_strategy(geometry: Geometry) -> impl Strategy<Value = DiskOp> {
    let max_off = geometry.extent_size();
    prop_oneof![
        4 => (0..geometry.extent_count, 0..max_off, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(extent, offset, data)| DiskOp::Write { extent, offset, data }),
        1 => (0..geometry.extent_count).prop_map(|extent| DiskOp::FlushExtent { extent }),
        1 => Just(DiskOp::FlushAll),
        1 => Just(DiskOp::CrashLoseAll),
        1 => any::<u64>().prop_map(|mask| DiskOp::CrashKeepSome { mask }),
    ]
}

/// A trivial reference model of the disk: a durable byte image and a
/// volatile byte image (at byte granularity — coarser than the disk's page
/// granularity only in the sense that we track both views exactly).
struct ModelDisk {
    geometry: Geometry,
    durable: Vec<Vec<u8>>,
    volatile: Vec<Vec<u8>>,
    dirty_pages: BTreeSet<(u32, u32)>,
}

impl ModelDisk {
    fn new(geometry: Geometry) -> Self {
        let image: Vec<Vec<u8>> =
            (0..geometry.extent_count).map(|_| vec![0u8; geometry.extent_size()]).collect();
        Self { geometry, durable: image.clone(), volatile: image, dirty_pages: BTreeSet::new() }
    }

    fn write(&mut self, extent: u32, offset: usize, data: &[u8]) {
        self.volatile[extent as usize][offset..offset + data.len()].copy_from_slice(data);
        for i in 0..data.len() {
            self.dirty_pages.insert((extent, self.geometry.page_of(offset + i)));
        }
    }

    fn sync_page(&mut self, extent: u32, page: u32) {
        let ps = self.geometry.page_size;
        let start = page as usize * ps;
        let src = self.volatile[extent as usize][start..start + ps].to_vec();
        self.durable[extent as usize][start..start + ps].copy_from_slice(&src);
    }

    fn flush_extent(&mut self, extent: u32) {
        let pages: Vec<_> =
            self.dirty_pages.iter().filter(|(e, _)| *e == extent).copied().collect();
        for (e, p) in pages {
            self.sync_page(e, p);
            self.dirty_pages.remove(&(e, p));
        }
    }

    fn flush_all(&mut self) {
        let pages: Vec<_> = self.dirty_pages.iter().copied().collect();
        for (e, p) in pages {
            self.sync_page(e, p);
        }
        self.dirty_pages.clear();
    }

    fn crash(&mut self, keep: &BTreeSet<(u32, u32)>) {
        let pages: Vec<_> = self.dirty_pages.iter().copied().collect();
        for (e, p) in pages {
            if keep.contains(&(e, p)) {
                self.sync_page(e, p);
            } else {
                // Lost: volatile view reverts to durable content.
                let ps = self.geometry.page_size;
                let start = p as usize * ps;
                let src = self.durable[e as usize][start..start + ps].to_vec();
                self.volatile[e as usize][start..start + ps].copy_from_slice(&src);
            }
        }
        self.dirty_pages.clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The disk agrees with a byte-exact reference model across random
    /// writes, flushes, and crashes with arbitrary surviving-page subsets.
    #[test]
    fn disk_refines_byte_model(ops in proptest::collection::vec(op_strategy(Geometry::small()), 1..60)) {
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        let mut model = ModelDisk::new(geometry);
        for op in ops {
            match op {
                DiskOp::Write { extent, offset, data } => {
                    let len = data.len().min(geometry.extent_size() - offset);
                    let data = &data[..len];
                    disk.write(ExtentId(extent), offset, data).unwrap();
                    model.write(extent, offset, data);
                }
                DiskOp::FlushExtent { extent } => {
                    disk.flush_extent(ExtentId(extent)).unwrap();
                    model.flush_extent(extent);
                }
                DiskOp::FlushAll => {
                    disk.flush_all().unwrap();
                    model.flush_all();
                }
                DiskOp::CrashLoseAll => {
                    disk.crash(&CrashPlan::LoseAll);
                    model.crash(&BTreeSet::new());
                }
                DiskOp::CrashKeepSome { mask } => {
                    // Choose a survivor subset of the currently volatile
                    // pages using the mask bits.
                    let pages = disk.volatile_pages();
                    let keep: BTreeSet<(ExtentId, u32)> = pages
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
                        .map(|(_, k)| *k)
                        .collect();
                    let model_keep: BTreeSet<(u32, u32)> =
                        keep.iter().map(|(e, p)| (e.0, *p)).collect();
                    disk.crash(&CrashPlan::Keep(keep));
                    model.crash(&model_keep);
                }
            }
            // Invariant: every extent's readable content matches the model.
            for e in 0..geometry.extent_count {
                let got = disk.read(ExtentId(e), 0, geometry.extent_size()).unwrap();
                prop_assert_eq!(&got, &model.volatile[e as usize], "extent {} diverged", e);
            }
        }
    }

    /// After a flush-all, a crash never changes readable content.
    #[test]
    fn flushed_data_survives_any_crash(
        writes in proptest::collection::vec(
            (0u32..16, 0usize..1000, proptest::collection::vec(any::<u8>(), 1..40)),
            1..20,
        ),
        mask in any::<u64>(),
    ) {
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        for (e, off, data) in &writes {
            let off = off % (geometry.extent_size() - data.len());
            disk.write(ExtentId(*e), off, data).unwrap();
        }
        disk.flush_all().unwrap();
        let before: Vec<_> =
            (0..16).map(|e| disk.read(ExtentId(e), 0, geometry.extent_size()).unwrap()).collect();
        // With nothing volatile, every crash plan is a no-op.
        let keep: BTreeSet<(ExtentId, u32)> = disk
            .volatile_pages()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, k)| k)
            .collect();
        disk.crash(&CrashPlan::Keep(keep));
        for e in 0..16u32 {
            let after = disk.read(ExtentId(e), 0, geometry.extent_size()).unwrap();
            prop_assert_eq!(&after, &before[e as usize]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Error precedence: a range violation is reported before any injected
    /// fault (and consumes no fault count), and a permanent fault wins
    /// over a pending transient one without consuming it.
    #[test]
    fn error_precedence_range_then_failed_then_injected(
        extent in 0u32..16,
        len in 1usize..64,
        times in 1u32..4,
    ) {
        use shardstore_vdisk::IoError;
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        let e = ExtentId(extent);
        disk.inject_fail_times(e, times);
        disk.inject_fail_always(e);
        // Out of range beats both injected faults: no count is consumed.
        let before = disk.stats().injected_failures;
        let bad = disk.read(e, geometry.extent_size(), len);
        prop_assert!(matches!(bad, Err(IoError::OutOfRange { .. })), "{bad:?}");
        prop_assert_eq!(disk.stats().injected_failures, before);
        // In range, the permanent fault wins over the transient one …
        let got = disk.read(e, 0, len);
        prop_assert!(matches!(got, Err(IoError::Failed { extent: x }) if x == e), "{got:?}");
        // … and does NOT consume transient counts: a fresh disk with only
        // the transient injection exposes all `times` failures in a row.
        let disk2 = Disk::new(geometry);
        disk2.inject_fail_times(e, times);
        for _ in 0..times {
            let got = disk2.read(e, 0, len);
            prop_assert!(matches!(got, Err(IoError::Injected { extent: x }) if x == e), "{got:?}");
        }
        prop_assert!(disk2.read(e, 0, len).is_ok());
    }

    /// `inject_fail_times(e, n)` produces exactly `n` transient failures,
    /// each counted once in `injected_failures`, and success counters
    /// only ever advance on successful IO.
    #[test]
    fn fail_times_counted_exactly(
        extent in 0u32..16,
        times in 0u32..6,
        len in 1usize..64,
    ) {
        use shardstore_vdisk::IoError;
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        let e = ExtentId(extent);
        disk.write(e, 0, &vec![7u8; len]).unwrap();
        let base = disk.stats();
        disk.inject_fail_times(e, times);
        let mut failures = 0u64;
        loop {
            match disk.read(e, 0, len) {
                Err(IoError::Injected { .. }) => failures += 1,
                Ok(_) => break,
                other => prop_assert!(false, "unexpected: {other:?}"),
            }
            prop_assert!(failures <= u64::from(times), "more failures than injected");
        }
        prop_assert_eq!(failures, u64::from(times));
        let stats = disk.stats();
        prop_assert_eq!(stats.injected_failures, base.injected_failures + u64::from(times));
        // Exactly one successful read happened; failed reads counted no
        // bytes.
        prop_assert_eq!(stats.reads, base.reads + 1);
        prop_assert_eq!(stats.bytes_read, base.bytes_read + len as u64);
        prop_assert_eq!(stats.writes, base.writes);
    }

    /// A flush that hits a pending injected fault leaves the volatile
    /// pages exactly as they were: nothing partially syncs, the data is
    /// still readable, and the retried flush makes all of it durable.
    #[test]
    fn failed_flush_is_atomic(
        extent in 0u32..16,
        offset in 0usize..900,
        data in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        use shardstore_vdisk::IoError;
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        let e = ExtentId(extent);
        let offset = offset.min(geometry.extent_size() - data.len());
        let durable_before = disk.durable_snapshot(e);
        disk.write(e, offset, &data).unwrap();
        let volatile_before = disk.volatile_pages();
        disk.inject_fail_once(e);
        let r = disk.flush_extent(e);
        prop_assert!(matches!(r, Err(IoError::Injected { .. })), "{r:?}");
        // Nothing synced, nothing lost: durable image unchanged, volatile
        // set unchanged, content still readable through the cache.
        prop_assert_eq!(disk.durable_snapshot(e), durable_before);
        prop_assert_eq!(disk.volatile_pages(), volatile_before);
        prop_assert_eq!(disk.read(e, offset, data.len()).unwrap(), data.clone());
        // The retried flush succeeds and lands everything.
        disk.flush_extent(e).unwrap();
        let durable = disk.durable_snapshot(e);
        prop_assert_eq!(&durable[offset..offset + data.len()], &data[..]);
        prop_assert!(disk.volatile_pages().is_empty());
    }

    /// A crash clears pending transient faults (the reboot replaces the
    /// IO path) but keeps permanent ones (the hardware is still broken).
    #[test]
    fn crash_clears_transient_keeps_permanent(
        t_extent in 0u32..16,
        p_extent in 0u32..16,
        times in 1u32..4,
    ) {
        use shardstore_vdisk::IoError;
        let geometry = Geometry::small();
        let disk = Disk::new(geometry);
        let te = ExtentId(t_extent);
        let pe = ExtentId(p_extent);
        disk.inject_fail_times(te, times);
        disk.inject_fail_always(pe);
        disk.crash(&CrashPlan::LoseAll);
        if t_extent != p_extent {
            prop_assert!(disk.read(te, 0, 8).is_ok());
        }
        let got = disk.read(pe, 0, 8);
        prop_assert!(matches!(got, Err(IoError::Failed { extent: x }) if x == pe), "{got:?}");
        // clear_failures removes even permanent faults (the harness's
        // "replace the disk" escape hatch).
        disk.clear_failures();
        prop_assert!(disk.read(pe, 0, 8).is_ok());
    }
}

/// Builds a small disk on the named backend (`file` volumes unlink on drop).
fn disk_on(backend: &str, geometry: Geometry) -> std::sync::Arc<Disk> {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    if backend == "memory" {
        return Disk::new(geometry);
    }
    let mut path = std::env::temp_dir();
    path.push(format!(
        "shardstore-disk-props-{}-{}.vol",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Disk::create_file(path, geometry, false, true).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The coalesced `read` (one medium read per run of durable pages)
    /// returns exactly what a page-by-page read of the same range does,
    /// on both backends, over random mixes of durable and still-volatile
    /// pages — and each call counts one `reads`, `len` `bytes_read` and
    /// consumes exactly one injected fault, however many pages it spans.
    #[test]
    fn coalesced_read_matches_pagewise_reference(
        backend in prop_oneof![Just("memory"), Just("file")],
        durable_writes in proptest::collection::vec((0usize..1024, proptest::collection::vec(any::<u8>(), 1..300)), 0..6),
        volatile_writes in proptest::collection::vec((0usize..1024, proptest::collection::vec(any::<u8>(), 1..200)), 0..6),
        ranges in proptest::collection::vec((0usize..1024, 0usize..1024), 1..8),
    ) {
        use shardstore_vdisk::IoError;
        let geometry = Geometry::small();
        let size = geometry.extent_size();
        let ps = geometry.page_size;
        let disk = disk_on(backend, geometry);
        let e = ExtentId(3);
        for (offset, data) in &durable_writes {
            disk.write(e, *offset, &data[..data.len().min(size - offset)]).unwrap();
        }
        disk.flush_extent(e).unwrap();
        for (offset, data) in &volatile_writes {
            disk.write(e, *offset, &data[..data.len().min(size - offset)]).unwrap();
        }
        for (offset, len) in ranges {
            let len = len.min(size - offset);
            // Reference: the same bytes fetched one page at a time (each
            // such read is a single cached image or a single medium read).
            let mut expect = Vec::with_capacity(len);
            let mut at = offset;
            while at < offset + len {
                let take = (ps - at % ps).min(offset + len - at);
                expect.extend_from_slice(&disk.read(e, at, take).unwrap());
                at += take;
            }
            let base = disk.stats();
            disk.inject_fail_times(e, 1);
            let failed = disk.read(e, offset, len);
            prop_assert!(matches!(failed, Err(IoError::Injected { .. })), "{failed:?}");
            let got = disk.read(e, offset, len).unwrap();
            prop_assert_eq!(&got, &expect, "range {}+{} diverged", offset, len);
            let stats = disk.stats();
            prop_assert_eq!(stats.injected_failures, base.injected_failures + 1);
            prop_assert_eq!(stats.reads, base.reads + 1);
            prop_assert_eq!(stats.bytes_read, base.bytes_read + len as u64);
        }
    }
}
