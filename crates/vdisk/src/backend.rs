//! Storage backends: the durable media behind the [`Disk`] facade.
//!
//! Both backends share one page-cache core ([`PagedBackend`]): writes land
//! in a volatile page-granular overlay and only reach the durable medium on
//! flush (or on the surviving half of a [`CrashPlan`]). That keeps the
//! crash-state enumeration primitive — "any subset of cached pages may
//! survive" — *identical* across media, which is what lets the conformance,
//! crash, and fault-sweep harnesses run unchanged against a real file.
//!
//! What differs per backend is only the durable medium itself:
//!
//! - [`MemBackend`] keeps durable bytes in per-extent `Vec<u8>` buffers.
//!   It is the checking substrate: deterministic, allocation-cheap, and
//!   safe under the model checker.
//! - [`FileBackend`] maps extents onto a preallocated volume file. Flushing
//!   an extent writes its dirty pages at their on-disk offsets and issues
//!   `fdatasync`, so `flush_extent` fencing discharges onto real storage
//!   barriers. Recovery then scans real bytes — every torn tail or bit
//!   flip must be caught by the CRCs in the superblock/LSM codecs, not by
//!   the test harness having perfect memory.
//!
//! [`Disk`]: crate::Disk

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use shardstore_conc::sync::Mutex;

use crate::codec::{crc32, Reader, Writer};
use crate::{CrashPlan, DiskStats, ExtentId, Geometry, IoError};

/// What a crash did to the volatile cache; the [`Disk`](crate::Disk)
/// facade turns this into trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Cached pages that survived (became durable).
    pub pages_kept: u32,
    /// Cached pages that were lost.
    pub pages_lost: u32,
}

/// The storage seam: everything [`Disk`](crate::Disk) needs from a
/// backend. The contract — page-granular volatile caching, flush fencing,
/// crash-plan semantics, deterministic `volatile_pages` order — is
/// specified once here and discharged per medium, following the
/// block-interface specification approach of the related block-store
/// verification work.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Stable backend tag (`"memory"` or `"file"`), reported by stats
    /// introspection.
    fn kind(&self) -> &'static str;
    /// The backend's geometry.
    fn geometry(&self) -> Geometry;
    /// Writes into the volatile cache; durable only after a flush.
    fn write(&self, extent: ExtentId, offset: usize, data: &[u8]) -> Result<(), IoError>;
    /// Reads through the volatile cache (read-your-writes).
    fn read(&self, extent: ExtentId, offset: usize, len: usize) -> Result<Vec<u8>, IoError>;
    /// Fences one extent: all its cached pages become durable.
    fn flush_extent(&self, extent: ExtentId) -> Result<(), IoError>;
    /// Whole-disk write barrier.
    fn flush_all(&self) -> Result<(), IoError>;
    /// Applies a crash plan; returns what survived.
    fn crash(&self, plan: &CrashPlan) -> CrashOutcome;
    /// Cached `(extent, page)` pairs in deterministic order.
    fn volatile_pages(&self) -> Vec<(ExtentId, u32)>;
    /// Makes the next `times` IOs to `extent` fail transiently.
    fn inject_fail_times(&self, extent: ExtentId, times: u32);
    /// Makes all IO to `extent` fail until [`StorageBackend::clear_failures`].
    fn inject_fail_always(&self, extent: ExtentId);
    /// Clears all injected failures.
    fn clear_failures(&self);
    /// Cumulative IO statistics.
    fn stats(&self) -> DiskStats;
    /// Records wall-clock time spent scanning this backend during store
    /// recovery (file backend only; the in-memory backend stays clock-free).
    fn note_recovery_scan_ms(&self, ms: u64);
    /// Copy of one extent's durable bytes (test/recovery helper).
    fn durable_snapshot(&self, extent: ExtentId) -> Vec<u8>;
}

/// The durable medium under the shared page cache. Only byte storage and
/// fencing live here; caching, crash plans, and fault injection are common.
pub trait DurableMedium: Send + fmt::Debug + 'static {
    /// Stable tag for this medium.
    fn kind(&self) -> &'static str;
    /// Reads `buf.len()` durable bytes at `offset` within `extent`.
    /// Bounds are validated by the caller.
    fn read_durable(&self, extent: u32, offset: usize, buf: &mut [u8]) -> Result<(), IoError>;
    /// Writes durable bytes at `offset` within `extent`. No fence implied.
    fn write_durable(&mut self, extent: u32, offset: usize, data: &[u8]) -> Result<(), IoError>;
    /// Fences all prior [`DurableMedium::write_durable`] calls. Returns
    /// `true` when a real fsync was issued (so the facade can count it).
    fn sync(&mut self) -> Result<bool, IoError>;
}

#[derive(Debug)]
struct State<M> {
    durable: M,
    /// Volatile page images not yet flushed, keyed `(extent, page)`.
    volatile: BTreeMap<(u32, u32), Vec<u8>>,
    /// Extents whose next IOs fail transiently, with remaining count.
    fail_once: BTreeMap<u32, u32>,
    /// Extents that permanently fail all IO.
    fail_always: BTreeSet<u32>,
    /// Bytes written durably since the last successful sync.
    unsynced_bytes: u64,
    stats: DiskStats,
}

/// Shared page-cache core implementing [`StorageBackend`] over any
/// [`DurableMedium`]. All internal maps are ordered (`BTreeMap`) so that
/// iteration order — and therefore every behaviour — is deterministic.
#[derive(Debug)]
pub struct PagedBackend<M: DurableMedium> {
    geometry: Geometry,
    state: Mutex<State<M>>,
}

impl<M: DurableMedium> PagedBackend<M> {
    fn with_medium(geometry: Geometry, medium: M) -> Self {
        Self {
            geometry,
            state: Mutex::new(State {
                durable: medium,
                volatile: BTreeMap::new(),
                fail_once: BTreeMap::new(),
                fail_always: BTreeSet::new(),
                unsynced_bytes: 0,
                stats: DiskStats::default(),
            }),
        }
    }

    fn check_range(&self, extent: ExtentId, offset: usize, len: usize) -> Result<(), IoError> {
        let size = self.geometry.extent_size();
        if extent.0 >= self.geometry.extent_count
            || offset > size
            || len > size
            || offset + len > size
        {
            return Err(IoError::OutOfRange { extent, offset, len });
        }
        Ok(())
    }

    fn check_failures(st: &mut State<M>, extent: ExtentId) -> Result<(), IoError> {
        if st.fail_always.contains(&extent.0) {
            st.stats.injected_failures += 1;
            return Err(IoError::Failed { extent });
        }
        if let Some(remaining) = st.fail_once.get_mut(&extent.0) {
            *remaining -= 1;
            if *remaining == 0 {
                st.fail_once.remove(&extent.0);
            }
            st.stats.injected_failures += 1;
            return Err(IoError::Injected { extent });
        }
        Ok(())
    }

    /// Writes one cached page durably and tracks the unsynced byte count.
    fn write_page_durable(st: &mut State<M>, key: (u32, u32), image: &[u8], ps: usize) {
        let start = key.1 as usize * ps;
        st.durable
            .write_durable(key.0, start, image)
            .expect("durable page write failed during flush/crash");
        st.unsynced_bytes += image.len() as u64;
    }

    /// Fences pending durable writes, counting real fsyncs into stats.
    fn sync_durable(st: &mut State<M>) {
        if st.unsynced_bytes == 0 {
            return;
        }
        let fenced = st.durable.sync().expect("durable sync failed during flush/crash");
        if fenced {
            st.stats.fsyncs += 1;
            st.stats.bytes_synced += st.unsynced_bytes;
        }
        st.unsynced_bytes = 0;
    }
}

impl<M: DurableMedium> StorageBackend for PagedBackend<M> {
    fn kind(&self) -> &'static str {
        self.state.lock().durable.kind()
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn write(&self, extent: ExtentId, offset: usize, data: &[u8]) -> Result<(), IoError> {
        self.check_range(extent, offset, data.len())?;
        let mut st = self.state.lock();
        Self::check_failures(&mut st, extent)?;
        let ps = self.geometry.page_size;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos;
            let page = (abs / ps) as u32;
            let page_start = page as usize * ps;
            let in_page = abs - page_start;
            let take = (ps - in_page).min(data.len() - pos);
            // Read-modify-write the page image from the current view.
            let key = (extent.0, page);
            if !st.volatile.contains_key(&key) {
                let mut image = vec![0u8; ps];
                st.durable.read_durable(extent.0, page_start, &mut image)?;
                st.volatile.insert(key, image);
            }
            let image = st.volatile.get_mut(&key).expect("just inserted");
            image[in_page..in_page + take].copy_from_slice(&data[pos..pos + take]);
            pos += take;
        }
        st.stats.writes += 1;
        st.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read(&self, extent: ExtentId, offset: usize, len: usize) -> Result<Vec<u8>, IoError> {
        self.check_range(extent, offset, len)?;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        Self::check_failures(st, extent)?;
        let ps = self.geometry.page_size;
        let end = offset + len;
        let mut out = vec![0u8; len];
        // Walk only the cached pages inside the range; every gap between
        // them is one contiguous run of durable pages and costs one
        // medium read (one `pread`), however many pages it spans.
        let mut pos = 0usize;
        if len > 0 {
            let pages = (extent.0, (offset / ps) as u32)..=(extent.0, ((end - 1) / ps) as u32);
            for (&(_, page), image) in st.volatile.range(pages) {
                let page_start = page as usize * ps;
                let from = page_start.max(offset);
                let to = (page_start + ps).min(end);
                if from - offset > pos {
                    st.durable.read_durable(extent.0, offset + pos, &mut out[pos..from - offset])?;
                }
                out[from - offset..to - offset]
                    .copy_from_slice(&image[from - page_start..to - page_start]);
                pos = to - offset;
            }
        }
        if pos < len {
            st.durable.read_durable(extent.0, offset + pos, &mut out[pos..])?;
        }
        st.stats.reads += 1;
        st.stats.bytes_read += len as u64;
        Ok(out)
    }

    fn flush_extent(&self, extent: ExtentId) -> Result<(), IoError> {
        self.check_range(extent, 0, 0)?;
        let mut st = self.state.lock();
        Self::check_failures(&mut st, extent)?;
        let ps = self.geometry.page_size;
        let keys: Vec<_> =
            st.volatile.range((extent.0, 0)..(extent.0 + 1, 0)).map(|(k, _)| *k).collect();
        for key in keys {
            let image = st.volatile.remove(&key).expect("listed key present");
            Self::write_page_durable(&mut st, key, &image, ps);
        }
        Self::sync_durable(&mut st);
        st.stats.flushes += 1;
        Ok(())
    }

    fn flush_all(&self) -> Result<(), IoError> {
        let mut st = self.state.lock();
        // A permanently failed extent fails the whole-disk barrier.
        if let Some(e) = st.fail_always.iter().next().copied() {
            st.stats.injected_failures += 1;
            return Err(IoError::Failed { extent: ExtentId(e) });
        }
        let ps = self.geometry.page_size;
        let volatile = std::mem::take(&mut st.volatile);
        for (key, image) in volatile {
            Self::write_page_durable(&mut st, key, &image, ps);
        }
        Self::sync_durable(&mut st);
        st.stats.flushes += 1;
        Ok(())
    }

    fn crash(&self, plan: &CrashPlan) -> CrashOutcome {
        let mut st = self.state.lock();
        let ps = self.geometry.page_size;
        let volatile = std::mem::take(&mut st.volatile);
        let mut kept = 0u32;
        let mut lost = 0u32;
        for ((ext, page), image) in volatile {
            let survive = match plan {
                CrashPlan::LoseAll => false,
                CrashPlan::KeepAll => true,
                CrashPlan::Keep(set) => set.contains(&(ExtentId(ext), page)),
            };
            if survive {
                Self::write_page_durable(&mut st, (ext, page), &image, ps);
                kept += 1;
            } else {
                lost += 1;
            }
        }
        Self::sync_durable(&mut st);
        st.fail_once.clear();
        st.stats.crashes += 1;
        CrashOutcome { pages_kept: kept, pages_lost: lost }
    }

    fn volatile_pages(&self) -> Vec<(ExtentId, u32)> {
        let st = self.state.lock();
        st.volatile.keys().map(|(e, p)| (ExtentId(*e), *p)).collect()
    }

    fn inject_fail_times(&self, extent: ExtentId, times: u32) {
        if times == 0 {
            return;
        }
        let mut st = self.state.lock();
        *st.fail_once.entry(extent.0).or_insert(0) += times;
    }

    fn inject_fail_always(&self, extent: ExtentId) {
        self.state.lock().fail_always.insert(extent.0);
    }

    fn clear_failures(&self) {
        let mut st = self.state.lock();
        st.fail_once.clear();
        st.fail_always.clear();
    }

    fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }

    fn note_recovery_scan_ms(&self, ms: u64) {
        self.state.lock().stats.recovery_scan_ms += ms;
    }

    fn durable_snapshot(&self, extent: ExtentId) -> Vec<u8> {
        let st = self.state.lock();
        let mut out = vec![0u8; self.geometry.extent_size()];
        st.durable.read_durable(extent.0, 0, &mut out).expect("durable snapshot read failed");
        out
    }
}

// ---------------------------------------------------------------------------
// Memory medium
// ---------------------------------------------------------------------------

/// Durable bytes held in per-extent heap buffers.
#[derive(Debug)]
pub struct MemMedium {
    extents: Vec<Vec<u8>>,
}

impl DurableMedium for MemMedium {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn read_durable(&self, extent: u32, offset: usize, buf: &mut [u8]) -> Result<(), IoError> {
        buf.copy_from_slice(&self.extents[extent as usize][offset..offset + buf.len()]);
        Ok(())
    }

    fn write_durable(&mut self, extent: u32, offset: usize, data: &[u8]) -> Result<(), IoError> {
        self.extents[extent as usize][offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<bool, IoError> {
        // Heap writes are "durable" the moment they land; nothing to fence.
        Ok(false)
    }
}

/// The in-memory backend: the default, and the only backend legal under
/// the model checker (file IO would break schedule determinism).
pub type MemBackend = PagedBackend<MemMedium>;

impl MemBackend {
    /// Creates a zero-filled in-memory backend.
    pub fn new(geometry: Geometry) -> Self {
        let extents =
            (0..geometry.extent_count).map(|_| vec![0u8; geometry.extent_size()]).collect();
        Self::with_medium(geometry, MemMedium { extents })
    }
}

// ---------------------------------------------------------------------------
// File medium
// ---------------------------------------------------------------------------

/// Volume header magic. Version is part of the magic: a layout change
/// bumps the trailing digit and old volumes are rejected with `BadMagic`.
const VOLUME_MAGIC: &[u8; 8] = b"SSVOL01\n";

/// Fixed header region size; extent data starts at this file offset so
/// page 0 of extent 0 stays naturally aligned for any page size ≤ 4 KiB.
const VOLUME_HEADER_LEN: u64 = 4096;

/// Chunk size used when physically preallocating the volume.
const PREALLOC_CHUNK: usize = 1 << 20;

fn volume_header_bytes(geometry: Geometry) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(VOLUME_MAGIC);
    w.u32(geometry.extent_count);
    w.u32(geometry.pages_per_extent);
    w.u64(geometry.page_size as u64);
    let crc = crc32(w.as_bytes());
    w.u32(crc);
    w.into_bytes()
}

/// Decodes and validates a volume header, returning its geometry.
pub fn decode_volume_header(bytes: &[u8]) -> Result<Geometry, IoError> {
    let mut r = Reader::new(bytes);
    let mut parse = || -> Result<Geometry, crate::codec::CodecError> {
        r.expect(VOLUME_MAGIC)?;
        let extent_count = r.u32()?;
        let pages_per_extent = r.u32()?;
        let page_size = r.u64()?;
        let body_end = r.position();
        let crc = r.u32()?;
        if crc32(&bytes[..body_end]) != crc {
            return Err(crate::codec::CodecError::BadChecksum);
        }
        if extent_count == 0 || pages_per_extent == 0 || page_size == 0 {
            return Err(crate::codec::CodecError::BadValue);
        }
        Ok(Geometry {
            extent_count,
            pages_per_extent,
            page_size: page_size as usize,
        })
    };
    parse().map_err(|e| IoError::Backend { detail: format!("volume header: {e}") })
}

/// Durable bytes mapped onto a preallocated volume file: a 4 KiB header
/// (magic + geometry + CRC) followed by extent data at
/// `header + extent * extent_size + offset`.
pub struct FileMedium {
    file: fs::File,
    path: PathBuf,
    extent_size: u64,
    unlink_on_drop: bool,
}

impl fmt::Debug for FileMedium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileMedium")
            .field("path", &self.path)
            .field("unlink_on_drop", &self.unlink_on_drop)
            .finish()
    }
}

impl Drop for FileMedium {
    fn drop(&mut self) {
        if self.unlink_on_drop {
            let _ = fs::remove_file(&self.path);
        }
    }
}

fn backend_err(path: &Path, op: &str, e: std::io::Error) -> IoError {
    IoError::Backend { detail: format!("{op} {}: {e}", path.display()) }
}

impl FileMedium {
    fn offset_of(&self, extent: u32, offset: usize) -> u64 {
        VOLUME_HEADER_LEN + extent as u64 * self.extent_size + offset as u64
    }
}

impl DurableMedium for FileMedium {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn read_durable(&self, extent: u32, offset: usize, buf: &mut [u8]) -> Result<(), IoError> {
        self.file
            .read_exact_at(buf, self.offset_of(extent, offset))
            .map_err(|e| backend_err(&self.path, "read", e))
    }

    fn write_durable(&mut self, extent: u32, offset: usize, data: &[u8]) -> Result<(), IoError> {
        self.file
            .write_all_at(data, self.offset_of(extent, offset))
            .map_err(|e| backend_err(&self.path, "write", e))
    }

    fn sync(&mut self) -> Result<bool, IoError> {
        self.file.sync_data().map_err(|e| backend_err(&self.path, "fdatasync", e))?;
        Ok(true)
    }
}

/// The file backend: extents mapped onto a preallocated volume file, with
/// `flush_extent` fencing discharged as `fdatasync`.
pub type FileBackend = PagedBackend<FileMedium>;

impl FileBackend {
    /// Creates (truncating) a volume file for `geometry` at `path`.
    ///
    /// With `preallocate`, the data region is physically written with
    /// zeros so later page writes never ENOSPC mid-flush; otherwise the
    /// file is extended sparsely with `set_len`. `unlink_on_drop` removes
    /// the file when the backend is dropped — the right default for
    /// store-managed scratch volumes, wrong for volumes a test intends to
    /// reopen after a simulated kill.
    pub fn create(
        path: impl Into<PathBuf>,
        geometry: Geometry,
        preallocate: bool,
        unlink_on_drop: bool,
    ) -> Result<Self, IoError> {
        let path = path.into();
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| backend_err(&path, "create", e))?;
        let header = volume_header_bytes(geometry);
        file.write_all(&header).map_err(|e| backend_err(&path, "write header", e))?;
        let total = VOLUME_HEADER_LEN + geometry.capacity() as u64;
        if preallocate {
            let zeros = vec![0u8; PREALLOC_CHUNK];
            let mut at = header.len() as u64;
            while at < total {
                let take = ((total - at) as usize).min(PREALLOC_CHUNK);
                file.write_all_at(&zeros[..take], at)
                    .map_err(|e| backend_err(&path, "preallocate", e))?;
                at += take as u64;
            }
        } else {
            file.set_len(total).map_err(|e| backend_err(&path, "set_len", e))?;
        }
        file.sync_all().map_err(|e| backend_err(&path, "fsync", e))?;
        let medium = FileMedium {
            file,
            path,
            extent_size: geometry.extent_size() as u64,
            unlink_on_drop,
        };
        Ok(Self::with_medium(geometry, medium))
    }

    /// Opens an existing volume file, validating its header (magic, CRC,
    /// non-zero geometry) and that the file is large enough for the
    /// geometry it claims. A truncated or corrupted header is rejected
    /// with [`IoError::Backend`] — recovery never guesses a geometry.
    pub fn open(path: impl Into<PathBuf>, unlink_on_drop: bool) -> Result<Self, IoError> {
        let path = path.into();
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| backend_err(&path, "open", e))?;
        let len = file.metadata().map_err(|e| backend_err(&path, "stat", e))?.len();
        let mut header = vec![0u8; volume_header_bytes(Geometry::small()).len()];
        if len < header.len() as u64 {
            return Err(IoError::Backend {
                detail: format!(
                    "volume header: file {} is {len} bytes, shorter than the header",
                    path.display()
                ),
            });
        }
        file.read_exact_at(&mut header, 0).map_err(|e| backend_err(&path, "read header", e))?;
        let geometry = decode_volume_header(&header)?;
        let total = VOLUME_HEADER_LEN + geometry.capacity() as u64;
        if len < total {
            return Err(IoError::Backend {
                detail: format!(
                    "volume {}: {len} bytes on disk, geometry needs {total}",
                    path.display()
                ),
            });
        }
        let medium = FileMedium {
            file,
            path,
            extent_size: geometry.extent_size() as u64,
            unlink_on_drop,
        };
        Ok(Self::with_medium(geometry, medium))
    }

    /// The backing volume file path.
    pub fn path(&self) -> PathBuf {
        self.state.lock().durable.path.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("shardstore-vdisk-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn file_backend_round_trips_and_survives_reopen() {
        let path = tmp("roundtrip.vol");
        let geo = Geometry::small();
        {
            let b = FileBackend::create(&path, geo, false, false).unwrap();
            b.write(ExtentId(1), 3, b"persisted").unwrap();
            b.flush_extent(ExtentId(1)).unwrap();
            b.write(ExtentId(2), 0, b"volatile").unwrap();
            // Dropped without flushing extent 2: those bytes must be gone.
        }
        let b = FileBackend::open(&path, true).unwrap();
        assert_eq!(b.geometry(), geo);
        assert_eq!(b.read(ExtentId(1), 3, 9).unwrap(), b"persisted");
        assert_eq!(b.read(ExtentId(2), 0, 8).unwrap(), vec![0u8; 8]);
        let s = b.stats();
        assert_eq!(s.fsyncs, 0, "fresh handle starts at zero");
        drop(b);
        assert!(!path.exists(), "unlink_on_drop removes the volume");
    }

    #[test]
    fn file_backend_counts_fsyncs_and_synced_bytes() {
        let path = tmp("fsyncs.vol");
        let geo = Geometry::small();
        let b = FileBackend::create(&path, geo, true, true).unwrap();
        b.write(ExtentId(0), 0, b"x").unwrap();
        b.flush_extent(ExtentId(0)).unwrap();
        // Flushing a clean extent is a no-op fence: no extra fsync.
        b.flush_extent(ExtentId(0)).unwrap();
        let s = b.stats();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.bytes_synced, geo.page_size as u64);
    }

    #[test]
    fn header_rejects_corruption() {
        let geo = Geometry::default();
        let good = volume_header_bytes(geo);
        assert_eq!(decode_volume_header(&good).unwrap(), geo);
        // Truncation.
        assert!(decode_volume_header(&good[..good.len() - 1]).is_err());
        // Any single-bit flip.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 1;
            assert!(decode_volume_header(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn open_rejects_truncated_volume() {
        let path = tmp("truncated.vol");
        let geo = Geometry::small();
        {
            let b = FileBackend::create(&path, geo, false, false).unwrap();
            b.flush_all().unwrap();
        }
        let full = VOLUME_HEADER_LEN + geo.capacity() as u64;
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 1).unwrap();
        drop(f);
        assert!(matches!(FileBackend::open(&path, false), Err(IoError::Backend { .. })));
        fs::remove_file(&path).unwrap();
    }
}
