//! The chunk store: PUT/GET over locators, extent allocation, and the
//! chunk-reclamation (GC) background task (§2.1 of the paper).
//!
//! All persistent data in ShardStore is stored in chunks — shard data and
//! the LSM tree itself. The chunk store arranges chunks onto extents with
//! `put(data) → locator` / `get(locator) → data`, and recovers free space
//! with *reclamation*: scan an extent, reverse-look-up each chunk in the
//! index (via the [`Referencer`] callback), evacuate live chunks to a new
//! extent, update their pointers, and only then reset the extent — with
//! the reset's superblock update depending on the evacuations and index
//! updates, so no crash state loses data (§2.1, §5).
//!
//! Concurrency: a put can *pin* its target extent ([`PutGuard`]) until the
//! caller has registered the chunk in its index; reclamation skips pinned
//! extents. Skipping that pin is exactly the issue #11 / #14 bug family
//! ([`BugId::B11LocatorRace`] seeds it at this layer).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shardstore_conc::sync::Mutex;
use shardstore_dependency::Dependency;
use shardstore_faults::{coverage, BugId, FaultConfig};
use shardstore_obs::TraceEvent;
use shardstore_superblock::{ExtentError, ExtentManager, Owner};
use shardstore_vdisk::{ExtentId, IoError};

use crate::frame::{
    encode_frame, frame_header_matches, scan_extent, FRAME_HEADER_LEN, FRAME_OVERHEAD,
};

/// Which logical stream a chunk belongs to; each stream appends to its own
/// open extent so that data with different lifetimes does not mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stream {
    /// Shard data chunks.
    Data,
    /// Chunks backing the LSM tree.
    Lsm,
    /// LSM metadata records.
    Meta,
}

impl Stream {
    /// The extent [`Owner`] for this stream.
    pub fn owner(self) -> Owner {
        match self {
            Stream::Data => Owner::Data,
            Stream::Lsm => Owner::LsmData,
            Stream::Meta => Owner::Metadata,
        }
    }
}

/// Opaque pointer to a stored chunk.
///
/// Locators are returned by [`ChunkStore::put`] and are unique per chunk
/// (the UUID also frames the chunk on disk). Other components treat them
/// as opaque — the paper's issue #15 was a reference model violating
/// exactly that uniqueness assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Locator {
    /// Extent holding the chunk.
    pub extent: ExtentId,
    /// Byte offset of the frame within the extent.
    pub offset: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// The chunk's framing UUID.
    pub uuid: u128,
}

impl Locator {
    /// Stable hash of the chunk's *position* (extent + offset) — the same
    /// identity the buffer cache keys entries by, so all locators naming
    /// one on-disk position map to one cache segment regardless of UUID.
    pub fn position_hash(&self) -> u64 {
        // splitmix64 finalizer over the packed position; good avalanche
        // for sequential extents/offsets, no allocation.
        let mut x = ((self.extent.0 as u64) << 32) | self.offset as u64;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl fmt::Display for Locator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk@{}+{}:{}", self.extent.0, self.offset, self.len)
    }
}

/// Chunk store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Underlying extent/disk error.
    Extent(ExtentError),
    /// The locator does not name a live chunk (deleted, reclaimed, or
    /// never persisted).
    NotFound(Locator),
    /// The on-disk frame failed validation — corruption was *detected*
    /// rather than wrong data returned (the §4.4 guarantee).
    Corrupt(Locator),
    /// No extent has room for a chunk of this size.
    NoSpace {
        /// The payload size that could not be placed.
        requested: usize,
    },
    /// The chunk lives on a quarantined extent and has no surviving
    /// replica to serve it from. The caller can distinguish this from
    /// `NotFound`: the data existed and may still be recovered by
    /// re-replication from another node (out of scope for a single
    /// storage node), but this node cannot return it.
    Degraded(Locator),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Extent(e) => write!(f, "extent error: {e}"),
            ChunkError::NotFound(l) => write!(f, "{l} not found"),
            ChunkError::Corrupt(l) => write!(f, "{l} failed validation"),
            ChunkError::NoSpace { requested } => write!(f, "no space for {requested}-byte chunk"),
            ChunkError::Degraded(l) => write!(f, "{l} is on a quarantined extent (degraded)"),
        }
    }
}

impl ChunkError {
    /// True if this error reports data made unreachable by an extent
    /// quarantine (degraded mode), as opposed to data that never existed
    /// or failed validation.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            ChunkError::Degraded(_) | ChunkError::Extent(ExtentError::Quarantined { .. })
        )
    }
}

impl std::error::Error for ChunkError {}

impl From<ExtentError> for ChunkError {
    fn from(e: ExtentError) -> Self {
        ChunkError::Extent(e)
    }
}

impl From<IoError> for ChunkError {
    fn from(e: IoError) -> Self {
        ChunkError::Extent(ExtentError::Io(e))
    }
}

/// Reverse-lookup callback used by reclamation (§2.1): the index (or the
/// LSM metadata structure, for LSM-owned extents) decides which chunks are
/// still referenced and rewires pointers for evacuated chunks.
pub trait Referencer {
    /// Returns true if the chunk at `locator` is still referenced.
    fn is_live(&self, locator: &Locator) -> bool;

    /// Informs the referencer that a live chunk moved from `old` to
    /// `new`; `copy_dep` is the data dependency of the evacuated copy.
    /// Returns the dependency of the pointer update (which must itself
    /// depend on `copy_dep` — pointers must never persist before the data
    /// they point to).
    fn relocated(&self, old: &Locator, new: &Locator, copy_dep: &Dependency) -> Dependency;

    /// Returns a dependency that persists only once the referencer's
    /// *current* reference state is durable. Reclamation joins this into
    /// the extent-reset barrier: a chunk that is unreferenced *now* may
    /// still be referenced by an older persisted index state, and
    /// resetting its extent before the current state persists would let a
    /// crash recover to an index with dangling pointers. For the LSM
    /// index this triggers a flush and returns the resulting metadata
    /// record's dependency. Returning `Ok(None)` means the referencer's
    /// state is purely in-memory and imposes no ordering (test doubles).
    ///
    /// An `Err` means the current reference state *cannot* be made
    /// durable right now (e.g. no space left for the barrier record).
    /// Reclamation must then abort the pass without resetting the
    /// extent: an older persisted index state may still reference the
    /// chunks about to be dropped, and resetting anyway would let a
    /// crash recover to an index full of dangling pointers.
    fn quiesce(&self) -> Result<Option<Dependency>, ChunkError>;
}

/// Outcome of one quarantined-extent evacuation
/// ([`ChunkStore::evacuate_quarantined`]).
#[derive(Debug, Clone)]
pub struct EvacuationReport {
    /// The quarantined extent.
    pub extent: ExtentId,
    /// Live chunks re-homed to fresh extents (from the cache copy).
    pub evacuated: usize,
    /// Live chunks with no surviving local copy; reads stay degraded.
    pub stranded: usize,
    /// Unreferenced chunks dropped from the registry.
    pub dropped: usize,
    /// Persists once every evacuated copy and pointer update has.
    pub dep: Dependency,
}

/// Outcome of one reclamation pass.
#[derive(Debug, Clone)]
pub struct ReclaimReport {
    /// The reclaimed extent.
    pub extent: ExtentId,
    /// Chunks evacuated (live).
    pub evacuated: usize,
    /// Chunks dropped (unreferenced).
    pub dropped: usize,
    /// Dependency of the extent reset; persists only after every
    /// evacuation and pointer update has.
    pub reset_dep: Dependency,
}

/// Cumulative chunk-store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Successful puts.
    pub puts: u64,
    /// Successful gets.
    pub gets: u64,
    /// Reclamation passes completed.
    pub reclaims: u64,
    /// Chunks evacuated by reclamation.
    pub evacuated: u64,
    /// Chunks dropped by reclamation.
    pub dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    len: u32,
    uuid: u128,
    /// Deletion hint for victim selection (not authoritative liveness —
    /// reclamation always reverse-looks-up through the [`Referencer`]).
    dead_hint: bool,
}

#[derive(Debug)]
struct CsState {
    /// Per-extent chunk registry: extent → offset → metadata.
    registry: BTreeMap<u32, BTreeMap<u32, ChunkMeta>>,
    /// Current append target per stream.
    open: BTreeMap<Stream, ExtentId>,
    /// Extents pinned by in-flight puts; reclamation must skip them.
    pinned: BTreeMap<u32, usize>,
    /// Extents currently being reclaimed; puts must not target them.
    reclaiming: std::collections::BTreeSet<u32>,
    uuid_rng: StdRng,
    forced_uuid: Option<u128>,
    stats: ChunkStats,
}

/// The chunk store. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct ChunkStore {
    core: Arc<CsCore>,
}

struct CsCore {
    em: ExtentManager,
    faults: FaultConfig,
    state: Mutex<CsState>,
}

impl fmt::Debug for ChunkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("ChunkStore").field("extents", &st.registry.len()).finish()
    }
}

/// Result of a successful [`ChunkStore::put`].
#[derive(Debug)]
pub struct PutOutcome {
    /// The stored chunk's locator.
    pub locator: Locator,
    /// Dependency of the chunk's raw data write only — for building
    /// ordering barriers (see [`shardstore_superblock::AppendOutcome`]).
    pub data_dep: Dependency,
    /// Full dependency: data plus its superblock pointer coverage.
    pub dep: Dependency,
    /// Extent pin; hold until the chunk is referenced by an index.
    pub guard: PutGuard,
}

impl PutOutcome {
    /// Destructures into the common `(locator, dep, guard)` triple.
    pub fn into_parts(self) -> (Locator, Dependency, PutGuard) {
        (self.locator, self.dep, self.guard)
    }
}

/// RAII pin on an extent: while alive, reclamation will not touch the
/// extent. Held by `put` callers until the chunk is referenced by an
/// index (the fix for issues #11/#14).
#[derive(Debug)]
pub struct PutGuard {
    store: ChunkStore,
    extent: ExtentId,
}

impl Drop for PutGuard {
    fn drop(&mut self) {
        let mut st = self.store.core.state.lock();
        if let Some(n) = st.pinned.get_mut(&self.extent.0) {
            *n -= 1;
            if *n == 0 {
                st.pinned.remove(&self.extent.0);
            }
        }
    }
}

impl ChunkStore {
    /// Creates a chunk store over an extent manager. `uuid_seed` makes
    /// chunk UUIDs deterministic for reproducible tests (§4.3's
    /// determinism-by-design principle).
    pub fn new(em: ExtentManager, faults: FaultConfig, uuid_seed: u64) -> Self {
        Self {
            core: Arc::new(CsCore {
                em,
                faults,
                state: Mutex::new(CsState {
                    registry: BTreeMap::new(),
                    open: BTreeMap::new(),
                    pinned: BTreeMap::new(),
                    reclaiming: std::collections::BTreeSet::new(),
                    uuid_rng: StdRng::seed_from_u64(uuid_seed),
                    forced_uuid: None,
                    stats: ChunkStats::default(),
                }),
            }),
        }
    }

    /// Rebuilds the chunk registry after a reboot by scanning every owned
    /// extent up to its recovered soft write pointer.
    pub fn recover(em: ExtentManager, faults: FaultConfig, uuid_seed: u64) -> Result<Self, ChunkError> {
        let store = Self::new(em, faults, uuid_seed);
        let page_size = store.core.em.scheduler().disk().geometry().page_size;
        let extent_size = store.core.em.extent_size();
        for owner in [Owner::Data, Owner::LsmData, Owner::Metadata] {
            for extent in store.core.em.extents_owned_by(owner) {
                if store.core.em.is_quarantined(extent) {
                    coverage::hit("chunk.recover.skip_quarantined");
                    continue;
                }
                // One read of the raw extent image serves both the frame
                // scan and the garbage-tail detection below. (Nothing is
                // pending in a freshly rebooted scheduler, so the raw image
                // is what a read through the extent manager would return.)
                let raw = match store.read_raw_extent(extent) {
                    Ok(r) => r,
                    Err(IoError::Failed { .. }) => {
                        // Permanently dead extent: quarantine it and
                        // recover everything else. Its chunks read as
                        // Degraded, never as wrong data.
                        store.core.em.quarantine(extent);
                        coverage::hit("chunk.recover.quarantined");
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                // Chunks are trusted — and registered — only below the
                // *persisted* write pointer. Bytes beyond it are either
                // torn residue of unacknowledged appends or dead data
                // from a reset whose space has not been reused; neither
                // may be resurrected.
                let sb_ptr = store.core.em.write_pointer(extent);
                let frames = if sb_ptr > 0 {
                    coverage::hit("chunk.recover.scan_extent");
                    scan_extent(&raw[..sb_ptr], sb_ptr, page_size, &store.core.faults)
                } else {
                    Vec::new()
                };
                let last_valid_end = frames.last().map(|f| f.end()).unwrap_or(0);
                {
                    let mut st = store.core.state.lock();
                    let per = st.registry.entry(extent.0).or_default();
                    for f in frames {
                        per.insert(
                            f.offset as u32,
                            ChunkMeta { len: f.payload_len as u32, uuid: f.uuid, dead_hint: false },
                        );
                    }
                }
                // Position the pointer for future appends: past the last
                // valid chunk AND past any physical garbage, rounded up
                // to a page boundary. Garbage below the pointer arises
                // from torn pages of a covered-but-partially-lost append;
                // garbage above it from appends whose pointer update the
                // crash dropped, or from an earlier reset. Appending into
                // the middle of such residue would let a later scan
                // misparse the mix — the §5 scenario, where "a second
                // chunk is written to the same extent, starting from
                // page 1".
                let garbage_end =
                    raw.iter().rposition(|b| *b != 0).map(|i| i + 1).unwrap_or(0);
                let new_ptr = if garbage_end > last_valid_end {
                    (garbage_end.div_ceil(page_size) * page_size).min(extent_size)
                } else {
                    last_valid_end
                };
                if new_ptr > sb_ptr {
                    store.core.em.extend_pointer_for_recovery(extent, new_ptr);
                    coverage::hit("chunk.recover.pointer_extended");
                } else if new_ptr < sb_ptr {
                    store.core.em.trim_pointer_for_recovery(extent, new_ptr);
                    coverage::hit("chunk.recover.torn_tail_trimmed");
                }
            }
        }
        Ok(store)
    }

    /// The underlying extent manager.
    pub fn extent_manager(&self) -> &ExtentManager {
        &self.core.em
    }

    /// Reads one extent's whole raw image straight off the disk — below
    /// the write-pointer window and the scheduler's overlay, which is what
    /// recovery scans need — retrying transient (injected) failures within
    /// the same budget as [`ChunkStore::get`].
    pub fn read_raw_extent(&self, extent: ExtentId) -> Result<Vec<u8>, IoError> {
        let disk = self.core.em.scheduler().disk();
        let mut attempts = 0u32;
        loop {
            match disk.read(extent, 0, self.core.em.extent_size()) {
                Err(IoError::Injected { .. }) if attempts < 3 => {
                    attempts += 1;
                    coverage::hit("chunk.read.retried");
                }
                other => return other,
            }
        }
    }

    /// Reads through the extent manager with a bounded retry of transient
    /// (injected) failures, mirroring the scheduler's write-retry budget.
    fn read_with_retry(
        &self,
        extent: ExtentId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ExtentError> {
        let mut attempts = 0u32;
        loop {
            match self.core.em.read(extent, offset, len) {
                Err(ExtentError::Io(IoError::Injected { .. })) if attempts < 3 => {
                    attempts += 1;
                    coverage::hit("chunk.read.retried");
                }
                other => return other,
            }
        }
    }

    /// Forces the next generated UUID (test support for the §5 collision
    /// scenario).
    #[doc(hidden)]
    pub fn force_next_uuid(&self, uuid: u128) {
        self.core.state.lock().forced_uuid = Some(uuid);
    }

    fn next_uuid(st: &mut CsState) -> u128 {
        if let Some(u) = st.forced_uuid.take() {
            return u;
        }
        st.uuid_rng.gen()
    }

    /// Picks (or allocates) the open extent for `stream` with room for
    /// `frame_len` bytes.
    fn target_extent(&self, stream: Stream, frame_len: usize) -> Result<ExtentId, ChunkError> {
        let size = self.core.em.extent_size();
        if frame_len > size {
            return Err(ChunkError::NoSpace { requested: frame_len });
        }
        // Fast path: current open extent fits (and is not mid-reclaim or
        // quarantined).
        {
            let st = self.core.state.lock();
            if let Some(ext) = st.open.get(&stream).copied() {
                if !st.reclaiming.contains(&ext.0)
                    && !self.core.em.is_quarantined(ext)
                    && self.core.em.write_pointer(ext) + frame_len <= size
                {
                    return Ok(ext);
                }
            }
        }
        coverage::hit("chunk.put.open_new_extent");
        // Try an existing partially-filled extent of this stream, else
        // allocate a fresh one.
        for ext in self.core.em.extents_owned_by(stream.owner()) {
            if self.core.state.lock().reclaiming.contains(&ext.0)
                || self.core.em.is_quarantined(ext)
            {
                continue;
            }
            if self.core.em.write_pointer(ext) + frame_len <= size {
                self.core.state.lock().open.insert(stream, ext);
                return Ok(ext);
            }
        }
        match self.core.em.allocate(stream.owner()) {
            Ok((ext, _dep)) => {
                self.core.state.lock().open.insert(stream, ext);
                Ok(ext)
            }
            Err(ExtentError::NoFreeExtent) => Err(ChunkError::NoSpace { requested: frame_len }),
            Err(e) => Err(e.into()),
        }
    }

    /// Stores a chunk. The write will not be issued until `dep` persists;
    /// the returned dependency persists once the chunk and its write
    /// pointer have. The returned [`PutGuard`] pins the target extent
    /// against reclamation; hold it until the chunk is referenced by an
    /// index.
    pub fn put(
        &self,
        stream: Stream,
        payload: &[u8],
        dep: &Dependency,
    ) -> Result<PutOutcome, ChunkError> {
        let frame_len = payload.len() + FRAME_OVERHEAD;
        let extent = loop {
            let candidate = self.target_extent(stream, frame_len)?;
            let mut st = self.core.state.lock();
            // Re-validate under the pin lock: a reclamation may have
            // claimed the candidate between target selection and here
            // (it checks pins and marks `reclaiming` atomically, so after
            // pinning we must observe its mark if it got in first).
            if st.reclaiming.contains(&candidate.0) {
                drop(st);
                shardstore_conc::yield_now();
                continue;
            }
            if !self.core.faults.is(BugId::B11LocatorRace) {
                *st.pinned.entry(candidate.0).or_insert(0) += 1;
            }
            break candidate;
        };
        let mut st = self.core.state.lock();
        let uuid = Self::next_uuid(&mut st);
        drop(st);
        let frame = encode_frame(payload, uuid);
        let append = self.core.em.append(extent, &frame, dep);
        let outcome = match append {
            Ok(v) => v,
            Err(e) => {
                if !self.core.faults.is(BugId::B11LocatorRace) {
                    let mut st = self.core.state.lock();
                    if let Some(n) = st.pinned.get_mut(&extent.0) {
                        *n -= 1;
                        if *n == 0 {
                            st.pinned.remove(&extent.0);
                        }
                    }
                }
                match e {
                    ExtentError::ExtentFull { .. } => {
                        // Lost a race for the open extent; retry once
                        // with a fresh target.
                        coverage::hit("chunk.put.retry_full");
                        return self.put(stream, payload, dep);
                    }
                    ExtentError::Quarantined { .. } => {
                        // The open extent died under us; re-route to a
                        // fresh one (target selection skips quarantined
                        // extents, so this terminates).
                        coverage::hit("chunk.put.rerouted_quarantined");
                        self.core.state.lock().open.retain(|_, x| *x != extent);
                        return self.put(stream, payload, dep);
                    }
                    _ => {}
                }
                return Err(e.into());
            }
        };
        let locator =
            Locator { extent, offset: outcome.offset as u32, len: payload.len() as u32, uuid };
        let mut st = self.core.state.lock();
        st.registry.entry(extent.0).or_default().insert(
            locator.offset,
            ChunkMeta { len: locator.len, uuid, dead_hint: false },
        );
        st.stats.puts += 1;
        if self.core.faults.is(BugId::B11LocatorRace) {
            // BUG B11 (seeded): no pin is taken, so between this put
            // returning and the caller registering the locator in its
            // index, a concurrent reclamation can scan the extent, find
            // the chunk unreferenced, and reset the extent — invalidating
            // the locator.
            drop(st);
            return Ok(PutOutcome {
                locator,
                data_dep: outcome.data,
                dep: outcome.dep,
                guard: PutGuard { store: self.clone(), extent: ExtentId(u32::MAX) },
            });
        }
        drop(st);
        Ok(PutOutcome {
            locator,
            data_dep: outcome.data,
            dep: outcome.dep,
            guard: PutGuard { store: self.clone(), extent },
        })
    }

    /// Stores several chunks as one group commit. The whole batch targets
    /// a single extent and shares one superblock pointer update (see
    /// [`ExtentManager::append_batch`]), so the scheduler can merge the
    /// contiguous frames into one disk IO. Each element still gets its own
    /// locator, dependencies, and [`PutGuard`], exactly as if stored by
    /// [`ChunkStore::put`]. Batches that cannot fit one extent (or lose a
    /// space race) degrade to per-chunk puts — the batch is an
    /// optimisation, never a semantic change.
    pub fn put_batch(
        &self,
        stream: Stream,
        payloads: &[&[u8]],
        dep: &Dependency,
    ) -> Result<Vec<PutOutcome>, ChunkError> {
        match payloads {
            [] => return Ok(Vec::new()),
            [single] => return Ok(vec![self.put(stream, single, dep)?]),
            _ => {}
        }
        let total: usize = payloads.iter().map(|p| p.len() + FRAME_OVERHEAD).sum();
        if total > self.core.em.extent_size() {
            // Too big to ever group in one extent; store individually.
            coverage::hit("chunk.put_batch.split_oversize");
            return payloads.iter().map(|p| self.put(stream, p, dep)).collect();
        }
        let pinning = !self.core.faults.is(BugId::B11LocatorRace);
        let extent = loop {
            let candidate = self.target_extent(stream, total)?;
            let mut st = self.core.state.lock();
            if st.reclaiming.contains(&candidate.0) {
                drop(st);
                shardstore_conc::yield_now();
                continue;
            }
            if pinning {
                // One pin per outcome: every returned PutGuard releases
                // its own, matching the single-put contract.
                *st.pinned.entry(candidate.0).or_insert(0) += payloads.len();
            }
            break candidate;
        };
        let mut st = self.core.state.lock();
        let uuids: Vec<u128> = payloads.iter().map(|_| Self::next_uuid(&mut st)).collect();
        drop(st);
        let frames: Vec<Vec<u8>> =
            payloads.iter().zip(&uuids).map(|(p, u)| encode_frame(p, *u)).collect();
        let frame_refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let outcomes = match self.core.em.append_batch(extent, &frame_refs, dep) {
            Ok(v) => v,
            Err(e) => {
                if pinning {
                    let mut st = self.core.state.lock();
                    if let Some(n) = st.pinned.get_mut(&extent.0) {
                        *n -= payloads.len();
                        if *n == 0 {
                            st.pinned.remove(&extent.0);
                        }
                    }
                }
                match e {
                    ExtentError::ExtentFull { .. } => {
                        // Lost a space race for the open extent; per-chunk
                        // puts re-target (and may spread across extents).
                        coverage::hit("chunk.put_batch.retry_full");
                        return payloads.iter().map(|p| self.put(stream, p, dep)).collect();
                    }
                    ExtentError::Quarantined { .. } => {
                        // Open extent died; re-route each chunk to fresh
                        // extents individually.
                        coverage::hit("chunk.put_batch.rerouted_quarantined");
                        self.core.state.lock().open.retain(|_, x| *x != extent);
                        return payloads.iter().map(|p| self.put(stream, p, dep)).collect();
                    }
                    _ => {}
                }
                return Err(e.into());
            }
        };
        coverage::hit("chunk.put_batch.grouped");
        let guard_extent = if pinning { extent } else { ExtentId(u32::MAX) };
        let mut st = self.core.state.lock();
        let mut out = Vec::with_capacity(payloads.len());
        for ((payload, uuid), ao) in payloads.iter().zip(&uuids).zip(outcomes) {
            let locator = Locator {
                extent,
                offset: ao.offset as u32,
                len: payload.len() as u32,
                uuid: *uuid,
            };
            st.registry.entry(extent.0).or_default().insert(
                locator.offset,
                ChunkMeta { len: locator.len, uuid: *uuid, dead_hint: false },
            );
            st.stats.puts += 1;
            out.push(PutOutcome {
                locator,
                data_dep: ao.data,
                dep: ao.dep,
                guard: PutGuard { store: self.clone(), extent: guard_extent },
            });
        }
        drop(st);
        Ok(out)
    }

    /// Classifies `locator` against the registry: `Ok` if it names a
    /// registered chunk, else `Degraded` on a quarantined extent (which
    /// recovery could not scan) or `NotFound`.
    fn check_registered(&self, locator: &Locator) -> Result<(), ChunkError> {
        let st = self.core.state.lock();
        let known = st
            .registry
            .get(&locator.extent.0)
            .and_then(|per| per.get(&locator.offset))
            .map(|m| m.uuid == locator.uuid && m.len == locator.len)
            .unwrap_or(false);
        if known {
            return Ok(());
        }
        // A quarantined extent cannot be scanned at recovery, so its
        // chunks are absent from the registry; a miss there is
        // "unreadable", not "never existed".
        if self.core.em.is_quarantined(locator.extent) {
            coverage::hit("chunk.get.degraded_unregistered");
            return Err(ChunkError::Degraded(*locator));
        }
        coverage::hit("chunk.get.not_found");
        Err(ChunkError::NotFound(*locator))
    }

    /// Reads `len` bytes at `offset` within `locator`'s frame, mapping a
    /// dead extent to the *distinguishable* degraded error — never
    /// `NotFound` and never wrong bytes.
    fn read_frame_bytes(
        &self,
        locator: &Locator,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ChunkError> {
        match self.read_with_retry(locator.extent, locator.offset as usize + offset, len) {
            Ok(b) => Ok(b),
            Err(ExtentError::Quarantined { .. }) => {
                coverage::hit("chunk.get.degraded");
                Err(ChunkError::Degraded(*locator))
            }
            Err(ExtentError::Io(IoError::Failed { extent })) => {
                // First observation of a permanent fault on a read path:
                // quarantine so writers re-route, then report degraded.
                self.core.em.quarantine(extent);
                coverage::hit("chunk.get.degraded");
                Err(ChunkError::Degraded(*locator))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Reads a chunk back, validating its frame. Corruption is detected
    /// and reported as [`ChunkError::Corrupt`] — never returned as data.
    pub fn get(&self, locator: &Locator) -> Result<Vec<u8>, ChunkError> {
        self.check_registered(locator)?;
        let bytes = self.read_frame_bytes(locator, 0, locator.len as usize + FRAME_OVERHEAD)?;
        let decoded = crate::frame::decode_frame_at(&bytes, 0, bytes.len())
            .map_err(|_| ChunkError::Corrupt(*locator))?;
        if decoded.uuid != locator.uuid || decoded.payload_len != locator.len as usize {
            coverage::hit("chunk.get.corrupt");
            return Err(ChunkError::Corrupt(*locator));
        }
        self.core.state.lock().stats.gets += 1;
        Ok(decoded.payload(&bytes).to_vec())
    }

    /// Reads the payload bytes `[off, off + len)` of a chunk without
    /// fetching the rest of its frame. Classifies errors exactly as
    /// [`ChunkStore::get`] does, and validates the frame header (magic,
    /// length, UUID) against the locator; only the trailing-UUID compare
    /// is skipped. That is sound for a *registered* chunk: the registry
    /// only admits frames that were written whole (at put) or
    /// scan-validated (at recovery), and the frame never carried a
    /// payload checksum — callers that need one bring their own.
    ///
    /// A range reaching past the payload is a typed
    /// [`IoError::OutOfRange`], never a read past the frame.
    pub fn get_range(&self, locator: &Locator, off: usize, len: usize) -> Result<Vec<u8>, ChunkError> {
        self.check_registered(locator)?;
        if off.checked_add(len).is_none_or(|end| end > locator.len as usize) {
            return Err(IoError::OutOfRange { extent: locator.extent, offset: off, len }.into());
        }
        // Payload first, header second: a header that still carries the
        // locator's (unique) UUID *after* the payload read proves no
        // reclamation reset and reused the space in between, so the bytes
        // above are this chunk's. The other order would leave a window.
        let bytes = self.read_frame_bytes(locator, FRAME_HEADER_LEN + off, len)?;
        let header = self.read_frame_bytes(locator, 0, FRAME_HEADER_LEN)?;
        if !frame_header_matches(&header, locator.len, locator.uuid) {
            coverage::hit("chunk.get_range.corrupt");
            return Err(ChunkError::Corrupt(*locator));
        }
        self.core.state.lock().stats.gets += 1;
        Ok(bytes)
    }

    /// Marks a chunk as probably-dead (a victim-selection hint; liveness
    /// is always re-established by the [`Referencer`] during reclamation).
    pub fn mark_dead(&self, locator: &Locator) {
        let mut st = self.core.state.lock();
        if let Some(meta) =
            st.registry.get_mut(&locator.extent.0).and_then(|per| per.get_mut(&locator.offset))
        {
            if meta.uuid == locator.uuid {
                meta.dead_hint = true;
            }
        }
    }

    /// Picks the best reclamation victim for a stream: the non-pinned
    /// extent with the most dead-hinted bytes (ties broken by lowest id).
    /// Returns `None` if nothing is worth reclaiming. The stream's open
    /// extent is a legitimate victim: reclamation marks it and concurrent
    /// puts re-target atomically.
    pub fn select_victim(&self, stream: Stream) -> Option<ExtentId> {
        let st = self.core.state.lock();
        let _ = stream;
        let mut best: Option<(u64, ExtentId)> = None;
        for ext in self.core.em.extents_owned_by(stream.owner()) {
            if st.pinned.contains_key(&ext.0) || st.reclaiming.contains(&ext.0) {
                continue;
            }
            let dead: u64 = st
                .registry
                .get(&ext.0)
                .map(|per| {
                    per.values()
                        .filter(|m| m.dead_hint)
                        .map(|m| m.len as u64 + FRAME_OVERHEAD as u64)
                        .sum()
                })
                .unwrap_or(0);
            if dead > 0 && best.map(|(b, _)| dead > b).unwrap_or(true) {
                best = Some((dead, ext));
            }
        }
        best.map(|(_, e)| e)
    }

    /// Reclaims an extent (§2.1): scans it, evacuates chunks the
    /// `referencer` still references, drops the rest, and resets the
    /// extent with a dependency on all evacuations and pointer updates.
    ///
    /// Returns `Ok(None)` if the extent is pinned or open (the fixed
    /// behaviour; with [`BugId::B11LocatorRace`] seeded pins do not exist,
    /// making this the race window).
    pub fn reclaim(
        &self,
        extent: ExtentId,
        stream: Stream,
        referencer: &dyn Referencer,
    ) -> Result<Option<ReclaimReport>, ChunkError> {
        if self.core.em.is_quarantined(extent) {
            // A dead extent cannot be scanned or reset; evacuation (and
            // eventual re-replication) is handled by
            // [`ChunkStore::evacuate_quarantined`], not GC.
            coverage::hit("chunk.reclaim.skipped_quarantined");
            return Ok(None);
        }
        {
            let mut st = self.core.state.lock();
            if st.pinned.contains_key(&extent.0) {
                coverage::hit("chunk.reclaim.skipped_pinned");
                return Ok(None);
            }
            // Exclude the victim from put targets: evacuations must never
            // land on the extent about to be reset.
            st.reclaiming.insert(extent.0);
            st.open.retain(|_, e| *e != extent);
        }
        let result = self.reclaim_inner(extent, stream, referencer);
        self.core.state.lock().reclaiming.remove(&extent.0);
        result
    }

    fn reclaim_inner(
        &self,
        extent: ExtentId,
        stream: Stream,
        referencer: &dyn Referencer,
    ) -> Result<Option<ReclaimReport>, ChunkError> {
        let write_ptr = self.core.em.write_pointer(extent);
        let page_size = self.core.em.scheduler().disk().geometry().page_size;
        let scan_result = if write_ptr == 0 {
            Vec::new()
        } else {
            match self.core.em.read(extent, 0, write_ptr) {
                Ok(buf) => scan_extent(&buf, write_ptr, page_size, &self.core.faults),
                Err(e) => {
                    if self.core.faults.is(BugId::B5ReclamationTransientError) {
                        // BUG B5 (seeded): a transient read error is
                        // treated as "extent empty", so every chunk on it
                        // is forgotten and the reset drops live data.
                        coverage::hit("chunk.reclaim.b5_swallowed_error");
                        Vec::new()
                    } else {
                        // Fixed: abort the pass; the extent is retried
                        // later.
                        coverage::hit("chunk.reclaim.aborted_io_error");
                        return Err(e.into());
                    }
                }
            }
        };
        let mut evacuated = 0usize;
        let mut dropped = 0usize;
        let mut deps: Vec<Dependency> = Vec::new();
        let mut guards: Vec<PutGuard> = Vec::new();
        for frame in &scan_result {
            let old = Locator {
                extent,
                offset: frame.offset as u32,
                len: frame.payload_len as u32,
                uuid: frame.uuid,
            };
            if referencer.is_live(&old) {
                coverage::hit("chunk.reclaim.evacuate");
                // Read through the registry-validating path.
                let payload = self.get(&old)?;
                let none = self.core.em.scheduler().none();
                let out = self.put(stream, &payload, &none)?;
                let ptr_dep = referencer.relocated(&old, &out.locator, &out.data_dep);
                {
                    let obs = self.core.em.scheduler().obs();
                    obs.registry().counter("chunk.relocations").inc();
                    obs.trace().event(TraceEvent::Relocation {
                        from_extent: old.extent.0,
                        to_extent: out.locator.extent.0,
                    });
                }
                deps.push(out.data_dep.clone());
                deps.push(ptr_dep);
                guards.push(out.guard);
                evacuated += 1;
            } else {
                coverage::hit("chunk.reclaim.drop");
                dropped += 1;
            }
        }
        // Reset: pointer to zero, dependent on every evacuation + pointer
        // update, plus the referencer's quiescence point (so a crash can
        // never recover to an index state referencing dropped chunks).
        // If the barrier cannot be produced at all, abort the pass before
        // the reset: the evacuated copies stay live and the old frames
        // become dead, so a later pass simply retries.
        match referencer.quiesce() {
            Ok(Some(q)) => deps.push(q),
            Ok(None) => {}
            Err(e) => {
                coverage::hit("chunk.reclaim.aborted_barrier");
                return Err(e);
            }
        }
        let barrier = self.core.em.scheduler().join(&deps);
        let reset_dep = self.core.em.reset(extent, &barrier);
        {
            let mut st = self.core.state.lock();
            st.registry.remove(&extent.0);
            // The reclaimed extent is no longer anyone's open extent.
            st.open.retain(|_, e| *e != extent);
            st.stats.reclaims += 1;
            st.stats.evacuated += evacuated as u64;
            st.stats.dropped += dropped as u64;
        }
        drop(guards);
        Ok(Some(ReclaimReport { extent, evacuated, dropped, reset_dep }))
    }

    /// Evacuates the still-live chunks of a *quarantined* extent to fresh
    /// extents. The dead extent cannot be read, so payloads come from the
    /// `lookup` callback (in practice the buffer cache — the only
    /// surviving local copy). Live chunks with no cached copy are
    /// *stranded*: their registry entries stay, and reads keep returning
    /// [`ChunkError::Degraded`] until a cross-node re-replication (out of
    /// scope here) restores them. Unreferenced chunks are dropped from
    /// the registry. The extent is never reset — it is dead, not free.
    pub fn evacuate_quarantined(
        &self,
        extent: ExtentId,
        stream: Stream,
        referencer: &dyn Referencer,
        lookup: &dyn Fn(&Locator) -> Option<Vec<u8>>,
    ) -> Result<EvacuationReport, ChunkError> {
        let chunks: Vec<Locator> = {
            let st = self.core.state.lock();
            st.registry
                .get(&extent.0)
                .map(|per| {
                    per.iter()
                        .map(|(off, m)| Locator {
                            extent,
                            offset: *off,
                            len: m.len,
                            uuid: m.uuid,
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut evacuated = 0usize;
        let mut stranded = 0usize;
        let mut dropped = 0usize;
        let mut deps: Vec<Dependency> = Vec::new();
        for old in chunks {
            if !referencer.is_live(&old) {
                if let Some(per) = self.core.state.lock().registry.get_mut(&extent.0) {
                    per.remove(&old.offset);
                }
                dropped += 1;
                continue;
            }
            match lookup(&old) {
                Some(payload) => {
                    coverage::hit("chunk.evacuate.from_cache");
                    let none = self.core.em.scheduler().none();
                    let out = self.put(stream, &payload, &none)?;
                    let ptr_dep = referencer.relocated(&old, &out.locator, &out.data_dep);
                    {
                        let obs = self.core.em.scheduler().obs();
                        obs.registry().counter("chunk.relocations").inc();
                        obs.trace().event(TraceEvent::Relocation {
                            from_extent: old.extent.0,
                            to_extent: out.locator.extent.0,
                        });
                    }
                    deps.push(out.data_dep.clone());
                    deps.push(ptr_dep);
                    drop(out.guard);
                    if let Some(per) = self.core.state.lock().registry.get_mut(&extent.0) {
                        per.remove(&old.offset);
                    }
                    evacuated += 1;
                }
                None => {
                    coverage::hit("chunk.evacuate.stranded");
                    stranded += 1;
                }
            }
        }
        {
            let mut st = self.core.state.lock();
            st.open.retain(|_, e| *e != extent);
            st.stats.evacuated += evacuated as u64;
        }
        let dep = self.core.em.scheduler().join(&deps);
        Ok(EvacuationReport { extent, evacuated, stranded, dropped, dep })
    }

    /// All live locators currently registered, in deterministic order
    /// (test/debug support).
    pub fn registered_locators(&self) -> Vec<Locator> {
        let st = self.core.state.lock();
        let mut out = Vec::new();
        for (ext, per) in &st.registry {
            for (off, meta) in per {
                out.push(Locator {
                    extent: ExtentId(*ext),
                    offset: *off,
                    len: meta.len,
                    uuid: meta.uuid,
                });
            }
        }
        out
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ChunkStats {
        self.core.state.lock().stats
    }

    /// The fault configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.core.faults
    }
}
