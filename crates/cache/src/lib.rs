//! The buffer cache: a byte-budgeted LRU over chunk payloads, wrapped
//! around the chunk store.
//!
//! Reads of hot chunks (LSM-tree lookups in particular) go through this
//! cache. Correctness obligations, both of which appear in the paper's
//! Fig. 5 bug catalog:
//!
//! - When an extent is reset (by reclamation), every cached chunk from
//!   that extent must be drained — issue #2 was a cache that was not
//!   correctly drained after a reset, serving stale data for dead
//!   locators ([`BugId::B2CacheNotDrained`] seeds it).
//! - Writes through the cache must carry the full dependency, including
//!   the soft-write-pointer superblock update — issue #8 was a write path
//!   that dropped that dependency, reporting persistence before the
//!   pointer covering the data was durable
//!   ([`BugId::B8MissingPointerDependency`] seeds it).
//!
//! The cache exposes [`coverage`] probes `cache.hit` / `cache.miss`; §8.3
//! of the paper recounts a bug that hid behind an oversized test cache
//! whose miss path was never exercised, which motivated exactly this kind
//! of coverage monitoring.
//!
//! Internally the cache is **sharded**: the byte budget is split across
//! independently locked segments selected by the locator's position hash,
//! so concurrent readers of different chunks do not serialize on one
//! lock. Small caches (the property-test configurations) collapse to a
//! single segment, preserving exact global-LRU semantics where tests
//! depend on them.

pub mod value;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use value::ValueBuf;

use shardstore_chunk::{ChunkError, ChunkStore, Locator, PutOutcome, ReclaimReport, Referencer, Stream};
use shardstore_conc::sync::Mutex;
use shardstore_dependency::Dependency;
use shardstore_faults::{coverage, BugId, FaultConfig};
use shardstore_obs::{Counter, Histogram, Obs, TraceEvent};
use shardstore_vdisk::ExtentId;

#[derive(Debug)]
struct Entry {
    payload: Arc<Vec<u8>>,
    last_use: u64,
}

/// Cache key: the chunk's position. Like a real block cache, entries are
/// keyed by *where* the data lives, not by which chunk identity wrote it —
/// which is why draining on extent reset is a hard correctness obligation
/// (issue #2): after a reset reuses the space, a stale entry at the same
/// position would be served for the new chunk.
type CacheKey = (u32, u32);

fn key_of(locator: &Locator) -> CacheKey {
    (locator.extent.0, locator.offset)
}

#[derive(Debug)]
struct CacheState {
    entries: BTreeMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
}

impl CacheState {
    fn empty() -> Self {
        Self { entries: BTreeMap::new(), bytes: 0, tick: 0 }
    }
}

/// Registry-backed metric handles for the cache. The registry (shared
/// through the scheduler's [`Obs`]) is the single source of truth: read
/// `cache.hits`, `cache.misses`, `cache.evictions` and `cache.drained`
/// there. The per-shard histograms record the *segment index* of each
/// hit/miss, so a snapshot exposes the hit distribution across shards
/// without a counter per segment.
#[derive(Debug, Clone)]
struct CacheCounters {
    obs: Obs,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    drained: Counter,
    shard_hits: Histogram,
    shard_misses: Histogram,
}

impl CacheCounters {
    fn new(obs: Obs) -> Self {
        let r = obs.registry();
        // One inclusive bucket per possible segment (the overflow bucket
        // catches MAX_SEGMENTS - 1).
        let shard_bounds: Vec<u64> = (0..MAX_SEGMENTS as u64 - 1).collect();
        Self {
            hits: r.counter("cache.hits"),
            misses: r.counter("cache.misses"),
            evictions: r.counter("cache.evictions"),
            drained: r.counter("cache.drained"),
            shard_hits: r.histogram("cache.shard_hits", &shard_bounds),
            shard_misses: r.histogram("cache.shard_misses", &shard_bounds),
            obs,
        }
    }
}

/// Smallest byte budget worth a dedicated segment: below this, sharding
/// would just fragment the LRU without reducing contention.
const MIN_SEGMENT_BYTES: usize = 4096;
/// Upper bound on segment count.
const MAX_SEGMENTS: usize = 16;

fn segment_count(capacity: usize) -> usize {
    (capacity / MIN_SEGMENT_BYTES).clamp(1, MAX_SEGMENTS)
}

/// A chunk store wrapped with an LRU payload cache.
///
/// Cheap to clone; all clones share the cache and the underlying store.
#[derive(Clone)]
pub struct CachedChunkStore {
    store: ChunkStore,
    faults: FaultConfig,
    capacity: usize,
    /// Per-segment byte budget (`capacity / segments.len()`).
    segment_capacity: usize,
    /// Independently locked LRU segments, selected by position hash.
    segments: Arc<[Mutex<CacheState>]>,
    counters: CacheCounters,
}

impl fmt::Debug for CachedChunkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (entries, bytes) = self.segments.iter().fold((0usize, 0usize), |(n, b), seg| {
            let st = seg.lock();
            (n + st.entries.len(), b + st.bytes)
        });
        f.debug_struct("CachedChunkStore")
            .field("entries", &entries)
            .field("bytes", &bytes)
            .field("capacity", &self.capacity)
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl CachedChunkStore {
    /// Wraps a chunk store with a cache holding at most `capacity` payload
    /// bytes, split across position-hashed segments. A zero capacity
    /// disables caching entirely.
    pub fn new(store: ChunkStore, faults: FaultConfig, capacity: usize) -> Self {
        let n = segment_count(capacity);
        let segments: Arc<[Mutex<CacheState>]> =
            (0..n).map(|_| Mutex::new(CacheState::empty())).collect::<Vec<_>>().into();
        let counters = CacheCounters::new(store.extent_manager().scheduler().obs());
        Self { store, faults, capacity, segment_capacity: capacity / n, segments, counters }
    }

    /// The wrapped chunk store.
    pub fn chunk_store(&self) -> &ChunkStore {
        &self.store
    }

    /// Number of independently locked cache segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn segment_index(&self, locator: &Locator) -> usize {
        locator.position_hash() as usize % self.segments.len()
    }

    fn segment(&self, locator: &Locator) -> &Mutex<CacheState> {
        &self.segments[self.segment_index(locator)]
    }

    fn insert(&self, locator: Locator, payload: Arc<Vec<u8>>) {
        if self.segment_capacity == 0 || payload.len() > self.segment_capacity {
            return;
        }
        let mut st = self.segment(&locator).lock();
        st.tick += 1;
        let tick = st.tick;
        st.bytes += payload.len();
        if let Some(old) = st.entries.insert(key_of(&locator), Entry { payload, last_use: tick })
        {
            st.bytes -= old.payload.len();
        }
        // Evict least-recently-used entries until within budget.
        while st.bytes > self.segment_capacity {
            let victim = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("over budget implies non-empty");
            let e = st.entries.remove(&victim).expect("victim present");
            st.bytes -= e.payload.len();
            self.counters.evictions.inc();
            self.counters
                .obs
                .trace()
                .event(TraceEvent::CacheEvict { extent: victim.0, offset: victim.1 });
            coverage::hit("cache.evict");
        }
    }

    /// Looks `locator` up in its segment, refreshing the entry's LRU
    /// position and recording the hit or miss (counters, per-shard
    /// histograms, trace).
    fn lookup(&self, locator: &Locator) -> Option<Arc<Vec<u8>>> {
        let seg_idx = self.segment_index(locator);
        let hit = self.cached(locator);
        let (extent, offset) = key_of(locator);
        if hit.is_some() {
            self.counters.hits.inc();
            self.counters.shard_hits.record(seg_idx as u64);
            self.counters.obs.trace().event(TraceEvent::CacheHit { extent, offset });
            coverage::hit("cache.hit");
        } else {
            self.counters.misses.inc();
            self.counters.shard_misses.record(seg_idx as u64);
            self.counters.obs.trace().event(TraceEvent::CacheMiss { extent, offset });
            coverage::hit("cache.miss");
        }
        hit
    }

    /// Reads a chunk payload, serving from the cache when possible.
    pub fn get(&self, locator: &Locator) -> Result<Arc<Vec<u8>>, ChunkError> {
        if let Some(payload) = self.lookup(locator) {
            return Ok(payload);
        }
        let payload = Arc::new(self.store.get(locator)?);
        self.insert(*locator, Arc::clone(&payload));
        Ok(payload)
    }

    /// Reads the payload bytes `[off, off + len)` of a chunk (see
    /// [`ChunkStore::get_range`]). A resident whole-chunk entry serves the
    /// range; a miss reads just the range from the store and does *not*
    /// populate the cache — entries are whole chunks, and the callers of
    /// ranged reads (the LSM's decoded-block cache) cache what they
    /// decode from the range themselves.
    pub fn get_range(&self, locator: &Locator, off: usize, len: usize) -> Result<Vec<u8>, ChunkError> {
        if let Some(payload) = self.lookup(locator) {
            if let Some(range) = off.checked_add(len).and_then(|end| payload.get(off..end)) {
                return Ok(range.to_vec());
            }
            // Out of range: fall through so the store reports the typed error.
        }
        self.store.get_range(locator, off, len)
    }

    /// Writes a chunk. The cache is a *read* cache (populated on get
    /// misses, like a plain block cache); writes go straight to the chunk
    /// store, whose IO scheduler already serves read-your-writes for
    /// pending data.
    pub fn put(
        &self,
        stream: Stream,
        payload: &[u8],
        dep: &Dependency,
    ) -> Result<PutOutcome, ChunkError> {
        let mut out = self.store.put(stream, payload, dep)?;
        if self.faults.is(BugId::B8MissingPointerDependency) {
            // BUG B8 (seeded): the cache's write path returned a dependency
            // missing the soft-write-pointer superblock update, so callers
            // observed persistence before the pointer covering the data
            // was durable — after a crash the data is beyond the recovered
            // write pointer and unreadable.
            out.dep = out.data_dep.clone();
        }
        Ok(out)
    }

    /// Writes several chunks as one group commit (see
    /// [`ChunkStore::put_batch`]). Like [`CachedChunkStore::put`], the
    /// cache itself is untouched — the batch goes straight to the chunk
    /// store's grouped write path.
    pub fn put_batch(
        &self,
        stream: Stream,
        payloads: &[&[u8]],
        dep: &Dependency,
    ) -> Result<Vec<PutOutcome>, ChunkError> {
        let mut outs = self.store.put_batch(stream, payloads, dep)?;
        if self.faults.is(BugId::B8MissingPointerDependency) {
            // BUG B8 (seeded): same missing-pointer-dependency defect as
            // the single-put path.
            for out in &mut outs {
                out.dep = out.data_dep.clone();
            }
        }
        Ok(outs)
    }

    /// Cache-only lookup: returns the cached payload without falling
    /// through to the chunk store. This is how degraded mode finds the
    /// last surviving local copy of a chunk whose extent was quarantined —
    /// the disk copy is unreadable, so a store fallthrough would only
    /// report the fault again.
    pub fn cached(&self, locator: &Locator) -> Option<Arc<Vec<u8>>> {
        let mut st = self.segment(locator).lock();
        st.tick += 1;
        let tick = st.tick;
        st.entries.get_mut(&key_of(locator)).map(|e| {
            e.last_use = tick;
            Arc::clone(&e.payload)
        })
    }

    /// Evacuates the live chunks of a quarantined extent (see
    /// [`ChunkStore::evacuate_quarantined`]), sourcing payloads from this
    /// cache. The quarantined extent is deliberately *not* drained: its
    /// cached entries are the only local copies of any stranded chunks,
    /// and the extent's space is never reused while quarantined, so the
    /// stale-read hazard that mandates draining after a reset (issue #2)
    /// does not exist here.
    pub fn evacuate_quarantined(
        &self,
        extent: ExtentId,
        stream: Stream,
        referencer: &dyn Referencer,
    ) -> Result<shardstore_chunk::EvacuationReport, ChunkError> {
        self.store.evacuate_quarantined(extent, stream, referencer, &|l: &Locator| {
            self.cached(l).map(|p| p.as_ref().clone())
        })
    }

    /// Invalidates a single cache entry (e.g. on delete).
    pub fn invalidate(&self, locator: &Locator) {
        let mut st = self.segment(locator).lock();
        if let Some(e) = st.entries.remove(&key_of(locator)) {
            st.bytes -= e.payload.len();
        }
    }

    /// Drops every cached chunk stored on `extent`. Must be called when
    /// the extent is reset. Entries from one extent hash to many segments
    /// (the hash covers the offset too), so every segment is swept.
    pub fn drain_extent(&self, extent: ExtentId) {
        for seg in self.segments.iter() {
            let mut st = seg.lock();
            let victims: Vec<CacheKey> =
                st.entries.keys().filter(|(e, _)| *e == extent.0).copied().collect();
            for v in victims {
                let e = st.entries.remove(&v).expect("listed key present");
                st.bytes -= e.payload.len();
                self.counters.drained.inc();
            }
        }
        coverage::hit("cache.drain_extent");
    }

    /// Reclaims an extent through the underlying chunk store, draining the
    /// cache for the reset extent (the fix for issue #2).
    pub fn reclaim(
        &self,
        extent: ExtentId,
        stream: Stream,
        referencer: &dyn Referencer,
    ) -> Result<Option<ReclaimReport>, ChunkError> {
        let report = self.store.reclaim(extent, stream, referencer)?;
        if report.is_some() {
            if self.faults.is(BugId::B2CacheNotDrained) {
                // BUG B2 (seeded): the cache is not drained after the
                // reset, so stale payloads are served for locators that no
                // longer exist on disk.
                coverage::hit("cache.b2_skip_drain");
            } else {
                self.drain_extent(extent);
            }
        }
        Ok(report)
    }

    /// Drops the entire cache (e.g. on dirty reboot simulation, since the
    /// cache is volatile state).
    pub fn clear(&self) {
        for seg in self.segments.iter() {
            let mut st = seg.lock();
            st.entries.clear();
            st.bytes = 0;
        }
    }

    /// Current cached byte total, summed across segments.
    pub fn cached_bytes(&self) -> usize {
        self.segments.iter().map(|seg| seg.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use shardstore_dependency::IoScheduler;
    use shardstore_superblock::ExtentManager;
    use shardstore_vdisk::{Disk, Geometry};

    use super::*;

    fn setup(capacity: usize, faults: FaultConfig) -> CachedChunkStore {
        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(disk);
        let em = ExtentManager::format(sched, faults.clone());
        let cs = ChunkStore::new(em, faults.clone(), 7);
        CachedChunkStore::new(cs, faults, capacity)
    }

    fn pump(c: &CachedChunkStore) {
        c.chunk_store().extent_manager().pump().unwrap();
    }

    /// Reads a `cache.*` counter from the shared registry.
    fn counter(c: &CachedChunkStore, name: &str) -> u64 {
        c.chunk_store().extent_manager().scheduler().obs().registry().counter(name).get()
    }

    #[test]
    fn second_get_is_a_hit() {
        let c = setup(1024, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"cached", &none).unwrap();
        pump(&c);
        assert_eq!(*c.get(&out.locator).unwrap(), b"cached");
        assert_eq!(*c.get(&out.locator).unwrap(), b"cached");
        assert_eq!(counter(&c, "cache.misses"), 1);
        assert_eq!(counter(&c, "cache.hits"), 1);
    }

    #[test]
    fn put_does_not_populate_the_read_cache() {
        let c = setup(1024, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"fresh", &none).unwrap();
        pump(&c);
        assert_eq!(c.cached_bytes(), 0);
        // First read misses (and populates), second hits.
        assert_eq!(*c.get(&out.locator).unwrap(), b"fresh");
        assert_eq!(counter(&c, "cache.misses"), 1);
        assert_eq!(*c.get(&out.locator).unwrap(), b"fresh");
        assert_eq!(counter(&c, "cache.hits"), 1);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let c = setup(100, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let outs: Vec<_> =
            (0..8u8).map(|i| c.put(Stream::Data, &[i; 40], &none).unwrap()).collect();
        for out in &outs {
            c.get(&out.locator).unwrap();
        }
        assert!(c.cached_bytes() <= 100);
        assert!(counter(&c, "cache.evictions") > 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = setup(100, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let a = c.put(Stream::Data, &[1u8; 40], &none).unwrap();
        let b = c.put(Stream::Data, &[2u8; 40], &none).unwrap();
        pump(&c);
        c.get(&a.locator).unwrap();
        c.get(&b.locator).unwrap();
        // Touch `a` so `b` is the LRU, then populate a third entry to
        // force one eviction.
        c.get(&a.locator).unwrap();
        let d = c.put(Stream::Data, &[3u8; 40], &none).unwrap();
        c.get(&d.locator).unwrap();
        let (hits, misses) = (counter(&c, "cache.hits"), counter(&c, "cache.misses"));
        c.get(&a.locator).unwrap(); // still cached
        c.get(&b.locator).unwrap(); // evicted → miss
        assert_eq!(counter(&c, "cache.hits") - hits, 1);
        assert_eq!(counter(&c, "cache.misses") - misses, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = setup(0, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"raw", &none).unwrap();
        pump(&c);
        c.get(&out.locator).unwrap();
        c.get(&out.locator).unwrap();
        assert_eq!(counter(&c, "cache.hits"), 0);
        assert_eq!(counter(&c, "cache.misses"), 2);
    }

    #[test]
    fn drain_after_reclaim_prevents_stale_reads() {
        let c = setup(4096, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        // Unreferenced chunk: reclamation drops it and resets the extent.
        let out = c.put(Stream::Data, b"doomed", &none).unwrap();
        pump(&c);
        c.get(&out.locator).unwrap(); // populate the read cache
        drop(out.guard);
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
        c.reclaim(out.locator.extent, Stream::Data, &NoneLive).unwrap().unwrap();
        // Fixed cache: the stale entry is gone; the get fails cleanly.
        assert!(c.get(&out.locator).is_err());
    }

    #[test]
    fn b2_seeded_cache_serves_stale_data_after_reclaim() {
        let c = setup(4096, FaultConfig::seed(BugId::B2CacheNotDrained));
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"stale!", &none).unwrap();
        pump(&c);
        c.get(&out.locator).unwrap(); // populate the read cache
        drop(out.guard);
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
        c.reclaim(out.locator.extent, Stream::Data, &NoneLive).unwrap().unwrap();
        // The buggy cache still serves the dead chunk.
        assert_eq!(*c.get(&out.locator).unwrap(), b"stale!");
        // The underlying store agrees it is gone.
        assert!(c.chunk_store().get(&out.locator).is_err());
    }

    #[test]
    fn b8_seeded_put_dependency_misses_pointer_update() {
        use shardstore_vdisk::CrashPlan;
        let c = setup(1024, FaultConfig::seed(BugId::B8MissingPointerDependency));
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"early", &none).unwrap();
        // Issue and flush only the data write, not the superblock update:
        // the buggy dependency claims persistence.
        let sched = c.chunk_store().extent_manager().scheduler().clone();
        sched.issue_ready(1).unwrap();
        sched.flush_issued().unwrap();
        assert!(out.dep.is_persistent(), "buggy dep persists without the pointer update");
        // Crash: after recovery the write pointer does not cover the data.
        sched.crash(&CrashPlan::LoseAll);
        let em2 = ExtentManager::recover(sched, FaultConfig::none()).unwrap();
        assert_eq!(em2.write_pointer(out.locator.extent), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let c = setup(1024, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, b"x", &none).unwrap();
        pump(&c);
        c.get(&out.locator).unwrap();
        assert!(c.cached_bytes() > 0);
        c.clear();
        assert_eq!(c.cached_bytes(), 0);
    }

    #[test]
    fn oversized_payload_is_not_cached() {
        let c = setup(10, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let out = c.put(Stream::Data, &[9u8; 50], &none).unwrap();
        pump(&c);
        assert_eq!(c.cached_bytes(), 0);
        assert_eq!(*c.get(&out.locator).unwrap(), vec![9u8; 50]);
        assert_eq!(counter(&c, "cache.misses"), 1);
    }

    #[test]
    fn get_range_serves_resident_chunks_and_never_populates() {
        let c = setup(1024, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let payload: Vec<u8> = (0..200u8).collect();
        let out = c.put(Stream::Data, &payload, &none).unwrap();
        pump(&c);
        let disk = c.chunk_store().extent_manager().scheduler().disk().clone();
        // Miss: the range comes off the disk and the cache stays empty.
        assert_eq!(c.get_range(&out.locator, 50, 20).unwrap(), &payload[50..70]);
        assert_eq!(counter(&c, "cache.misses"), 1);
        assert_eq!(c.cached_bytes(), 0);
        // A whole-chunk get makes the chunk resident; ranges are then
        // sliced from it without touching the disk.
        c.get(&out.locator).unwrap();
        let reads = disk.stats().reads;
        assert_eq!(c.get_range(&out.locator, 150, 50).unwrap(), &payload[150..]);
        assert_eq!(disk.stats().reads, reads);
        assert_eq!(counter(&c, "cache.hits"), 1);
        // Out of range is the store's typed error on hit and miss alike.
        assert!(c.get_range(&out.locator, 150, 51).is_err());
        c.clear();
        assert!(c.get_range(&out.locator, 150, 51).is_err());
    }

    #[test]
    fn segment_count_scales_with_capacity() {
        assert_eq!(segment_count(0), 1);
        assert_eq!(segment_count(512), 1);
        assert_eq!(segment_count(8192), 2);
        assert_eq!(segment_count(1 << 20), MAX_SEGMENTS);
        let c = setup(1 << 20, FaultConfig::none());
        assert_eq!(c.segment_count(), MAX_SEGMENTS);
        let c = setup(512, FaultConfig::none());
        assert_eq!(c.segment_count(), 1);
    }

    #[test]
    fn sharded_cache_aggregates_stats_and_bytes() {
        let c = setup(1 << 20, FaultConfig::none());
        assert!(c.segment_count() > 1);
        let none = c.chunk_store().extent_manager().scheduler().none();
        let outs: Vec<_> =
            (0..20u8).map(|i| c.put(Stream::Data, &[i; 30], &none).unwrap()).collect();
        pump(&c);
        for out in &outs {
            c.get(&out.locator).unwrap(); // miss + populate
        }
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(*c.get(&out.locator).unwrap(), vec![i as u8; 30]);
        }
        assert_eq!(counter(&c, "cache.misses"), 20);
        assert_eq!(counter(&c, "cache.hits"), 20);
        assert_eq!(c.cached_bytes(), 20 * 30);
        // Entries landed in more than one segment.
        let used: std::collections::BTreeSet<usize> = outs
            .iter()
            .map(|o| o.locator.position_hash() as usize % c.segment_count())
            .collect();
        assert!(used.len() > 1, "position hash spread entries across segments");
    }

    #[test]
    fn sharded_drain_sweeps_every_segment() {
        let c = setup(1 << 20, FaultConfig::none());
        let none = c.chunk_store().extent_manager().scheduler().none();
        let outs: Vec<_> =
            (0..10u8).map(|i| c.put(Stream::Data, &[i; 25], &none).unwrap()).collect();
        pump(&c);
        for out in &outs {
            c.get(&out.locator).unwrap();
        }
        assert!(c.cached_bytes() > 0);
        // Draining every extent the puts landed on must empty the share of
        // every segment, not just the first one.
        let extents: std::collections::BTreeSet<_> =
            outs.iter().map(|o| o.locator.extent).collect();
        for extent in extents {
            c.drain_extent(extent);
        }
        assert_eq!(c.cached_bytes(), 0);
        assert_eq!(counter(&c, "cache.drained"), 10);
    }
}
