//! The per-disk key-value store: ShardStore's API layer (§2 of the paper).
//!
//! Each disk is an isolated failure domain running an independent
//! key-value store. A store assembles the full substrate stack — virtual
//! disk, IO scheduler, extent manager/superblock, chunk store, buffer
//! cache, LSM index — and exposes the request-plane API (`put`, `get`,
//! `delete`) plus maintenance entry points (index flush, compaction,
//! chunk reclamation) and lifecycle operations (clean shutdown, recovery
//! after a dirty reboot).
//!
//! A `put` builds exactly the dependency graph of Fig. 2: the shard data
//! is chunked and written to data extents; the index entry is recorded in
//! the LSM tree (a promise sealed by the next flush, which also writes the
//! LSM metadata); every append additionally folds a soft-write-pointer
//! update into the pending superblock write. The returned [`Dependency`]
//! persists only when all of it has.

use std::fmt;
use std::sync::Arc;

use shardstore_cache::{CachedChunkStore, ValueBuf};
use shardstore_chunk::{ChunkError, ChunkStore, Stream};
use shardstore_conc::sync::Mutex;
use shardstore_dependency::{Dependency, IoScheduler};
use shardstore_faults::{coverage, FaultConfig};
use shardstore_lsm::{LsmError, LsmIndex};
use shardstore_obs::{Obs, OpKind, TraceEvent};
use shardstore_superblock::{ExtentError, ExtentManager, Owner};
use shardstore_vdisk::{Disk, Geometry};

/// Store-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Chunk layer failure.
    Chunk(ChunkError),
    /// Index layer failure.
    Lsm(LsmError),
    /// Extent layer failure.
    Extent(ExtentError),
    /// The store is out of service (disk removed by the control plane).
    OutOfService,
    /// The storage backend failed outside the modelled fault space: the
    /// volume file could not be created, opened, or validated.
    Backend(shardstore_vdisk::IoError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Chunk(e) => write!(f, "chunk: {e}"),
            StoreError::Lsm(e) => write!(f, "index: {e}"),
            StoreError::Extent(e) => write!(f, "extent: {e}"),
            StoreError::OutOfService => write!(f, "store out of service"),
            StoreError::Backend(e) => write!(f, "backend: {e}"),
        }
    }
}

impl StoreError {
    /// True if this error reports *degraded* data — present but
    /// unreachable because its extent was quarantined after a permanent
    /// fault — rather than data that never existed. Callers (and the
    /// validation harness) use this to distinguish honest unavailability
    /// from a lost write.
    pub fn is_degraded(&self) -> bool {
        match self {
            StoreError::Chunk(e) => e.is_degraded(),
            StoreError::Lsm(e) => e.is_degraded(),
            StoreError::Extent(e) => matches!(e, ExtentError::Quarantined { .. }),
            StoreError::OutOfService => false,
            StoreError::Backend(_) => false,
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ChunkError> for StoreError {
    fn from(e: ChunkError) -> Self {
        StoreError::Chunk(e)
    }
}

impl From<LsmError> for StoreError {
    fn from(e: LsmError) -> Self {
        StoreError::Lsm(e)
    }
}

impl From<ExtentError> for StoreError {
    fn from(e: ExtentError) -> Self {
        StoreError::Extent(e)
    }
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Storage backend used by [`Store::format`] for the fresh disk.
    /// Defaults to [`BackendKind::from_env`], so exporting
    /// `SHARDSTORE_BACKEND=file` points whole suites at real storage.
    pub backend: crate::config::BackendKind,
    /// Maximum chunk payload size; larger shards are split across chunks.
    pub max_chunk_size: usize,
    /// Memtable entry count that triggers an automatic index flush.
    pub flush_threshold: usize,
    /// Buffer-cache capacity in bytes. The paper's §8.3 recounts a bug
    /// that hid behind an oversized test cache — keep this small in
    /// property-based tests so the miss path stays covered.
    pub cache_capacity: usize,
    /// Deterministic seed for chunk UUID generation.
    pub uuid_seed: u64,
    /// Decoded-table cache capacity (in tables, at least 1).
    pub decoded_cache_tables: usize,
    /// Key-hashed memtable shard count (clamped to at least 1). `1`
    /// reproduces the old single-lock memtable for ablation.
    pub memtable_shards: usize,
    /// Live-table count at which an automatic flush also schedules a
    /// compaction round (size-tiered, bounded per round). Explicit
    /// `compact_index` calls ignore this trigger.
    pub compaction_trigger_tables: usize,
    /// Max entries per block in format-v2 SSTables (clamped to at
    /// least 1). Point gets decode one block; smaller blocks mean less
    /// decoded per get but more fence-index overhead.
    pub block_size: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            backend: crate::config::BackendKind::from_env(),
            max_chunk_size: 4096,
            flush_threshold: 64,
            cache_capacity: 1 << 20,
            uuid_seed: 1,
            decoded_cache_tables: 8,
            memtable_shards: 8,
            compaction_trigger_tables: 8,
            block_size: 16,
        }
    }
}

impl StoreConfig {
    /// A configuration sized for the small test geometry: chunks split at
    /// sub-page sizes, early flushes, and small caches (payload *and*
    /// decoded-table) so that eviction and miss paths are reachable.
    pub fn small() -> Self {
        Self {
            backend: crate::config::BackendKind::from_env(),
            max_chunk_size: 96,
            flush_threshold: 6,
            cache_capacity: 512,
            uuid_seed: 1,
            decoded_cache_tables: 2,
            // Two shards: enough to exercise the cross-shard merge paths
            // without multiplying checker scheduling points.
            memtable_shards: 2,
            // Low trigger and tiny blocks so tests reach multi-round
            // compaction and block-boundary paths quickly.
            compaction_trigger_tables: 4,
            block_size: 4,
        }
    }

    fn lsm_config(&self) -> shardstore_lsm::LsmConfig {
        shardstore_lsm::LsmConfig {
            decoded_cache_tables: self.decoded_cache_tables,
            memtable_shards: self.memtable_shards,
            compaction_trigger_tables: self.compaction_trigger_tables,
            block_size: self.block_size,
        }
    }
}

/// One per-disk ShardStore key-value store. Cheap to clone.
#[derive(Clone)]
pub struct Store {
    index: LsmIndex,
    faults: FaultConfig,
    config: StoreConfig,
    in_service: Arc<Mutex<bool>>,
    /// Quarantined extents whose evacuation has already run (evacuation
    /// is one-shot per extent; stranded chunks stay degraded).
    evacuated: Arc<Mutex<std::collections::BTreeSet<u32>>>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store").field("index", &self.index).finish()
    }
}

impl Store {
    /// Formats a fresh store on a newly created disk, with the backend
    /// chosen by `config.backend`. Panics if the file backend cannot set
    /// up its volume file — use [`Store::try_format`] where a typed error
    /// is needed.
    pub fn format(geometry: Geometry, config: StoreConfig, faults: FaultConfig) -> Self {
        Self::try_format(geometry, config, faults).expect("store format failed")
    }

    /// Formats a fresh store, surfacing backend setup failures as
    /// [`StoreError::Backend`] instead of panicking.
    pub fn try_format(
        geometry: Geometry,
        config: StoreConfig,
        faults: FaultConfig,
    ) -> Result<Self, StoreError> {
        let disk = Self::create_disk(geometry, &config)?;
        let sched = IoScheduler::new(disk);
        Ok(Self::format_on(sched, config, faults))
    }

    /// Formats onto a caller-provided scheduler — the entry point for
    /// booting on a disk the caller constructed itself, e.g. one opened
    /// over a named volume file that must outlive the store.
    pub fn format_on(sched: IoScheduler, config: StoreConfig, faults: FaultConfig) -> Self {
        let em = ExtentManager::format(sched, faults.clone());
        let cs = ChunkStore::new(em, faults.clone(), config.uuid_seed);
        let cache = CachedChunkStore::new(cs, faults.clone(), config.cache_capacity);
        let index = LsmIndex::with_config(cache, faults.clone(), config.lsm_config());
        Self {
            index,
            faults,
            config,
            in_service: Arc::new(Mutex::new(true)),
            evacuated: Arc::new(Mutex::new(std::collections::BTreeSet::new())),
        }
    }

    /// Creates the disk `config.backend` asks for. File volumes are
    /// store-managed scratch files (unique name, unlinked on drop) under
    /// the configured directory.
    fn create_disk(
        geometry: Geometry,
        config: &StoreConfig,
    ) -> Result<Arc<Disk>, StoreError> {
        match &config.backend {
            crate::config::BackendKind::Memory => Ok(Disk::new(geometry)),
            crate::config::BackendKind::File { dir, preallocate } => {
                if shardstore_conc::is_controlled() {
                    // The one guard between a config and real IO under the
                    // checker: a checked execution stays off the filesystem
                    // even when the env var or an explicit config asks for
                    // real storage. Schedule exploration and crash
                    // enumeration only have their exhaustiveness guarantees
                    // over the in-memory backend.
                    coverage::hit("store.backend.checker_fallback");
                    return Ok(Disk::new(geometry));
                }
                std::fs::create_dir_all(dir).map_err(|e| {
                    StoreError::Backend(shardstore_vdisk::IoError::Backend {
                        detail: format!("create volume dir {}: {e}", dir.display()),
                    })
                })?;
                use std::sync::atomic::{AtomicU64, Ordering};
                static VOLUME_SEQ: AtomicU64 = AtomicU64::new(0);
                let seq = VOLUME_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("vol-{}-{seq}.ssvol", std::process::id()));
                Disk::create_file(path, geometry, *preallocate, true).map_err(StoreError::Backend)
            }
        }
    }

    /// Recovers a store from an existing disk after a reboot (clean or
    /// dirty): superblock → chunk registry scan → LSM metadata. On a
    /// file-backed disk the wall-clock cost of scanning real bytes is
    /// recorded into the disk's stats (`recovery_scan_ms`); the in-memory
    /// path stays clock-free so checked executions remain deterministic.
    pub fn recover(
        sched: IoScheduler,
        config: StoreConfig,
        faults: FaultConfig,
    ) -> Result<Self, StoreError> {
        let obs = sched.obs();
        obs.trace().event(TraceEvent::RecoveryStart);
        let timed = sched.disk().backend_kind() == "file";
        let res = if timed {
            let (res, ms) =
                shardstore_obs::walltime::time_ms(|| Self::recover_inner(sched.clone(), config, faults));
            sched.disk().note_recovery_scan_ms(ms);
            res
        } else {
            Self::recover_inner(sched, config, faults)
        };
        obs.trace().event(TraceEvent::RecoveryEnd { ok: res.is_ok() });
        res
    }

    fn recover_inner(
        sched: IoScheduler,
        config: StoreConfig,
        faults: FaultConfig,
    ) -> Result<Self, StoreError> {
        let em = ExtentManager::recover(sched, faults.clone())?;
        let cs = ChunkStore::recover(em, faults.clone(), config.uuid_seed)?;
        let cache = CachedChunkStore::new(cs, faults.clone(), config.cache_capacity);
        let index = LsmIndex::recover_with_config(cache, faults.clone(), config.lsm_config())?;
        coverage::hit("store.recovered");
        Ok(Self {
            index,
            faults,
            config,
            in_service: Arc::new(Mutex::new(true)),
            evacuated: Arc::new(Mutex::new(std::collections::BTreeSet::new())),
        })
    }

    /// The store's IO scheduler (for pumping, crash injection, and
    /// dependency construction in tests).
    pub fn scheduler(&self) -> IoScheduler {
        self.index.cache().chunk_store().extent_manager().scheduler().clone()
    }

    /// The store's observability handle (metrics registry + trace log),
    /// shared by every layer of the stack down to the virtual disk.
    pub fn obs(&self) -> Obs {
        self.index.cache().chunk_store().extent_manager().scheduler().obs()
    }

    /// The LSM index.
    pub fn index(&self) -> &LsmIndex {
        &self.index
    }

    /// The cached chunk store.
    pub fn cache(&self) -> &CachedChunkStore {
        self.index.cache()
    }

    /// Drops every volatile read cache: the payload cache and the index's
    /// decoded-table cache. Harnesses use this to model cache loss; both
    /// caches must be safe to lose at any moment.
    pub fn drop_caches(&self) {
        self.cache().clear();
        self.index.drop_decoded_cache();
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config.clone()
    }

    /// The fault configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    fn check_service(&self) -> Result<(), StoreError> {
        if *self.in_service.lock() {
            Ok(())
        } else {
            Err(StoreError::OutOfService)
        }
    }

    /// Marks the store out of service (control-plane disk removal).
    pub fn set_in_service(&self, on: bool) {
        *self.in_service.lock() = on;
    }

    /// Stores a shard. Returns a dependency that persists once the data
    /// chunks, the index entry, and the covering superblock updates are
    /// all durable (Fig. 2's graph for one put).
    pub fn put(&self, shard: u128, data: &[u8]) -> Result<Dependency, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Put, shard);
        let res = self.put_inner(shard, data, op, &obs);
        obs.end_op(op, res.is_ok());
        res
    }

    fn put_inner(
        &self,
        shard: u128,
        data: &[u8],
        op: u64,
        obs: &Obs,
    ) -> Result<Dependency, StoreError> {
        self.check_service()?;
        let none = self.scheduler().none();
        let mut locators = Vec::new();
        let mut deps = Vec::new();
        let mut data_deps = Vec::new();
        let mut guards = Vec::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]]
        } else {
            data.chunks(self.config.max_chunk_size.max(1)).collect()
        };
        if chunks.len() > 1 {
            coverage::hit("store.put.multi_chunk");
        }
        for piece in chunks {
            let out = self.cache().put(Stream::Data, piece, &none)?;
            locators.push(out.locator);
            deps.push(out.dep);
            data_deps.push(out.data_dep);
            // Pin each chunk's extent until the index references it (the
            // issue #11 fix at the API layer).
            guards.push(out.guard);
        }
        // An overwrite orphans the previous value's chunks: hint them
        // dead so reclamation can prioritize their extents. The hint is
        // best-effort — a degraded index read must not fail the write.
        match self.index.get(shard) {
            Ok(Some(old)) => {
                for locator in &old {
                    self.cache().chunk_store().mark_dead(locator);
                }
            }
            Ok(None) => {}
            Err(e) if e.is_degraded() => {}
            Err(e) => return Err(e.into()),
        }
        let data_dep = self.scheduler().join(&data_deps);
        let index_dep = self.index.put(shard, locators, data_dep);
        drop(guards);
        deps.push(index_dep);
        let dep = self.scheduler().join(&deps);
        // Announce the op's data-write nodes and its returned durability
        // handle so the acked-durability oracle can link a later ack back
        // to the writes it promises.
        let nodes: Vec<u64> = data_deps.iter().filter_map(Dependency::trace_node).collect();
        obs.trace().event(TraceEvent::OpWrites { op, nodes });
        if let Some(n) = dep.trace_node() {
            obs.trace().event(TraceEvent::OpReturn { op, dep: n });
        }
        self.maybe_flush()?;
        Ok(dep)
    }

    /// Stores several shards as one group commit. All elements' data
    /// chunks go down as a single grouped batch — one shared superblock
    /// pointer update, contiguous frames coalesced into fewer disk IOs —
    /// then each element's index entry is recorded individually. The
    /// batch is atomic *per element*, exactly as if the puts had run back
    /// to back (later duplicates of a key overwrite earlier ones); it is
    /// never all-or-nothing across elements. Returns one durability
    /// dependency per element, in input order.
    pub fn put_batch(&self, shards: &[(u128, Vec<u8>)]) -> Result<Vec<Dependency>, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::PutBatch, 0);
        let res = self.put_batch_inner(shards, &obs);
        obs.end_op(op, res.is_ok());
        res
    }

    fn put_batch_inner(
        &self,
        shards: &[(u128, Vec<u8>)],
        obs: &Obs,
    ) -> Result<Vec<Dependency>, StoreError> {
        self.check_service()?;
        if shards.is_empty() {
            return Ok(Vec::new());
        }
        let none = self.scheduler().none();
        let max = self.config.max_chunk_size.max(1);
        // Chunk every element up front, remembering how many pieces each
        // contributed so the grouped outcomes can be handed back out.
        let mut pieces: Vec<&[u8]> = Vec::new();
        let mut counts: Vec<usize> = Vec::with_capacity(shards.len());
        for (_, data) in shards {
            let before = pieces.len();
            if data.is_empty() {
                pieces.push(&[][..]);
            } else {
                pieces.extend(data.chunks(max));
            }
            counts.push(pieces.len() - before);
        }
        coverage::hit("store.put_batch");
        let mut outs = self.cache().put_batch(Stream::Data, &pieces, &none)?.into_iter();
        let mut deps_out = Vec::with_capacity(shards.len());
        for ((shard, _), n) in shards.iter().zip(counts) {
            // Each element gets its own span: the batch is atomic per
            // element, so the oracles treat each as an independent put.
            let elem_op = obs.begin_op(OpKind::Put, *shard);
            let mut locators = Vec::with_capacity(n);
            let mut deps = Vec::with_capacity(n + 1);
            let mut data_deps = Vec::with_capacity(n);
            let mut guards = Vec::with_capacity(n);
            for _ in 0..n {
                let out = outs.next().expect("one outcome per piece");
                locators.push(out.locator);
                deps.push(out.dep);
                data_deps.push(out.data_dep);
                guards.push(out.guard);
            }
            match self.index.get(*shard) {
                Ok(Some(old)) => {
                    for locator in &old {
                        self.cache().chunk_store().mark_dead(locator);
                    }
                }
                Ok(None) => {}
                Err(e) if e.is_degraded() => {}
                Err(e) => {
                    obs.end_op(elem_op, false);
                    return Err(e.into());
                }
            }
            let data_dep = self.scheduler().join(&data_deps);
            let index_dep = self.index.put(*shard, locators, data_dep);
            drop(guards);
            deps.push(index_dep);
            let dep = self.scheduler().join(&deps);
            let nodes: Vec<u64> = data_deps.iter().filter_map(Dependency::trace_node).collect();
            obs.trace().event(TraceEvent::OpWrites { op: elem_op, nodes });
            if let Some(nid) = dep.trace_node() {
                obs.trace().event(TraceEvent::OpReturn { op: elem_op, dep: nid });
            }
            obs.end_op(elem_op, true);
            deps_out.push(dep);
        }
        self.maybe_flush()?;
        Ok(deps_out)
    }

    /// Reads a shard as owned contiguous bytes. Returns `None` for absent
    /// shards; corruption is always detected and surfaced as an error,
    /// never as wrong data. The copy-based compatibility wrapper over
    /// [`Store::get_value`] — new callers should prefer the zero-copy
    /// handle.
    pub fn get(&self, shard: u128) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.get_value(shard)?.map(|v| v.to_vec()))
    }

    /// Reads a shard as a zero-copy [`ValueBuf`]: the returned handle
    /// shares the cache's payload buffers instead of copying them, so a
    /// warm get performs zero value memcpys.
    ///
    /// Like the index, the data-chunk read is optimistic against
    /// concurrent reclamation: if a chunk read fails and the index entry
    /// has moved in the meantime (its chunks were relocated), the read is
    /// retried against the fresh locators.
    pub fn get_value(&self, shard: u128) -> Result<Option<ValueBuf>, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Get, shard);
        let res = self.get_value_inner(shard);
        obs.end_op(op, res.is_ok());
        res
    }

    fn get_value_inner(&self, shard: u128) -> Result<Option<ValueBuf>, StoreError> {
        self.check_service()?;
        loop {
            let Some(locators) = self.index.get(shard)? else {
                return Ok(None);
            };
            match self.read_value(&locators) {
                Ok(value) => return Ok(Some(value)),
                Err(e) => {
                    if e.is_degraded() {
                        // A quarantine surfaced on this read path.
                        // Evacuate what the cache still holds — it may
                        // re-home this very chunk (rewiring the index),
                        // and helps every other key on the extent either
                        // way.
                        self.evacuate_pending()?;
                    }
                    let now = self.index.get(shard)?;
                    if now.as_ref() != Some(&locators) {
                        coverage::hit("store.get.retry_relocated");
                        continue;
                    }
                    return Err(e.into());
                }
            }
        }
    }

    // HOT-PATH-BEGIN(store-read): the certified zero-copy read path. The
    // guard script (scripts/check_hot_path.sh) asserts no value bytes are
    // copied here — cache payloads are shared into the ValueBuf, never
    // `extend_from_slice`d or `to_vec`d.
    /// Assembles a value from its chunks by collecting the cache's shared
    /// payload handles.
    fn read_value(&self, locators: &[shardstore_chunk::Locator]) -> Result<ValueBuf, ChunkError> {
        let mut value = ValueBuf::new();
        for locator in locators {
            value.push_segment(self.cache().get(locator)?);
        }
        Ok(value)
    }
    // HOT-PATH-END(store-read)

    /// Ordered range scan: every present shard in the inclusive range
    /// `[start, end]` with its value, ascending by key.
    ///
    /// The key set and per-key locators are pinned by the index's
    /// snapshot-consistent [`LsmIndex::scan`] at scan start; values are
    /// then resolved through the same optimistic relocation retry as
    /// [`Store::get_value`]. A key whose chunks are degraded surfaces the
    /// error — a scan never silently skips a key it cannot read. A key
    /// deleted *after* the snapshot may be dropped from the result (the
    /// scan linearizes per key against concurrent writers, like
    /// back-to-back gets would).
    pub fn scan(&self, start: u128, end: u128) -> Result<Vec<(u128, ValueBuf)>, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Scan, start);
        let res = self.scan_inner(start, end);
        obs.end_op(op, res.is_ok());
        res
    }

    fn scan_inner(&self, start: u128, end: u128) -> Result<Vec<(u128, ValueBuf)>, StoreError> {
        self.check_service()?;
        let entries = self.index.scan(start, end)?;
        let mut out = Vec::with_capacity(entries.len());
        for (key, mut locators) in entries {
            loop {
                match self.read_value(&locators) {
                    Ok(value) => {
                        out.push((key, value));
                        break;
                    }
                    Err(e) => {
                        if e.is_degraded() {
                            self.evacuate_pending()?;
                        }
                        match self.index.get(key)? {
                            Some(now) if now != locators => {
                                coverage::hit("store.scan.retry_relocated");
                                locators = now;
                            }
                            None => {
                                // Deleted while the scan resolved values:
                                // the key leaves the page rather than
                                // surfacing a phantom error.
                                coverage::hit("store.scan.raced_delete");
                                break;
                            }
                            Some(_) => return Err(e.into()),
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Deletes a shard. Returns the tombstone's durability dependency.
    ///
    /// Dead chunks are only *hinted* dead for reclamation; their cache
    /// entries are left alone — a deleted locator is never read again
    /// through the index, and reclamation drains the cache when it resets
    /// an extent (the invariant issue #2 violated).
    pub fn delete(&self, shard: u128) -> Result<Dependency, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Delete, shard);
        let res = self.delete_inner(shard, op, &obs);
        obs.end_op(op, res.is_ok());
        res
    }

    fn delete_inner(
        &self,
        shard: u128,
        op: u64,
        obs: &Obs,
    ) -> Result<Dependency, StoreError> {
        self.check_service()?;
        match self.index.get(shard) {
            Ok(Some(locators)) => {
                for locator in &locators {
                    self.cache().chunk_store().mark_dead(locator);
                }
            }
            Ok(None) => {}
            Err(e) if e.is_degraded() => {}
            Err(e) => return Err(e.into()),
        }
        let dep = self.index.delete(shard);
        if let Some(n) = dep.trace_node() {
            obs.trace().event(TraceEvent::OpReturn { op, dep: n });
        }
        self.maybe_flush()?;
        Ok(dep)
    }

    /// All shard ids currently present (merged view).
    pub fn list(&self) -> Result<Vec<u128>, StoreError> {
        self.check_service()?;
        Ok(self.index.keys()?)
    }

    fn maybe_flush(&self) -> Result<(), StoreError> {
        if self.index.memtable_len() >= self.config.flush_threshold {
            coverage::hit("store.flush.threshold");
            match self.index.flush() {
                Ok(_) => {}
                // A full disk defers the flush rather than failing the
                // write that tripped the threshold: that write already
                // succeeded, the memtable keeps its entries visible, and
                // reclamation may free space before the next attempt.
                // Compaction retires whole tables, so a pressure-driven
                // reclaim pass over the index streams usually frees the
                // very space the flush needs — run one and retry once
                // before giving up for this round.
                Err(LsmError::Chunk(ChunkError::NoSpace { .. })) => {
                    coverage::hit("store.flush.deferred");
                    self.reclaim_index_streams();
                    if self.index.flush().is_err() {
                        return Ok(());
                    }
                    coverage::hit("store.flush.deferred_retry_ok");
                }
                Err(e) => return Err(e.into()),
            }
            // Table-count trigger: a threshold flush that tips the tree
            // past the trigger also runs one bounded tiered round.
            // Explicit flush_index calls never compact, so harnesses can
            // stack tables deliberately. Best-effort: the triggering
            // write already succeeded (and may have been acked), and a
            // failed round leaves the table set untouched — so a
            // compaction error (say, NoSpace writing the merged table)
            // must not fail the write that tripped it.
            if self.index.table_count() >= self.config.compaction_trigger_tables.max(2) {
                coverage::hit("store.compact.threshold");
                if self.index.compact().is_err() {
                    coverage::hit("store.compact.deferred");
                }
            }
        }
        Ok(())
    }

    /// Pressure-driven reclamation of the index streams, best-effort.
    /// Compaction and flush retire whole tables in place, so when either
    /// runs out of space the Lsm/Meta streams usually hold extents that
    /// are mostly dead; drain victims until none is left.
    /// Meta first: reclaiming metadata extents never needs a barrier
    /// record (superseded records are dead, and a relocated current
    /// record is byte-identical — recovery finds it by scanning), so it
    /// frees the space the Lsm pass's barrier writes then need.
    fn reclaim_index_streams(&self) {
        coverage::hit("store.reclaim.pressure");
        for stream in [Stream::Meta, Stream::Lsm] {
            while matches!(self.reclaim(stream), Ok(true)) {}
        }
    }

    /// Keys whose latest mutation lives only in the memtable. Harness
    /// support: after a shutdown flush fails with `NoSpace`, these are
    /// exactly the keys a reboot may roll back (§4.4 resource
    /// exhaustion) — everything else must still survive.
    pub fn unflushed_keys(&self) -> Vec<u128> {
        self.index.memtable_keys()
    }

    /// Explicitly flushes the index memtable.
    pub fn flush_index(&self) -> Result<(), StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Flush, 0);
        let res = self.index.flush();
        obs.end_op(op, res.is_ok());
        res?;
        Ok(())
    }

    /// Explicitly compacts the LSM tree.
    pub fn compact_index(&self) -> Result<(), StoreError> {
        self.index.compact()?;
        Ok(())
    }

    /// Runs one chunk-reclamation pass over the best victim extent of the
    /// given stream, if any. Returns true if an extent was reclaimed.
    pub fn reclaim(&self, stream: Stream) -> Result<bool, StoreError> {
        let obs = self.obs();
        let op = obs.begin_op(OpKind::Reclaim, 0);
        let res = self.reclaim_inner(stream);
        obs.end_op(op, res.is_ok());
        res
    }

    fn reclaim_inner(&self, stream: Stream) -> Result<bool, StoreError> {
        self.check_service()?;
        let Some(victim) = self.cache().chunk_store().select_victim(stream) else {
            coverage::hit("store.reclaim.no_victim");
            return Ok(false);
        };
        let reclaimed = match stream {
            Stream::Data => {
                let referencer = self.index.data_referencer();
                self.cache().reclaim(victim, stream, &referencer)?
            }
            Stream::Lsm | Stream::Meta => {
                let referencer = self.index.lsm_referencer();
                self.cache().reclaim(victim, stream, &referencer)?
            }
        };
        if reclaimed.is_some() {
            self.index.note_extent_reset();
            coverage::hit("store.reclaim.done");
        }
        Ok(reclaimed.is_some())
    }

    /// Reclaims a specific extent (used by targeted tests and harnesses).
    pub fn reclaim_extent(
        &self,
        extent: shardstore_vdisk::ExtentId,
        stream: Stream,
    ) -> Result<bool, StoreError> {
        let reclaimed = match stream {
            Stream::Data => {
                let referencer = self.index.data_referencer();
                self.cache().reclaim(extent, stream, &referencer)?
            }
            Stream::Lsm | Stream::Meta => {
                let referencer = self.index.lsm_referencer();
                self.cache().reclaim(extent, stream, &referencer)?
            }
        };
        if reclaimed.is_some() {
            self.index.note_extent_reset();
        }
        Ok(reclaimed.is_some())
    }

    /// Drives all queued IO to completion (the background writeback pump
    /// making a full pass). Permanent extent faults observed during the
    /// pump quarantine the extent (inside the extent manager); this
    /// entry point then evacuates the surviving chunks and pumps the
    /// evacuation IO down too.
    pub fn pump(&self) -> Result<(), StoreError> {
        let em = self.cache().chunk_store().extent_manager();
        // Each round can quarantine at most one new extent, so the loop
        // is bounded by the extent count.
        for _ in 0..=em.extent_count() {
            em.pump()?;
            if !self.evacuate_pending()? {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Extents currently quarantined after a permanent fault.
    pub fn quarantined_extents(&self) -> Vec<shardstore_vdisk::ExtentId> {
        self.cache().chunk_store().extent_manager().quarantined()
    }

    /// Runs the one-shot evacuation for any quarantined extent that has
    /// not been evacuated yet: still-live chunks with a surviving cache
    /// copy are re-homed to fresh extents and their index pointers
    /// rewired; the rest stay degraded. Returns true if any evacuation
    /// ran (the caller should pump the resulting IO).
    pub fn evacuate_pending(&self) -> Result<bool, StoreError> {
        let mut ran = false;
        for extent in self.quarantined_extents() {
            if !self.evacuated.lock().insert(extent.0) {
                continue;
            }
            let owner = self.cache().chunk_store().extent_manager().owner(extent);
            let result = match owner {
                Owner::Data => {
                    let referencer = self.index.data_referencer();
                    self.cache().evacuate_quarantined(extent, Stream::Data, &referencer)
                }
                Owner::LsmData => {
                    let referencer = self.index.lsm_referencer();
                    self.cache().evacuate_quarantined(extent, Stream::Lsm, &referencer)
                }
                Owner::Metadata => {
                    let referencer = self.index.lsm_referencer();
                    self.cache().evacuate_quarantined(extent, Stream::Meta, &referencer)
                }
                _ => continue,
            };
            match result {
                Ok(report) => {
                    if report.evacuated > 0 {
                        coverage::hit("store.evacuate.rescued");
                    }
                    if report.stranded > 0 {
                        coverage::hit("store.evacuate.stranded");
                    }
                    ran = true;
                }
                // A full disk leaves the remaining chunks stranded (and
                // degraded) — honest unavailability, not an error.
                Err(ChunkError::NoSpace { .. }) => ran = true,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(ran)
    }

    /// Clean shutdown: flush the index and pump all IO, after which every
    /// returned dependency must report persistent (§5 forward progress).
    pub fn clean_shutdown(&self) -> Result<(), StoreError> {
        match self.index.shutdown() {
            Ok(()) => {}
            // A full disk can leave the shutdown flush nowhere to write
            // its table. Retired-table chunks are dead space, so reclaim
            // the index streams and retry once; if the disk is genuinely
            // exhausted the error propagates and the memtable's entries
            // are lost to the shutdown (resource exhaustion, §4.4).
            Err(LsmError::Chunk(ChunkError::NoSpace { .. })) => {
                coverage::hit("store.shutdown.reclaim_retry");
                self.reclaim_index_streams();
                match self.index.shutdown() {
                    Ok(()) => {}
                    Err(e @ LsmError::Chunk(ChunkError::NoSpace { .. })) => {
                        // The shutdown flush has nowhere to write even
                        // after reclamation. Still pump: every already
                        // scheduled write (prior flushes, relocations,
                        // data chunks) must become durable, so the loss
                        // is bounded to exactly the unflushed memtable
                        // (§4.4 resource exhaustion).
                        coverage::hit("store.shutdown.no_space");
                        self.pump()?;
                        return Err(e.into());
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            Err(e) => return Err(e.into()),
        }
        self.pump()?;
        coverage::hit("store.clean_shutdown");
        Ok(())
    }

    /// Simulates a dirty reboot at the IO level: drops pending writes and
    /// applies `plan` to the disk's volatile cache, then clears all
    /// volatile component state by recovering a fresh store from the disk.
    pub fn dirty_reboot(
        &self,
        plan: &shardstore_vdisk::CrashPlan,
    ) -> Result<Store, StoreError> {
        let sched = self.scheduler();
        sched.crash(plan);
        Store::recover(sched, self.config.clone(), self.faults.clone())
    }
}
