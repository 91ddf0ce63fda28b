//! The LSM-tree index: maps shard identifiers to chunk locators, itself
//! stored as chunks on disk (§2.1 of the paper).
//!
//! Following the WiscKey-style design the paper describes, shard *data*
//! lives outside the tree (in data-stream chunks); the tree maps each
//! shard id to its chunk list. The tree consists of:
//!
//! - an in-memory **memtable**, split into key-hashed shards so point ops
//!   on different keys do not serialize on one lock (scans and flush
//!   build an ordered merge view across the shards); every mutation
//!   creates a [`Promise`] dependency that is sealed at the next flush,
//!   so `put` can return a pollable dependency immediately (Fig. 2's
//!   "index entry" node);
//! - on-disk **SSTables**, each one chunk in the LSM stream;
//! - **metadata records** (chunks in the metadata stream) listing the live
//!   tables; the highest-sequence valid record wins at recovery. Metadata
//!   writes depend on the table chunks they reference, completing the
//!   three-level dependency graph of Fig. 2 (data → index entry → LSM
//!   metadata).
//!
//! Background maintenance: **flush** (memtable → new SSTable + metadata
//! record) and **size-tiered compaction** (each round picks a bounded run
//! of adjacent, similar-size tables and merges just those, dropping
//! shadowed entries — and tombstones only when no older table remains
//! below the run). Both write their new chunk while holding a [`PutGuard`]
//! pin until the in-memory metadata references it — releasing the pin
//! early is exactly the issue #14 race (reclamation drops the not yet
//! referenced chunk), seeded by [`BugId::B14CompactionReclaimRace`].
//!
//! The index provides the [`Referencer`] reverse-lookup implementations
//! reclamation needs (§2.1): [`DataReferencer`] for shard-data extents and
//! [`LsmReferencer`] for LSM/metadata extents, including the *quiescence*
//! barrier that prevents an extent reset from persisting before an index
//! state that no longer references the dropped chunks.

pub mod codec;
pub mod filter;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use shardstore_cache::CachedChunkStore;
use shardstore_chunk::{ChunkError, Locator, PutGuard, Referencer, Stream};
use shardstore_conc::sync::Mutex;
use shardstore_dependency::{Dependency, Promise};
use shardstore_faults::{coverage, BugId, FaultConfig};
use shardstore_obs::{Counter, Obs, TraceEvent};
use shardstore_vdisk::codec::CodecError;
use shardstore_vdisk::ExtentId;

pub use codec::{IndexValue, MetadataRecord, TableDescriptor};
pub use filter::{KeyFilter, TableMeta};

/// Read-path tuning knobs for the index.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Maximum number of decoded tables kept in the decoded-entry cache
    /// (clamped to at least 1). Keyed by table id — ids are monotonic and
    /// never reused, and table content is immutable (relocation moves
    /// bytes verbatim), so a cached decode can never go stale.
    pub decoded_cache_tables: usize,
    /// Number of key-hashed memtable shards (clamped to at least 1).
    /// Point ops lock only the key's shard; scans, flush, and the merged
    /// view lock the shards in index order (then the table-list state
    /// lock — the global lock order) to build a consistent cut. `1`
    /// reproduces the old single-lock memtable for ablation.
    pub memtable_shards: usize,
    /// Table count at which background maintenance should run a
    /// compaction round (consulted by the store's maintenance hook;
    /// explicit [`LsmIndex::compact`] calls ignore it). Clamped to at
    /// least 2.
    pub compaction_trigger_tables: usize,
    /// Maximum entries per SSTable block (clamped to at
    /// least 1). Point gets decode exactly one block; smaller blocks
    /// mean less decoded per get but a larger fence index.
    pub block_size: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            decoded_cache_tables: 8,
            memtable_shards: 8,
            compaction_trigger_tables: 8,
            block_size: 16,
        }
    }
}

/// LSM index errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// Chunk storage failed.
    Chunk(ChunkError),
    /// An on-disk structure failed to decode.
    Codec(CodecError),
    /// No valid metadata record was found during recovery although
    /// metadata extents contain data.
    CorruptMetadata,
    /// Recovery found a metadata extent quarantined: the newest metadata
    /// record may be unreadable, so the recovered index cannot be
    /// certified (adopting an older record would silently roll back
    /// acknowledged writes). The node must be treated as failed and
    /// re-replicated rather than served degraded.
    UncertifiableRecovery(ExtentId),
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Chunk(e) => write!(f, "chunk error: {e}"),
            LsmError::Codec(e) => write!(f, "codec error: {e}"),
            LsmError::CorruptMetadata => write!(f, "no valid LSM metadata record"),
            LsmError::UncertifiableRecovery(e) => {
                write!(f, "metadata extent {e} quarantined: recovered index uncertifiable")
            }
        }
    }
}

impl LsmError {
    /// True if the underlying failure is a quarantined-extent degradation
    /// (see [`ChunkError::is_degraded`]).
    pub fn is_degraded(&self) -> bool {
        matches!(self, LsmError::Chunk(e) if e.is_degraded())
    }
}

impl std::error::Error for LsmError {}

impl From<ChunkError> for LsmError {
    fn from(e: ChunkError) -> Self {
        LsmError::Chunk(e)
    }
}

impl From<CodecError> for LsmError {
    fn from(e: CodecError) -> Self {
        LsmError::Codec(e)
    }
}

#[derive(Debug)]
struct MemEntry {
    value: IndexValue,
    promise: Promise,
    /// Durability dependency of the data the entry points at: the SSTable
    /// that flushes this entry must not persist before it (Fig. 2's
    /// index-entry → shard-data edge). Data-level, so it can feed write
    /// input dependencies without cycling through pending superblock
    /// writes.
    data_dep: Dependency,
    /// Mutation sequence number; used to detect overwrites that raced
    /// with an in-progress flush.
    seq: u64,
}

#[derive(Debug)]
struct Table {
    id: u64,
    /// Chunks holding the serialized table, in order (large tables span
    /// several chunks). Shared so readers snapshot the list with one
    /// refcount bump instead of deep-cloning it under the state lock.
    locators: Arc<[Locator]>,
    /// Fence + bloom metadata for lookup skipping.
    meta: Arc<TableMeta>,
    /// Persists once the table's bytes *and* every data chunk its entries
    /// reference are durable (transitively, because the table write's
    /// input dependency joins its entries' data dependencies).
    data_dep: Dependency,
}

impl Table {
    fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            id: self.id,
            locators: Arc::clone(&self.locators),
            meta: Arc::clone(&self.meta),
        }
    }
}

/// Most tables one compaction round may merge. Bounds each round's write
/// amplification: a round rewrites at most this many tables' bytes, never
/// the whole tree.
const MAX_COMPACTION_PICK: usize = 4;

/// A contiguous run of tables qualifies as a tier when its largest member
/// is at most this factor bigger than its smallest — merging similar-size
/// tables keeps total write amplification logarithmic.
const TIER_RATIO: u64 = 4;

/// Size-tiered compaction picker. `sizes` are the live tables'
/// serialized sizes, newest first; returns the index range of the run to
/// merge, or `None` when fewer than two tables exist.
///
/// Policy: among contiguous windows of 2..=[`MAX_COMPACTION_PICK`]
/// tables whose sizes are within [`TIER_RATIO`] of each other, prefer
/// the longest, then the fewest total bytes, then the oldest. When no
/// window qualifies (sizes form a steep geometric staircase), fall back
/// to the adjacent pair with the fewest total bytes so repeated rounds
/// still converge toward one table.
fn pick_compaction(sizes: &[u64]) -> Option<std::ops::Range<usize>> {
    if sizes.len() < 2 {
        return None;
    }
    let mut best: Option<(usize, u64, usize)> = None; // (len, total, start)
    for len in 2..=MAX_COMPACTION_PICK.min(sizes.len()) {
        for start in 0..=sizes.len() - len {
            let window = &sizes[start..start + len];
            let min = *window.iter().min().unwrap_or(&0);
            let max = *window.iter().max().unwrap_or(&0);
            if max > min.saturating_mul(TIER_RATIO) {
                continue;
            }
            let total: u64 = window.iter().sum();
            let better = match best {
                None => true,
                Some((blen, btotal, bstart)) => {
                    (len, std::cmp::Reverse(total), start)
                        > (blen, std::cmp::Reverse(btotal), bstart)
                }
            };
            if better {
                best = Some((len, total, start));
            }
        }
    }
    if let Some((len, _, start)) = best {
        return Some(start..start + len);
    }
    // No tier qualifies: merge the cheapest adjacent pair.
    let start = (0..sizes.len() - 1)
        .min_by_key(|&i| sizes[i] + sizes[i + 1])
        .unwrap_or(0);
    Some(start..start + 2)
}

/// A cheap point-in-time view of one table, valid for reading outside the
/// state lock (the optimistic-read scheme).
#[derive(Debug, Clone)]
struct TableSnapshot {
    id: u64,
    locators: Arc<[Locator]>,
    meta: Arc<TableMeta>,
}

#[derive(Debug)]
struct DecodedEntry {
    entries: Arc<Vec<codec::SsEntry>>,
    last_use: u64,
}

/// Cache key: `(table id, block index)`, with [`WHOLE_TABLE`] standing
/// for a fully decoded table (flush and compaction seed their output
/// whole; block-granular entries come from cold point lookups).
const WHOLE_TABLE: u32 = u32::MAX;

/// LRU cache of decoded tables and blocks, keyed by `(table id, block)`.
/// Safe against staleness by construction: ids are never reused and
/// table content is immutable (relocation moves bytes verbatim), so a
/// cached decode can never go stale. The fence indexes ride along: one
/// small entry per live table, pruned with the tables.
#[derive(Debug, Default)]
struct DecodedCache {
    blocks: BTreeMap<(u64, u32), DecodedEntry>,
    indexes: BTreeMap<u64, Arc<codec::TableIndex>>,
    tick: u64,
}

/// One key-hashed shard of the memtable.
type MemShard = BTreeMap<u128, MemEntry>;

struct LsmState {
    /// Live tables, newest first.
    tables: Vec<Table>,
    /// Bumped whenever the table list changes (flush, compaction,
    /// relocation). Readers snapshot locators, read outside the lock, and
    /// retry on failure if the version moved — the optimistic scheme that
    /// makes reads safe against concurrent reclamation.
    tables_version: u64,
    next_table_id: u64,
    next_seq: u64,
    meta_seq: u64,
    meta_locator: Option<Locator>,
    /// Dependency of the most recent metadata record write.
    meta_dep: Option<Dependency>,
    /// Reverse map for data-extent reclamation: data-chunk locator → the
    /// shard key whose *current* value references it.
    refs: BTreeMap<Locator, u128>,
    /// Forward index over `refs`: key → locators recorded for it. Kept in
    /// *exact* sync with `refs`: when another key claims a locator (extent
    /// offsets are reused after resets), the previous owner's entry is
    /// stripped eagerly instead of lingering until the next write to that
    /// key. [`LsmIndex::refs_maps_in_sync`] checks the bidirectional
    /// invariant. Replaces the O(refs) linear scan `apply` used to need to
    /// retire a key's stale references.
    refs_by_key: BTreeMap<u128, Vec<Locator>>,
    /// Set when an extent reset happened since the last flush (drives the
    /// seeded bug B3).
    reset_since_flush: bool,
}

/// Registry-backed metric handles for the index. The shared registry
/// (reached through the chunk store's scheduler) is the source of truth.
#[derive(Debug, Clone)]
struct LsmCounters {
    obs: Obs,
    mutations: Counter,
    gets: Counter,
    flushes: Counter,
    compactions: Counter,
    table_decodes: Counter,
    fence_skips: Counter,
    bloom_skips: Counter,
    bloom_false_positives: Counter,
    scans: Counter,
    scan_tables_pruned: Counter,
    tables_consulted: Counter,
    block_decodes: Counter,
    block_fence_skips: Counter,
    bytes_decoded: Counter,
    compaction_picked: Counter,
    compaction_bytes_in: Counter,
    compaction_bytes_out: Counter,
}

impl LsmCounters {
    fn new(obs: Obs) -> Self {
        let r = obs.registry();
        Self {
            mutations: r.counter("lsm.mutations"),
            gets: r.counter("lsm.gets"),
            flushes: r.counter("lsm.flushes"),
            compactions: r.counter("lsm.compactions"),
            table_decodes: r.counter("lsm.table_decodes"),
            fence_skips: r.counter("lsm.fence_skips"),
            bloom_skips: r.counter("lsm.bloom_skips"),
            bloom_false_positives: r.counter("lsm.bloom_false_positives"),
            scans: r.counter("lsm.scans"),
            scan_tables_pruned: r.counter("lsm.scan.tables_pruned"),
            tables_consulted: r.counter("lsm.get.tables_consulted"),
            block_decodes: r.counter("lsm.block_decodes"),
            block_fence_skips: r.counter("lsm.block.fence_skips"),
            bytes_decoded: r.counter("lsm.bytes_decoded"),
            compaction_picked: r.counter("lsm.compaction.picked"),
            compaction_bytes_in: r.counter("lsm.compaction.bytes_in"),
            compaction_bytes_out: r.counter("lsm.compaction.bytes_out"),
            obs,
        }
    }
}

/// The persistent LSM-tree index. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct LsmIndex {
    core: Arc<LsmCore>,
}

struct LsmCore {
    cache: CachedChunkStore,
    faults: FaultConfig,
    config: LsmConfig,
    /// Key-hashed memtable shards. Lock order is shard (index order when
    /// taking several) before `state`; never the reverse.
    memtable: Box<[Mutex<MemShard>]>,
    state: Mutex<LsmState>,
    /// Decoded-table cache; a separate lock so table decodes never hold
    /// up mutations on the state lock.
    decoded: Mutex<DecodedCache>,
    /// Serializes flush and compaction against each other (they both
    /// rewrite the table list).
    maintenance: Mutex<()>,
    counters: LsmCounters,
}

impl fmt::Debug for LsmIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mem: usize = self.core.memtable.iter().map(|s| s.lock().len()).sum();
        let tables = self.core.state.lock().tables.len();
        f.debug_struct("LsmIndex").field("memtable", &mem).field("tables", &tables).finish()
    }
}

impl LsmIndex {
    /// Creates an empty index over a cached chunk store with the default
    /// read-path configuration.
    pub fn new(cache: CachedChunkStore, faults: FaultConfig) -> Self {
        Self::with_config(cache, faults, LsmConfig::default())
    }

    /// Creates an empty index with explicit read-path tuning.
    pub fn with_config(cache: CachedChunkStore, faults: FaultConfig, config: LsmConfig) -> Self {
        let counters = LsmCounters::new(cache.chunk_store().extent_manager().scheduler().obs());
        let shards = config.memtable_shards.max(1);
        Self {
            core: Arc::new(LsmCore {
                cache,
                faults,
                config,
                memtable: (0..shards).map(|_| Mutex::new(MemShard::new())).collect(),
                state: Mutex::new(LsmState {
                    tables: Vec::new(),
                    tables_version: 0,
                    next_table_id: 1,
                    next_seq: 1,
                    meta_seq: 0,
                    meta_locator: None,
                    meta_dep: None,
                    refs: BTreeMap::new(),
                    refs_by_key: BTreeMap::new(),
                    reset_since_flush: false,
                }),
                decoded: Mutex::new(DecodedCache::default()),
                maintenance: Mutex::new(()),
                counters,
            }),
        }
    }

    /// Recovers the index after a reboot with the default read-path
    /// configuration.
    pub fn recover(cache: CachedChunkStore, faults: FaultConfig) -> Result<Self, LsmError> {
        Self::recover_with_config(cache, faults, LsmConfig::default())
    }

    /// Recovers the index after a reboot: find the highest-sequence valid
    /// metadata record among registered metadata chunks, load its table
    /// list (rebuilding each table's fence/bloom metadata), and rebuild
    /// the reverse reference map from the merged view.
    pub fn recover_with_config(
        cache: CachedChunkStore,
        faults: FaultConfig,
        config: LsmConfig,
    ) -> Result<Self, LsmError> {
        let index = Self::with_config(cache, faults, config);
        let mut best: Option<(MetadataRecord, Locator)> = None;
        let mut meta_chunks = 0usize;
        for locator in index.core.cache.chunk_store().registered_locators() {
            if index.core.cache.chunk_store().extent_manager().owner(locator.extent)
                != shardstore_superblock::Owner::Metadata
            {
                continue;
            }
            meta_chunks += 1;
            let bytes = match index.core.cache.get(&locator) {
                Ok(b) => b,
                Err(_) => continue,
            };
            match codec::decode_metadata(&bytes) {
                Ok(record) => {
                    coverage::hit("lsm.recover.valid_metadata");
                    if best.as_ref().map(|(b, _)| record.seq > b.seq).unwrap_or(true) {
                        best = Some((record, locator));
                    }
                }
                Err(_) => coverage::hit("lsm.recover.invalid_metadata"),
            }
        }
        // Fence the sequence counter above every metadata record that is
        // *physically decodable* anywhere on a metadata extent — including
        // quarantined regions beyond the trusted pointer (torn residue of
        // unacknowledged flushes). Such a record is not adopted now, but
        // future appends can advance the pointer past its location, making
        // it visible to a later recovery; if new records reused its
        // sequence number, that later recovery could adopt the dead
        // record instead of the live one.
        let mut seq_fence = 0u64;
        {
            let store = index.core.cache.chunk_store();
            let em = store.extent_manager();
            let extent_size = em.extent_size();
            let page_size = em.scheduler().disk().geometry().page_size;
            for extent in em.extents_owned_by(shardstore_superblock::Owner::Metadata) {
                let raw = match store.read_raw_extent(extent) {
                    Ok(r) => r,
                    Err(shardstore_vdisk::IoError::Failed { .. }) => {
                        // A permanently dead metadata extent cannot be
                        // fenced against, but it cannot serve stale
                        // records either: quarantine bars it from reads
                        // and from pointer advancement forever.
                        em.quarantine(extent);
                        coverage::hit("lsm.recover.fence_quarantined");
                        continue;
                    }
                    Err(e) => return Err(LsmError::Chunk(e.into())),
                };
                for frame in shardstore_chunk::scan_extent(
                    &raw,
                    extent_size,
                    page_size,
                    &index.core.faults,
                ) {
                    if let Ok(record) = codec::decode_metadata(frame.payload(&raw)) {
                        seq_fence = seq_fence.max(record.seq);
                    }
                }
            }
        }
        // A quarantined metadata extent may hold the *newest* metadata
        // record, invisible to the registry scan above. Adopting an older
        // record would silently roll back acknowledged index updates, so
        // the recovered index cannot be certified: fail recovery loudly
        // (node death → re-replication) instead of serving stale state.
        {
            let em = index.core.cache.chunk_store().extent_manager();
            for extent in em.extents_owned_by(shardstore_superblock::Owner::Metadata) {
                if em.is_quarantined(extent) {
                    coverage::hit("lsm.recover.uncertifiable");
                    return Err(LsmError::UncertifiableRecovery(extent));
                }
            }
        }
        let Some((record, locator)) = best else {
            if meta_chunks > 0 {
                return Err(LsmError::CorruptMetadata);
            }
            coverage::hit("lsm.recover.empty");
            index.core.state.lock().meta_seq = seq_fence;
            return Ok(index);
        };
        // Load each table once: the decode rebuilds the fence/bloom
        // metadata and warms the decoded-entry cache, so recovery pays the
        // table reads it needs anyway instead of deferring them to the
        // first lookups.
        let none = index.scheduler().none();
        let mut tables = Vec::with_capacity(record.tables.len());
        for t in &record.tables {
            // A table chunk that reads back `NotFound` or degraded names
            // data this node can never serve again: either the chunk
            // write was lost to an extent quarantine before persisting
            // (`prune_doomed_pending` deliberately lets the metadata
            // record proceed with the dangling reference, and every
            // entry promise sealed over the lost write stays
            // unacknowledged forever), or the extent died under the
            // data afterwards. Either way §4.4 scopes the damage to
            // that extent: drop the table and keep the node alive,
            // rather than turning one dead extent into node death.
            // Other errors (transient IO, detected corruption) still
            // fail recovery loudly — a retry can succeed, and silently
            // dropping a *readable* table would discard acknowledged
            // data.
            let entries = match index.read_table(&t.locators) {
                Ok(e) => Arc::new(e),
                Err(LsmError::Chunk(e))
                    if e.is_degraded() || matches!(e, ChunkError::NotFound(_)) =>
                {
                    coverage::hit("lsm.recover.dropped_unreadable_table");
                    continue;
                }
                Err(e) => return Err(e),
            };
            let meta = Self::table_meta_of(&entries);
            index.decoded_insert(t.id, Arc::clone(&entries));
            tables.push(Table {
                id: t.id,
                locators: t.locators.clone().into(),
                meta,
                data_dep: none.clone(),
            });
        }
        {
            let mut st = index.core.state.lock();
            st.meta_seq = record.seq.max(seq_fence);
            st.meta_locator = Some(locator);
            st.next_table_id = record.tables.iter().map(|t| t.id).max().unwrap_or(0) + 1;
            st.tables = tables;
        }
        // Rebuild the reverse map from the merged (newest-wins) view.
        let merged = index.merged_entries()?;
        {
            let mut st = index.core.state.lock();
            for (key, value) in merged {
                if let IndexValue::Present(locators) = value {
                    for l in &locators {
                        st.refs.insert(*l, key);
                    }
                    st.refs_by_key.insert(key, locators);
                }
            }
        }
        Ok(index)
    }

    /// Builds table metadata from decoded entries. Keys cover tombstones
    /// too: skipping a table holding a tombstone would resurrect the
    /// shadowed older value.
    fn table_meta_of(entries: &[codec::SsEntry]) -> Arc<TableMeta> {
        let keys: Vec<u128> = entries.iter().map(|(k, _)| *k).collect();
        Arc::new(TableMeta::build(&keys))
    }

    /// Looks up a cached decode by `(table id, block)`, refreshing its
    /// LRU position.
    fn decoded_lookup_at(&self, id: u64, block: u32) -> Option<Arc<Vec<codec::SsEntry>>> {
        let mut cache = self.core.decoded.lock();
        cache.tick += 1;
        let tick = cache.tick;
        cache.blocks.get_mut(&(id, block)).map(|e| {
            e.last_use = tick;
            Arc::clone(&e.entries)
        })
    }

    /// Looks up a fully decoded table by id.
    fn decoded_lookup(&self, id: u64) -> Option<Arc<Vec<codec::SsEntry>>> {
        self.decoded_lookup_at(id, WHOLE_TABLE)
    }

    /// Caches a decode, evicting least-recently-used entries over
    /// capacity. The capacity counts cache slots — whole tables and
    /// single blocks alike — so block-granular entries from cold point
    /// lookups cannot balloon memory past the configured bound.
    fn decoded_insert_at(&self, id: u64, block: u32, entries: Arc<Vec<codec::SsEntry>>) {
        let capacity = self.core.config.decoded_cache_tables.max(1);
        let mut cache = self.core.decoded.lock();
        cache.tick += 1;
        let tick = cache.tick;
        cache.blocks.insert((id, block), DecodedEntry { entries, last_use: tick });
        while cache.blocks.len() > capacity {
            let victim = cache
                .blocks
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("over capacity implies non-empty");
            cache.blocks.remove(&victim);
            coverage::hit("lsm.decoded.evict");
        }
    }

    /// Caches a fully decoded table.
    fn decoded_insert(&self, id: u64, entries: Arc<Vec<codec::SsEntry>>) {
        self.decoded_insert_at(id, WHOLE_TABLE, entries);
    }

    /// Looks up a cached fence index.
    fn index_lookup(&self, id: u64) -> Option<Arc<codec::TableIndex>> {
        self.core.decoded.lock().indexes.get(&id).cloned()
    }

    fn index_insert(&self, id: u64, index: Arc<codec::TableIndex>) {
        self.core.decoded.lock().indexes.insert(id, index);
    }

    /// Drops decoded entries and indexes whose table ids are no longer
    /// live (after compaction retired them). A concurrent reader holding
    /// an old snapshot may transiently re-insert a dead id; that costs
    /// memory bounded by the LRU capacity, never correctness (ids are
    /// unique and content immutable).
    fn decoded_prune(&self, live: &std::collections::BTreeSet<u64>) {
        let mut cache = self.core.decoded.lock();
        cache.blocks.retain(|(id, _), _| live.contains(id));
        cache.indexes.retain(|id, _| live.contains(id));
    }

    /// Drops the decoded-table cache (entries and fence indexes). It is
    /// volatile state, so harnesses model cache loss (reboot, explicit
    /// cache drop) by calling this alongside [`CachedChunkStore::clear`].
    pub fn drop_decoded_cache(&self) {
        let mut cache = self.core.decoded.lock();
        cache.blocks.clear();
        cache.indexes.clear();
    }

    /// Reads a whole table through the decoded-entry cache.
    fn table_entries(&self, table: &TableSnapshot) -> Result<Arc<Vec<codec::SsEntry>>, LsmError> {
        if let Some(entries) = self.decoded_lookup(table.id) {
            coverage::hit("lsm.decoded.hit");
            return Ok(entries);
        }
        coverage::hit("lsm.decoded.miss");
        self.core.counters.table_decodes.inc();
        self.core.counters.obs.trace().event(TraceEvent::TableLoad { table: table.id });
        let entries = Arc::new(self.read_table(&table.locators)?);
        self.decoded_insert(table.id, Arc::clone(&entries));
        Ok(entries)
    }

    /// Fetches (and caches) a table's fence index. Reads only the header
    /// and tail bytes of the table, not its blocks.
    fn table_index(&self, table: &TableSnapshot) -> Result<Arc<codec::TableIndex>, LsmError> {
        if let Some(cached) = self.index_lookup(table.id) {
            return Ok(cached);
        }
        let total: usize = table.locators.iter().map(|l| l.len as usize).sum();
        let header = self.read_table_slice(&table.locators, 0, total.min(codec::V2_HEADER_LEN))?;
        let trailer = self.read_table_slice(
            &table.locators,
            total.saturating_sub(codec::V2_TRAILER_LEN),
            codec::V2_TRAILER_LEN.min(total),
        )?;
        let footer_off = codec::footer_offset(&trailer, total)? as usize;
        let footer = self.read_table_slice(
            &table.locators,
            footer_off,
            total - codec::V2_TRAILER_LEN - footer_off,
        )?;
        let index = Arc::new(codec::decode_index(&header, &footer, &trailer, total)?);
        self.index_insert(table.id, Arc::clone(&index));
        Ok(index)
    }

    /// Reads one block of a table through the decoded cache, fetching and
    /// decoding only that block's bytes on a miss.
    fn block_entries(
        &self,
        table: &TableSnapshot,
        block: usize,
        fence: &codec::BlockFence,
    ) -> Result<Arc<Vec<codec::SsEntry>>, LsmError> {
        if let Some(entries) = self.decoded_lookup_at(table.id, block as u32) {
            coverage::hit("lsm.decoded.hit");
            return Ok(entries);
        }
        coverage::hit("lsm.decoded.miss");
        self.core.counters.block_decodes.inc();
        self.core.counters.bytes_decoded.add(fence.len as u64);
        self.core.counters.obs.trace().event(TraceEvent::TableLoad { table: table.id });
        let bytes =
            self.read_table_slice(&table.locators, fence.offset as usize, fence.len as usize)?;
        let entries = Arc::new(codec::decode_block(&bytes, fence)?);
        self.decoded_insert_at(table.id, block as u32, Arc::clone(&entries));
        Ok(entries)
    }

    /// The cached chunk store backing the index.
    pub fn cache(&self) -> &CachedChunkStore {
        &self.core.cache
    }

    /// The memtable shard owning `key`. Hashed (not range-partitioned) so
    /// adjacent keys spread across shards and skewed workloads still
    /// scale.
    fn mem_shard(&self, key: u128) -> &Mutex<MemShard> {
        let h = filter::splitmix64(key as u64 ^ (key >> 64) as u64);
        &self.core.memtable[h as usize % self.core.memtable.len()]
    }

    /// Locks every memtable shard in index order (the global lock order
    /// admits taking the state lock afterwards while these are held),
    /// yielding a consistent cut of the whole memtable.
    fn lock_all_shards(&self) -> Vec<shardstore_conc::sync::MutexGuard<'_, MemShard>> {
        self.core.memtable.iter().map(|s| s.lock()).collect()
    }

    fn scheduler(&self) -> shardstore_dependency::IoScheduler {
        self.core.cache.chunk_store().extent_manager().scheduler().clone()
    }

    /// Largest payload that fits one chunk frame on this disk.
    fn max_chunk_payload(&self) -> usize {
        self.core.cache.chunk_store().extent_manager().extent_size()
            - shardstore_chunk::FRAME_OVERHEAD
    }

    /// Writes serialized table bytes as one or more LSM-stream chunks
    /// (the tree itself is stored as chunks, §2.1). Returns the locators,
    /// the joined data dependency, the joined full dependency, and the
    /// pins.
    fn write_table_chunks(
        &self,
        bytes: &[u8],
        dep_in: &Dependency,
    ) -> Result<(Vec<Locator>, Dependency, Dependency, Vec<PutGuard>), LsmError> {
        let max = self.max_chunk_payload().max(1);
        let mut locators = Vec::new();
        let mut data_deps = Vec::new();
        let mut full_deps = Vec::new();
        let mut guards = Vec::new();
        let pieces: Vec<&[u8]> =
            if bytes.is_empty() { vec![&[][..]] } else { bytes.chunks(max).collect() };
        if pieces.len() > 1 {
            coverage::hit("lsm.table.multi_chunk");
        }
        // Group commit: the pieces go down as one batch, sharing a single
        // superblock pointer update and (when contiguous) one disk IO,
        // instead of one append round trip per piece.
        for out in self.core.cache.put_batch(Stream::Lsm, &pieces, dep_in)? {
            locators.push(out.locator);
            data_deps.push(out.data_dep);
            full_deps.push(out.dep);
            guards.push(out.guard);
        }
        let sched = self.scheduler();
        Ok((locators, sched.join(&data_deps), sched.join(&full_deps), guards))
    }

    /// Reads and reassembles a whole table from its chunks, decoding
    /// every entry (recovery and merges; point gets and scans use
    /// [`LsmIndex::block_entries`] instead).
    fn read_table(&self, locators: &[Locator]) -> Result<Vec<codec::SsEntry>, LsmError> {
        let mut bytes = Vec::new();
        for locator in locators {
            bytes.extend_from_slice(&self.core.cache.get(locator)?);
        }
        self.core.counters.bytes_decoded.add(bytes.len() as u64);
        Ok(codec::decode_sstable(&bytes)?)
    }

    /// Reads the byte subrange `[off, off + len)` of a serialized table,
    /// fetching from each overlapping chunk only the bytes inside it.
    /// Locator lengths are payload lengths, so prefix sums give each
    /// chunk's position in the reassembled table.
    fn read_table_slice(
        &self,
        locators: &[Locator],
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, LsmError> {
        let end = off + len;
        let mut out = Vec::new();
        let mut pos = 0usize;
        // HOT-PATH-BEGIN(lsm-block-read): a slice costs ranged chunk reads
        // of the bytes it names — never a whole-chunk get, whose cost
        // would grow with the table rather than with the block. A slice
        // inside one chunk (all but the rare block straddling a chunk
        // boundary) is moved out as read; further pieces are appended.
        for locator in locators {
            let chunk_end = pos + locator.len as usize;
            if chunk_end > off && pos < end {
                let from = off.saturating_sub(pos);
                let to = end.min(chunk_end) - pos;
                let mut piece = self.core.cache.get_range(locator, from, to - from)?;
                if out.is_empty() {
                    out = piece;
                } else {
                    out.append(&mut piece);
                }
            }
            pos = chunk_end;
            if pos >= end {
                break;
            }
        }
        // HOT-PATH-END(lsm-block-read)
        if out.len() != len {
            return Err(LsmError::Codec(CodecError::BadLength));
        }
        Ok(out)
    }

    fn apply(&self, key: u128, value: IndexValue, data_dep: Dependency) -> Dependency {
        let promise = self.scheduler().promise();
        let dep = promise.dependency();
        let new_promise_dep = dep.clone();
        // Lock the key's memtable shard first (same-key mutations fully
        // serialize on it; other shards proceed), then the state lock for
        // the sequence counter and the reference maps — the global lock
        // order.
        let mut shard = self.mem_shard(key).lock();
        let seq = {
            let mut st = self.core.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            // Maintain the reverse map: the previous value's chunks are no
            // longer referenced by the current view; the new value's are.
            // Retire every reverse-map entry recorded for this key — the
            // old memtable value's locators and any table-resident ones,
            // which the new value shadows either way. This is O(entry
            // locators), not O(refs).
            if let Some(old_locs) = st.refs_by_key.remove(&key) {
                for l in old_locs {
                    if st.refs.get(&l) == Some(&key) {
                        st.refs.remove(&l);
                    }
                }
            }
            if let IndexValue::Present(locators) = &value {
                for l in locators {
                    if let Some(prev) = st.refs.insert(*l, key) {
                        if prev != key {
                            // The locator changed owners (extent offsets
                            // are reused after resets): strip it from the
                            // previous owner's forward entry eagerly so
                            // the two maps stay in exact sync.
                            coverage::hit("lsm.refs.reowned");
                            if let Some(v) = st.refs_by_key.get_mut(&prev) {
                                v.retain(|x| x != l);
                                if v.is_empty() {
                                    st.refs_by_key.remove(&prev);
                                }
                            }
                        }
                    }
                }
                st.refs_by_key.insert(key, locators.clone());
            }
            seq
        };
        let old = shard.insert(key, MemEntry { value, promise, data_dep, seq });
        if let Some(old_entry) = &old {
            // The old mutation is superseded: its dependency becomes
            // persistent exactly when the superseding mutation's does
            // ("unless superseded by a later persisted operation", §5) —
            // which also keeps the forward-progress property: no promise
            // is ever leaked unsealed.
            old_entry.promise.add_dep(&new_promise_dep);
            old_entry.promise.seal();
        }
        self.core.counters.mutations.inc();
        dep
    }

    /// Inserts or overwrites a key. Returns a dependency that persists
    /// once the entry is durable — sealed at the next flush: SSTable
    /// chunk, metadata record, and their write-pointer coverage.
    /// `data_dep` is the (data-level) dependency of the chunks the
    /// locators point at; the flushed index will not persist before them.
    pub fn put(&self, key: u128, locators: Vec<Locator>, data_dep: Dependency) -> Dependency {
        self.apply(key, IndexValue::Present(locators), data_dep)
    }

    /// Deletes a key by writing a tombstone. Returns the tombstone's
    /// durability dependency.
    pub fn delete(&self, key: u128) -> Dependency {
        let none = self.scheduler().none();
        self.apply(key, IndexValue::Tombstone, none)
    }

    /// The current table-list version (bumped by flush, compaction, and
    /// relocation).
    pub fn tables_version(&self) -> u64 {
        self.core.state.lock().tables_version
    }

    /// Looks up a key: memtable first, then tables newest-first.
    ///
    /// Reads are optimistic against concurrent reclamation: the table
    /// locators are snapshotted, read outside the lock, and the lookup is
    /// retried if a read fails while the table list has moved (the chunk
    /// was relocated under us). A failure with an *unchanged* table list
    /// is genuine corruption and is reported.
    pub fn get(&self, key: u128) -> Result<Option<Vec<Locator>>, LsmError> {
        self.get_inner(key, None)
    }

    /// Test-only variant of [`LsmIndex::get`] that invokes `hook` once,
    /// after the first table snapshot is taken and before any table is
    /// read — a deterministic window for exercising the relocation-retry
    /// path without a scheduler.
    #[doc(hidden)]
    pub fn get_with_race_hook(
        &self,
        key: u128,
        hook: &mut dyn FnMut(),
    ) -> Result<Option<Vec<Locator>>, LsmError> {
        self.get_inner(key, Some(hook))
    }

    fn get_inner(
        &self,
        key: u128,
        mut hook: Option<&mut dyn FnMut()>,
    ) -> Result<Option<Vec<Locator>>, LsmError> {
        loop {
            self.core.counters.gets.inc();
            // HOT-PATH-BEGIN(lsm-get): lock only the key's memtable shard;
            // a hit never touches the table-list state lock.
            {
                let shard = self.mem_shard(key).lock();
                if let Some(entry) = shard.get(&key) {
                    coverage::hit("lsm.get.memtable");
                    return Ok(match &entry.value {
                        IndexValue::Present(l) => Some(l.clone()), // hot-path: metadata clone
                        IndexValue::Tombstone => None,
                    });
                }
            }
            // HOT-PATH-END(lsm-get)
            // A miss snapshots the table list *after* the shard probe:
            // flush installs the new table (and bumps the version) before
            // removing memtable entries, so an entry that left the shard
            // is already visible in this snapshot.
            let (tables, version): (Vec<TableSnapshot>, u64) = {
                let st = self.core.state.lock();
                (st.tables.iter().map(Table::snapshot).collect(), st.tables_version)
            };
            if let Some(h) = hook.take() {
                h();
            }
            match self.lookup_in_tables(key, &tables) {
                Ok(found) => return Ok(found),
                Err(e) => {
                    if self.core.state.lock().tables_version != version {
                        coverage::hit("lsm.get.retry_relocated");
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    fn lookup_in_tables(
        &self,
        key: u128,
        tables: &[TableSnapshot],
    ) -> Result<Option<Vec<Locator>>, LsmError> {
        for table in tables {
            // Fence then bloom: skip tables that provably cannot contain
            // the key, avoiding the chunk read and the decode entirely.
            if !table.meta.in_fence(key) {
                coverage::hit("lsm.get.fence_skip");
                self.core.counters.fence_skips.inc();
                continue;
            }
            if !table.meta.bloom_may_contain(key) {
                coverage::hit("lsm.get.bloom_skip");
                self.core.counters.bloom_skips.inc();
                continue;
            }
            self.core.counters.tables_consulted.inc();
            let entries = if let Some(entries) = self.decoded_lookup(table.id) {
                // A fully decoded table (fresh flush/compaction output)
                // answers without consulting the fence index.
                coverage::hit("lsm.decoded.hit");
                Some(entries)
            } else {
                let index = self.table_index(table)?;
                // HOT-PATH-BEGIN(lsm-block-decode): the certified point
                // lookup on a block-indexed table routes through the
                // fence index to the one block that can hold the key and
                // decodes only it — never the whole table.
                match index.locate(key) {
                    None => {
                        coverage::hit("lsm.get.block_fence_skip");
                        self.core.counters.block_fence_skips.inc();
                        None
                    }
                    Some(b) => Some(self.block_entries(table, b, &index.fences[b])?),
                }
                // HOT-PATH-END(lsm-block-decode)
            };
            let Some(entries) = entries else { continue };
            match entries.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(idx) => {
                    coverage::hit("lsm.get.sstable");
                    return Ok(match &entries[idx].1 {
                        IndexValue::Present(l) => Some(l.clone()),
                        IndexValue::Tombstone => None,
                    });
                }
                // The filters said "maybe present" but the table does not
                // contain the key: a bloom false positive.
                Err(_) => self.core.counters.bloom_false_positives.inc(),
            }
        }
        coverage::hit("lsm.get.miss");
        Ok(None)
    }

    /// The merged newest-wins view of all entries (tombstones included),
    /// with the same optimistic retry against concurrent relocation as
    /// [`LsmIndex::get`].
    fn merged_entries(&self) -> Result<BTreeMap<u128, IndexValue>, LsmError> {
        loop {
            // Consistent cut: every memtable shard plus the table list,
            // locked together (shards in index order, then state), so the
            // memtable view and the table list belong to one instant.
            let (mem, tables, version): (Vec<(u128, IndexValue)>, Vec<TableSnapshot>, u64) = {
                let shards = self.lock_all_shards();
                let st = self.core.state.lock();
                (
                    shards
                        .iter()
                        .flat_map(|s| s.iter().map(|(k, e)| (*k, e.value.clone())))
                        .collect(),
                    st.tables.iter().map(Table::snapshot).collect(),
                    st.tables_version,
                )
            };
            let mut merged: BTreeMap<u128, IndexValue> = BTreeMap::new();
            // Oldest table first, memtable last, so newer writers
            // overwrite.
            let mut failed = None;
            for table in tables.iter().rev() {
                match self.table_entries(table) {
                    Ok(entries) => {
                        for (k, v) in entries.iter() {
                            merged.insert(*k, v.clone());
                        }
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failed {
                if self.core.state.lock().tables_version != version {
                    continue;
                }
                return Err(e);
            }
            for (k, v) in mem {
                merged.insert(k, v);
            }
            return Ok(merged);
        }
    }

    /// Ordered range scan: every present key in the inclusive range
    /// `[start, end]` with its locator list, newest-wins and
    /// tombstone-suppressed, in ascending key order.
    ///
    /// The scan is snapshot-consistent: the memtable cut and the table
    /// list are pinned together at scan start (shards in index order,
    /// then the state lock), so a concurrent flush or compaction can
    /// neither hide an entry nor resurrect an overwritten one. Tables
    /// whose `[min, max]` fence misses the range are pruned without being
    /// read (counted by `lsm.scan.tables_pruned`); the rest merge
    /// oldest-first so newer tables overwrite, with the memtable cut
    /// applied last. Table reads run outside the locks with the same
    /// optimistic retry against concurrent relocation as
    /// [`LsmIndex::get`].
    pub fn scan(&self, start: u128, end: u128) -> Result<Vec<(u128, Vec<Locator>)>, LsmError> {
        self.core.counters.scans.inc();
        if start > end {
            return Ok(Vec::new());
        }
        loop {
            let (mem, tables, version): (Vec<(u128, IndexValue)>, Vec<TableSnapshot>, u64) = {
                let shards = self.lock_all_shards();
                let st = self.core.state.lock();
                (
                    shards
                        .iter()
                        .flat_map(|s| s.range(start..=end).map(|(k, e)| (*k, e.value.clone())))
                        .collect(),
                    st.tables.iter().map(Table::snapshot).collect(),
                    st.tables_version,
                )
            };
            // Fence pruning: a table whose key range provably misses
            // [start, end] is skipped without a chunk read or a decode.
            let mut pruned = 0u64;
            let overlapping: Vec<&TableSnapshot> = tables
                .iter()
                .filter(|t| {
                    let keep = t.meta.overlaps(start, end);
                    pruned += u64::from(!keep);
                    keep
                })
                .collect();
            if pruned > 0 {
                coverage::hit("lsm.scan.fence_prune");
                self.core.counters.scan_tables_pruned.add(pruned);
            }
            let mut merged: BTreeMap<u128, IndexValue> = BTreeMap::new();
            // Oldest table first so newer tables overwrite, memtable last.
            let mut failed = None;
            for table in overlapping.iter().rev() {
                if let Err(e) = self.scan_table_range(table, start, end, &mut merged) {
                    failed = Some(e);
                    break;
                }
            }
            if let Some(e) = failed {
                if self.core.state.lock().tables_version != version {
                    coverage::hit("lsm.scan.retry_relocated");
                    continue;
                }
                return Err(e);
            }
            for (k, v) in mem {
                merged.insert(k, v);
            }
            return Ok(merged
                .into_iter()
                .filter_map(|(k, v)| match v {
                    IndexValue::Present(l) => Some((k, l)),
                    IndexValue::Tombstone => None,
                })
                .collect());
        }
    }

    /// Merges one table's entries within `[start, end]` into `merged`.
    /// The fence index seeks straight to the overlapping blocks (a warm
    /// whole-table decode is used when available).
    fn scan_table_range(
        &self,
        table: &TableSnapshot,
        start: u128,
        end: u128,
        merged: &mut BTreeMap<u128, IndexValue>,
    ) -> Result<(), LsmError> {
        if let Some(entries) = self.decoded_lookup(table.id) {
            coverage::hit("lsm.decoded.hit");
            let from = entries.partition_point(|(k, _)| *k < start);
            for (k, v) in entries[from..].iter().take_while(|(k, _)| *k <= end) {
                merged.insert(*k, v.clone());
            }
            return Ok(());
        }
        let index = self.table_index(table)?;
        for b in index.overlapping(start, end) {
            coverage::hit("lsm.scan.block_seek");
            let entries = self.block_entries(table, b, &index.fences[b])?;
            let from = entries.partition_point(|(k, _)| *k < start);
            for (k, v) in entries[from..].iter().take_while(|(k, _)| *k <= end) {
                merged.insert(*k, v.clone());
            }
        }
        Ok(())
    }

    /// All present keys in the merged view (invariant checks and control
    /// plane listing).
    pub fn keys(&self) -> Result<Vec<u128>, LsmError> {
        Ok(self
            .merged_entries()?
            .into_iter()
            .filter(|(_, v)| matches!(v, IndexValue::Present(_)))
            .map(|(k, _)| k)
            .collect())
    }

    /// Writes a metadata record reflecting the current table list. Caller
    /// must hold the state lock... and therefore must NOT: this takes the
    /// lock internally. `table_deps` are the data dependencies of any
    /// just-written table chunks the record references.
    fn write_metadata(&self, table_deps: &[Dependency]) -> Result<Dependency, LsmError> {
        let record = {
            let st = self.core.state.lock();
            MetadataRecord {
                seq: st.meta_seq + 1,
                tables: st
                    .tables
                    .iter()
                    .map(|t| TableDescriptor { id: t.id, locators: t.locators.to_vec() })
                    .collect(),
            }
        };
        let bytes = codec::encode_metadata(&record);
        // The metadata record must not persist before the table chunks it
        // references (Fig. 2's metadata → index-data edge).
        let dep_in = self.scheduler().join(table_deps);
        let out = self.core.cache.put(Stream::Meta, &bytes, &dep_in)?;
        let mut st = self.core.state.lock();
        if let Some(old) = st.meta_locator.replace(out.locator) {
            self.core.cache.chunk_store().mark_dead(&old);
        }
        st.meta_seq = record.seq;
        st.meta_dep = Some(out.dep.clone());
        coverage::hit("lsm.metadata.written");
        // The metadata chunk's pin can drop once `meta_locator` references
        // it (the LsmReferencer consults `meta_locator`).
        drop(out.guard);
        Ok(out.dep)
    }

    /// Flushes the memtable into a new SSTable and writes a metadata
    /// record referencing it, sealing every flushed entry's promise.
    /// Returns the metadata record's dependency (or the previous one if
    /// the memtable was empty).
    pub fn flush(&self) -> Result<Dependency, LsmError> {
        let _m = self.core.maintenance.lock();
        // Phase 1: snapshot the memtable (values, sequence numbers, and
        // the data dependencies the flushed table must wait for).
        let (snapshot, data_deps): (Vec<(u128, IndexValue, u64)>, Vec<Dependency>) = {
            self.core.state.lock().reset_since_flush = false;
            // Skip entries whose data write was lost to a permanent
            // extent fault: their dependency can never resolve, and
            // joining it into `table_dep_in` would wedge this and every
            // future flush. The doomed entries stay in the memtable
            // unacknowledged (their puts never become durable); a later
            // overwrite of the same key supersedes them normally.
            //
            // The shard-by-shard walk need not be one atomic cut: an
            // entry written after its shard was visited simply waits for
            // the next flush, and an overwrite racing the flush is caught
            // by the per-entry sequence check at removal below.
            let mut live: Vec<(u128, IndexValue, u64, Dependency)> = Vec::new();
            let mut total = 0usize;
            for shard in self.core.memtable.iter() {
                let s = shard.lock();
                total += s.len();
                live.extend(
                    s.iter()
                        .filter(|(_, e)| !e.data_dep.is_doomed())
                        .map(|(k, e)| (*k, e.value.clone(), e.seq, e.data_dep.clone())),
                );
            }
            if live.len() < total {
                coverage::hit("lsm.flush.skipped_doomed");
            }
            // Shards are hash-partitioned; the SSTable codec and its
            // binary-search readers need key order.
            live.sort_unstable_by_key(|(k, _, _, _)| *k);
            (
                live.iter().map(|(k, v, s, _)| (*k, v.clone(), *s)).collect(),
                live.into_iter().map(|(_, _, _, d)| d).collect(),
            )
        };
        if snapshot.is_empty() {
            let st = self.core.state.lock();
            coverage::hit("lsm.flush.empty");
            return Ok(st
                .meta_dep
                .clone()
                .unwrap_or_else(|| self.scheduler().none()));
        }
        // Phase 2: write the SSTable chunk (outside the state lock — this
        // is IO). The PutGuard pins the chunk's extent until the metadata
        // references it.
        let entries: Vec<codec::SsEntry> =
            snapshot.iter().map(|(k, v, _)| (*k, v.clone())).collect();
        let bytes = codec::encode_sstable(&entries, self.core.config.block_size);
        // The SSTable must not persist before the data its entries point
        // at (Fig. 2: index entry depends on shard data) — otherwise a
        // crash could recover an index referencing chunks that are not
        // readable.
        let table_dep_in = self.scheduler().join(&data_deps);
        let (locators, table_data_dep, table_full_dep, guards) =
            self.write_table_chunks(&bytes, &table_dep_in)?;
        let guards: Vec<PutGuard> = if self.core.faults.is(BugId::B14CompactionReclaimRace) {
            // BUG B14 (seeded): the pins are released before the metadata
            // references the new chunks. A concurrently scheduled
            // reclamation of their extents finds them unreferenced and
            // drops them (the §6 worked example).
            drop(guards);
            Vec::new()
        } else {
            guards
        };
        // Scheduling point: under the stateless model checker this is
        // where reclamation can interleave.
        shardstore_conc::yield_now();
        // Phase 3: install the table (with its fence/bloom metadata),
        // write metadata, seal promises. The freshly built entries also
        // seed the decoded cache — the table is hot by definition.
        let entries = Arc::new(entries);
        let table_meta = Self::table_meta_of(&entries);
        let table_id = {
            let mut st = self.core.state.lock();
            let id = st.next_table_id;
            st.next_table_id += 1;
            st.tables.insert(0, Table {
                id,
                locators: locators.clone().into(),
                meta: table_meta,
                data_dep: table_data_dep.clone(),
            });
            st.tables_version += 1;
            id
        };
        self.decoded_insert(table_id, entries);
        let meta_dep = self.write_metadata(std::slice::from_ref(&table_data_dep))?;
        // One shared group dependency — table chunks ∧ metadata record —
        // sealed into every flushed promise: a single join node carries
        // the whole flush group instead of two edges per entry.
        let group_dep = table_full_dep.and(&meta_dep);
        for (key, _, seq) in &snapshot {
            // Remove the flushed entry unless it was overwritten while
            // we were flushing (per-entry sequence check); seal its
            // promise either way (the flushed value is durable). The new
            // table was installed above, so a reader that misses the
            // entry here already sees it in its table snapshot.
            let mut shard = self.mem_shard(*key).lock();
            let remove = matches!(shard.get(key), Some(e) if e.seq == *seq);
            if remove {
                let entry = shard.remove(key).expect("checked above");
                entry.promise.add_dep(&group_dep);
                entry.promise.seal();
            } else {
                coverage::hit("lsm.flush.overwritten_during_flush");
            }
        }
        self.core.counters.flushes.inc();
        self.core.counters.obs.trace().event(TraceEvent::LsmFlush {
            entries: snapshot.len() as u32,
            table: table_id,
        });
        drop(guards);
        coverage::hit("lsm.flush.done");
        Ok(meta_dep)
    }

    /// Records that an extent reset happened (reclamation ran). Drives
    /// the seeded bug B3's trigger condition.
    pub fn note_extent_reset(&self) {
        self.core.state.lock().reset_since_flush = true;
    }

    /// Runs one bounded round of size-tiered compaction: pick a
    /// contiguous run of adjacent, similar-size tables (at most
    /// [`MAX_COMPACTION_PICK`]), merge them newest-wins into one table,
    /// and swap the run atomically under the table-list version. Old
    /// table chunks are marked dead for reclamation. Tombstones are
    /// dropped only when the run includes the oldest table — otherwise an
    /// older table below the run could resurrect the deleted key.
    ///
    /// Each round's write amplification is bounded by the run (at most
    /// `MAX_COMPACTION_PICK` tables), never O(total data); repeated
    /// rounds converge the tree toward one table. With fewer than two
    /// tables (or none pickable) the call is a no-op.
    pub fn compact(&self) -> Result<(), LsmError> {
        let _m = self.core.maintenance.lock();
        let (run, source_deps, includes_oldest) = {
            let st = self.core.state.lock();
            let sizes: Vec<u64> = st
                .tables
                .iter()
                .map(|t| t.locators.iter().map(|l| l.len as u64).sum())
                .collect();
            match pick_compaction(&sizes) {
                None => {
                    drop(st);
                    coverage::hit("lsm.compact.trivial");
                    return Ok(());
                }
                Some(range) => {
                    let run: Vec<(u64, Arc<[Locator]>)> = st.tables[range.clone()]
                        .iter()
                        .map(|t| (t.id, Arc::clone(&t.locators)))
                        .collect();
                    let source_deps: Vec<Dependency> =
                        st.tables[range.clone()].iter().map(|t| t.data_dep.clone()).collect();
                    (run, source_deps, range.end == st.tables.len())
                }
            }
        };
        let bytes_in: u64 =
            run.iter().map(|(_, ls)| ls.iter().map(|l| l.len as u64).sum::<u64>()).sum();
        self.core.counters.compaction_picked.add(run.len() as u64);
        self.core.counters.compaction_bytes_in.add(bytes_in);
        self.core.counters.obs.trace().event(TraceEvent::CompactionStart {
            picked: run.len() as u64,
            bytes_in,
        });
        let result = self.compact_run(run, source_deps, includes_oldest);
        self.core.counters.obs.trace().event(TraceEvent::CompactionEnd {
            bytes_out: *result.as_ref().unwrap_or(&0),
            tables_after: self.table_count() as u64,
        });
        result.map(|_| ())
    }

    /// The body of one compaction round, split out so the caller can
    /// emit a matching `CompactionEnd` event on success and error alike.
    /// Returns the merged table's serialized size.
    fn compact_run(
        &self,
        run: Vec<(u64, Arc<[Locator]>)>,
        source_deps: Vec<Dependency>,
        includes_oldest: bool,
    ) -> Result<u64, LsmError> {
        // Merge newest-wins (oldest first so newer overwrite). Tombstones
        // are dropped only when no table older than the run remains: a
        // tombstone merged away above a live older entry would resurrect
        // it.
        let mut merged: BTreeMap<u128, IndexValue> = BTreeMap::new();
        for (_, locators) in run.iter().rev() {
            for (k, v) in self.read_table(locators)? {
                merged.insert(k, v);
            }
        }
        if includes_oldest {
            coverage::hit("lsm.compact.tombstones_dropped");
            merged.retain(|_, v| matches!(v, IndexValue::Present(_)));
        } else {
            coverage::hit("lsm.compact.tombstones_kept");
        }
        let entries: Vec<codec::SsEntry> = merged.into_iter().collect();
        let bytes = codec::encode_sstable(&entries, self.core.config.block_size);
        let bytes_out = bytes.len() as u64;
        // The merged table inherits the sources' obligations: it must not
        // persist before the data its entries (transitively) reference.
        let table_dep_in = self.scheduler().join(&source_deps);
        let (locators, table_data_dep, _table_full_dep, guards) =
            self.write_table_chunks(&bytes, &table_dep_in)?;
        let guards: Vec<PutGuard> = if self.core.faults.is(BugId::B14CompactionReclaimRace) {
            // BUG B14 (seeded): the pins are released before the metadata
            // references the new chunks — a concurrently scheduled
            // reclamation finds them unreferenced and drops them.
            drop(guards);
            Vec::new()
        } else {
            guards
        };
        // The issue #14 window: the new chunk is on disk but the metadata
        // does not reference it yet.
        shardstore_conc::yield_now();
        let entries = Arc::new(entries);
        let table_meta = Self::table_meta_of(&entries);
        let run_ids: std::collections::BTreeSet<u64> = run.iter().map(|(id, _)| *id).collect();
        let (new_id, live_ids) = {
            let mut st = self.core.state.lock();
            // Replace exactly the run, at its position: the merged table
            // holds only the run's entries, so it must stay between the
            // tables that were newer and older than the run (a concurrent
            // flush may have prepended newer ones). Membership checks go
            // through a set, not a per-table list scan.
            let insert_at = st
                .tables
                .iter()
                .position(|t| run_ids.contains(&t.id))
                .unwrap_or(st.tables.len());
            let id = st.next_table_id;
            st.next_table_id += 1;
            st.tables.retain(|t| !run_ids.contains(&t.id));
            st.tables.insert(insert_at, Table {
                id,
                locators: locators.clone().into(),
                meta: table_meta,
                data_dep: table_data_dep.clone(),
            });
            st.tables_version += 1;
            self.core.counters.compactions.inc();
            (id, st.tables.iter().map(|t| t.id).collect::<std::collections::BTreeSet<u64>>())
        };
        self.decoded_insert(new_id, entries);
        self.decoded_prune(&live_ids);
        self.core.counters.compaction_bytes_out.add(bytes_out);
        self.write_metadata(std::slice::from_ref(&table_data_dep))?;
        for (_, locators) in &run {
            for locator in locators.iter() {
                self.core.cache.chunk_store().mark_dead(locator);
            }
        }
        drop(guards);
        coverage::hit("lsm.compact.done");
        Ok(bytes_out)
    }

    /// Clean shutdown: flush the memtable and pump all IO to completion,
    /// so that every outstanding dependency becomes persistent (the §5
    /// forward-progress property).
    pub fn shutdown(&self) -> Result<(), LsmError> {
        if self.core.faults.is(BugId::B3MetadataShutdownFlush) {
            let reset_pending = self.core.state.lock().reset_since_flush;
            if reset_pending {
                // BUG B3 (seeded): the shutdown path mishandled the
                // "extent was reset" case and skipped the flush entirely,
                // so recent index entries never became durable.
                coverage::hit("lsm.shutdown.b3_skipped_flush");
                self.core
                    .cache
                    .chunk_store()
                    .extent_manager()
                    .pump()
                    .map_err(ChunkError::Extent)?;
                return Ok(());
            }
        }
        self.flush()?;
        self.core.cache.chunk_store().extent_manager().pump().map_err(ChunkError::Extent)?;
        Ok(())
    }

    /// Number of entries currently in the memtable (summed over shards).
    pub fn memtable_len(&self) -> usize {
        self.core.memtable.iter().map(|s| s.lock().len()).sum()
    }

    /// Keys with unflushed memtable state, tombstones included — exactly
    /// the keys whose latest mutation is lost if the process stops before
    /// the next successful flush (e.g. a shutdown flush with no space
    /// left to write the table).
    pub fn memtable_keys(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self
            .core
            .memtable
            .iter()
            .flat_map(|s| s.lock().keys().copied().collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of memtable shards in use.
    pub fn memtable_shard_count(&self) -> usize {
        self.core.memtable.len()
    }

    /// Invariant check (test support): `refs` and `refs_by_key` describe
    /// exactly the same relation — every `refs` edge appears in its key's
    /// forward entry and every forward-entry locator maps back to that
    /// key.
    #[doc(hidden)]
    pub fn refs_maps_in_sync(&self) -> bool {
        let st = self.core.state.lock();
        let forward_ok = st
            .refs
            .iter()
            .all(|(l, k)| st.refs_by_key.get(k).map(|v| v.contains(l)).unwrap_or(false));
        let reverse_ok = st
            .refs_by_key
            .iter()
            .all(|(k, v)| v.iter().all(|l| st.refs.get(l) == Some(k)));
        forward_ok && reverse_ok
    }

    /// Number of live SSTables.
    pub fn table_count(&self) -> usize {
        self.core.state.lock().tables.len()
    }

    /// Reverse-lookup callback for shard-data extents.
    pub fn data_referencer(&self) -> DataReferencer {
        DataReferencer { index: self.clone() }
    }

    /// Reverse-lookup callback for LSM-tree extents (SSTable chunks) and
    /// metadata extents (metadata records).
    pub fn lsm_referencer(&self) -> LsmReferencer {
        LsmReferencer { index: self.clone(), meta_stale: std::cell::Cell::new(false) }
    }
}

/// Maps a barrier-write failure to the chunk-level error reclamation
/// reports. Flush and metadata writes can only fail at the chunk layer
/// (encoding is infallible); the fallback arm is defensive.
fn barrier_err(e: LsmError) -> ChunkError {
    match e {
        LsmError::Chunk(c) => c,
        _ => ChunkError::NoSpace { requested: 0 },
    }
}

/// [`Referencer`] over shard-data chunks: liveness is membership in the
/// index's current reverse map; relocation rewrites the owning shard's
/// entry (becoming durable at the next flush).
#[derive(Debug, Clone)]
pub struct DataReferencer {
    index: LsmIndex,
}

impl Referencer for DataReferencer {
    fn is_live(&self, locator: &Locator) -> bool {
        self.index.core.state.lock().refs.contains_key(locator)
    }

    fn relocated(&self, old: &Locator, new: &Locator, _copy_dep: &Dependency) -> Dependency {
        let key = {
            let st = self.index.core.state.lock();
            st.refs.get(old).copied()
        };
        let Some(key) = key else {
            // Raced with a delete; nothing references the chunk anymore.
            return self.index.scheduler().none();
        };
        // Rewrite the shard's locator list through the normal mutation
        // path, so durability flows through the next flush.
        let current = {
            let shard = self.index.mem_shard(key).lock();
            match shard.get(&key).map(|e| e.value.clone()) {
                Some(IndexValue::Present(l)) => Some(l),
                Some(IndexValue::Tombstone) => None,
                None => None,
            }
        };
        let locators = match current {
            Some(l) => l,
            None => match self.index.get(key) {
                Ok(Some(l)) => l,
                _ => return self.index.scheduler().none(),
            },
        };
        let rewritten: Vec<Locator> =
            locators.into_iter().map(|l| if l == *old { *new } else { l }).collect();
        coverage::hit("lsm.referencer.relocate_data");
        self.index.put(key, rewritten, _copy_dep.clone())
    }

    fn quiesce(&self) -> Result<Option<Dependency>, ChunkError> {
        // The reset must wait for an index state that no longer
        // references the dropped chunks: flush now and return the
        // resulting metadata dependency. A failed flush (say, no space
        // for the table or record) must abort the reclamation — silently
        // degrading the barrier would let a crash recover to an index
        // whose entries dangle into the reset extent.
        self.index.flush().map(Some).map_err(barrier_err)
    }
}

/// [`Referencer`] over LSM-owned chunks (SSTables) and metadata records.
#[derive(Debug, Clone)]
pub struct LsmReferencer {
    index: LsmIndex,
    /// Set when a relocation's metadata write failed: the persisted
    /// record still references the old locations, so the quiescence
    /// barrier must re-write it (or abort the reclamation) before any
    /// reset may proceed.
    meta_stale: std::cell::Cell<bool>,
}

impl Referencer for LsmReferencer {
    fn is_live(&self, locator: &Locator) -> bool {
        let st = self.index.core.state.lock();
        st.tables.iter().any(|t| t.locators.contains(locator))
            || st.meta_locator == Some(*locator)
    }

    fn relocated(&self, old: &Locator, new: &Locator, copy_dep: &Dependency) -> Dependency {
        let mut st = self.index.core.state.lock();
        if st.meta_locator == Some(*old) {
            // The current metadata record itself is being evacuated. The
            // copy is byte-identical (same seq), so pointing at it is
            // sound; recovery finds it by scanning.
            st.meta_locator = Some(*new);
            st.meta_dep = Some(copy_dep.clone());
            coverage::hit("lsm.referencer.relocate_meta");
            return copy_dep.clone();
        }
        for t in st.tables.iter_mut() {
            if t.locators.contains(old) {
                // Clone-on-write: concurrent readers keep their snapshot
                // Arc; only the installed list is replaced. The fence and
                // bloom are untouched — the copy is byte-identical, so
                // the table's key set is unchanged.
                let rewritten: Vec<Locator> = t
                    .locators
                    .iter()
                    .map(|l| if *l == *old { *new } else { *l })
                    .collect();
                t.locators = rewritten.into();
                t.data_dep = t.data_dep.and(copy_dep);
            }
        }
        st.tables_version += 1;
        drop(st);
        coverage::hit("lsm.referencer.relocate_table");
        // The table list changed: persist a metadata record referencing
        // the new location, ordered after the copy.
        match self.index.write_metadata(std::slice::from_ref(copy_dep)) {
            Ok(dep) => dep,
            Err(_) => {
                // No space for the record right now. Remember that the
                // persisted metadata is stale — quiesce() below retries
                // the write and aborts the reclamation if it still
                // cannot land, so the reset never outruns the record.
                coverage::hit("lsm.referencer.meta_barrier_failed");
                self.meta_stale.set(true);
                copy_dep.clone()
            }
        }
    }

    fn quiesce(&self) -> Result<Option<Dependency>, ChunkError> {
        if self.meta_stale.get() {
            // A relocation's metadata write failed, so every persisted
            // record still points at the old locations. Retry once (the
            // pass itself may have freed meta space); on failure abort
            // the reclamation rather than reset under a stale record.
            // Ordering is safe without explicit deps: the reset barrier
            // separately joins every copy dependency, so a record that
            // persists before its copies merely becomes an invalid
            // record recovery skips.
            let dep = self.index.write_metadata(&[]).map_err(barrier_err)?;
            self.meta_stale.set(false);
            return Ok(Some(dep));
        }
        Ok(self.index.core.state.lock().meta_dep.clone())
    }
}
