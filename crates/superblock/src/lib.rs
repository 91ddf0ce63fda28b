//! The superblock and extent manager: soft write pointers, extent
//! ownership, and the append-only discipline (§2.1 "Append-only IO").
//!
//! ShardStore supports conventional disks by implementing the extent
//! `append` operation itself: it tracks an in-memory *soft write pointer*
//! per extent, translates appends into positioned writes, and persists the
//! soft pointers in a superblock flushed on a regular cadence. This crate
//! is that machinery:
//!
//! - [`ExtentManager::append`] reserves space at an extent's soft pointer,
//!   submits the data write, and folds the pointer update into the pending
//!   superblock write (coalescing many appends into one superblock IO, as
//!   in Fig. 2). The returned [`Dependency`] persists only once *both* the
//!   data and a superblock covering its pointer have persisted.
//! - [`ExtentManager::reset`] implements the extent reset operation:
//!   pointer back to zero, making all data on the extent unreadable even
//!   though it is not physically overwritten (reads beyond the write
//!   pointer are forbidden, enforced by [`ExtentManager::read`]). The
//!   caller supplies the dependency that must persist *before* the reset
//!   does (e.g. chunk evacuations during reclamation).
//! - The superblock itself is stored in two alternating slots on extent 0
//!   with generation numbers and CRCs, so a torn superblock write is
//!   detected and recovery falls back to the previous generation.
//! - A bounded [buffer pool] limits in-flight superblock updates; waiting
//!   for a permit is the mechanism behind the paper's issue #12 deadlock.
//!
//! Seeded faults: [`BugId::B6OwnershipDependency`],
//! [`BugId::B7SoftHardPointerMismatch`], [`BugId::B12SuperblockDeadlock`].
//!
//! [buffer pool]: ExtentManager::append

use std::fmt;
use std::sync::Arc;

use shardstore_conc::sync::{Condvar, Mutex};
use shardstore_dependency::{Dependency, IoScheduler};
use shardstore_faults::{coverage, BugId, FaultConfig};
use shardstore_obs::TraceEvent;
use shardstore_vdisk::codec::{crc32, CodecError, Reader, Writer};
use shardstore_vdisk::{ExtentId, IoError};

/// The extent reserved for the superblock.
pub const SUPERBLOCK_EXTENT: ExtentId = ExtentId(0);

const SB_MAGIC: &[u8; 4] = b"SSSB";
const SB_VERSION: u16 = 1;

/// Which subsystem an extent belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// Unallocated.
    Free,
    /// Reserved for the superblock itself.
    Superblock,
    /// Shard data chunks.
    Data,
    /// Chunks backing the LSM tree.
    LsmData,
    /// LSM-tree metadata records.
    Metadata,
}

impl Owner {
    fn to_u8(self) -> u8 {
        match self {
            Owner::Free => 0,
            Owner::Superblock => 1,
            Owner::Data => 2,
            Owner::LsmData => 3,
            Owner::Metadata => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => Owner::Free,
            1 => Owner::Superblock,
            2 => Owner::Data,
            3 => Owner::LsmData,
            4 => Owner::Metadata,
            _ => return Err(CodecError::BadValue),
        })
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Owner::Free => "free",
            Owner::Superblock => "superblock",
            Owner::Data => "data",
            Owner::LsmData => "lsm-data",
            Owner::Metadata => "metadata",
        };
        write!(f, "{s}")
    }
}

/// Result of a successful [`ExtentManager::append`].
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// Byte offset at which the data landed.
    pub offset: usize,
    /// Dependency of the raw data write alone. Use this when building
    /// ordering barriers (e.g. reclamation reset barriers): superblock
    /// content is a complete table, so any later superblock generation
    /// covers this append's pointer, and threading the full dependency
    /// into a barrier that the pending superblock write later absorbs
    /// would create a cycle.
    pub data: Dependency,
    /// Full client-facing dependency: persists once the data *and* a
    /// superblock generation covering its write pointer have persisted.
    pub dep: Dependency,
}

/// Per-extent soft state as recorded in the superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentInfo {
    /// Next valid append position (bytes).
    pub write_ptr: usize,
    /// Owning subsystem.
    pub owner: Owner,
}

/// Errors from the extent manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtentError {
    /// Underlying disk IO failed.
    Io(IoError),
    /// The append does not fit before the end of the extent.
    ExtentFull {
        /// Target extent.
        extent: ExtentId,
        /// Bytes requested.
        requested: usize,
        /// Bytes available.
        available: usize,
    },
    /// A read crossed the extent's soft write pointer.
    BeyondWritePointer {
        /// Target extent.
        extent: ExtentId,
        /// Requested end offset.
        end: usize,
        /// Current soft write pointer.
        write_ptr: usize,
    },
    /// The operation targeted an extent with the wrong owner.
    WrongOwner {
        /// Target extent.
        extent: ExtentId,
        /// Actual owner.
        owner: Owner,
    },
    /// No free extent was available for allocation.
    NoFreeExtent,
    /// Both superblock slots were invalid during recovery.
    CorruptSuperblock,
    /// The extent has permanently failed and is quarantined: appends are
    /// re-routed elsewhere, and its data is only reachable through
    /// degraded-mode fallbacks (cache, re-replicated copies).
    Quarantined {
        /// The quarantined extent.
        extent: ExtentId,
    },
}

impl fmt::Display for ExtentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtentError::Io(e) => write!(f, "io error: {e}"),
            ExtentError::ExtentFull { extent, requested, available } => {
                write!(f, "{extent} full: requested {requested}, available {available}")
            }
            ExtentError::BeyondWritePointer { extent, end, write_ptr } => {
                write!(f, "read beyond write pointer on {extent}: end {end} > ptr {write_ptr}")
            }
            ExtentError::WrongOwner { extent, owner } => {
                write!(f, "{extent} has wrong owner {owner}")
            }
            ExtentError::NoFreeExtent => write!(f, "no free extent"),
            ExtentError::CorruptSuperblock => write!(f, "both superblock slots corrupt"),
            ExtentError::Quarantined { extent } => {
                write!(f, "{extent} is quarantined after a permanent fault")
            }
        }
    }
}

impl std::error::Error for ExtentError {}

impl From<IoError> for ExtentError {
    fn from(e: IoError) -> Self {
        ExtentError::Io(e)
    }
}

#[derive(Debug)]
struct SbState {
    extents: Vec<ExtentInfo>,
    /// Per-extent reset gate: the superblock write recording the extent's
    /// last reset. Appends into the reused space must not reach the disk
    /// before the reset has persisted — otherwise a crash can recover an
    /// older superblock (pointer still covering the pre-reset data) with
    /// the old bytes already overwritten, leaving a persisted index
    /// pointing at foreign data (§2.1's reset-ordering obligation).
    reset_gates: Vec<Option<Dependency>>,
    generation: u64,
    /// Slot (0 or 1) the *next* superblock write should go to.
    next_slot: u8,
    /// The currently amendable (pending, unissued) superblock write and
    /// the generation stamped into it. Amendments must re-encode with the
    /// *same* generation — stamping a fresh one without reserving it
    /// would let a later write share the generation with different
    /// content, making recovery's pick ambiguous.
    pending_sb: Option<Dependency>,
    pending_sb_gen: u64,
    /// The most recent superblock write (pending or issued). Every new
    /// superblock write depends on its predecessor: generations form a
    /// log, and without this write-after-write edge an older generation
    /// whose data dependencies resolve late can reach its slot *after* a
    /// newer generation wrote there, resurrecting stale pointers.
    last_sb_write: Option<Dependency>,
    /// Superblock writes issued but possibly not yet persistent, holding
    /// buffer-pool permits.
    inflight_sb: Vec<Dependency>,
    /// Set once this manager was created by crash recovery (used by the
    /// seeded bug B6).
    recovered: bool,
    /// Extents allocated since recovery (used by the seeded bug B6: the
    /// buggy superblock encoding dropped their ownership change).
    allocated_since_recovery: std::collections::BTreeSet<u32>,
    /// Extents quarantined after a permanent (`Failed`) fault. In-memory
    /// only: `fail_always` survives crashes, so recovery re-discovers the
    /// set lazily the first time a dead extent is touched. Quarantined
    /// extents are never appended to, never allocated, and never reset.
    quarantined: std::collections::BTreeSet<u32>,
}

/// The extent manager. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct ExtentManager {
    core: Arc<EmCore>,
}

struct EmCore {
    sched: IoScheduler,
    faults: FaultConfig,
    state: Mutex<SbState>,
    /// Buffer-pool permits for in-flight superblock updates.
    pool: Mutex<usize>,
    pool_cv: Condvar,
    pool_size: usize,
}

impl fmt::Debug for ExtentManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("ExtentManager")
            .field("generation", &st.generation)
            .field("extents", &st.extents.len())
            .finish()
    }
}

fn encode_superblock(extents: &[ExtentInfo], generation: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(SB_MAGIC).u16(SB_VERSION).u64(generation).u32(extents.len() as u32);
    for e in extents {
        w.u32(e.write_ptr as u32);
        w.u8(e.owner.to_u8());
    }
    let crc = crc32(w.as_bytes());
    w.u32(crc);
    w.into_bytes()
}

/// Decodes one superblock slot. Returns the extent table and generation.
///
/// Never panics on corrupt input (§7: on-disk bytes are untrusted).
pub fn decode_superblock(bytes: &[u8]) -> Result<(Vec<ExtentInfo>, u64), CodecError> {
    let mut r = Reader::new(bytes);
    r.expect(SB_MAGIC)?;
    let version = r.u16()?;
    if version != SB_VERSION {
        return Err(CodecError::BadValue);
    }
    let generation = r.u64()?;
    let count = r.u32()? as usize;
    // Each entry is 5 bytes; validate before looping so a corrupt count
    // cannot cause a huge allocation.
    if count.checked_mul(5).map(|n| n + 4 > r.remaining()).unwrap_or(true) {
        return Err(CodecError::BadLength);
    }
    let body_end = r.position() + count * 5;
    let mut extents = Vec::with_capacity(count);
    for _ in 0..count {
        let write_ptr = r.u32()? as usize;
        let owner = Owner::from_u8(r.u8()?)?;
        extents.push(ExtentInfo { write_ptr, owner });
    }
    let crc = r.u32()?;
    if crc32(&bytes[..body_end]) != crc {
        return Err(CodecError::BadChecksum);
    }
    Ok((extents, generation))
}

impl ExtentManager {
    /// Default buffer-pool size for in-flight superblock updates.
    pub const DEFAULT_POOL_SIZE: usize = 8;

    /// Creates a manager for a freshly formatted disk: extent 0 owned by
    /// the superblock, everything else free.
    pub fn format(sched: IoScheduler, faults: FaultConfig) -> Self {
        Self::format_with_pool(sched, faults, Self::DEFAULT_POOL_SIZE)
    }

    /// [`ExtentManager::format`] with an explicit buffer-pool size (small
    /// pools make the issue #12 deadlock reachable in tests).
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold a superblock: each of the two
    /// alternating slots occupies half of extent 0 and must fit the
    /// encoded extent table (22 bytes of header/CRC plus 5 bytes per
    /// extent).
    pub fn format_with_pool(sched: IoScheduler, faults: FaultConfig, pool_size: usize) -> Self {
        let geometry = sched.disk().geometry();
        let needed = 22 + 5 * geometry.extent_count as usize;
        assert!(
            geometry.extent_size() / 2 >= needed,
            "superblock slot too small: {} bytes per slot, {} needed for {} extents              (use larger extents or fewer of them)",
            geometry.extent_size() / 2,
            needed,
            geometry.extent_count
        );
        let count = sched.disk().geometry().extent_count as usize;
        let mut extents = vec![ExtentInfo { write_ptr: 0, owner: Owner::Free }; count];
        extents[SUPERBLOCK_EXTENT.0 as usize].owner = Owner::Superblock;
        Self::build(sched, faults, extents, 0, false, pool_size)
    }

    /// Recovers the extent table from the on-disk superblock after a crash
    /// or clean reboot: reads both slots, validates magic/CRC, and adopts
    /// the newest valid generation. A completely blank disk recovers to
    /// the formatted state.
    pub fn recover(sched: IoScheduler, faults: FaultConfig) -> Result<Self, ExtentError> {
        Self::recover_with_pool(sched, faults, Self::DEFAULT_POOL_SIZE)
    }

    /// [`ExtentManager::recover`] with an explicit buffer-pool size.
    pub fn recover_with_pool(
        sched: IoScheduler,
        faults: FaultConfig,
        pool_size: usize,
    ) -> Result<Self, ExtentError> {
        let disk = Arc::clone(sched.disk());
        let slot_size = disk.geometry().extent_size() / 2;
        let mut best: Option<(Vec<ExtentInfo>, u64, u8)> = None;
        let mut any_bytes = false;
        let mut both_slots_unparseable = true;
        for slot in 0..2u8 {
            let bytes = disk.read(SUPERBLOCK_EXTENT, slot as usize * slot_size, slot_size)?;
            if bytes.iter().any(|b| *b != 0) {
                any_bytes = true;
            }
            if bytes.starts_with(SB_MAGIC) {
                // A superblock was (at least partially) written here.
                both_slots_unparseable = false;
            }
            match decode_superblock(&bytes) {
                Ok((extents, generation)) => {
                    coverage::hit("superblock.recover.valid_slot");
                    if best.as_ref().map(|(_, g, _)| generation > *g).unwrap_or(true) {
                        best = Some((extents, generation, slot));
                    }
                }
                Err(_) => coverage::hit("superblock.recover.invalid_slot"),
            }
        }
        match best {
            Some((mut extents, generation, slot)) => {
                let count = disk.geometry().extent_count as usize;
                extents.resize(count, ExtentInfo { write_ptr: 0, owner: Owner::Free });
                // Free extents must not advertise data: zero their
                // pointers so stale entries cannot resurrect garbage.
                for e in extents.iter_mut() {
                    if e.owner == Owner::Free {
                        e.write_ptr = 0;
                    }
                }
                let next_slot = 1 - slot;
                let mut em = Self::build(sched, faults, extents, generation, true, pool_size);
                Arc::get_mut(&mut em.core).expect("sole owner").state.get_mut().next_slot =
                    next_slot;
                Ok(em)
            }
            None => {
                if both_slots_unparseable {
                    if !any_bytes {
                        coverage::hit("superblock.recover.blank_disk");
                    }
                    // No superblock ever persisted, but data reached the
                    // disk (e.g. a crash lost the very first superblock
                    // write). Nothing can have been acknowledged —
                    // acknowledgement requires superblock coverage — so
                    // the residue is from a dead incarnation. Wipe it:
                    // otherwise stale metadata records could outlive the
                    // reformat and win recovery's sequence-number race.
                    coverage::hit("superblock.recover.wipe_dead_incarnation");
                    let geometry = disk.geometry();
                    let zeros = vec![0u8; geometry.extent_size()];
                    // Per-extent, fault tolerant: a permanently failed
                    // extent cannot be wiped (or flushed) — skip it; it
                    // is quarantined the first time it is touched, so its
                    // residue is unreachable anyway. Transient failures
                    // get a bounded retry.
                    let with_retry = |op: &dyn Fn() -> Result<(), IoError>| {
                        let mut result = op();
                        let mut tries = 0;
                        while matches!(result, Err(IoError::Injected { .. })) && tries < 3 {
                            tries += 1;
                            result = op();
                        }
                        result
                    };
                    for e in 0..geometry.extent_count {
                        let ext = ExtentId(e);
                        match with_retry(&|| disk.write(ext, 0, &zeros)) {
                            Ok(()) => {}
                            Err(IoError::Failed { .. }) => continue,
                            Err(err) => return Err(err.into()),
                        }
                        match with_retry(&|| disk.flush_extent(ext)) {
                            Ok(()) | Err(IoError::Failed { .. }) => {}
                            Err(err) => return Err(err.into()),
                        }
                    }
                    return Ok(Self::format_with_pool(sched, faults, pool_size));
                }
                Err(ExtentError::CorruptSuperblock)
            }
        }
    }

    fn build(
        sched: IoScheduler,
        faults: FaultConfig,
        extents: Vec<ExtentInfo>,
        generation: u64,
        recovered: bool,
        pool_size: usize,
    ) -> Self {
        Self {
            core: Arc::new(EmCore {
                sched,
                faults,
                state: Mutex::new(SbState {
                    reset_gates: vec![None; extents.len()],
                    extents,
                    generation,
                    next_slot: 0,
                    pending_sb: None,
                    pending_sb_gen: 0,
                    last_sb_write: None,
                    inflight_sb: Vec::new(),
                    recovered,
                    allocated_since_recovery: std::collections::BTreeSet::new(),
                    quarantined: std::collections::BTreeSet::new(),
                }),
                pool: Mutex::new(pool_size),
                pool_cv: Condvar::new(),
                pool_size,
            }),
        }
    }

    /// The underlying IO scheduler.
    pub fn scheduler(&self) -> &IoScheduler {
        &self.core.sched
    }

    /// Extent size in bytes.
    pub fn extent_size(&self) -> usize {
        self.core.sched.disk().geometry().extent_size()
    }

    /// Number of extents.
    pub fn extent_count(&self) -> u32 {
        self.core.sched.disk().geometry().extent_count
    }

    /// Current soft write pointer of an extent.
    pub fn write_pointer(&self, extent: ExtentId) -> usize {
        self.core.state.lock().extents[extent.0 as usize].write_ptr
    }

    /// Current owner of an extent.
    pub fn owner(&self, extent: ExtentId) -> Owner {
        self.core.state.lock().extents[extent.0 as usize].owner
    }

    /// Quarantines an extent after a permanent (`Failed`) fault: its
    /// queued writes are failed (they can never succeed and would wedge
    /// everything ordered after them — most damagingly the shared
    /// superblock write), the pending superblock write is unwedged by
    /// pruning its ordering edges onto the lost writes *in place* (its
    /// slot, generation, and amended table are preserved; a replacement
    /// write would take the alternate slot, which holds the newest
    /// durable generation, and a torn replacement could regress recovery
    /// below acknowledged state), and all future appends, reads, resets,
    /// and allocations of the extent are refused. Returns how many
    /// writes were failed. The superblock extent itself cannot be
    /// quarantined — losing it is node death, not a degraded mode.
    pub fn quarantine(&self, extent: ExtentId) -> usize {
        if extent == SUPERBLOCK_EXTENT {
            return 0;
        }
        let newly = self.core.state.lock().quarantined.insert(extent.0);
        if newly {
            coverage::hit("superblock.extent.quarantined");
            let obs = self.core.sched.obs();
            obs.registry().counter("extent.quarantines").inc();
            obs.trace().event(TraceEvent::Quarantine { extent: extent.0 });
        }
        // Idempotent on purpose: writes submitted between the insert and
        // a racing earlier quarantine call are still failed.
        let failed = self.core.sched.fail_extent_writes(extent);
        // Unwedge every pending write ordered after the lost ones — in
        // particular the coalesced superblock write and any index write
        // joined on a dead data dependency. Client durability joins are
        // left unresolved (no lost ack).
        self.core.sched.prune_doomed_pending();
        let pending = self.core.state.lock().pending_sb.clone();
        if let Some(p) = &pending {
            self.core.sched.prune_doomed_deps(p);
        }
        failed
    }

    /// True if the extent is quarantined.
    pub fn is_quarantined(&self, extent: ExtentId) -> bool {
        self.core.state.lock().quarantined.contains(&extent.0)
    }

    /// The quarantined extents, in id order.
    pub fn quarantined(&self) -> Vec<ExtentId> {
        self.core.state.lock().quarantined.iter().map(|e| ExtentId(*e)).collect()
    }

    /// Takes a buffer-pool permit for a new in-flight superblock write,
    /// reclaiming permits whose writes have persisted. In the fixed code
    /// this is called *without* holding the state lock; the seeded bug
    /// B12 acquires it while holding the lock, recreating the issue #12
    /// deadlock.
    fn acquire_permit(&self) {
        let mut permits = self.core.pool.lock();
        loop {
            if *permits > 0 {
                *permits -= 1;
                return;
            }
            coverage::hit("superblock.pool.exhausted");
            permits = self.core.pool_cv.wait(permits);
        }
    }

    /// Fixed-path permit acquisition: when the pool is dry, drive the
    /// writeback pump ourselves to retire in-flight superblock writes
    /// (the backpressure a real writer experiences), instead of waiting
    /// for a background flusher that a sequential caller does not have.
    fn acquire_permit_pumping(&self) {
        for attempt in 0.. {
            {
                let mut permits = self.core.pool.lock();
                if *permits > 0 {
                    *permits -= 1;
                    return;
                }
            }
            coverage::hit("superblock.pool.exhausted");
            // Retire whatever can be retired; transient IO errors leave
            // the writes queued for retry and we keep trying. A permanent
            // fault quarantines the extent — without that, its doomed
            // writes would wedge the superblock chain and this loop would
            // starve to the panic below.
            match self.core.sched.pump() {
                Ok(())
                | Err(IoError::Injected { .. }
                    | IoError::OutOfRange { .. }
                    | IoError::Backend { .. }) => {}
                Err(IoError::Failed { extent }) => {
                    self.quarantine(extent);
                }
            }
            if self.reclaim_permits() == 0 {
                // Nothing retired: let other tasks run (under the model
                // checker this is also the livelock-visible yield point).
                shardstore_conc::thread::yield_now();
            }
            assert!(
                attempt < 100_000,
                "superblock buffer pool starved: in-flight updates cannot retire"
            );
        }
        unreachable!()
    }

    fn release_permits(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut permits = self.core.pool.lock();
        *permits = (*permits + n).min(self.core.pool_size);
        self.core.pool_cv.notify_all();
    }

    /// Reclaims permits for in-flight superblock writes that have
    /// persisted. Returns how many were reclaimed.
    pub fn reclaim_permits(&self) -> usize {
        let mut st = self.core.state.lock();
        let before = st.inflight_sb.len();
        st.inflight_sb.retain(|d| !d.is_persistent());
        let reclaimed = before - st.inflight_sb.len();
        drop(st);
        self.release_permits(reclaimed);
        reclaimed
    }

    /// Folds the current extent table into the pending superblock write,
    /// or starts a new one. `extra_deps` must persist before the
    /// superblock does (data-before-pointer ordering). Returns the
    /// superblock write's dependency.
    fn record_update(&self, st: &mut SbState, extra_deps: &[Dependency]) -> Dependency {
        self.record_update_inner(st, extra_deps, false).0
    }

    /// Encodes the current table — or, with the B6 fault seeded on a
    /// recovered manager, the historical buggy encoding whose ownership
    /// changes since the reboot are missing (recovery then zeroes those
    /// extents' pointers, losing whatever was written to them).
    fn encode_current(&self, st: &SbState, generation: u64) -> Vec<u8> {
        if self.core.faults.is(BugId::B6OwnershipDependency)
            && st.recovered
            && !st.allocated_since_recovery.is_empty()
        {
            coverage::hit("superblock.b6_stale_ownership");
            let mut table = st.extents.clone();
            for e in &st.allocated_since_recovery {
                table[*e as usize].owner = Owner::Free;
            }
            return encode_superblock(&table, generation);
        }
        encode_superblock(&st.extents, generation)
    }

    /// Like [`ExtentManager::record_update`] but with control over write
    /// coalescing. Barrier-carrying updates (extent resets) must *not*
    /// amend an existing pending superblock write: a pending write may
    /// already be referenced (via append dependencies) by the very barrier
    /// being attached, and amending would create a dependency cycle. With
    /// `force_new`, superblock node dependencies stay acyclic by
    /// construction: amendments only ever add data-write dependencies, and
    /// barrier edges only ever point at strictly older nodes.
    fn record_update_inner(
        &self,
        st: &mut SbState,
        extra_deps: &[Dependency],
        force_new: bool,
    ) -> (Dependency, bool) {
        if !force_new {
            if let Some(pending) = &st.pending_sb {
                // Amend in place, re-encoding the current table under the
                // pending write's own (already reserved) generation.
                let encoded = self.encode_current(st, st.pending_sb_gen);
                if self.core.sched.amend_pending_write(pending, encoded, extra_deps) {
                    coverage::hit("superblock.update.coalesced");
                    return (pending.clone(), false);
                }
            }
        }
        let encoded = self.encode_current(st, st.generation + 1);
        // Need a fresh superblock write: take a pool permit.
        if self.core.faults.is(BugId::B12SuperblockDeadlock) {
            // BUG B12 (seeded): waiting for a permit while holding the
            // state lock. The thread that would free permits (via
            // reclaim_permits → state lock) can never run.
            self.acquire_permit();
        }
        st.generation += 1;
        let slot = st.next_slot;
        st.next_slot = 1 - slot;
        let slot_size = self.extent_size() / 2;
        let mut dep_parts: Vec<Dependency> = extra_deps.to_vec();
        if let Some(prev) = &st.last_sb_write {
            dep_parts.push(prev.clone());
        }
        let dep_in = self.core.sched.join(&dep_parts);
        let dep = self.core.sched.submit_write(
            SUPERBLOCK_EXTENT,
            slot as usize * slot_size,
            encoded,
            &dep_in,
        );
        st.last_sb_write = Some(dep.clone());
        st.pending_sb = Some(dep.clone());
        st.pending_sb_gen = st.generation;
        st.inflight_sb.push(dep.clone());
        coverage::hit("superblock.update.new_write");
        (dep, true)
    }

    /// Appends `data` to `extent` at its soft write pointer. The write is
    /// not issued until `dep` persists; the returned dependency persists
    /// once the data *and* a superblock update covering the advanced
    /// pointer have persisted.
    pub fn append(
        &self,
        extent: ExtentId,
        data: &[u8],
        dep: &Dependency,
    ) -> Result<AppendOutcome, ExtentError> {
        if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
            // Fixed code path: take the permit before the state lock so
            // permit waits cannot block permit reclamation, self-pumping
            // if the pool is dry.
            self.reclaim_permits();
            self.acquire_permit_pumping();
        }
        let mut st = self.core.state.lock();
        let size = self.extent_size();
        if st.quarantined.contains(&extent.0) {
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::Quarantined { extent });
        }
        let info = &st.extents[extent.0 as usize];
        if info.owner == Owner::Free || info.owner == Owner::Superblock {
            let owner = info.owner;
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::WrongOwner { extent, owner });
        }
        let offset = info.write_ptr;
        // Gate appends into reused space on the reset's persistence; drop
        // the gate once it has persisted (it constrains nothing anymore).
        let reset_gate = match &st.reset_gates[extent.0 as usize] {
            Some(g) if !g.is_persistent() => Some(g.clone()),
            Some(_) => {
                st.reset_gates[extent.0 as usize] = None;
                None
            }
            None => None,
        };
        if offset + data.len() > size {
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::ExtentFull {
                extent,
                requested: data.len(),
                available: size - offset,
            });
        }
        st.extents[extent.0 as usize].write_ptr = offset + data.len();
        let dep_in = match &reset_gate {
            Some(gate) => {
                coverage::hit("superblock.append.reset_gated");
                dep.and(gate)
            }
            None => dep.clone(),
        };
        let data_dep = self.core.sched.submit_write(extent, offset, data.to_vec(), &dep_in);
        // If the data write is gated on the *pending* superblock write
        // (the reset record itself), amending that write with a
        // dependency on this data would create a cycle: force a fresh
        // superblock write instead.
        let force_new = matches!(
            (&reset_gate, &st.pending_sb),
            (Some(gate), Some(pending)) if gate.same_node(pending)
        );
        let (sb_dep, created_new) =
            self.record_update_inner(&mut st, std::slice::from_ref(&data_dep), force_new);
        drop(st);
        if !self.core.faults.is(BugId::B12SuperblockDeadlock) && !created_new {
            // The update coalesced into an existing pending superblock
            // write; no new in-flight buffer was consumed.
            self.release_permits(1);
        }
        let dep = data_dep.and(&sb_dep);
        Ok(AppendOutcome { offset, data: data_dep, dep })
    }

    /// Appends several payloads to `extent` back to back as one group
    /// commit: each payload gets its own data write (contiguous, so the
    /// scheduler merges them into one disk IO) but all of them share a
    /// *single* superblock update covering the final write pointer —
    /// instead of one superblock round trip per payload. Fails with
    /// [`ExtentError::ExtentFull`] — without appending anything — if the
    /// whole batch does not fit.
    pub fn append_batch(
        &self,
        extent: ExtentId,
        payloads: &[&[u8]],
        dep: &Dependency,
    ) -> Result<Vec<AppendOutcome>, ExtentError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
            self.reclaim_permits();
            self.acquire_permit_pumping();
        }
        let mut st = self.core.state.lock();
        let size = self.extent_size();
        if st.quarantined.contains(&extent.0) {
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::Quarantined { extent });
        }
        let info = &st.extents[extent.0 as usize];
        if info.owner == Owner::Free || info.owner == Owner::Superblock {
            let owner = info.owner;
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::WrongOwner { extent, owner });
        }
        let offset = info.write_ptr;
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        if offset + total > size {
            drop(st);
            if !self.core.faults.is(BugId::B12SuperblockDeadlock) {
                self.release_permits(1);
            }
            return Err(ExtentError::ExtentFull {
                extent,
                requested: total,
                available: size - offset,
            });
        }
        let reset_gate = match &st.reset_gates[extent.0 as usize] {
            Some(g) if !g.is_persistent() => Some(g.clone()),
            Some(_) => {
                st.reset_gates[extent.0 as usize] = None;
                None
            }
            None => None,
        };
        st.extents[extent.0 as usize].write_ptr = offset + total;
        let dep_in = match &reset_gate {
            Some(gate) => {
                coverage::hit("superblock.append.reset_gated");
                dep.and(gate)
            }
            None => dep.clone(),
        };
        coverage::hit("superblock.append.batch");
        let mut placed: Vec<(usize, Dependency)> = Vec::with_capacity(payloads.len());
        let mut data_deps: Vec<Dependency> = Vec::with_capacity(payloads.len());
        let mut pos = offset;
        for p in payloads {
            let data_dep = self.core.sched.submit_write(extent, pos, p.to_vec(), &dep_in);
            placed.push((pos, data_dep.clone()));
            data_deps.push(data_dep);
            pos += p.len();
        }
        let force_new = matches!(
            (&reset_gate, &st.pending_sb),
            (Some(gate), Some(pending)) if gate.same_node(pending)
        );
        let (sb_dep, created_new) = self.record_update_inner(&mut st, &data_deps, force_new);
        drop(st);
        if !self.core.faults.is(BugId::B12SuperblockDeadlock) && !created_new {
            self.release_permits(1);
        }
        Ok(placed
            .into_iter()
            .map(|(off, data_dep)| {
                let dep = data_dep.and(&sb_dep);
                AppendOutcome { offset: off, data: data_dep, dep }
            })
            .collect())
    }

    /// Resets an extent: soft write pointer back to zero, making all data
    /// on it unreadable. The reset's superblock update will not persist
    /// until `dep` does — callers pass the dependency of whatever must
    /// survive the reset (e.g. evacuated chunks and their index updates).
    pub fn reset(&self, extent: ExtentId, dep: &Dependency) -> Dependency {
        let mut st = self.core.state.lock();
        if st.quarantined.contains(&extent.0) {
            // A quarantined extent is never reused: keeping its pointer
            // and registry intact is what lets degraded reads stay
            // attributable instead of turning into pointer errors.
            return dep.clone();
        }
        st.extents[extent.0 as usize].write_ptr = 0;
        coverage::hit("superblock.extent.reset");
        {
            let obs = self.core.sched.obs();
            obs.registry().counter("extent.resets").inc();
            obs.trace().event(TraceEvent::ExtentReset { extent: extent.0 });
        }
        if self.core.faults.is(BugId::B7SoftHardPointerMismatch) {
            // BUG B7 (seeded): the reset's superblock update is submitted
            // with no ordering at all — neither the evacuation barrier
            // nor the write chain — so a crash can persist the pointer
            // reset before the data that was supposed to be evacuated off
            // the extent, losing it.
            let encoded = self.encode_current(&st, st.generation + 1);
            st.generation += 1;
            let slot = st.next_slot;
            st.next_slot = 1 - slot;
            let slot_size = self.extent_size() / 2;
            let none = self.core.sched.none();
            let buggy = self.core.sched.submit_write(
                SUPERBLOCK_EXTENT,
                slot as usize * slot_size,
                encoded,
                &none,
            );
            st.pending_sb = Some(buggy.clone());
            st.pending_sb_gen = st.generation;
            st.last_sb_write = Some(buggy.clone());
            st.inflight_sb.push(buggy.clone());
            st.reset_gates[extent.0 as usize] = Some(buggy.clone());
            return buggy;
        }
        let reset_dep = self.record_update_inner(&mut st, std::slice::from_ref(dep), true).0;
        st.reset_gates[extent.0 as usize] = Some(reset_dep.clone());
        reset_dep
    }

    /// Trims an extent's soft write pointer during recovery: a crash can
    /// leave a torn (never-valid) tail below the recovered pointer, and
    /// recovery moves the pointer to the next page boundary past any
    /// residual garbage so later appends start on a fresh page (this is
    /// how the §5 scenario's "second chunk written starting from page 1"
    /// state arises). The change is folded into the next superblock
    /// update lazily.
    pub fn trim_pointer_for_recovery(&self, extent: ExtentId, new_ptr: usize) {
        let mut st = self.core.state.lock();
        let info = &mut st.extents[extent.0 as usize];
        if new_ptr < info.write_ptr {
            coverage::hit("superblock.recover.pointer_trimmed");
            info.write_ptr = new_ptr;
        }
    }

    /// Extends an extent's soft write pointer during recovery, skipping
    /// past torn garbage that reached the disk without its pointer update
    /// (see `trim_pointer_for_recovery` for the inverse direction).
    pub fn extend_pointer_for_recovery(&self, extent: ExtentId, new_ptr: usize) {
        let mut st = self.core.state.lock();
        let info = &mut st.extents[extent.0 as usize];
        if new_ptr > info.write_ptr {
            coverage::hit("superblock.recover.pointer_extended");
            info.write_ptr = new_ptr;
        }
    }

    /// Changes an extent's owner. Returns the dependency of the superblock
    /// update recording the change.
    pub fn set_owner(&self, extent: ExtentId, owner: Owner) -> Dependency {
        let mut st = self.core.state.lock();
        st.extents[extent.0 as usize].owner = owner;
        if owner == Owner::Free {
            st.extents[extent.0 as usize].write_ptr = 0;
            st.allocated_since_recovery.remove(&extent.0);
        } else if st.recovered {
            st.allocated_since_recovery.insert(extent.0);
        }
        self.record_update(&mut st, &[])
    }

    /// Allocates the lowest-numbered free extent to `owner`.
    pub fn allocate(&self, owner: Owner) -> Result<(ExtentId, Dependency), ExtentError> {
        let extent = {
            let st = self.core.state.lock();
            st.extents
                .iter()
                .enumerate()
                .position(|(i, e)| {
                    e.owner == Owner::Free && !st.quarantined.contains(&(i as u32))
                })
                .map(|i| ExtentId(i as u32))
                .ok_or(ExtentError::NoFreeExtent)?
        };
        coverage::hit("superblock.extent.allocate");
        self.core.sched.obs().registry().counter("extent.allocations").inc();
        let dep = self.set_owner(extent, owner);
        Ok((extent, dep))
    }

    /// Extents owned by `owner`, in id order.
    pub fn extents_owned_by(&self, owner: Owner) -> Vec<ExtentId> {
        let st = self.core.state.lock();
        st.extents
            .iter()
            .enumerate()
            .filter(|(_, e)| e.owner == owner)
            .map(|(i, _)| ExtentId(i as u32))
            .collect()
    }

    /// Reads from an extent, enforcing the soft-write-pointer window:
    /// reads beyond the pointer are forbidden even if stale bytes are
    /// still physically present.
    pub fn read(&self, extent: ExtentId, offset: usize, len: usize) -> Result<Vec<u8>, ExtentError> {
        if self.is_quarantined(extent) {
            coverage::hit("superblock.read.quarantined");
            return Err(ExtentError::Quarantined { extent });
        }
        let write_ptr = self.write_pointer(extent);
        if offset + len > write_ptr {
            coverage::hit("superblock.read.beyond_pointer");
            return Err(ExtentError::BeyondWritePointer { extent, end: offset + len, write_ptr });
        }
        // Read through the scheduler so pending (unissued) appends are
        // visible — the soft write pointer already covers them.
        Ok(self.core.sched.read(extent, offset, len)?)
    }

    /// Pumps the IO scheduler until quiescent and reclaims superblock
    /// buffer-pool permits. Equivalent to the background flusher making a
    /// full pass.
    pub fn pump(&self) -> Result<(), ExtentError> {
        // A permanent fault surfacing mid-pump quarantines the extent and
        // the pump resumes: the rest of the queue must still drain. The
        // iteration bound is defensive — each quarantine removes the
        // failing extent's writes, so a pass over every extent suffices.
        let mut attempts = 0u32;
        loop {
            match self.core.sched.pump() {
                Ok(()) => break,
                Err(IoError::Failed { extent })
                    if extent != SUPERBLOCK_EXTENT
                        && attempts <= self.extent_count() =>
                {
                    attempts += 1;
                    self.quarantine(extent);
                }
                Err(e) => return Err(e.into()),
            }
        }
        {
            let mut st = self.core.state.lock();
            // Whatever superblock write was pending has now been issued;
            // future updates need a fresh write.
            if let Some(d) = &st.pending_sb {
                if d.is_persistent() {
                    st.pending_sb = None;
                }
            }
        }
        self.reclaim_permits();
        Ok(())
    }

    /// The fault configuration this manager was built with.
    pub fn faults(&self) -> &FaultConfig {
        &self.core.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shardstore_vdisk::{CrashPlan, Disk, Geometry};

    fn setup() -> ExtentManager {
        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(disk);
        ExtentManager::format(sched, FaultConfig::none())
    }

    #[test]
    fn format_reserves_superblock_extent() {
        let em = setup();
        assert_eq!(em.owner(SUPERBLOCK_EXTENT), Owner::Superblock);
        assert_eq!(em.owner(ExtentId(1)), Owner::Free);
    }

    #[test]
    fn append_advances_pointer_and_persists() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        let out = em.append(ext, b"hello", &none).unwrap();
        let (off, dep) = (out.offset, out.dep);
        assert_eq!(off, 0);
        assert_eq!(em.write_pointer(ext), 5);
        assert!(!dep.is_persistent());
        em.pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(em.read(ext, 0, 5).unwrap(), b"hello");
    }

    #[test]
    fn appends_are_sequential() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        let a = em.append(ext, b"aa", &none).unwrap().offset;
        let b = em.append(ext, b"bbb", &none).unwrap().offset;
        assert_eq!((a, b), (0, 2));
        assert_eq!(em.write_pointer(ext), 5);
    }

    #[test]
    fn append_batch_shares_one_superblock_update() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        em.pump().unwrap();
        let sb_before = em.scheduler().counter("sched.writes_submitted");
        let none = em.scheduler().none();
        let outs = em
            .append_batch(ext, &[b"aa".as_slice(), b"bbb".as_slice(), b"c".as_slice()], &none)
            .unwrap();
        // 3 data writes + exactly 1 superblock update.
        assert_eq!(em.scheduler().counter("sched.writes_submitted") - sb_before, 4);
        assert_eq!(outs.iter().map(|o| o.offset).collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(em.write_pointer(ext), 6);
        em.pump().unwrap();
        for o in &outs {
            assert!(o.dep.is_persistent());
        }
        assert_eq!(em.read(ext, 0, 6).unwrap(), b"aabbbc");
    }

    #[test]
    fn append_batch_rejects_overflow_without_appending() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        let size = em.extent_size();
        let big = vec![1u8; size - 1];
        assert!(matches!(
            em.append_batch(ext, &[big.as_slice(), b"xy".as_slice()], &none),
            Err(ExtentError::ExtentFull { .. })
        ));
        assert_eq!(em.write_pointer(ext), 0);
    }

    #[test]
    fn append_to_free_extent_is_rejected() {
        let em = setup();
        let none = em.scheduler().none();
        assert!(matches!(
            em.append(ExtentId(2), b"x", &none),
            Err(ExtentError::WrongOwner { .. })
        ));
    }

    #[test]
    fn append_past_extent_end_is_rejected() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        let size = em.extent_size();
        em.append(ext, &vec![1u8; size - 1], &none).unwrap();
        assert!(matches!(
            em.append(ext, &[1, 2], &none),
            Err(ExtentError::ExtentFull { available: 1, .. })
        ));
    }

    #[test]
    fn reads_beyond_write_pointer_are_forbidden() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(ext, b"abc", &none).unwrap();
        em.pump().unwrap();
        assert!(matches!(
            em.read(ext, 0, 4),
            Err(ExtentError::BeyondWritePointer { .. })
        ));
        assert!(em.read(ext, 0, 3).is_ok());
    }

    #[test]
    fn reset_makes_data_unreadable_and_reuses_space() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(ext, b"old!", &none).unwrap();
        em.pump().unwrap();
        em.reset(ext, &none);
        assert_eq!(em.write_pointer(ext), 0);
        assert!(em.read(ext, 0, 4).is_err());
        let off = em.append(ext, b"nw", &none).unwrap().offset;
        assert_eq!(off, 0);
        em.pump().unwrap();
        assert_eq!(em.read(ext, 0, 2).unwrap(), b"nw");
    }

    #[test]
    fn recovery_restores_pointers_and_ownership() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(ext, b"data", &none).unwrap();
        em.pump().unwrap();
        em.scheduler().crash(&CrashPlan::LoseAll);
        let em2 =
            ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        assert_eq!(em2.owner(ext), Owner::Data);
        assert_eq!(em2.write_pointer(ext), 4);
        assert_eq!(em2.read(ext, 0, 4).unwrap(), b"data");
    }

    #[test]
    fn unpersisted_append_is_lost_after_crash() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        em.pump().unwrap();
        let none = em.scheduler().none();
        let dep = em.append(ext, b"data", &none).unwrap().dep;
        // Crash before pumping: pointer update never persisted.
        em.scheduler().crash(&CrashPlan::LoseAll);
        assert!(!dep.is_persistent());
        let em2 =
            ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        assert_eq!(em2.write_pointer(ext), 0);
    }

    #[test]
    fn blank_disk_recovers_to_formatted_state() {
        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(disk);
        let em = ExtentManager::recover(sched, FaultConfig::none()).unwrap();
        assert_eq!(em.owner(SUPERBLOCK_EXTENT), Owner::Superblock);
    }

    #[test]
    fn torn_superblock_write_falls_back_to_previous_generation() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(ext, b"aa", &none).unwrap();
        em.pump().unwrap();
        // Second update in the other slot; corrupt it on disk directly.
        em.append(ext, b"bb", &none).unwrap();
        em.pump().unwrap();
        // Figure out which slot holds the newest generation and corrupt
        // one byte of it (simulating a torn write / bit rot).
        let disk = Arc::clone(em.scheduler().disk());
        let slot_size = disk.geometry().extent_size() / 2;
        let mut newest = (0u8, 0u64);
        for slot in 0..2u8 {
            let bytes = disk.read(SUPERBLOCK_EXTENT, slot as usize * slot_size, slot_size).unwrap();
            if let Ok((_, generation)) = decode_superblock(&bytes) {
                if generation >= newest.1 {
                    newest = (slot, generation);
                }
            }
        }
        disk.write(SUPERBLOCK_EXTENT, newest.0 as usize * slot_size + 6, &[0xFF]).unwrap();
        disk.flush_all().unwrap();
        let em2 =
            ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        // Falls back: pointer reflects only the first persisted append.
        assert_eq!(em2.write_pointer(ext), 2);
    }

    #[test]
    fn superblock_codec_roundtrip() {
        let extents = vec![
            ExtentInfo { write_ptr: 0, owner: Owner::Superblock },
            ExtentInfo { write_ptr: 123, owner: Owner::Data },
            ExtentInfo { write_ptr: 7, owner: Owner::Metadata },
        ];
        let bytes = encode_superblock(&extents, 42);
        let (decoded, generation) = decode_superblock(&bytes).unwrap();
        assert_eq!(decoded, extents);
        assert_eq!(generation, 42);
    }

    #[test]
    fn superblock_updates_coalesce() {
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        // Multiple appends without pumping: pointer updates fold into the
        // same pending superblock write.
        for _ in 0..5 {
            em.append(ext, b"x", &none).unwrap();
        }
        em.pump().unwrap();
        // One allocation update + at most a couple of superblock writes,
        // not one per append.
        let submitted = em.scheduler().counter("sched.writes_submitted");
        assert!(
            submitted <= 5 /* data */ + 3,
            "superblock updates did not coalesce: {submitted} writes submitted"
        );
        assert_eq!(em.write_pointer(ext), 5);
    }

    #[test]
    fn pointer_persists_only_after_data() {
        // Crash after issuing the superblock write but dropping the data
        // write must be impossible by construction: the superblock write
        // depends on the data write. We verify the scheduler never issues
        // the superblock update first.
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        em.pump().unwrap();
        let gen_before = {
            let disk = em.scheduler().disk();
            let slot_size = disk.geometry().extent_size() / 2;
            (0..2u8)
                .filter_map(|s| {
                    let b = disk.read(SUPERBLOCK_EXTENT, s as usize * slot_size, slot_size).ok()?;
                    decode_superblock(&b).ok().map(|(_, g)| g)
                })
                .max()
                .unwrap()
        };
        let none = em.scheduler().none();
        em.append(ext, b"zz", &none).unwrap();
        // Issue exactly one write. It must be the data write, because the
        // superblock write depends on it.
        em.scheduler().issue_ready(1).unwrap();
        em.scheduler().crash(&CrashPlan::KeepAll);
        let em2 = ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        // The superblock on disk must still be the old generation (pointer
        // 0), never a new pointer without its data.
        let disk = em2.scheduler().disk();
        let slot_size = disk.geometry().extent_size() / 2;
        let max_gen = (0..2u8)
            .filter_map(|s| {
                let b = disk.read(SUPERBLOCK_EXTENT, s as usize * slot_size, slot_size).ok()?;
                decode_superblock(&b).ok().map(|(_, g)| g)
            })
            .max()
            .unwrap();
        assert_eq!(max_gen, gen_before);
        assert_eq!(em2.write_pointer(ext), 0);
    }

    #[test]
    fn decode_superblock_never_panics_on_corrupt_input() {
        // Hand-crafted nasty inputs; the proptest suite covers random ones.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 3],
            b"SSSB".to_vec(),
            {
                let mut v = b"SSSB".to_vec();
                v.extend_from_slice(&1u16.to_le_bytes());
                v.extend_from_slice(&0u64.to_le_bytes());
                v.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
                v
            },
        ];
        for c in cases {
            assert!(decode_superblock(&c).is_err());
        }
    }

    #[test]
    fn b6_seeded_ownership_stale_after_reboot() {
        let em = setup();
        // Persist at least one superblock so recovery takes the
        // recovered-from-disk path rather than the blank-disk path.
        em.allocate(Owner::Data).unwrap();
        em.pump().unwrap();
        em.scheduler().crash(&CrashPlan::LoseAll);
        let em2 = ExtentManager::recover(
            em.scheduler().clone(),
            FaultConfig::seed(BugId::B6OwnershipDependency),
        )
        .unwrap();
        // Allocate a fresh extent and write to it; the buggy superblock
        // encoding omits the new ownership.
        let (ext, _) = em2.allocate(Owner::Data).unwrap();
        let none = em2.scheduler().none();
        let (_, dep) = em2.append(ext, b"doomed", &none).map(|o| (o.offset, o.dep)).unwrap();
        em2.pump().unwrap();
        assert!(dep.is_persistent(), "the append believes it is durable");
        // After another crash, recovery sees the extent as Free (stale
        // ownership) and zeroes its pointer: the durable data is gone.
        em2.scheduler().crash(&CrashPlan::LoseAll);
        let em3 =
            ExtentManager::recover(em2.scheduler().clone(), FaultConfig::none()).unwrap();
        assert_eq!(em3.owner(ext), Owner::Free, "buggy encoding lost the ownership");
        assert_eq!(em3.write_pointer(ext), 0, "the persisted data became unreadable");
    }

    #[test]
    fn b7_seeded_reset_skips_ordering_dependency() {
        let em_fixed = setup();
        let (ext, _) = em_fixed.allocate(Owner::Data).unwrap();
        em_fixed.pump().unwrap();
        let gate = em_fixed.scheduler().promise();
        let reset_dep = em_fixed.reset(ext, &gate.dependency());
        em_fixed.pump().unwrap();
        assert!(!reset_dep.is_persistent(), "fixed reset must wait for its dependency");

        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(disk);
        let em_bug = ExtentManager::format_with_pool(
            sched,
            FaultConfig::seed(BugId::B7SoftHardPointerMismatch),
            8,
        );
        let (ext, _) = em_bug.allocate(Owner::Data).unwrap();
        em_bug.pump().unwrap();
        let gate = em_bug.scheduler().promise();
        let reset_dep = em_bug.reset(ext, &gate.dependency());
        em_bug.pump().unwrap();
        assert!(reset_dep.is_persistent(), "buggy reset persists without its dependency");
    }

    #[test]
    fn append_batch_survives_transient_fault_within_budget() {
        // A transient fault striking the batch's coalesced data IO is
        // absorbed by the scheduler's bounded retry: the whole batch and
        // its single shared superblock update land, and a crash after the
        // pump recovers every payload byte-exactly.
        let em = setup();
        let (ext, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(ext, b"base", &none).unwrap();
        em.pump().unwrap();
        let payloads: Vec<Vec<u8>> =
            (0u8..3).map(|i| vec![0x40 + i; 100]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        em.scheduler().disk().inject_fail_once(ext);
        let outcomes = em.append_batch(ext, &refs, &none).unwrap();
        em.pump().unwrap();
        assert!(em.scheduler().counter("sched.retries") >= 1);
        assert_eq!(em.scheduler().counter("sched.retry_exhausted"), 0);
        for o in &outcomes {
            assert!(o.dep.is_persistent(), "batch ack must cover the retried IO");
        }
        em.scheduler().crash(&CrashPlan::LoseAll);
        let em2 =
            ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        assert_eq!(em2.write_pointer(ext), 4 + 300);
        for (o, p) in outcomes.iter().zip(&payloads) {
            assert_eq!(&em2.read(ext, o.offset, p.len()).unwrap(), p);
        }
    }

    #[test]
    fn batch_on_dying_extent_never_acks_and_never_poisons_siblings() {
        // A permanent fault strikes while a batch (three data writes plus
        // one shared superblock pointer update) is in flight. The pump
        // must quarantine the extent and keep going; the batch must never
        // be acknowledged (its data is gone); and a sibling extent's
        // append riding the same pump — and the same coalesced
        // superblock write — must still become durable. After a crash,
        // recovery re-discovers the broken extent (fail_always survives
        // reboots) and must not serve reads from it, while the sibling's
        // data is intact.
        let em = setup();
        let (dead, _) = em.allocate(Owner::Data).unwrap();
        let (live, _) = em.allocate(Owner::Data).unwrap();
        let none = em.scheduler().none();
        em.append(dead, b"base", &none).unwrap();
        em.pump().unwrap();

        em.scheduler().disk().inject_fail_always(dead);
        let refs: [&[u8]; 3] = [&[0xAA; 100], &[0xBB; 100], &[0xCC; 100]];
        let outcomes = em.append_batch(dead, &refs, &none).unwrap();
        let live_out = em.append(live, b"alive", &none).unwrap();
        em.pump().unwrap();

        assert!(em.is_quarantined(dead));
        assert!(!em.is_quarantined(live));
        for o in &outcomes {
            assert!(
                !o.dep.is_persistent(),
                "batch on the dead extent must never be acknowledged"
            );
        }
        assert!(live_out.dep.is_persistent(), "sibling append must not be wedged");
        // The quarantined extent refuses further appends outright.
        assert!(matches!(
            em.append(dead, b"x", &none),
            Err(ExtentError::Quarantined { .. })
        ));

        em.scheduler().crash(&CrashPlan::LoseAll);
        let em2 =
            ExtentManager::recover(em.scheduler().clone(), FaultConfig::none()).unwrap();
        assert_eq!(em2.read(live, 0, 5).unwrap(), b"alive");
        // The hardware fault survives the reboot: the dead extent's bytes
        // are unreadable, never fabricated.
        assert!(em2.read(dead, 0, 4).is_err());
    }
}
