//! Operation alphabets for property-based conformance checking (§4.1).
//!
//! An alphabet covers a component's API operations *and* its background
//! operations (reclamation, flushes, reboots): background operations are
//! no-ops in the reference model, so including them validates that their
//! implementations do not corrupt the mapping (Fig. 3).
//!
//! Two design rules from §4.3 are encoded here:
//!
//! - **Minimization-friendly ordering**: variants are arranged in
//!   increasing order of complexity, because the shrinker prefers earlier
//!   variants — a minimized counterexample uses the simplest operations
//!   that still fail.
//! - **Biased arguments**: keys are [`KeyRef`]s that can resolve to
//!   previously-put keys (so the successful-get path is actually
//!   exercised), and value sizes are biased toward page-size-adjacent
//!   corner cases — while keeping every case possible (§4.2).

use shardstore_chunk::Stream;
use shardstore_vdisk::ExtentId;

/// A reference to a key: either literal, or "the i-th key that was put
/// earlier" (resolved at execution time against the trace so far). The
/// indirection is what makes biasing shrink-friendly: a `Recent` reference
/// keeps pointing at *some* earlier key as the sequence shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRef {
    /// A key from a small literal domain (collisions are likely by
    /// construction).
    Literal(u8),
    /// The `i % puts_so_far`-th previously put key; falls back to the
    /// literal domain when nothing was put yet.
    Recent(u8),
}

impl KeyRef {
    /// Resolves the reference against the keys put so far.
    pub fn resolve(&self, puts_so_far: &[u128]) -> u128 {
        match self {
            KeyRef::Literal(k) => *k as u128,
            KeyRef::Recent(i) => {
                if puts_so_far.is_empty() {
                    *i as u128
                } else {
                    puts_so_far[*i as usize % puts_so_far.len()]
                }
            }
        }
    }
}

/// Value size specification, biased toward page-size corner cases
/// (read/write sizes close to the disk page size are "frequent causes of
/// bugs" per §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSpec {
    /// A small arbitrary length.
    Small(u8),
    /// `page_size + delta - 2` bytes: straddles the page boundary for
    /// deltas 0..4.
    NearPage(u8),
    /// `page_size - FRAME_OVERHEAD + delta` bytes: the chunk *frame*
    /// (payload + 38 bytes of framing) lands exactly on or just past a
    /// page boundary. Delta 0 gives a page-aligned frame (the issue #1
    /// off-by-one trigger); delta 16 gives a frame whose trailer spills
    /// exactly one UUID onto the next page (the issue #10 §5 scenario).
    FrameSpill(u8),
}

impl ValueSpec {
    /// Concrete byte length for a given page size.
    pub fn len(&self, page_size: usize) -> usize {
        match self {
            ValueSpec::Small(n) => *n as usize,
            ValueSpec::NearPage(delta) => (page_size + *delta as usize).saturating_sub(2),
            ValueSpec::FrameSpill(delta) => {
                (page_size + *delta as usize)
                    .saturating_sub(shardstore_chunk::FRAME_OVERHEAD)
            }
        }
    }

    /// Deterministic payload of this length, derived from the key so that
    /// corruption (returning another shard's bytes) is detectable.
    pub fn materialize(&self, key: u128, page_size: usize) -> Vec<u8> {
        let len = self.len(page_size);
        (0..len).map(|i| (key as usize).wrapping_add(i).wrapping_mul(31) as u8).collect()
    }
}

/// How a dirty reboot treats volatile state (§5's `RebootType`): which
/// component states get flushed before the crash, and which disk-cache
/// pages survive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebootType {
    /// Flush the LSM memtable (queue its writes) before crashing.
    pub flush_index: bool,
    /// How many ready writes to issue into the disk cache before
    /// crashing (0 = none; issued writes may partially survive).
    pub issue_ios: u8,
    /// Survival mask over the disk's volatile pages at crash time: bit
    /// `i % 64` decides whether the i-th cached page survives.
    pub keep_mask: u64,
}

/// The API-level operation alphabet for sequential conformance and
/// crash-consistency checking, in increasing order of complexity (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read a shard.
    Get(KeyRef),
    /// Store a shard.
    Put(KeyRef, ValueSpec),
    /// Store several shards as one group commit ([`Store::put_batch`]).
    /// Atomic per element: equivalent to the puts applied in order, so
    /// the model applies them one by one (key references all resolve
    /// against the state *before* the batch).
    ///
    /// [`Store::put_batch`]: shardstore_core::Store::put_batch
    PutBatch(Vec<(KeyRef, ValueSpec)>),
    /// Delete a shard.
    Delete(KeyRef),
    /// Range scan between two key references (the runner orders the
    /// resolved endpoints, so the pair always denotes a non-inverted
    /// inclusive range).
    Scan(KeyRef, KeyRef),
    /// Flush the LSM memtable (background; model no-op).
    IndexFlush,
    /// Compact the LSM tree (background; model no-op).
    Compact,
    /// Run chunk reclamation over the best victim (background; model
    /// no-op).
    Reclaim(Stream),
    /// Drop the buffer cache (volatile state only; model no-op).
    CacheDrop,
    /// Pump queued IO: issue up to `n` ready writes and flush the disk.
    Pump(u8),
    /// Clean reboot: flush everything, check forward progress, recover.
    Reboot,
    /// Dirty reboot: crash with the given volatile-state treatment, then
    /// recover (crash-consistency alphabet only).
    DirtyReboot(RebootType),
    /// Make the next IO to an extent fail (failure-injection alphabet
    /// only; §4.4's `FailDiskOnce`).
    FailDiskOnce(u8),
}

impl KvOp {
    /// True for operations only meaningful in the crash alphabet.
    pub fn is_crash_op(&self) -> bool {
        matches!(self, KvOp::DirtyReboot(_))
    }

    /// True for failure-injection operations.
    pub fn is_failure_op(&self) -> bool {
        matches!(self, KvOp::FailDiskOnce(_))
    }

    /// Resolves a `FailDiskOnce` target against a disk geometry.
    pub fn fail_target(extent_raw: u8, extent_count: u32) -> ExtentId {
        ExtentId(extent_raw as u32 % extent_count)
    }

    /// Coverage probe name for this operation kind.
    pub fn probe(&self) -> &'static str {
        match self {
            KvOp::Get(_) => "sim.op.get",
            KvOp::Put(..) => "sim.op.put",
            KvOp::PutBatch(_) => "sim.op.put_batch",
            KvOp::Delete(_) => "sim.op.delete",
            KvOp::Scan(..) => "sim.op.scan",
            KvOp::IndexFlush => "sim.op.index_flush",
            KvOp::Compact => "sim.op.compact",
            KvOp::Reclaim(_) => "sim.op.reclaim",
            KvOp::CacheDrop => "sim.op.cache_drop",
            KvOp::Pump(_) => "sim.op.pump",
            KvOp::Reboot => "sim.op.reboot",
            KvOp::DirtyReboot(_) => "sim.op.dirty_reboot",
            KvOp::FailDiskOnce(_) => "sim.op.fail_disk",
        }
    }
}

/// The index-level operation alphabet (the literal Fig. 3 `IndexOp`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexOp {
    /// Look up a key.
    Get(KeyRef),
    /// Map a key to a locator list.
    Put(KeyRef, u8),
    /// Remove a key.
    Delete(KeyRef),
    /// Flush the memtable.
    Flush,
    /// Compact the tree.
    Compact,
    /// Reclaim an LSM-owned extent.
    Reclaim,
    /// Clean reboot (recover the index from disk).
    Reboot,
}

/// Node-level (control-plane) operations for the multi-disk alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOp {
    /// Request-plane read.
    Get(KeyRef),
    /// Request-plane write.
    Put(KeyRef, ValueSpec),
    /// Request-plane delete.
    Delete(KeyRef),
    /// Control-plane listing.
    List,
    /// Remove a disk from service.
    RemoveDisk(u8),
    /// Return a removed disk to service.
    ReturnDisk(u8),
    /// Bulk-create a batch of shards.
    BulkCreate(Vec<(KeyRef, ValueSpec)>),
    /// Bulk-remove a batch of shards.
    BulkRemove(Vec<KeyRef>),
    /// Migrate a shard to another disk.
    Migrate(KeyRef, u8),
}

impl NodeOp {
    /// Coverage probe name for this operation kind.
    pub fn probe(&self) -> &'static str {
        match self {
            NodeOp::Get(_) => "sim.op.get",
            NodeOp::Put(..) => "sim.op.put",
            NodeOp::Delete(_) => "sim.op.delete",
            NodeOp::List => "sim.op.list",
            NodeOp::RemoveDisk(_) => "sim.op.remove_disk",
            NodeOp::ReturnDisk(_) => "sim.op.return_disk",
            NodeOp::BulkCreate(_) => "sim.op.bulk_create",
            NodeOp::BulkRemove(_) => "sim.op.bulk_remove",
            NodeOp::Migrate(..) => "sim.op.migrate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_keyref_resolves_to_itself() {
        assert_eq!(KeyRef::Literal(7).resolve(&[]), 7);
        assert_eq!(KeyRef::Literal(7).resolve(&[100, 200]), 7);
    }

    #[test]
    fn recent_keyref_resolves_to_previous_put() {
        let puts = vec![100u128, 200, 300];
        assert_eq!(KeyRef::Recent(0).resolve(&puts), 100);
        assert_eq!(KeyRef::Recent(4).resolve(&puts), 200);
        // Falls back to the literal domain when nothing was put.
        assert_eq!(KeyRef::Recent(9).resolve(&[]), 9);
    }

    #[test]
    fn near_page_sizes_straddle_the_boundary() {
        let page = 128;
        let lens: Vec<usize> = (0..4u8).map(|d| ValueSpec::NearPage(d).len(page)).collect();
        assert_eq!(lens, vec![126, 127, 128, 129]);
    }

    #[test]
    fn materialized_values_differ_by_key() {
        let a = ValueSpec::Small(16).materialize(1, 128);
        let b = ValueSpec::Small(16).materialize(2, 128);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn fail_target_wraps_extent_count() {
        assert_eq!(KvOp::fail_target(20, 16), ExtentId(4));
    }
}
