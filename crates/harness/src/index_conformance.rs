//! The Fig. 3 harness, verbatim in structure: property-based conformance
//! of the persistent LSM index against its hash-map reference model.
//!
//! §8.4 explains why the paper models *internal component APIs* rather
//! than only the public interface: corner cases (especially fault
//! scenarios) are much easier to exercise one component at a time, and
//! engineers debug failures in their own component without tracing
//! through the whole stack. This runner is that per-component check for
//! the index.

use proptest::prelude::*;

use shardstore_cache::CachedChunkStore;
use shardstore_chunk::{ChunkStore, Locator, Stream};
use shardstore_dependency::IoScheduler;
use shardstore_faults::FaultConfig;
use shardstore_lsm::LsmIndex;
use shardstore_model::IndexModel;
use shardstore_superblock::ExtentManager;
use shardstore_vdisk::{CrashPlan, Disk, Geometry};

use crate::conformance::Divergence;
use crate::gen::key_ref;
use crate::ops::IndexOp;

/// Strategy for index-op sequences (the Fig. 3 alphabet, ordered by
/// increasing complexity for the shrinker).
pub fn index_ops(bias: bool, max_len: usize) -> impl Strategy<Value = Vec<IndexOp>> {
    let op = prop_oneof![
        4 => key_ref(bias).prop_map(IndexOp::Get),
        4 => (key_ref(bias), any::<u8>()).prop_map(|(k, v)| IndexOp::Put(k, v)),
        2 => key_ref(bias).prop_map(IndexOp::Delete),
        1 => Just(IndexOp::Flush),
        1 => Just(IndexOp::Compact),
        1 => Just(IndexOp::Reclaim),
        1 => Just(IndexOp::Reboot),
    ];
    proptest::collection::vec(op, 1..max_len)
}

/// Synthesizes a locator list for a `Put(key, v)` op: locators are index
/// *values* here, so any well-formed list works; deriving them from the
/// arguments keeps runs deterministic.
fn synth_locators(key: u128, v: u8) -> Vec<Locator> {
    (0..(v % 3) as u32 + 1)
        .map(|i| Locator {
            extent: shardstore_vdisk::ExtentId(200 + (v as u32 % 7)),
            offset: (key as u32).wrapping_mul(31).wrapping_add(i * 100),
            len: v as u32,
            uuid: (key << 16) ^ (v as u128) ^ (i as u128) << 8,
        })
        .collect()
}

fn fresh_index(faults: &FaultConfig) -> LsmIndex {
    let disk = Disk::new(Geometry::small());
    let sched = IoScheduler::new(disk);
    let em = ExtentManager::format(sched, faults.clone());
    let cs = ChunkStore::new(em, faults.clone(), 2024);
    let cache = CachedChunkStore::new(cs, faults.clone(), 512);
    LsmIndex::new(cache, faults.clone())
}

/// The `proptest_index` loop of Fig. 3: apply each op to both the
/// implementation and the reference, compare results, check invariants.
pub fn run_index_conformance(ops: &[IndexOp], faults: &FaultConfig) -> Result<(), Divergence> {
    let mut implementation = fresh_index(faults);
    let mut reference = IndexModel::new();
    let mut puts_so_far: Vec<u128> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            IndexOp::Get(kr) => {
                let key = kr.resolve(&puts_so_far);
                let got = implementation
                    .get(key)
                    .map_err(|e| Divergence::at(i, op, format!("get failed: {e}")))?;
                let expected = reference.get(key);
                if got != expected {
                    return Err(Divergence::at(
                        i,
                        op,
                        format!("get({key}): impl {got:?} vs model {expected:?}"),
                    ));
                }
            }
            IndexOp::Put(kr, v) => {
                let key = kr.resolve(&puts_so_far);
                let locators = synth_locators(key, *v);
                let none =
                    implementation.cache().chunk_store().extent_manager().scheduler().none();
                implementation.put(key, locators.clone(), none);
                reference.put(key, locators);
                puts_so_far.push(key);
            }
            IndexOp::Delete(kr) => {
                let key = kr.resolve(&puts_so_far);
                implementation.delete(key);
                reference.delete(key);
            }
            IndexOp::Flush => {
                implementation
                    .flush()
                    .map_err(|e| Divergence::at(i, op, format!("flush failed: {e}")))?;
                reference.flush();
            }
            IndexOp::Compact => {
                implementation
                    .compact()
                    .map_err(|e| Divergence::at(i, op, format!("compact failed: {e}")))?;
                reference.compact();
            }
            IndexOp::Reclaim => {
                // Reclaim the best LSM-stream victim, if any; a no-op in
                // the model.
                let cs = implementation.cache().chunk_store().clone();
                if let Some(victim) = cs.select_victim(Stream::Lsm) {
                    let referencer = implementation.lsm_referencer();
                    implementation
                        .cache()
                        .reclaim(victim, Stream::Lsm, &referencer)
                        .map_err(|e| Divergence::at(i, op, format!("reclaim failed: {e}")))?;
                    implementation.note_extent_reset();
                }
            }
            IndexOp::Reboot => {
                implementation
                    .shutdown()
                    .map_err(|e| Divergence::at(i, op, format!("shutdown failed: {e}")))?;
                let sched =
                    implementation.cache().chunk_store().extent_manager().scheduler().clone();
                sched.crash(&CrashPlan::LoseAll);
                let em = ExtentManager::recover(sched, faults.clone())
                    .map_err(|e| Divergence::at(i, op, format!("em recovery failed: {e}")))?;
                let cs = ChunkStore::recover(em, faults.clone(), 2025)
                    .map_err(|e| Divergence::at(i, op, format!("cs recovery failed: {e}")))?;
                let cache = CachedChunkStore::new(cs, faults.clone(), 512);
                implementation = LsmIndex::recover(cache, faults.clone())
                    .map_err(|e| Divergence::at(i, op, format!("index recovery failed: {e}")))?;
            }
        }
        // Fig. 3 line 24: check_invariants — both sides hold the same
        // key → locator mapping.
        let impl_keys = implementation
            .keys()
            .map_err(|e| Divergence::at(i, op, format!("keys failed: {e}")))?;
        if impl_keys != reference.keys() {
            return Err(Divergence::at(
                i,
                op,
                format!("key sets diverge: impl {impl_keys:?} vs model {:?}", reference.keys()),
            ));
        }
        for key in &impl_keys {
            let got = implementation
                .get(*key)
                .map_err(|e| Divergence::at(i, op, format!("invariant get failed: {e}")))?;
            if got != reference.get(*key) {
                return Err(Divergence::at(i, op, format!("value diverges for key {key}")));
            }
        }
    }
    Ok(())
}

/// Convenience: resolve a [`KeyRef`] trace (exposed for the benches).
pub fn resolve_keys(ops: &[IndexOp]) -> Vec<u128> {
    let mut puts = Vec::new();
    for op in ops {
        if let IndexOp::Put(kr, _) = op {
            let k = kr.resolve(&puts);
            puts.push(k);
        }
    }
    puts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::KeyRef;

    #[test]
    fn directed_sequence_passes() {
        let ops = vec![
            IndexOp::Put(KeyRef::Literal(1), 10),
            IndexOp::Get(KeyRef::Literal(1)),
            IndexOp::Flush,
            IndexOp::Get(KeyRef::Literal(1)),
            IndexOp::Put(KeyRef::Literal(2), 20),
            IndexOp::Compact,
            IndexOp::Reclaim,
            IndexOp::Delete(KeyRef::Literal(1)),
            IndexOp::Reboot,
            IndexOp::Get(KeyRef::Literal(1)),
            IndexOp::Get(KeyRef::Literal(2)),
        ];
        run_index_conformance(&ops, &FaultConfig::none()).unwrap();
    }

    #[test]
    fn synth_locators_are_deterministic() {
        assert_eq!(synth_locators(5, 9), synth_locators(5, 9));
        assert_ne!(synth_locators(5, 9), synth_locators(6, 9));
    }
}
