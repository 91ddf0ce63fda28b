//! The operation interpreters: the one place the harness drives a
//! [`Store`] (over [`KvOp`]) or a node (over [`NodeOp`]).
//!
//! An interpreter resolves an operation's [`KeyRef`]s against the run so
//! far, materialises its values, issues the calls, and hands each result
//! to the checker as an observation. It judges nothing: whether an error
//! is tolerable, which model to compare with, and what a crash may lose
//! are the [`crate::oracle`]s' business. Most operations yield one
//! observation; a reboot yields several, because the oracles act between
//! its phases (a failed shutdown is judged against the pre-reboot store).
//! An oracle's `Err` ends the operation where it stands, so the store
//! sees exactly the calls it would have seen from a hand-written loop.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use shardstore_core::rpc::{dispatch, Request, Response};
use shardstore_core::{Engine, Node, RpcClient, Store, StoreError, ValueBuf};
use shardstore_dependency::Dependency;
use shardstore_faults::coverage;
use shardstore_sim::{FaultPoint, SimFaultKind};
use shardstore_vdisk::{CrashPlan, ExtentId, Geometry, IoError};

use crate::ops::{KeyRef, KvOp, NodeOp};

/// Where an interpreter delivers its observations; an `Err` aborts the
/// operation and becomes the run's divergence.
pub(crate) type Sink<'a, R, Obs> = &'a mut dyn FnMut(&mut R, Obs) -> Result<(), String>;

/// One key written by a mutation: `Some(bytes)` for a put, `None` for a
/// delete.
pub(crate) type Write = (u128, Option<Arc<Vec<u8>>>);

/// The store under test plus the facts about the run every oracle
/// shares.
pub(crate) struct Run {
    pub store: Store,
    geometry: Geometry,
    /// Every key put so far, in order (what [`KeyRef::Recent`] indexes).
    pub puts_so_far: Vec<u128>,
    /// Every value ever written per key, acknowledged or not: the
    /// never-wrong-data check's universe.
    pub history: BTreeMap<u128, Vec<Arc<Vec<u8>>>>,
    /// Keys whose state is ambiguous because an operation *on them*
    /// failed, or because a failed background operation left the whole
    /// store ambiguous. Only uncertain keys are exempt from the presence
    /// checks — this precision is what catches bugs like issue #5, where
    /// a reclamation swallowed an IO error and lost keys no failed
    /// operation ever touched.
    pub uncertain: BTreeSet<u128>,
    /// An injected fault has been armed (§4.4's "has failed").
    pub fault_active: bool,
    /// Mutations skipped because the disk genuinely filled up.
    pub skipped_no_space: usize,
}

impl Run {
    pub fn new(store: Store, geometry: Geometry) -> Self {
        Self {
            store,
            geometry,
            puts_so_far: Vec::new(),
            history: BTreeMap::new(),
            uncertain: BTreeSet::new(),
            fault_active: false,
            skipped_no_space: 0,
        }
    }

    /// Records a written value; returns its index in the key's history.
    pub fn record_write(&mut self, key: u128, value: Arc<Vec<u8>>) -> usize {
        self.puts_so_far.push(key);
        let h = self.history.entry(key).or_default();
        h.push(value);
        h.len() - 1
    }

    /// True if `bytes` was ever written to `key`.
    pub fn was_written(&self, key: u128, bytes: &[u8]) -> bool {
        self.history.get(&key).is_some_and(|h| h.iter().any(|v| ***v == *bytes))
    }

    /// Records mutations whose outcome is unknown (they failed under a
    /// fault and may have partially applied): attempted values join the
    /// write history, and every key becomes uncertain.
    pub fn record_doubtful(&mut self, writes: &[Write]) {
        for (key, value) in writes {
            if let Some(v) = value {
                self.record_write(*key, Arc::clone(v));
            }
            self.uncertain.insert(*key);
        }
    }

    /// Marks every key (model-side and implementation-side) uncertain —
    /// for a failed background operation (flush, reclaim, shutdown,
    /// pump), which leaves no way to attribute ambiguity to specific
    /// keys.
    pub fn mark_all_uncertain(&mut self, model_keys: Vec<u128>) {
        self.uncertain.extend(model_keys);
        if let Ok(keys) = self.store.list() {
            self.uncertain.extend(keys);
        }
        self.uncertain.extend(self.history.keys().copied());
    }
}

/// What one interpreter step did to the store.
pub(crate) enum Observation {
    Get { key: u128, got: Result<Option<Vec<u8>>, StoreError> },
    /// A put, batch put, or delete; on success one dependency per write.
    Mutated { what: &'static str, writes: Vec<Write>, result: Result<Vec<Dependency>, StoreError> },
    Scan { start: u128, end: u128, got: Result<Vec<(u128, ValueBuf)>, StoreError> },
    /// A flush, compaction, or reclamation pass; `Ok(true)` when an
    /// extent was reclaimed.
    Maintenance { what: &'static str, result: Result<bool, StoreError> },
    Pumped(Result<(), IoError>),
    /// First phase of a clean reboot; the store is still the old one.
    ShutDown(Result<(), StoreError>),
    /// Recovery failed. If the oracle lets the run continue, recovery is
    /// retried from an all-lost crash with the injected faults cleared.
    RecoveryBlocked(StoreError),
    /// A clean reboot completed; `lost_unflushed` are the memtable keys a
    /// failed shutdown flush may have rolled back.
    Rebooted { lost_unflushed: Vec<u128> },
    /// A dirty reboot completed.
    Crashed,
}

/// Applies one operation to the store.
pub(crate) fn apply(
    run: &mut Run,
    op: &KvOp,
    judge: Sink<'_, Run, Observation>,
) -> Result<(), String> {
    let page_size = run.geometry.page_size;
    match op {
        KvOp::Get(kr) => {
            let key = kr.resolve(&run.puts_so_far);
            let got = run.store.get(key);
            judge(run, Observation::Get { key, got })
        }
        KvOp::Put(kr, spec) => {
            let key = kr.resolve(&run.puts_so_far);
            let value = Arc::new(spec.materialize(key, page_size));
            let result = run.store.put(key, &value).map(|dep| vec![dep]);
            let writes = vec![(key, Some(value))];
            judge(run, Observation::Mutated { what: "put", writes, result })
        }
        KvOp::PutBatch(elems) => {
            // All key references resolve against the state before the
            // batch.
            let batch = materialize_batch(elems, &run.puts_so_far, page_size);
            let result = run.store.put_batch(&batch);
            let writes = batch.into_iter().map(|(k, v)| (k, Some(Arc::new(v)))).collect();
            judge(run, Observation::Mutated { what: "put_batch", writes, result })
        }
        KvOp::Delete(kr) => {
            let key = kr.resolve(&run.puts_so_far);
            let result = run.store.delete(key).map(|dep| vec![dep]);
            judge(run, Observation::Mutated { what: "delete", writes: vec![(key, None)], result })
        }
        KvOp::Scan(a, b) => {
            let (ka, kb) = (a.resolve(&run.puts_so_far), b.resolve(&run.puts_so_far));
            let (start, end) = (ka.min(kb), ka.max(kb));
            let got = run.store.scan(start, end);
            judge(run, Observation::Scan { start, end, got })
        }
        KvOp::IndexFlush => {
            let result = run.store.flush_index().map(|()| false);
            judge(run, Observation::Maintenance { what: "flush", result })
        }
        KvOp::Compact => {
            let result = run.store.compact_index().map(|()| false);
            judge(run, Observation::Maintenance { what: "compact", result })
        }
        KvOp::Reclaim(stream) => {
            let result = run.store.reclaim(*stream);
            judge(run, Observation::Maintenance { what: "reclaim", result })
        }
        KvOp::CacheDrop => {
            run.store.drop_caches();
            Ok(())
        }
        KvOp::Pump(n) => {
            let sched = run.store.scheduler();
            let result = sched.issue_ready(*n as usize).and_then(|_| sched.flush_issued());
            judge(run, Observation::Pumped(result))
        }
        KvOp::Reboot => {
            // A genuinely full disk can leave the shutdown flush nowhere
            // to write even after reclamation (§4.4 resource exhaustion):
            // the memtable's keys — and only those — may then come back
            // stale or absent.
            let shutdown = run.store.clean_shutdown();
            let lost_unflushed =
                if shutdown.is_err() { run.store.unflushed_keys() } else { Vec::new() };
            judge(run, Observation::ShutDown(shutdown))?;
            // Everything must be durable after a clean shutdown: recover
            // from the disk alone.
            recover(run, &CrashPlan::LoseAll, judge)?;
            judge(run, Observation::Rebooted { lost_unflushed })
        }
        KvOp::DirtyReboot(rt) => {
            coverage::hit("crashcheck.dirty_reboot");
            // Pre-crash volatile-state treatment (§5's RebootType).
            if rt.flush_index {
                let _ = run.store.flush_index();
            }
            let sched = run.store.scheduler();
            if rt.issue_ios > 0 {
                let _ = sched.issue_ready(rt.issue_ios as usize);
            }
            // Block-level survival: choose a page subset via the mask.
            let keep: BTreeSet<_> = sched
                .disk()
                .volatile_pages()
                .into_iter()
                .enumerate()
                .filter(|(idx, _)| rt.keep_mask & (1u64 << (idx % 64)) != 0)
                .map(|(_, p)| p)
                .collect();
            let plan = if keep.is_empty() { CrashPlan::LoseAll } else { CrashPlan::Keep(keep) };
            recover(run, &plan, judge)?;
            judge(run, Observation::Crashed)
        }
        KvOp::FailDiskOnce(raw) => {
            let target = KvOp::fail_target(*raw, run.geometry.extent_count);
            run.store.scheduler().disk().inject_fail_once(target);
            run.fault_active = true;
            Ok(())
        }
    }
}

fn materialize_batch(
    elems: &[(KeyRef, crate::ops::ValueSpec)],
    puts_so_far: &[u128],
    page_size: usize,
) -> Vec<(u128, Vec<u8>)> {
    elems
        .iter()
        .map(|(kr, spec)| {
            let key = kr.resolve(puts_so_far);
            (key, spec.materialize(key, page_size))
        })
        .collect()
}

/// Crashes the disk under `plan` and swaps in the recovered store.
fn recover(
    run: &mut Run,
    plan: &CrashPlan,
    judge: Sink<'_, Run, Observation>,
) -> Result<(), String> {
    run.store = match run.store.dirty_reboot(plan) {
        Ok(recovered) => recovered,
        Err(e) => {
            // Recovery blocked by a permanent injected failure (a dead
            // node would be re-replicated from other hosts): re-create
            // the store to keep the run going.
            run.store.scheduler().disk().clear_failures();
            judge(run, Observation::RecoveryBlocked(e))?;
            run.store
                .dirty_reboot(&CrashPlan::LoseAll)
                .map_err(|e| format!("recovery failed twice: {e}"))?
        }
    };
    Ok(())
}

/// Arms a schedule fault point on the store's disk. The raw extent wraps
/// into the live data extents (skipping the superblock extent 0, whose
/// loss is unrecoverable by design and would drown every run in
/// uncertifiable recoveries).
pub(crate) fn arm_fault(run: &mut Run, f: &FaultPoint) {
    let live = run.geometry.extent_count.saturating_sub(1).max(1);
    let target = ExtentId(1 + f.extent % live);
    let disk = run.store.scheduler().disk().clone();
    match f.kind {
        SimFaultKind::Transient(n) => disk.inject_fail_times(target, n),
        SimFaultKind::Permanent => disk.inject_fail_always(target),
    }
    run.fault_active = true;
}

// ---------------------------------------------------------------------------
// Node alphabet
// ---------------------------------------------------------------------------

/// How node requests reach the node: called in-process, or round-tripped
/// through the wire codec into a manual-mode [`Engine`] whose executors
/// only make progress when drained.
pub(crate) enum NodePort {
    Direct(Node),
    Wire { engine: Engine, client: RpcClient },
}

impl NodePort {
    pub fn node(&self) -> &Node {
        match self {
            NodePort::Direct(node) => node,
            NodePort::Wire { engine, .. } => engine.node(),
        }
    }

    /// Executes one request. Over the wire: encode, decode (the codec
    /// must be canonical), submit, drain the executors, collect the
    /// reply.
    pub fn call(&self, request: Request) -> Result<Response, String> {
        match self {
            NodePort::Direct(node) => Ok(dispatch(node, request)),
            NodePort::Wire { engine, client } => {
                let frame = request.encode();
                let decoded =
                    Request::decode(&frame).map_err(|e| format!("wire roundtrip failed: {e}"))?;
                if decoded.encode() != frame {
                    return Err("wire re-encode is not canonical".to_string());
                }
                let reply = client.call_nowait(decoded);
                engine.drain();
                reply.poll().ok_or_else(|| "no response after engine drain".to_string())
            }
        }
    }
}

/// The node under test plus the facts about the run its oracle shares.
pub(crate) struct NodeRun {
    pub port: NodePort,
    page_size: usize,
    pub puts_so_far: Vec<u128>,
    /// Disks a successful `RemoveDisk` took out of service.
    pub removed: Vec<bool>,
    /// Requests refused because a disk genuinely filled up.
    pub skipped_no_space: usize,
}

impl NodeRun {
    pub fn new(port: NodePort, page_size: usize) -> Self {
        let removed = vec![false; port.node().disk_count()];
        Self { port, page_size, puts_so_far: Vec::new(), removed, skipped_no_space: 0 }
    }

    fn on_removed_disk(&self, key: u128) -> bool {
        self.removed[self.port.node().route(key)]
    }
}

/// One node request and its reply. `on_removed_disk` is taken before the
/// call: some shard the request names routed to an out-of-service disk.
pub(crate) enum NodeObservation {
    Get { key: u128, on_removed_disk: bool, reply: Response },
    /// A put, delete, bulk create, or bulk remove (`None` = removal).
    Mutated {
        what: &'static str,
        writes: Vec<(u128, Option<Vec<u8>>)>,
        on_removed_disk: bool,
        reply: Response,
    },
    Listed(Response),
    DiskRemoved { disk: usize, reply: Response },
    DiskReturned { disk: usize, reply: Response },
    Migrated { key: u128, to_disk: usize, on_removed_disk: bool, reply: Response },
}

/// Applies one control-plane operation to the node.
pub(crate) fn apply_node(
    run: &mut NodeRun,
    op: &NodeOp,
    judge: Sink<'_, NodeRun, NodeObservation>,
) -> Result<(), String> {
    let disk_of = |d: u8| d as usize % run.port.node().disk_count();
    match op {
        NodeOp::Get(kr) => {
            let key = kr.resolve(&run.puts_so_far);
            let on_removed_disk = run.on_removed_disk(key);
            let reply = run.port.call(Request::Get { shard: key })?;
            judge(run, NodeObservation::Get { key, on_removed_disk, reply })
        }
        NodeOp::Put(kr, spec) => {
            let key = kr.resolve(&run.puts_so_far);
            let data = spec.materialize(key, run.page_size);
            let request = Request::Put { shard: key, data: data.clone() };
            mutate(run, "put", vec![(key, Some(data))], request, false, judge)
        }
        NodeOp::Delete(kr) => {
            let key = kr.resolve(&run.puts_so_far);
            mutate(run, "delete", vec![(key, None)], Request::Delete { shard: key }, false, judge)
        }
        NodeOp::List => {
            let reply = run.port.call(Request::List)?;
            judge(run, NodeObservation::Listed(reply))
        }
        NodeOp::RemoveDisk(d) => {
            let disk = disk_of(*d);
            let reply = run.port.call(Request::RemoveDisk { disk: disk as u32 })?;
            judge(run, NodeObservation::DiskRemoved { disk, reply })
        }
        NodeOp::ReturnDisk(d) => {
            let disk = disk_of(*d);
            let reply = run.port.call(Request::ReturnDisk { disk: disk as u32 })?;
            judge(run, NodeObservation::DiskReturned { disk, reply })
        }
        NodeOp::BulkCreate(batch) => {
            let shards = materialize_batch(batch, &run.puts_so_far, run.page_size);
            let writes = shards.iter().map(|(k, v)| (*k, Some(v.clone()))).collect();
            mutate(run, "bulk create", writes, Request::BulkCreate { shards }, true, judge)
        }
        NodeOp::BulkRemove(batch) => {
            let shards: Vec<u128> = batch.iter().map(|kr| kr.resolve(&run.puts_so_far)).collect();
            let writes = shards.iter().map(|k| (*k, None)).collect();
            mutate(run, "bulk remove", writes, Request::BulkRemove { shards }, true, judge)
        }
        NodeOp::Migrate(kr, d) => {
            let key = kr.resolve(&run.puts_so_far);
            let to_disk = disk_of(*d);
            let on_removed_disk = run.on_removed_disk(key) || run.removed[to_disk];
            let reply = run.port.call(Request::Migrate { shard: key, to_disk: to_disk as u32 })?;
            judge(run, NodeObservation::Migrated { key, to_disk, on_removed_disk, reply })
        }
    }
}

fn mutate(
    run: &mut NodeRun,
    what: &'static str,
    writes: Vec<(u128, Option<Vec<u8>>)>,
    request: Request,
    batch: bool,
    judge: Sink<'_, NodeRun, NodeObservation>,
) -> Result<(), String> {
    let on_removed_disk = writes.iter().any(|(k, _)| run.on_removed_disk(*k));
    if batch && on_removed_disk {
        // The control plane would not target a removed disk with a batch.
        return Ok(());
    }
    let reply = run.port.call(request)?;
    judge(run, NodeObservation::Mutated { what, writes, on_removed_disk, reply })
}
