//! Soft-updates crash consistency: run-time dependency graphs and the IO
//! scheduler that enforces them (§2.2 of the paper).
//!
//! ShardStore avoids a write-ahead log by orchestrating the *order* in
//! which writes reach the disk, so that every crash state of the disk is
//! consistent (soft updates). Rather than global reasoning about writeback
//! orderings, crash-consistent orderings are specified *declaratively*: the
//! only way to write to disk is to submit a write to the [`IoScheduler`]
//! together with an input [`Dependency`], and the scheduler guarantees the
//! write is not issued to the disk until the input dependency has been
//! *persisted*. Every submission returns a new `Dependency` that can be
//! combined with others ([`Dependency::and`]) to build richer graphs, and
//! polled with [`Dependency::is_persistent`] — the exact API shape of the
//! paper's `fn append(&self, ..., dep: Dependency) -> Dependency`.
//!
//! Three node kinds make up a dependency graph:
//!
//! - **Write** nodes carry data destined for an extent. They move through
//!   `Pending` (queued, invisible to the disk) → `Issued` (in the disk's
//!   volatile cache) → `Persisted` (flushed). A crash drops pending writes
//!   entirely and may keep any page subset of issued-but-unflushed writes.
//! - **Join** nodes ([`Dependency::and`], [`IoScheduler::join`]) persist
//!   when all their dependencies persist.
//! - **Promise** nodes ([`IoScheduler::promise`]) are joins whose
//!   dependencies are filled in later — e.g. a `put`'s index entry becomes
//!   persistent only once some future LSM flush and metadata write land,
//!   so `put` returns a promise that the flush seals afterwards.
//!
//! # Group commit
//!
//! Persistence is resolved *event-driven*: every node counts its
//! unresolved dependencies, and completion events (a flush persisting a
//! write, a promise being sealed) cascade through reverse edges, feeding a
//! ready queue of issueable writes. Nothing is polled; pumping pops the
//! ready queue, groups the whole batch per extent, merges contiguous
//! same-extent writes into single disk IOs (Fig. 2's two puts sharing one
//! IO), and [`IoScheduler::flush_issued`] fences only the extents the
//! batch actually dirtied instead of barriering the whole disk. Pending
//! writes can also be *amended* in place
//! ([`IoScheduler::amend_pending_write`]), which is how superblock
//! soft-write-pointer updates from many appends fold into one superblock
//! write.
//!
//! Writeback can run on the caller's thread ([`WritebackMode::Deterministic`],
//! the default — checkers rely on it for deterministic schedules) or on a
//! background pump ([`WritebackMode::Background`]) signalled on every
//! submission and batching work within a configurable window. Under a
//! checked execution the pump becomes a checker-controlled task, so model
//! checking explores its interleavings too; harnesses must call
//! [`IoScheduler::quiesce`] before asserting (and before dropping a
//! controlled scheduler) so no pump task outlives the execution.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use shardstore_conc::sync::{Condvar, Mutex};
use shardstore_obs::{Counter, Gauge, Obs, TraceEvent};
use shardstore_vdisk::{CrashPlan, Disk, ExtentId, IoError};

/// Index of a node in the scheduler's arena.
type NodeId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteState {
    Pending,
    Issued,
    Persisted,
    /// Dropped by a crash before persisting, or failed by an injected IO
    /// error. A lost node can never become persistent.
    Lost,
}

#[derive(Debug)]
enum NodeKind {
    Write { extent: ExtentId, offset: usize, len: usize, data: Option<Vec<u8>>, state: WriteState },
    Join { sealed: bool },
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    deps: Vec<NodeId>,
    /// Reverse edges: nodes whose `unresolved` count includes this node.
    /// Drained when this node resolves; a lost node never drains its
    /// waiters, which is exactly what keeps them from persisting.
    waiters: Vec<NodeId>,
    /// How many of `deps` have not yet resolved. A pending write with
    /// `unresolved == 0` is ready to issue.
    unresolved: usize,
    /// "This node and everything below it has persisted." Maintained
    /// eagerly by the resolution cascade, so polling is O(1).
    persistent_memo: bool,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    /// Write nodes not yet issued, in submission order (the
    /// read-your-writes overlay and crash semantics need this order).
    pending: VecDeque<NodeId>,
    /// Pending writes whose dependencies have all resolved, in the order
    /// they became ready. Entries can go stale (amended with new deps,
    /// issued via a duplicate entry, lost to a crash); consumers re-check
    /// readiness when popping.
    ready: VecDeque<NodeId>,
    /// Issued-but-unflushed writes, grouped by the extent they dirtied.
    issued: BTreeMap<ExtentId, Vec<NodeId>>,
    issued_total: usize,
    /// How many immediate in-call retries a transient (`Injected`) write
    /// failure gets before the batch is requeued and the error surfaced.
    retry_budget: u32,
    /// The shared observability handle (also attached to the disk); the
    /// scheduler emits its trace events through this.
    obs: Obs,
    /// Registry-backed counter handles. The registry is the single source
    /// of truth for scheduler statistics; read them back through
    /// [`IoScheduler::counter`] / [`IoScheduler::queue_depth`].
    counters: SchedCounters,
}

/// Pre-resolved handles for every scheduler metric, so hot-path recording
/// is one atomic increment with no registry lookup.
#[derive(Debug)]
struct SchedCounters {
    writes_submitted: Counter,
    ios_issued: Counter,
    writes_coalesced: Counter,
    flushes: Counter,
    writes_lost_pending: Counter,
    writes_lost_issued: Counter,
    waw_dependencies: Counter,
    writes_retried: Counter,
    retries: Counter,
    retry_exhausted: Counter,
    writes_failed: Counter,
    batches_issued: Counter,
    extents_fenced: Counter,
    queue_depth: Gauge,
}

impl SchedCounters {
    fn new(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            writes_submitted: r.counter("sched.writes_submitted"),
            ios_issued: r.counter("sched.ios_issued"),
            writes_coalesced: r.counter("sched.writes_coalesced"),
            flushes: r.counter("sched.flushes"),
            writes_lost_pending: r.counter("sched.writes_lost_pending"),
            writes_lost_issued: r.counter("sched.writes_lost_issued"),
            waw_dependencies: r.counter("sched.waw_dependencies"),
            writes_retried: r.counter("sched.writes_retried"),
            retries: r.counter("sched.retries"),
            retry_exhausted: r.counter("sched.retry_exhausted"),
            writes_failed: r.counter("sched.writes_failed"),
            batches_issued: r.counter("sched.batches_issued"),
            extents_fenced: r.counter("sched.extents_fenced"),
            queue_depth: r.gauge("sched.queue_depth"),
        }
    }
}

/// Default in-call retry budget for transient write failures.
pub const DEFAULT_RETRY_BUDGET: u32 = 3;

/// How writeback is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackMode {
    /// Writes reach the disk only when the caller pumps. The default, and
    /// what every checker uses: schedules stay deterministic.
    Deterministic,
    /// A background pump issues and flushes ready writes on its own,
    /// batching submissions within the configured window. Outside checked
    /// executions this is a real thread signalled over a crossbeam
    /// channel; inside one it is a checker-controlled task (the batch
    /// window does not apply — the checker owns the schedule).
    Background(WritebackConfig),
}

/// Tuning for [`WritebackMode::Background`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackConfig {
    /// After a submission wakes the pump, how long it waits for more
    /// submissions to batch into one group commit.
    pub batch_window: Duration,
    /// Pump without further waiting once this many submissions have
    /// accumulated in the current window.
    pub max_batch: usize,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        Self { batch_window: Duration::from_micros(100), max_batch: 64 }
    }
}

/// Wake-up messages for the std-thread pump.
enum PumpSignal {
    Work,
    Shutdown,
}

/// Rendezvous state for the checker-controlled pump task.
struct ControlledPump {
    state: Mutex<ControlledPumpState>,
    cv: Condvar,
}

struct ControlledPumpState {
    signals: u64,
    shutdown: bool,
}

enum PumpWorker {
    Std { tx: crossbeam::channel::Sender<PumpSignal>, handle: std::thread::JoinHandle<()> },
    Controlled { shared: Arc<ControlledPump>, handle: shardstore_conc::thread::JoinHandle<()> },
}

struct PumpCtl {
    mode: WritebackMode,
    worker: Option<PumpWorker>,
}

/// The IO scheduler: the single gateway through which all ShardStore
/// components write to disk.
///
/// Cloning is cheap and shares the underlying scheduler.
#[derive(Clone)]
pub struct IoScheduler {
    core: Arc<SchedCore>,
}

struct SchedCore {
    disk: Arc<Disk>,
    /// The shared observability handle (also held inside `inner` for
    /// lock-held emission, and attached to the disk).
    obs: Obs,
    inner: Mutex<Inner>,
    pump_ctl: Mutex<PumpCtl>,
}

impl SchedCore {
    /// Nudges the background pump, if one is running.
    fn signal_pump(&self) {
        let ctl = self.pump_ctl.lock();
        match &ctl.worker {
            None => {}
            Some(PumpWorker::Std { tx, .. }) => {
                let _ = tx.send(PumpSignal::Work);
            }
            Some(PumpWorker::Controlled { shared, .. }) => {
                let mut st = shared.state.lock();
                st.signals += 1;
                shared.cv.notify_one();
            }
        }
    }
}

impl fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.core.inner.lock();
        f.debug_struct("IoScheduler")
            .field("nodes", &inner.nodes.len())
            .field("pending", &inner.pending.len())
            .field("ready", &inner.ready.len())
            .field("issued", &inner.issued_total)
            .finish()
    }
}

/// A handle to a dependency-graph node (or the trivially persistent empty
/// dependency). Cheap to clone; combine with [`Dependency::and`]; poll with
/// [`Dependency::is_persistent`].
#[derive(Clone)]
pub struct Dependency {
    core: Arc<SchedCore>,
    node: Option<NodeId>,
}

impl fmt::Debug for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "Dependency({n})"),
            None => write!(f, "Dependency(none)"),
        }
    }
}

/// An unsealed join node: dependencies can be added until [`Promise::seal`]
/// is called; it reports non-persistent until sealed.
#[derive(Debug, Clone)]
pub struct Promise {
    dep: Dependency,
}

impl IoScheduler {
    /// Creates a scheduler over a disk. The scheduler is the root of the
    /// observability topology: it creates the shared [`Obs`] handle and
    /// attaches it to the disk, and every layer above reaches it through
    /// [`IoScheduler::obs`] — no constructor anywhere else changes.
    pub fn new(disk: Arc<Disk>) -> Self {
        let obs = Obs::default();
        disk.attach_obs(obs.clone());
        let counters = SchedCounters::new(&obs);
        Self {
            core: Arc::new(SchedCore {
                disk,
                obs: obs.clone(),
                inner: Mutex::new(Inner {
                    nodes: Vec::new(),
                    pending: VecDeque::new(),
                    ready: VecDeque::new(),
                    issued: BTreeMap::new(),
                    issued_total: 0,
                    retry_budget: DEFAULT_RETRY_BUDGET,
                    obs,
                    counters,
                }),
                pump_ctl: Mutex::new(PumpCtl { mode: WritebackMode::Deterministic, worker: None }),
            }),
        }
    }

    /// The shared observability handle (created by this scheduler and
    /// attached to its disk).
    pub fn obs(&self) -> Obs {
        self.core.obs.clone()
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.core.disk
    }

    /// The always-persistent empty dependency.
    pub fn none(&self) -> Dependency {
        Dependency { core: Arc::clone(&self.core), node: None }
    }

    /// Submits a write of `data` at `(extent, offset)` that will not be
    /// issued to disk until `dep` has persisted. Returns the write's own
    /// dependency.
    pub fn submit_write(
        &self,
        extent: ExtentId,
        offset: usize,
        data: Vec<u8>,
        dep: &Dependency,
    ) -> Dependency {
        debug_assert!(Arc::ptr_eq(&self.core, &dep.core), "dependency from another scheduler");
        let id;
        {
            let mut guard = self.core.inner.lock();
            let inner = &mut *guard;
            id = inner.nodes.len();
            let mut deps: Vec<NodeId> = dep.node.into_iter().collect();
            // Write-after-write ordering: a write overlapping a still-pending
            // earlier write to the same bytes must not be issued before it —
            // otherwise dependency readiness can reorder them and the *older*
            // data lands last. This arises when an extent reset reuses space
            // while writes from before the reset are still queued.
            let overlapping: Vec<NodeId> = inner
                .pending
                .iter()
                .copied()
                .filter(|p| {
                    matches!(
                        &inner.nodes[*p].kind,
                        NodeKind::Write { extent: e, offset: o, len: l, state, .. }
                            if *state == WriteState::Pending
                                && *e == extent
                                && *o < offset + data.len()
                                && offset < *o + *l
                    )
                })
                .collect();
            inner.counters.waw_dependencies.add(overlapping.len() as u64);
            deps.extend(overlapping);
            inner.nodes.push(Node {
                kind: NodeKind::Write {
                    extent,
                    offset,
                    len: data.len(),
                    data: Some(data),
                    state: WriteState::Pending,
                },
                deps,
                waiters: Vec::new(),
                unresolved: 0,
                persistent_memo: false,
            });
            inner.pending.push_back(id);
            Self::register_deps(inner, id);
            if inner.nodes[id].unresolved == 0 {
                inner.ready.push_back(id);
            }
            inner.counters.writes_submitted.inc();
        }
        self.core.signal_pump();
        Dependency { core: Arc::clone(&self.core), node: Some(id) }
    }

    /// Joins several dependencies: the result persists when all of them
    /// have persisted.
    pub fn join(&self, deps: &[Dependency]) -> Dependency {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            kind: NodeKind::Join { sealed: true },
            deps: deps.iter().filter_map(|d| d.node).collect(),
            waiters: Vec::new(),
            unresolved: 0,
            persistent_memo: false,
        });
        Self::register_deps(inner, id);
        if inner.nodes[id].unresolved == 0 {
            Self::resolve(inner, id);
        }
        Dependency { core: Arc::clone(&self.core), node: Some(id) }
    }

    /// Creates an unsealed promise node (see [`Promise`]).
    pub fn promise(&self) -> Promise {
        let mut inner = self.core.inner.lock();
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            kind: NodeKind::Join { sealed: false },
            deps: Vec::new(),
            waiters: Vec::new(),
            unresolved: 0,
            persistent_memo: false,
        });
        Promise { dep: Dependency { core: Arc::clone(&self.core), node: Some(id) } }
    }

    /// Amends a still-pending write in place: replaces its payload and adds
    /// extra dependencies. Returns false (without modifying anything) if
    /// the write has already been issued, in which case the caller must
    /// submit a fresh write. This is how per-append superblock updates
    /// coalesce into a single superblock IO (Fig. 2).
    pub fn amend_pending_write(
        &self,
        dep: &Dependency,
        new_data: Vec<u8>,
        extra_deps: &[Dependency],
    ) -> bool {
        let Some(id) = dep.node else { return false };
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let extra: Vec<NodeId> = extra_deps.iter().filter_map(|d| d.node).collect();
        match &mut inner.nodes[id].kind {
            NodeKind::Write { len, data, state: WriteState::Pending, .. } => {
                *len = new_data.len();
                *data = Some(new_data);
            }
            _ => return false,
        }
        // New dependencies can put an already-ready write back to waiting;
        // any stale ready-queue entry is skipped on pop and the resolution
        // cascade re-queues the write when the new deps land.
        for d in extra {
            inner.nodes[id].deps.push(d);
            if !inner.nodes[d].persistent_memo {
                inner.nodes[d].waiters.push(id);
                inner.nodes[id].unresolved += 1;
            }
        }
        true
    }

    /// Wires `id`'s dependency edges: counts unresolved deps and registers
    /// `id` as a waiter on each, so completion events — not polling —
    /// drive readiness.
    fn register_deps(inner: &mut Inner, id: NodeId) {
        let deps = inner.nodes[id].deps.clone();
        let mut unresolved = 0usize;
        for d in deps {
            if !inner.nodes[d].persistent_memo {
                inner.nodes[d].waiters.push(id);
                unresolved += 1;
            }
        }
        inner.nodes[id].unresolved = unresolved;
    }

    /// Marks `node` resolved (persistent) and cascades the event: each
    /// waiter's unresolved count drops; pending writes whose count hits
    /// zero enter the ready queue, and sealed joins whose count hits zero
    /// resolve in turn.
    fn resolve(inner: &mut Inner, node: NodeId) {
        let obs = inner.obs.clone();
        let mut worklist = vec![node];
        while let Some(n) = worklist.pop() {
            if inner.nodes[n].persistent_memo {
                continue;
            }
            inner.nodes[n].persistent_memo = true;
            // Every node that turns persistent — writes *and* joins — is
            // announced, so the acked-durability oracle can check that a
            // dependency handle's entire cone persisted before its ack.
            obs.trace().event(TraceEvent::WritePersisted { node: n as u64 });
            let waiters = std::mem::take(&mut inner.nodes[n].waiters);
            for w in waiters {
                let node_w = &mut inner.nodes[w];
                node_w.unresolved -= 1;
                if node_w.unresolved > 0 {
                    continue;
                }
                match &node_w.kind {
                    NodeKind::Write { state: WriteState::Pending, .. } => {
                        inner.ready.push_back(w);
                    }
                    NodeKind::Write { .. } => {}
                    NodeKind::Join { sealed: true } => worklist.push(w),
                    // Unsealed promises resolve at seal time.
                    NodeKind::Join { sealed: false } => {}
                }
            }
        }
    }

    /// True if `id` is a pending write whose dependencies have all
    /// resolved (ready-queue entries can be stale; this is the re-check).
    fn is_ready_write(inner: &Inner, id: NodeId) -> bool {
        inner.nodes[id].unresolved == 0
            && matches!(
                &inner.nodes[id].kind,
                NodeKind::Write { state: WriteState::Pending, data: Some(_), .. }
            )
    }

    fn write_range(inner: &Inner, id: NodeId) -> (usize, usize) {
        match &inner.nodes[id].kind {
            NodeKind::Write { offset, len, .. } => (*offset, *len),
            NodeKind::Join { .. } => unreachable!("ready queue holds only writes"),
        }
    }

    fn write_extent(inner: &Inner, id: NodeId) -> ExtentId {
        match &inner.nodes[id].kind {
            NodeKind::Write { extent, .. } => *extent,
            NodeKind::Join { .. } => unreachable!("ready queue holds only writes"),
        }
    }

    /// Drops writes that left the `Pending` state from the submission-order
    /// queue (they no longer participate in the read overlay).
    fn drop_issued_from_pending(inner: &mut Inner) {
        let Inner { nodes, pending, .. } = inner;
        pending.retain(|&id| {
            matches!(&nodes[id].kind, NodeKind::Write { state: WriteState::Pending, .. })
        });
    }

    /// Issues up to `max` ready pending writes (writes whose dependencies
    /// have all persisted) into the disk's volatile cache as one group
    /// commit batch: the batch is grouped per extent and contiguous
    /// same-extent writes merge into single IOs. Returns how many write
    /// nodes were issued.
    ///
    /// On an injected IO failure the failing and not-yet-written parts of
    /// the batch are requeued for retry and the error is returned;
    /// already-written parts of the batch remain issued.
    pub fn issue_ready(&self, max: usize) -> Result<usize, IoError> {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let mut batch: Vec<NodeId> = Vec::new();
        while batch.len() < max {
            let Some(id) = inner.ready.pop_front() else { break };
            if Self::is_ready_write(inner, id) {
                batch.push(id);
            }
        }
        if batch.is_empty() {
            return Ok(0);
        }
        inner.counters.batches_issued.inc();
        // Group per extent. WAW edges guarantee no two ready writes
        // overlap, so offset order within an extent is safe and maximizes
        // contiguity.
        let mut by_extent: BTreeMap<ExtentId, Vec<NodeId>> = BTreeMap::new();
        for &id in &batch {
            by_extent.entry(Self::write_extent(inner, id)).or_default().push(id);
        }
        let mut runs: Vec<(ExtentId, Vec<NodeId>)> = Vec::new();
        for (extent, mut ids) in by_extent {
            ids.sort_by_key(|&id| Self::write_range(inner, id).0);
            let mut run: Vec<NodeId> = Vec::new();
            for id in ids {
                if let Some(&prev) = run.last() {
                    let (po, pl) = Self::write_range(inner, prev);
                    if po + pl != Self::write_range(inner, id).0 {
                        runs.push((extent, std::mem::take(&mut run)));
                    }
                }
                run.push(id);
            }
            if !run.is_empty() {
                runs.push((extent, run));
            }
        }
        let mut issued = 0usize;
        for (extent, run) in &runs {
            let offset = Self::write_range(inner, run[0]).0;
            let mut buf = Vec::new();
            for &id in run {
                if let NodeKind::Write { data, .. } = &mut inner.nodes[id].kind {
                    buf.extend_from_slice(&data.take().expect("pending write has data"));
                }
            }
            let result =
                Self::write_with_retry(inner, &self.core.disk, *extent, offset, &buf);
            match result {
                Ok(()) => {
                    for &id in run {
                        if let NodeKind::Write { state, .. } = &mut inner.nodes[id].kind {
                            *state = WriteState::Issued;
                        }
                        let (o, l) = Self::write_range(inner, id);
                        inner.obs.trace().event(TraceEvent::WriteIssued {
                            node: id as u64,
                            extent: extent.0,
                            offset: o as u32,
                            len: l as u32,
                        });
                    }
                    inner.issued.entry(*extent).or_default().extend(run.iter().copied());
                    inner.issued_total += run.len();
                    inner.counters.ios_issued.inc();
                    inner.counters.writes_coalesced.add((run.len() - 1) as u64);
                    issued += run.len();
                }
                Err(e) => {
                    // Transient IO failure: restore the payload to the
                    // failing run's nodes and requeue every batch member
                    // that is still pending, preserving batch order (a
                    // permanently failing extent keeps erroring and keeps
                    // its writes queued). Without the retry, one transient
                    // failure would poison every write that transitively
                    // depends on the failed one.
                    let mut pos = 0usize;
                    for &id in run {
                        if let NodeKind::Write { len, data, .. } = &mut inner.nodes[id].kind {
                            *data = Some(buf[pos..pos + *len].to_vec());
                            pos += *len;
                        }
                    }
                    inner.counters.writes_retried.inc();
                    let back: Vec<NodeId> =
                        batch.iter().copied().filter(|&id| Self::is_ready_write(inner, id)).collect();
                    for id in back.into_iter().rev() {
                        inner.ready.push_front(id);
                    }
                    Self::drop_issued_from_pending(inner);
                    return Err(e);
                }
            }
        }
        Self::drop_issued_from_pending(inner);
        Ok(issued)
    }

    /// Drives one disk write with the bounded in-call retry of transient
    /// (`Injected`) failures. The retried IO is byte-identical — the
    /// batch grouping and every dependency edge are untouched; a retry is
    /// simply the same coalesced IO driven again. Permanent (`Failed`)
    /// and out-of-range errors are never retried: they return on the
    /// first attempt without burning budget (a permanently failed extent
    /// keeps erroring until it is quarantined or the fault cleared). The
    /// success path costs one branch — no bookkeeping.
    fn write_with_retry(
        inner: &mut Inner,
        disk: &Disk,
        extent: ExtentId,
        offset: usize,
        buf: &[u8],
    ) -> Result<(), IoError> {
        let mut result = disk.write(extent, offset, buf);
        if result.is_ok() {
            return result;
        }
        let total = inner.retry_budget;
        let mut budget = total;
        while budget > 0 && matches!(result, Err(IoError::Injected { .. })) {
            budget -= 1;
            inner.counters.retries.inc();
            inner
                .obs
                .trace()
                .event(TraceEvent::Retry { extent: extent.0, attempt: total - budget });
            result = disk.write(extent, offset, buf);
        }
        if matches!(result, Err(IoError::Injected { .. })) {
            inner.counters.retry_exhausted.inc();
        }
        result
    }

    /// Reads through the scheduler: disk content overlaid with the data
    /// of pending (not yet issued) writes, in submission order. This is
    /// the read-your-writes view a real system gets from its page cache /
    /// write buffer — without it, data would be unreadable between
    /// submission and writeback.
    pub fn read(&self, extent: ExtentId, offset: usize, len: usize) -> Result<Vec<u8>, IoError> {
        let inner = self.core.inner.lock();
        let mut out = self.core.disk.read(extent, offset, len)?;
        for &id in inner.pending.iter() {
            if let NodeKind::Write { extent: e, offset: o, data: Some(d), .. } =
                &inner.nodes[id].kind
            {
                if *e != extent {
                    continue;
                }
                // Overlap of [o, o+d.len()) with [offset, offset+len).
                let start = (*o).max(offset);
                let end = (o + d.len()).min(offset + len);
                if start < end {
                    out[start - offset..end - offset].copy_from_slice(&d[start - o..end - o]);
                }
            }
        }
        Ok(out)
    }

    /// Fences every dirty extent (extents holding issued-but-unflushed
    /// writes) and marks their issued writes persisted. Untouched extents
    /// see no flush at all.
    pub fn flush_issued(&self) -> Result<(), IoError> {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        while let Some((&extent, _)) = inner.issued.iter().next() {
            // On failure the extent's writes stay issued (and the extent
            // dirty), so a later flush retries; extents already fenced in
            // this call keep their persistence.
            self.core.disk.flush_extent(extent)?;
            inner.counters.flushes.inc();
            inner.counters.extents_fenced.inc();
            let ids = inner.issued.remove(&extent).expect("dirty extent present");
            inner.issued_total -= ids.len();
            for id in ids {
                if let NodeKind::Write { state, .. } = &mut inner.nodes[id].kind {
                    *state = WriteState::Persisted;
                }
                Self::resolve(inner, id);
            }
        }
        Ok(())
    }

    /// Repeatedly issues ready writes and flushes until quiescent: no
    /// pending write is ready (all remaining ones wait on unsealed
    /// promises or lost nodes).
    pub fn pump(&self) -> Result<(), IoError> {
        loop {
            let n = self.issue_ready(usize::MAX)?;
            // Flushing can make further pending writes ready (their
            // dependencies just persisted), so only stop once a round
            // neither issued nor flushed anything.
            let had_issued = self.issued_count() > 0;
            self.flush_issued()?;
            if n == 0 && !had_issued {
                return Ok(());
            }
        }
    }

    /// Switches how writeback is driven. Entering
    /// [`WritebackMode::Background`] starts the pump (a std thread outside
    /// checked executions, a checker-controlled task inside one); leaving
    /// it stops and joins the pump. Queued work is never lost — anything
    /// the background pump did not get to is picked up by the next
    /// explicit pump.
    pub fn set_writeback_mode(&self, mode: WritebackMode) {
        self.stop_worker();
        let worker = match mode {
            WritebackMode::Deterministic => None,
            WritebackMode::Background(cfg) => Some(self.spawn_worker(cfg)),
        };
        {
            let mut ctl = self.core.pump_ctl.lock();
            ctl.mode = mode;
            ctl.worker = worker;
        }
        if matches!(mode, WritebackMode::Background(_)) {
            // Cover work submitted before the pump existed.
            self.core.signal_pump();
        }
    }

    /// The current writeback mode.
    pub fn writeback_mode(&self) -> WritebackMode {
        self.core.pump_ctl.lock().mode
    }

    /// Stops the background pump (reverting to
    /// [`WritebackMode::Deterministic`]) and pumps until quiescent.
    /// Checkers running in `Background` mode must call this before
    /// asserting — and before the checked execution ends, so no pump task
    /// outlives it.
    pub fn quiesce(&self) -> Result<(), IoError> {
        self.stop_worker();
        self.core.pump_ctl.lock().mode = WritebackMode::Deterministic;
        self.pump()
    }

    fn spawn_worker(&self, cfg: WritebackConfig) -> PumpWorker {
        let weak = Arc::downgrade(&self.core);
        if shardstore_conc::is_controlled() {
            let shared = Arc::new(ControlledPump {
                state: Mutex::new(ControlledPumpState { signals: 0, shutdown: false }),
                cv: Condvar::new(),
            });
            let worker_shared = Arc::clone(&shared);
            let handle =
                shardstore_conc::thread::spawn(move || controlled_pump_loop(weak, worker_shared));
            PumpWorker::Controlled { shared, handle }
        } else {
            let (tx, rx) = crossbeam::channel::unbounded();
            let handle = std::thread::spawn(move || std_pump_loop(weak, rx, cfg));
            PumpWorker::Std { tx, handle }
        }
    }

    fn stop_worker(&self) {
        let worker = self.core.pump_ctl.lock().worker.take();
        match worker {
            None => {}
            Some(PumpWorker::Std { tx, handle }) => {
                let _ = tx.send(PumpSignal::Shutdown);
                let _ = handle.join();
            }
            Some(PumpWorker::Controlled { shared, handle }) => {
                {
                    let mut st = shared.state.lock();
                    st.shutdown = true;
                    shared.cv.notify_all();
                }
                let _ = handle.join();
            }
        }
    }

    /// Sets how many immediate in-call retries a transient (`Injected`)
    /// write failure gets before `issue_ready` gives up, requeues the
    /// batch, and surfaces the error. Zero disables in-call retry (the
    /// failed batch is still requeued for the next pump, the pre-retry
    /// behavior).
    pub fn set_retry_budget(&self, budget: u32) {
        self.core.inner.lock().retry_budget = budget;
    }

    /// Permanently fails every not-yet-persisted write targeting
    /// `extent`: pending and issued writes are marked `Lost` (they can
    /// never become persistent) and leave the queues. Extent quarantine
    /// calls this once an extent is known bad — its queued writes will
    /// never succeed, and leaving them `Pending` would wedge everything
    /// ordered after them (most damagingly the shared superblock write).
    /// Returns how many writes were failed.
    pub fn fail_extent_writes(&self, extent: ExtentId) -> usize {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let mut failed = 0usize;
        let mut lost_nodes: Vec<NodeId> = Vec::new();
        let pending_ids: Vec<NodeId> = inner.pending.iter().copied().collect();
        for id in pending_ids {
            if let NodeKind::Write { extent: e, state, data, .. } = &mut inner.nodes[id].kind {
                if *e == extent && *state == WriteState::Pending {
                    *state = WriteState::Lost;
                    *data = None;
                    failed += 1;
                    lost_nodes.push(id);
                }
            }
        }
        // Issued-but-unflushed writes on the extent can never be fenced
        // (the flush would keep failing), so they are lost too.
        if let Some(ids) = inner.issued.remove(&extent) {
            inner.issued_total -= ids.len();
            for id in ids {
                if let NodeKind::Write { state, .. } = &mut inner.nodes[id].kind {
                    *state = WriteState::Lost;
                }
                failed += 1;
                lost_nodes.push(id);
            }
        }
        for id in lost_nodes {
            inner.obs.trace().event(TraceEvent::WriteLost { node: id as u64 });
        }
        // Lost nodes drop out of the submission-order queue (and the
        // ready queue skips them via the staleness re-check).
        Self::drop_issued_from_pending(inner);
        inner.counters.writes_failed.add(failed as u64);
        failed
    }

    /// Detaches *ordering* edges onto `Lost` writes from a still-pending
    /// write, recursing through unshared sealed joins (a join some other
    /// node still waits on, or an unsealed promise, is left alone). This
    /// is how the pending superblock write survives extent quarantine:
    /// its edges onto appends that went down with the extent are pruned
    /// in place — keeping its slot, generation, and amended table —
    /// instead of abandoning it, which would burn the slot and let a
    /// torn replacement write destroy the newest durable superblock
    /// generation. Client durability handles are untouched: the lost
    /// writes themselves stay `Lost` forever, so a put whose data was
    /// lost still never acknowledges. Returns how many edges were
    /// detached.
    pub fn prune_doomed_deps(&self, dep: &Dependency) -> usize {
        let Some(root) = dep.node else { return 0 };
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        if !matches!(
            &inner.nodes[root].kind,
            NodeKind::Write { state: WriteState::Pending, .. }
        ) {
            return 0;
        }
        // Collect the prunable subgraph: the root write plus sealed joins
        // reachable through it that nothing else waits on (their single
        // waiter is the node we came from, so resolving them early is
        // invisible outside this chain).
        let mut order: Vec<NodeId> = Vec::new();
        let mut visit = vec![root];
        while let Some(n) = visit.pop() {
            if order.contains(&n) {
                continue;
            }
            order.push(n);
            for &d in &inner.nodes[n].deps {
                if matches!(&inner.nodes[d].kind, NodeKind::Join { sealed: true })
                    && !inner.nodes[d].persistent_memo
                    && inner.nodes[d].waiters.len() <= 1
                {
                    visit.push(d);
                }
            }
        }
        let mut pruned = 0usize;
        // Deepest joins first, so a join freed of its last blocker
        // resolves before its parent is examined and the readiness
        // cascade runs through the normal event machinery.
        for &n in order.iter().rev() {
            let deps = inner.nodes[n].deps.clone();
            for d in deps {
                if !matches!(
                    &inner.nodes[d].kind,
                    NodeKind::Write { state: WriteState::Lost, .. }
                ) {
                    continue;
                }
                inner.nodes[n].deps.retain(|&x| x != d);
                if let Some(pos) = inner.nodes[d].waiters.iter().position(|&w| w == n) {
                    inner.nodes[d].waiters.remove(pos);
                    inner.nodes[n].unresolved -= 1;
                }
                pruned += 1;
            }
            if inner.nodes[n].unresolved == 0 {
                match &inner.nodes[n].kind {
                    NodeKind::Join { sealed: true } => Self::resolve(inner, n),
                    NodeKind::Write { state: WriteState::Pending, .. }
                        if !inner.ready.contains(&n) =>
                    {
                        inner.ready.push_back(n);
                    }
                    _ => {}
                }
            }
        }
        drop(guard);
        if pruned > 0 {
            self.core.signal_pump();
        }
        pruned
    }

    /// True if the subgraph below `start` contains a lost write that no
    /// memoized-persistent node shadows — i.e. the node can never resolve.
    fn subtree_doomed(inner: &Inner, start: NodeId) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) || inner.nodes[n].persistent_memo {
                continue;
            }
            if matches!(&inner.nodes[n].kind, NodeKind::Write { state: WriteState::Lost, .. }) {
                return true;
            }
            stack.extend(inner.nodes[n].deps.iter().copied());
        }
        false
    }

    /// Cuts, for **every** pending write, direct dependency edges whose
    /// subgraph can never resolve (it contains a lost write). Called after
    /// an extent quarantine: without this, a write wedged on a doomed
    /// dependency wedges everything ordered after it — in particular the
    /// coalesced superblock write, and with it the entire node.
    ///
    /// Only the *edge* is removed. A shared dependency node (e.g. a
    /// client durability join containing the lost write) is never
    /// resolved by this: its other waiters — acknowledgement checks —
    /// still see it unresolved forever, which is exactly the no-lost-ack
    /// guarantee. The unwedged write may persist state that references
    /// data which never landed; readers of such references get a
    /// `NotFound`/`Degraded` error, never wrong bytes.
    pub fn prune_doomed_pending(&self) -> usize {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let writes: Vec<NodeId> = inner.pending.iter().copied().collect();
        let mut pruned = 0usize;
        for w in writes {
            if !matches!(
                &inner.nodes[w].kind,
                NodeKind::Write { state: WriteState::Pending, .. }
            ) {
                continue;
            }
            let deps = inner.nodes[w].deps.clone();
            for d in deps {
                if inner.nodes[d].persistent_memo || !Self::subtree_doomed(inner, d) {
                    continue;
                }
                inner.nodes[w].deps.retain(|&x| x != d);
                if let Some(pos) = inner.nodes[d].waiters.iter().position(|&x| x == w) {
                    inner.nodes[d].waiters.remove(pos);
                    inner.nodes[w].unresolved -= 1;
                }
                pruned += 1;
            }
            if inner.nodes[w].unresolved == 0 && !inner.ready.contains(&w) {
                inner.ready.push_back(w);
            }
        }
        drop(guard);
        if pruned > 0 {
            self.core.signal_pump();
        }
        pruned
    }

    /// Simulates a fail-stop crash: pending writes are dropped, issued
    /// writes survive at page granularity per `plan` (via
    /// [`Disk::crash`]), and neither can ever become persistent.
    pub fn crash(&self, plan: &CrashPlan) {
        let mut guard = self.core.inner.lock();
        let inner = &mut *guard;
        let pending = std::mem::take(&mut inner.pending);
        for n in pending {
            if let NodeKind::Write { state, data, .. } = &mut inner.nodes[n].kind {
                *state = WriteState::Lost;
                *data = None;
            }
            inner.counters.writes_lost_pending.inc();
            inner.obs.trace().event(TraceEvent::WriteLost { node: n as u64 });
        }
        inner.ready.clear();
        let issued = std::mem::take(&mut inner.issued);
        inner.issued_total = 0;
        for ids in issued.into_values() {
            for n in ids {
                if let NodeKind::Write { state, .. } = &mut inner.nodes[n].kind {
                    *state = WriteState::Lost;
                }
                inner.counters.writes_lost_issued.inc();
                inner.obs.trace().event(TraceEvent::WriteLost { node: n as u64 });
            }
        }
        self.core.disk.crash(plan);
    }

    /// Number of pending (unissued) writes.
    pub fn pending_count(&self) -> usize {
        self.core.inner.lock().pending.len()
    }

    /// Number of issued-but-unflushed writes.
    pub fn issued_count(&self) -> usize {
        self.core.inner.lock().issued_total
    }

    /// Reads one `sched.*` counter from the observability registry (the
    /// source of truth for scheduler statistics).
    pub fn counter(&self, name: &str) -> u64 {
        self.core.obs.registry().counter(name).get()
    }

    /// Point-in-time count of writes issueable right now. Also refreshes
    /// the `sched.queue_depth` gauge so metrics snapshots stay current.
    pub fn queue_depth(&self) -> u64 {
        let inner = self.core.inner.lock();
        let depth =
            inner.ready.iter().filter(|&&id| Self::is_ready_write(&inner, id)).count() as u64;
        inner.counters.queue_depth.set(depth as i64);
        depth
    }

    /// Debug rendering of every pending write and the state of its
    /// dependency subgraph (for diagnosing stuck writebacks).
    pub fn debug_pending(&self) -> Vec<String> {
        let inner = self.core.inner.lock();
        inner
            .pending
            .iter()
            .map(|&id| {
                let (extent, offset, len) = match &inner.nodes[id].kind {
                    NodeKind::Write { extent, offset, len, .. } => (extent.0, *offset, *len),
                    NodeKind::Join { .. } => (u32::MAX, 0, 0),
                };
                let blocked: Vec<String> = inner.nodes[id]
                    .deps
                    .iter()
                    .filter(|d| !inner.nodes[**d].persistent_memo)
                    .map(|d| Self::describe_node(&inner, *d))
                    .collect();
                format!("write #{id} ext {extent} off {offset} len {len}: blocked on {blocked:?}")
            })
            .collect()
    }

    fn describe_node(inner: &Inner, id: NodeId) -> String {
        match &inner.nodes[id].kind {
            NodeKind::Write { extent, offset, state, .. } => {
                format!("#{id} write ext {} off {offset} [{state:?}]", extent.0)
            }
            NodeKind::Join { sealed } => {
                let deps = &inner.nodes[id].deps;
                format!("#{id} join(sealed={sealed}, deps={deps:?})")
            }
        }
    }
}

/// The std-thread background pump: waits for a submission signal, absorbs
/// further signals within the batch window, then pumps the scheduler.
/// Exits on shutdown, channel disconnect, or the scheduler being dropped.
fn std_pump_loop(
    core: Weak<SchedCore>,
    rx: crossbeam::channel::Receiver<PumpSignal>,
    cfg: WritebackConfig,
) {
    use crossbeam::channel::RecvTimeoutError;
    loop {
        match rx.recv() {
            Ok(PumpSignal::Work) => {}
            Ok(PumpSignal::Shutdown) | Err(_) => return,
        }
        let mut batched = 1usize;
        while batched < cfg.max_batch {
            match rx.recv_timeout(cfg.batch_window) {
                Ok(PumpSignal::Work) => batched += 1,
                Ok(PumpSignal::Shutdown) => return,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        let Some(core) = core.upgrade() else { return };
        // Transient injected failures are retried on the next signal; the
        // failed writes stay queued either way.
        let _ = IoScheduler { core }.pump();
    }
}

/// The checker-controlled background pump: same contract as
/// [`std_pump_loop`], but signalled through controlled sync primitives so
/// the model checker owns every interleaving. No batch window — wall-clock
/// time does not exist inside a checked execution.
fn controlled_pump_loop(core: Weak<SchedCore>, shared: Arc<ControlledPump>) {
    loop {
        {
            let mut st =
                shared.cv.wait_while(shared.state.lock(), |s| s.signals == 0 && !s.shutdown);
            if st.shutdown {
                return;
            }
            st.signals = 0;
        }
        let Some(core) = core.upgrade() else { return };
        let _ = IoScheduler { core }.pump();
    }
}

impl Dependency {
    /// Returns true once the operation this dependency represents — and
    /// everything it transitively depends on — has been persisted to disk.
    /// O(1): persistence is resolved eagerly by completion events.
    pub fn is_persistent(&self) -> bool {
        match self.node {
            None => true,
            Some(n) => self.core.inner.lock().nodes[n].persistent_memo,
        }
    }

    /// True if this dependency can never become persistent: it is, or
    /// transitively depends on, a write lost to a crash or failed by
    /// extent quarantine. Unsealed promises are not doomed — they may
    /// still be sealed onto live dependencies. The complement of
    /// [`Dependency::is_persistent`] is three-valued (pending work is
    /// neither persistent nor doomed); this resolves the "never" third.
    pub fn is_doomed(&self) -> bool {
        let Some(root) = self.node else { return false };
        let inner = self.core.inner.lock();
        if inner.nodes[root].persistent_memo {
            return false;
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) || inner.nodes[n].persistent_memo {
                continue;
            }
            if matches!(&inner.nodes[n].kind, NodeKind::Write { state: WriteState::Lost, .. }) {
                return true;
            }
            stack.extend(inner.nodes[n].deps.iter().copied());
        }
        false
    }

    /// The scheduler node id this handle points at, for trace-event
    /// correlation (`None` for the empty dependency). Harnesses emit
    /// [`shardstore_obs::TraceEvent::Acked`] with this id so the
    /// acked-durability oracle can tie acknowledgements back to the
    /// `WritePersisted` events of the node's cone.
    pub fn trace_node(&self) -> Option<u64> {
        self.node.map(|n| n as u64)
    }

    /// True if both handles point at the same graph node (or both are the
    /// empty dependency).
    pub fn same_node(&self, other: &Dependency) -> bool {
        Arc::ptr_eq(&self.core, &other.core) && self.node == other.node
    }

    /// Combines two dependencies: the result persists when both have.
    pub fn and(&self, other: &Dependency) -> Dependency {
        debug_assert!(Arc::ptr_eq(&self.core, &other.core), "dependency from another scheduler");
        match (self.node, other.node) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => {
                let mut guard = self.core.inner.lock();
                let inner = &mut *guard;
                let id = inner.nodes.len();
                inner.nodes.push(Node {
                    kind: NodeKind::Join { sealed: true },
                    deps: vec![a, b],
                    waiters: Vec::new(),
                    unresolved: 0,
                    persistent_memo: false,
                });
                IoScheduler::register_deps(inner, id);
                if inner.nodes[id].unresolved == 0 {
                    IoScheduler::resolve(inner, id);
                }
                Dependency { core: Arc::clone(&self.core), node: Some(id) }
            }
        }
    }
}

impl Promise {
    /// Adds a dependency to the promise.
    ///
    /// # Panics
    ///
    /// Panics if the promise has already been sealed.
    pub fn add_dep(&self, dep: &Dependency) {
        let id = self.dep.node.expect("promise has a node");
        let mut guard = self.dep.core.inner.lock();
        let inner = &mut *guard;
        match &inner.nodes[id].kind {
            NodeKind::Join { sealed: false } => {}
            _ => panic!("add_dep on a sealed promise"),
        }
        if let Some(d) = dep.node {
            inner.nodes[id].deps.push(d);
            if !inner.nodes[d].persistent_memo {
                inner.nodes[d].waiters.push(id);
                inner.nodes[id].unresolved += 1;
            }
        }
    }

    /// Seals the promise: no further dependencies may be added, and it can
    /// now become persistent once its dependencies do. Sealing can unblock
    /// writes waiting on the promise, so it also nudges the background
    /// pump when one is running.
    pub fn seal(&self) {
        let id = self.dep.node.expect("promise has a node");
        {
            let mut guard = self.dep.core.inner.lock();
            let inner = &mut *guard;
            let newly_sealed = match &mut inner.nodes[id].kind {
                NodeKind::Join { sealed } if !*sealed => {
                    *sealed = true;
                    true
                }
                _ => false,
            };
            if newly_sealed && inner.nodes[id].unresolved == 0 {
                IoScheduler::resolve(inner, id);
            }
        }
        self.dep.core.signal_pump();
    }

    /// The promise's dependency handle (pollable by clients immediately).
    pub fn dependency(&self) -> Dependency {
        self.dep.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shardstore_vdisk::Geometry;

    fn setup() -> (Arc<Disk>, IoScheduler) {
        let disk = Disk::new(Geometry::small());
        let sched = IoScheduler::new(Arc::clone(&disk));
        (disk, sched)
    }

    #[test]
    fn none_dependency_is_always_persistent() {
        let (_d, s) = setup();
        assert!(s.none().is_persistent());
    }

    #[test]
    fn write_is_not_persistent_until_pumped() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"abc".to_vec(), &none);
        assert!(!dep.is_persistent());
        s.pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 3).unwrap(), b"abc");
    }

    #[test]
    fn dependent_write_waits_for_its_dependency() {
        let (disk, s) = setup();
        let none = s.none();
        let first = s.submit_write(ExtentId(1), 0, b"11".to_vec(), &none);
        let second = s.submit_write(ExtentId(2), 0, b"22".to_vec(), &first);
        // Issue one round without flushing: only `first` can be issued;
        // `second` must wait for `first` to PERSIST, not merely issue.
        let n = s.issue_ready(usize::MAX).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.pending_count(), 1);
        // The dependent write is not on disk at all yet.
        assert_eq!(disk.read(ExtentId(2), 0, 2).unwrap(), vec![0, 0]);
        s.flush_issued().unwrap();
        assert!(first.is_persistent());
        assert!(!second.is_persistent());
        s.pump().unwrap();
        assert!(second.is_persistent());
        assert_eq!(disk.read(ExtentId(2), 0, 2).unwrap(), b"22");
    }

    #[test]
    fn crash_respects_dependency_order() {
        let (disk, s) = setup();
        let none = s.none();
        let first = s.submit_write(ExtentId(1), 0, b"11".to_vec(), &none);
        let second = s.submit_write(ExtentId(2), 0, b"22".to_vec(), &first);
        // Crash before anything is pumped: both lost, disk empty.
        s.crash(&CrashPlan::KeepAll);
        assert!(!first.is_persistent());
        assert!(!second.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 2).unwrap(), vec![0, 0]);
        assert_eq!(disk.read(ExtentId(2), 0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn crash_after_issue_can_keep_pages_without_persistence() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"xy".to_vec(), &none);
        s.issue_ready(usize::MAX).unwrap();
        // Crash keeping the cached page: data readable, dependency not
        // persistent (the one-directional persistence contract).
        s.crash(&CrashPlan::KeepAll);
        assert!(!dep.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 2).unwrap(), b"xy");
    }

    #[test]
    fn lost_write_never_becomes_persistent() {
        let (_disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"z".to_vec(), &none);
        s.crash(&CrashPlan::LoseAll);
        s.pump().unwrap();
        assert!(!dep.is_persistent());
    }

    #[test]
    fn join_requires_all_parts() {
        let (_disk, s) = setup();
        let none = s.none();
        let a = s.submit_write(ExtentId(1), 0, b"a".to_vec(), &none);
        s.pump().unwrap();
        let b = s.submit_write(ExtentId(2), 0, b"b".to_vec(), &none);
        let joined = a.and(&b);
        assert!(!joined.is_persistent());
        s.pump().unwrap();
        assert!(joined.is_persistent());
    }

    #[test]
    fn and_with_none_is_identity() {
        let (_disk, s) = setup();
        let none = s.none();
        let a = s.submit_write(ExtentId(1), 0, b"a".to_vec(), &none);
        let j = a.and(&s.none());
        let j2 = s.none().and(&a);
        assert!(!j.is_persistent());
        assert!(!j2.is_persistent());
        s.pump().unwrap();
        assert!(j.is_persistent() && j2.is_persistent());
    }

    #[test]
    fn promise_persists_only_after_seal() {
        let (_disk, s) = setup();
        let none = s.none();
        let p = s.promise();
        let w = s.submit_write(ExtentId(1), 0, b"w".to_vec(), &none);
        p.add_dep(&w);
        s.pump().unwrap();
        assert!(!p.dependency().is_persistent(), "unsealed promise must not be persistent");
        p.seal();
        assert!(p.dependency().is_persistent());
    }

    #[test]
    fn empty_sealed_promise_is_persistent() {
        let (_disk, s) = setup();
        let p = s.promise();
        p.seal();
        assert!(p.dependency().is_persistent());
    }

    #[test]
    fn writes_blocked_on_unsealed_promise_do_not_issue() {
        let (disk, s) = setup();
        let p = s.promise();
        let w = s.submit_write(ExtentId(1), 0, b"q".to_vec(), &p.dependency());
        s.pump().unwrap();
        assert!(!w.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 1).unwrap(), vec![0]);
        p.seal();
        s.pump().unwrap();
        assert!(w.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 1).unwrap(), b"q");
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_io() {
        let (disk, s) = setup();
        let none = s.none();
        s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        s.submit_write(ExtentId(1), 2, b"bb".to_vec(), &none);
        s.submit_write(ExtentId(1), 4, b"cc".to_vec(), &none);
        s.pump().unwrap();
        assert_eq!(s.counter("sched.writes_submitted"), 3);
        assert_eq!(s.counter("sched.ios_issued"), 1, "three contiguous writes should be one IO");
        assert_eq!(s.counter("sched.writes_coalesced"), 2);
        assert_eq!(disk.read(ExtentId(1), 0, 6).unwrap(), b"aabbcc");
    }

    #[test]
    fn non_contiguous_writes_do_not_coalesce() {
        let (_disk, s) = setup();
        let none = s.none();
        s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        s.submit_write(ExtentId(1), 10, b"bb".to_vec(), &none);
        s.pump().unwrap();
        assert_eq!(s.counter("sched.ios_issued"), 2);
    }

    #[test]
    fn amend_pending_write_replaces_payload() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"old".to_vec(), &none);
        assert!(s.amend_pending_write(&dep, b"new".to_vec(), &[]));
        s.pump().unwrap();
        assert_eq!(disk.read(ExtentId(1), 0, 3).unwrap(), b"new");
    }

    #[test]
    fn amend_fails_after_issue() {
        let (_disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"old".to_vec(), &none);
        s.issue_ready(usize::MAX).unwrap();
        assert!(!s.amend_pending_write(&dep, b"new".to_vec(), &[]));
    }

    #[test]
    fn amend_extra_deps_are_respected() {
        let (_disk, s) = setup();
        let none = s.none();
        let gate = s.promise();
        let dep = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &none);
        assert!(s.amend_pending_write(&dep, b"v2".to_vec(), &[gate.dependency()]));
        s.pump().unwrap();
        assert!(!dep.is_persistent(), "amended write must now wait on the gate");
        gate.seal();
        s.pump().unwrap();
        assert!(dep.is_persistent());
    }

    #[test]
    fn transient_write_failure_is_retried_in_call() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"x".to_vec(), &none);
        disk.inject_fail_once(ExtentId(1));
        // The bounded in-call retry absorbs the transient failure: the
        // batch issues without surfacing an error.
        assert_eq!(s.issue_ready(usize::MAX).unwrap(), 1);
        s.flush_issued().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 1).unwrap(), b"x");
        assert_eq!(s.counter("sched.retries"), 1);
        assert_eq!(s.counter("sched.retry_exhausted"), 0);
        assert_eq!(s.counter("sched.writes_retried"), 0, "nothing was requeued");
    }

    #[test]
    fn transient_failure_with_zero_budget_requeues() {
        let (disk, s) = setup();
        s.set_retry_budget(0);
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"x".to_vec(), &none);
        disk.inject_fail_once(ExtentId(1));
        assert!(s.issue_ready(usize::MAX).is_err());
        assert!(!dep.is_persistent());
        assert_eq!(s.pending_count(), 1, "the failed write stays queued");
        // The next pump retries and succeeds.
        s.pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 1).unwrap(), b"x");
        assert_eq!(s.counter("sched.writes_retried"), 1);
        assert_eq!(s.counter("sched.retries"), 0);
    }

    #[test]
    fn transient_burst_exhausts_retry_budget_then_recovers() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"x".to_vec(), &none);
        // One more transient failure than the first attempt plus the
        // default budget covers: the in-call retry is exhausted, the
        // write is requeued, and the *next* pump succeeds (the burst is
        // spent).
        disk.inject_fail_times(ExtentId(1), DEFAULT_RETRY_BUDGET + 1);
        assert!(matches!(s.issue_ready(usize::MAX), Err(IoError::Injected { .. })));
        assert!(!dep.is_persistent());
        assert_eq!(s.counter("sched.retries"), u64::from(DEFAULT_RETRY_BUDGET));
        assert_eq!(s.counter("sched.retry_exhausted"), 1);
        s.pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 1).unwrap(), b"x");
    }

    #[test]
    fn retry_keeps_dependency_edges_and_batching() {
        let (disk, s) = setup();
        let none = s.none();
        let gate = s.promise();
        let a = s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        let b = s.submit_write(ExtentId(1), 2, b"bb".to_vec(), &none);
        let blocked = s.submit_write(ExtentId(2), 0, b"zz".to_vec(), &gate.dependency());
        disk.inject_fail_once(ExtentId(1));
        s.pump().unwrap();
        // The coalesced two-write IO was retried as one IO: the retry
        // preserves group-commit batching.
        assert!(a.is_persistent() && b.is_persistent());
        assert_eq!(s.counter("sched.ios_issued"), 1);
        assert_eq!(s.counter("sched.writes_coalesced"), 1);
        assert_eq!(s.counter("sched.retries"), 1);
        // The gated write still respects its dependency edge.
        assert!(!blocked.is_persistent());
        gate.seal();
        s.pump().unwrap();
        assert!(blocked.is_persistent());
        assert_eq!(disk.read(ExtentId(1), 0, 4).unwrap(), b"aabb");
    }

    #[test]
    fn permanent_failure_burns_no_retries() {
        let (disk, s) = setup();
        let none = s.none();
        let _dep = s.submit_write(ExtentId(1), 0, b"x".to_vec(), &none);
        disk.inject_fail_always(ExtentId(1));
        assert!(matches!(s.issue_ready(usize::MAX), Err(IoError::Failed { .. })));
        assert_eq!(s.counter("sched.retries"), 0, "permanent faults are not retried");
        assert_eq!(s.counter("sched.retry_exhausted"), 0);
    }

    #[test]
    fn fail_extent_writes_loses_pending_and_issued() {
        let (disk, s) = setup();
        let none = s.none();
        let issued = s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        s.issue_ready(usize::MAX).unwrap();
        let gate = s.promise();
        let pending = s.submit_write(ExtentId(1), 2, b"bb".to_vec(), &gate.dependency());
        let other = s.submit_write(ExtentId(2), 0, b"cc".to_vec(), &gate.dependency());
        assert_eq!(s.fail_extent_writes(ExtentId(1)), 2);
        assert_eq!(s.counter("sched.writes_failed"), 2);
        // The other extent's write is untouched and still completes.
        gate.seal();
        s.pump().unwrap();
        assert!(!issued.is_persistent());
        assert!(!pending.is_persistent());
        assert!(other.is_persistent());
        assert_eq!(disk.read(ExtentId(2), 0, 2).unwrap(), b"cc");
        assert_eq!(s.issued_count(), 0);
    }

    #[test]
    fn prune_doomed_deps_unwedges_a_pending_write() {
        let (disk, s) = setup();
        let none = s.none();
        let doomed = s.submit_write(ExtentId(1), 0, b"dd".to_vec(), &none);
        let live = s.submit_write(ExtentId(2), 0, b"ll".to_vec(), &none);
        // A write gated on join(doomed, live) — the record_update shape.
        let gate = s.join(&[doomed.clone(), live.clone()]);
        let gated = s.submit_write(ExtentId(3), 0, b"gg".to_vec(), &gate);
        s.fail_extent_writes(ExtentId(1));
        s.pump().unwrap();
        assert!(live.is_persistent());
        assert!(!gated.is_persistent(), "wedged on the lost write");
        assert!(s.prune_doomed_deps(&gated) > 0);
        s.pump().unwrap();
        assert!(gated.is_persistent());
        assert_eq!(disk.read(ExtentId(3), 0, 2).unwrap(), b"gg");
        // The lost write itself still never acknowledges.
        assert!(!doomed.is_persistent());
    }

    #[test]
    fn prune_leaves_shared_joins_alone() {
        let (_disk, s) = setup();
        let none = s.none();
        let doomed = s.submit_write(ExtentId(1), 0, b"d".to_vec(), &none);
        s.fail_extent_writes(ExtentId(1));
        let shared = s.join(std::slice::from_ref(&doomed));
        // Two writes wait on the same join: it is shared, so pruning one
        // waiter must not resolve it out from under the other.
        let w1 = s.submit_write(ExtentId(2), 0, b"1".to_vec(), &shared);
        let w2 = s.submit_write(ExtentId(3), 0, b"2".to_vec(), &shared);
        assert_eq!(s.prune_doomed_deps(&w1), 0);
        s.pump().unwrap();
        assert!(!w1.is_persistent());
        assert!(!w2.is_persistent());
    }

    #[test]
    fn permanent_write_failure_keeps_erroring() {
        let (disk, s) = setup();
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"x".to_vec(), &none);
        disk.inject_fail_always(ExtentId(1));
        for _ in 0..3 {
            assert!(s.pump().is_err());
            assert!(!dep.is_persistent());
        }
        disk.clear_failures();
        s.pump().unwrap();
        assert!(dep.is_persistent());
    }

    #[test]
    fn long_dependency_chains_do_not_overflow() {
        let (_disk, s) = setup();
        let mut dep = s.none();
        for i in 0..5_000 {
            dep = s.submit_write(ExtentId(1), (i % 100) as usize, vec![1], &dep);
        }
        s.pump().unwrap();
        assert!(dep.is_persistent());
    }

    #[test]
    fn pending_and_issued_counts() {
        let (_disk, s) = setup();
        let none = s.none();
        s.submit_write(ExtentId(1), 0, b"a".to_vec(), &none);
        let gate = s.promise();
        s.submit_write(ExtentId(2), 0, b"b".to_vec(), &gate.dependency());
        assert_eq!(s.pending_count(), 2);
        s.issue_ready(usize::MAX).unwrap();
        assert_eq!(s.pending_count(), 1);
        assert_eq!(s.issued_count(), 1);
        s.flush_issued().unwrap();
        assert_eq!(s.issued_count(), 0);
    }

    // --- group commit -----------------------------------------------------

    #[test]
    fn flush_fences_only_dirty_extents() {
        let (disk, s) = setup();
        // A permanently failing extent the workload never touches: the old
        // whole-disk barrier tripped over it; per-extent fencing must not.
        disk.inject_fail_always(ExtentId(3));
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        s.pump().unwrap();
        assert!(dep.is_persistent());
        assert_eq!(s.counter("sched.extents_fenced"), 1);
    }

    #[test]
    fn flush_counts_one_fence_per_dirty_extent() {
        let (disk, s) = setup();
        let none = s.none();
        s.submit_write(ExtentId(1), 0, b"a".to_vec(), &none);
        s.submit_write(ExtentId(2), 0, b"b".to_vec(), &none);
        s.submit_write(ExtentId(2), 1, b"c".to_vec(), &none);
        s.pump().unwrap();
        assert_eq!(s.counter("sched.extents_fenced"), 2);
        assert_eq!(s.counter("sched.batches_issued"), 1, "all three ready writes form one batch");
        assert_eq!(disk.stats().flushes, 2, "the untouched extents see no flush");
    }

    #[test]
    fn same_extent_batch_coalesces_across_submitters() {
        let (disk, s) = setup();
        let none = s.none();
        // Interleaved submission order across extents; the batch is still
        // grouped per extent and each contiguous range is one IO.
        s.submit_write(ExtentId(1), 0, b"aa".to_vec(), &none);
        s.submit_write(ExtentId(2), 0, b"xx".to_vec(), &none);
        s.submit_write(ExtentId(1), 2, b"bb".to_vec(), &none);
        s.submit_write(ExtentId(2), 2, b"yy".to_vec(), &none);
        s.pump().unwrap();
        assert_eq!(s.counter("sched.ios_issued"), 2, "one IO per extent");
        assert_eq!(s.counter("sched.writes_coalesced"), 2);
        assert_eq!(disk.read(ExtentId(1), 0, 4).unwrap(), b"aabb");
        assert_eq!(disk.read(ExtentId(2), 0, 4).unwrap(), b"xxyy");
    }

    #[test]
    fn readiness_is_event_driven_not_polled() {
        let (_d, s) = setup();
        let gate = s.promise();
        let none = s.none();
        s.submit_write(ExtentId(1), 0, b"a".to_vec(), &none);
        s.submit_write(ExtentId(2), 0, b"b".to_vec(), &gate.dependency());
        assert_eq!(s.queue_depth(), 1, "only the unblocked write is ready");
        gate.seal();
        assert_eq!(s.queue_depth(), 2, "sealing cascades readiness without a pump");
        s.pump().unwrap();
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn background_writeback_persists_without_explicit_pump() {
        let (disk, s) = setup();
        s.set_writeback_mode(WritebackMode::Background(WritebackConfig {
            batch_window: Duration::from_micros(50),
            max_batch: 8,
        }));
        let none = s.none();
        let dep = s.submit_write(ExtentId(1), 0, b"bg".to_vec(), &none);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !dep.is_persistent() {
            assert!(std::time::Instant::now() < deadline, "background pump never ran");
            std::thread::yield_now();
        }
        assert_eq!(disk.read(ExtentId(1), 0, 2).unwrap(), b"bg");
        s.quiesce().unwrap();
        assert_eq!(s.writeback_mode(), WritebackMode::Deterministic);
    }

    #[test]
    fn background_pump_wakes_on_seal() {
        let (_d, s) = setup();
        s.set_writeback_mode(WritebackMode::Background(WritebackConfig::default()));
        let gate = s.promise();
        let dep = s.submit_write(ExtentId(1), 0, b"z".to_vec(), &gate.dependency());
        std::thread::sleep(Duration::from_millis(2));
        assert!(!dep.is_persistent());
        gate.seal();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !dep.is_persistent() {
            assert!(std::time::Instant::now() < deadline, "seal did not wake the pump");
            std::thread::yield_now();
        }
        s.quiesce().unwrap();
    }

    #[test]
    fn quiesce_stops_the_pump_and_drains() {
        let (_d, s) = setup();
        s.set_writeback_mode(WritebackMode::Background(WritebackConfig::default()));
        let none = s.none();
        let deps: Vec<_> =
            (0..16).map(|i| s.submit_write(ExtentId(1), i, vec![i as u8], &none)).collect();
        s.quiesce().unwrap();
        assert!(deps.iter().all(|d| d.is_persistent()));
        // After quiesce, new writes stay queued until an explicit pump.
        let d = s.submit_write(ExtentId(2), 0, b"x".to_vec(), &none);
        std::thread::sleep(Duration::from_millis(5));
        assert!(!d.is_persistent());
        s.pump().unwrap();
        assert!(d.is_persistent());
    }
}
