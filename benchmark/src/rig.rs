//! The rig: a real `Engine` (one disk, one worker) on the file backend,
//! driven through the wire from one thread, with the `fenced` durability
//! contract and the driver-side maintenance policy.
//!
//! **`fenced`**: a write is complete when the `Node::pump_all()` issued
//! right after its ack returns. The wire protocol drops the write's
//! `Dependency`, so this is the only durability point a client can see.
//! It pumps the IO scheduler; it does not flush the LSM memtable, so the
//! index entries of the last `< flush_threshold` writes are still
//! volatile (the crash phase accounts for exactly those).
//!
//! **Maintenance** is the driver's job because the node has none: every
//! [`MAINT_CHECK_EVERY`] fences, if fewer than 1/8 of the extents are
//! free, `Store::reclaim(Stream::Data)` until 1/4 are. "Free" is
//! `Owner::Free` or an empty Data extent (write pointer 0):
//! `ExtentManager::reset` keeps a reclaimed extent's owner, so
//! `Owner::Free` alone never recovers, and an empty extent of the index
//! streams is of no use to a data write. It runs on the driver thread,
//! so its time delays later due requests and is counted in their
//! latency.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shardstore_chunk::Stream as ChunkStream;
use shardstore_core::rpc::{Request, Response};
use shardstore_core::{
    BackendKind, Engine, EngineConfig, Node, NodeConfig, RpcClient, Store, StoreConfig,
};
use shardstore_superblock::Owner;
use shardstore_vdisk::{CrashPlan, ExtentId};

use crate::oracle::{CrashReport, Failure, Model};
use crate::stats::Span;
use crate::workload::{self, Op, Spec, Stream, Versions};

/// Preload fences once per this many requests: 4 batches of 16 = 64 writes.
pub const PRELOAD_FENCE_EVERY: usize = 4;
/// Warm-up reads at the end of setup.
pub const WARMUP_READS: usize = 2000;
/// Free-extent check cadence, in fences. One check walks every extent
/// (two lock round trips each), so it is amortised; 16 fences write at
/// most a few extents, far inside the 1/8 reserve.
pub const MAINT_CHECK_EVERY: u32 = 16;
/// An open-loop step whose generator falls this far behind is abandoned.
pub const MAX_LAG: Duration = Duration::from_secs(2);

pub type Res<T> = Result<T, String>;

pub(crate) fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Attempted / failed / refused requests of a run. A failed or refused
/// request misses every latency limit and fails the run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, failure: Failure) {
        match failure {
            Failure::Refused => self.refused += 1,
            Failure::Failed(why) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(why);
                }
            }
        }
    }
}

/// What the driver-side maintenance did.
#[derive(Debug, Clone, Default)]
pub struct Maintenance {
    fences_since_check: u32,
    pub free_min: Option<u32>,
    /// Sum and count of the used (non-free) extents seen at each check:
    /// the space the store holds on average, not at one point of the
    /// reclamation sawtooth.
    pub used_sum: u64,
    pub used_samples: u64,
    pub reclaims: u64,
    /// Wall time of each maintenance stall (reclaims plus their fence).
    pub stalls_ns: Vec<u64>,
}

/// Span recorder plus the manual-mode engine the traced run drives.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    engine: Engine,
    client: RpcClient,
    /// Dependency-scheduler rounds that did work, per fence.
    pub fence_rounds: Vec<u32>,
    pub engine_queue_depth_max: i64,
    pub sched_queue_depth_max: u64,
    /// Disk reads caused by read requests and by write requests (fence
    /// included), as (calls, bytes): `Disk::stats()` deltas around each.
    pub disk_reads_by_reads: (u64, u64),
    pub disk_reads_by_writes: (u64, u64),
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<u32>, req: u32) -> u32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }
}

/// Samples of one measured phase. Latencies are nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct PhaseOut {
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Send -> fence returned, without the wait for the due time: what
    /// `lsm.stall_share` is read off.
    pub write_service_ns: Vec<u64>,
    /// Send time minus due time: the wait a busy driver imposed.
    pub lag_ns: Vec<u64>,
    pub completed: u64,
    pub wall: Duration,
    /// False when an open-loop step was abandoned for generator lag.
    pub sustained: bool,
    pub user_bytes: u64,
    pub wire_bytes: u64,
}

impl PhaseOut {
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

pub struct Rig {
    pub spec: Spec,
    pub seed: u64,
    pub node: Node,
    pub store: Store,
    engine: Engine,
    client: RpcClient,
    engine_config: EngineConfig,
    pub model: Model,
    pub versions: Versions,
    pub maint: Maintenance,
    pub tally: Tally,
}

impl Rig {
    /// Phase (1): format, preload through the wire with a fence every
    /// [`PRELOAD_FENCE_EVERY`] batches, final fence, warm-up reads.
    /// Everything but `backend` (and `geometry`, where the data needs a
    /// larger volume) is the program's default, so a changed default is
    /// a program change this benchmark sees. Returns the rig and the
    /// phase's wall time.
    pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Res<(Rig, Duration)> {
        let mut versions = Versions::new(spec.keys);
        let preload = workload::preload_stream(spec, seed, &mut versions);
        let warmup =
            workload::uniform_stream(spec, seed, 2, WARMUP_READS, spec.read_kind(), &mut versions);
        let begun = Instant::now();
        let store_config = StoreConfig::default()
            .to_builder()
            .backend(BackendKind::File {
                dir: dir.to_path_buf(),
                preallocate: false,
            })
            .build()
            .map_err(err("store config"))?;
        let config = NodeConfig::builder()
            .disks(1)
            .geometry(spec.volume.geometry())
            .store(store_config)
            .engine(EngineConfig::default())
            .build()
            .map_err(err("node config"))?;
        let node = Node::from_config(&config);
        let store = node.store(0).ok_or("disk 0 has no store")?;
        let engine = Engine::start(node.clone(), config.engine);
        let client = engine.client();
        let mut rig = Rig {
            spec: *spec,
            seed,
            node,
            store,
            engine,
            client,
            engine_config: config.engine,
            model: Model::new(spec),
            versions,
            maint: Maintenance::default(),
            tally: Tally::default(),
        };
        for batch in preload.ops.chunks(PRELOAD_FENCE_EVERY) {
            for op in batch {
                rig.request(&preload, op)?;
            }
            rig.fence_and_maintain()?;
        }
        for op in &warmup.ops {
            rig.request(&warmup, op)?;
        }
        let took = begun.elapsed();
        if rig.tally.failed + rig.tally.refused > 0 {
            return Err(format!("setup: requests failed: {:?}", rig.tally.errors));
        }
        Ok((rig, took))
    }

    /// One untimed request: send, decode, check, ack. No fence.
    fn request(&mut self, stream: &Stream, op: &Op) -> Res<()> {
        self.tally.attempted += 1;
        let reply = self.client.call_wire(stream.frame(op));
        let reply = Response::decode(&reply).map_err(err("reply frame"))?;
        match self.model.check(op, &reply) {
            Ok(()) => self.model.ack(op),
            Err(failure) => self.tally.note(failure),
        }
        Ok(())
    }

    /// The wire entry point of the threaded engine.
    pub fn call_wire(&self, frame: &[u8]) -> Vec<u8> {
        self.client.call_wire(frame)
    }

    /// The `fenced` contract's fence.
    pub fn fence(&self) -> Res<()> {
        self.node.pump_all().map_err(err("pump_all"))
    }

    pub fn fence_and_maintain(&mut self) -> Res<()> {
        self.fence()?;
        self.maintain(None, 0)
    }

    /// (total extents, free extents): `Owner::Free`, or an empty Data
    /// extent — what a data write can still land on.
    pub fn extents(&self) -> (u32, u32) {
        let em = self.store.cache().chunk_store().extent_manager();
        let total = em.extent_count();
        let free = (0..total)
            .map(ExtentId)
            .filter(|e| match em.owner(*e) {
                Owner::Free => true,
                Owner::Data => em.write_pointer(*e) == 0,
                _ => false,
            })
            .count() as u32;
        (total, free)
    }

    /// Mean bytes in non-free extents over the maintenance checks made
    /// since `mark` (an earlier `(maint.used_sum, maint.used_samples)`)
    /// and now.
    pub fn mean_space_used(&self, mark: (u64, u64)) -> f64 {
        let (total, free) = self.extents();
        let sum = self.maint.used_sum - mark.0 + u64::from(total - free);
        let samples = self.maint.used_samples - mark.1 + 1;
        sum as f64 / samples as f64 * self.spec.volume.geometry().extent_size() as f64
    }

    fn maintain(&mut self, tracer: Option<&mut Tracer>, req: u32) -> Res<()> {
        self.maint.fences_since_check += 1;
        if self.maint.fences_since_check < MAINT_CHECK_EVERY {
            return Ok(());
        }
        self.maint.fences_since_check = 0;
        let (total, free) = self.extents();
        self.maint.free_min = Some(self.maint.free_min.map_or(free, |m| m.min(free)));
        self.maint.used_sum += u64::from(total - free);
        self.maint.used_samples += 1;
        if free * 8 >= total {
            return Ok(());
        }
        let begun = Instant::now();
        let mut tracer = tracer;
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("chunk.reclaim", None, req));
        while self.extents().1 * 4 < total
            && self
                .store
                .reclaim(ChunkStream::Data)
                .map_err(err("reclaim"))?
        {
            self.maint.reclaims += 1;
        }
        // Evacuations and extent resets are writes like any other.
        self.fence()?;
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        self.maint.stalls_ns.push(begun.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// A manual-mode engine over the same node, for the traced run: no
    /// worker thread, every stage a call the driver makes.
    pub fn tracer(&self) -> Tracer {
        let engine = Engine::start_manual(self.node.clone(), self.engine_config);
        let client = engine.client();
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            engine,
            client,
            fence_rounds: Vec::new(),
            engine_queue_depth_max: 0,
            sched_queue_depth_max: 0,
            disk_reads_by_reads: (0, 0),
            disk_reads_by_writes: (0, 0),
        }
    }

    /// The traced request path: `wire.decode` -> `engine.admit` ->
    /// `engine.exec` -> `wire.encode`, each a span under `root`.
    fn call_traced(&self, t: &mut Tracer, frame: &[u8], root: u32, req: u32) -> Res<Vec<u8>> {
        let s = t.open("wire.decode", Some(root), req);
        let request = Request::decode(frame).map_err(err("generated frame"))?;
        t.close(s);
        let s = t.open("engine.admit", Some(root), req);
        let pending = t.client.call_nowait(request);
        t.close(s);
        let depth = self.store.obs().registry().gauge("rpc.queue_depth").get();
        t.engine_queue_depth_max = t.engine_queue_depth_max.max(depth);
        let s = t.open("engine.exec", Some(root), req);
        let response = loop {
            if let Some(response) = pending.poll() {
                break response;
            }
            if !t.engine.step_disk(0) {
                return Err("manual engine: queue empty but no reply".into());
            }
        };
        t.close(s);
        let s = t.open("wire.encode", Some(root), req);
        let bytes = response.encode();
        t.close(s);
        Ok(bytes)
    }

    /// The traced fence: the scheduler's own pump loop, unrolled so each
    /// round's issue and flush are spans, then `Store::pump`'s remainder.
    fn fence_traced(&self, t: &mut Tracer, root: u32, req: u32) -> Res<()> {
        let fence = t.open("fence", Some(root), req);
        let sched = self.store.scheduler();
        t.sched_queue_depth_max = t.sched_queue_depth_max.max(sched.queue_depth());
        let mut rounds = 0u32;
        loop {
            let s = t.open("dependency.issue", Some(fence), req);
            let issued = sched.issue_ready(usize::MAX).map_err(err("issue_ready"))?;
            t.close(s);
            let dirty = sched.issued_count() > 0;
            let s = t.open("dependency.flush", Some(fence), req);
            sched.flush_issued().map_err(err("flush_issued"))?;
            t.close(s);
            if issued == 0 && !dirty {
                break;
            }
            rounds += 1;
        }
        t.fence_rounds.push(rounds);
        let s = t.open("superblock.pump_tail", Some(fence), req);
        self.fence()?;
        t.close(s);
        t.close(fence);
        Ok(())
    }

    /// Runs one measured phase over `stream`. Open loop (`open`): each
    /// request is sent at its due time or as soon after as the single
    /// in-flight slot frees, and timed from the due time. Closed loop:
    /// back to back until `budget` is spent, timed from the send.
    pub fn run_phase(
        &mut self,
        stream: &Stream,
        open: bool,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Res<PhaseOut> {
        let mut out = PhaseOut {
            sustained: true,
            ..PhaseOut::default()
        };
        let begun = Instant::now();
        for (i, op) in stream.ops.iter().enumerate() {
            let due = if open {
                let due = Duration::from_nanos(op.due_ns);
                while begun.elapsed() < due {
                    std::hint::spin_loop();
                }
                due
            } else {
                begun.elapsed()
            };
            let sent = begun.elapsed();
            if open {
                let lag = sent - due;
                if lag > MAX_LAG {
                    out.sustained = false;
                    break;
                }
                out.lag_ns.push(lag.as_nanos() as u64);
            } else if sent >= budget {
                break;
            }
            self.tally.attempted += 1;
            let frame = stream.frame(op);
            let req = i as u32;
            let disk_before = tracer
                .is_some()
                .then(|| self.store.scheduler().disk().stats());
            let root = tracer.as_deref_mut().map(|t| t.open("request", None, req));
            let reply = match (tracer.as_deref_mut(), root) {
                (Some(t), Some(root)) => self.call_traced(t, frame, root, req)?,
                _ => self.client.call_wire(frame),
            };
            let verify = tracer
                .as_deref_mut()
                .zip(root)
                .map(|(t, root)| t.open("driver.verify", Some(root), req));
            let verdict = match Response::decode(&reply) {
                Ok(reply) => self.model.check(op, &reply),
                Err(e) => Err(Failure::Failed(format!("reply frame: {e}"))),
            };
            if let Some((t, s)) = tracer.as_deref_mut().zip(verify) {
                t.close(s);
            }
            if let Err(failure) = verdict {
                self.tally.note(failure);
                if let Some((t, root)) = tracer.as_deref_mut().zip(root) {
                    t.close(root);
                }
                continue;
            }
            out.wire_bytes += (frame.len() + reply.len()) as u64;
            if op.kind.is_write() {
                self.model.ack(op);
                match (tracer.as_deref_mut(), root) {
                    (Some(t), Some(root)) => self.fence_traced(t, root, req)?,
                    _ => self.fence()?,
                }
            }
            let done = begun.elapsed();
            if let Some((t, root)) = tracer.as_deref_mut().zip(root) {
                t.close(root);
            }
            if let Some((t, before)) = tracer.as_deref_mut().zip(disk_before) {
                let after = self.store.scheduler().disk().stats();
                let class = if op.kind.is_write() {
                    &mut t.disk_reads_by_writes
                } else {
                    &mut t.disk_reads_by_reads
                };
                class.0 += after.reads - before.reads;
                class.1 += after.bytes_read - before.bytes_read;
            }
            out.completed += 1;
            let latency = (done - due).as_nanos() as u64;
            if op.kind.is_write() {
                out.write_ns.push(latency);
                out.write_service_ns.push((done - sent).as_nanos() as u64);
                out.user_bytes += self.model.user_bytes(op);
                self.maintain(tracer.as_deref_mut(), req)?;
            } else {
                out.read_ns.push(latency);
            }
        }
        out.wall = begun.elapsed();
        Ok(out)
    }

    /// Phase (4): crash the live volume losing every unfenced page,
    /// recover, and time crash -> first Get answered; `repeats` more
    /// reboots of the recovered store give the median its samples (a
    /// reboot with nothing volatile scans the same bytes). Then the
    /// oracle reads every key back.
    pub fn crash(mut self, repeats: usize) -> Res<(Vec<Duration>, CrashReport, u64)> {
        self.engine.shutdown();
        let unflushed: BTreeSet<u32> = self
            .store
            .unflushed_keys()
            .into_iter()
            .map(|k| k as u32)
            .collect();
        let probe_key = u128::from(crate::rng::Rng::lane(self.seed, 3).below(self.spec.keys));
        let mut times = Vec::with_capacity(repeats + 1);
        let mut store = self.store.clone();
        for _ in 0..=repeats {
            let begun = Instant::now();
            store = store
                .dirty_reboot(&CrashPlan::LoseAll)
                .map_err(err("recovery"))?;
            store
                .get_value(probe_key)
                .map_err(err("first get after recovery"))?;
            times.push(begun.elapsed());
        }
        let report = self.model.check_recovered(&store, &unflushed);
        let scan_ms = store.scheduler().disk().stats().recovery_scan_ms;
        Ok((times, report, scan_ms))
    }

    pub fn shutdown(&self) {
        self.engine.shutdown();
    }
}

/// Removes leftovers of earlier runs and returns the volume directory.
pub fn volume_dir(out_dir: &Path) -> Res<PathBuf> {
    let dir = out_dir.join("vol");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err("clearing the volume directory"))?;
    }
    std::fs::create_dir_all(&dir).map_err(err("creating the volume directory"))?;
    Ok(dir)
}
