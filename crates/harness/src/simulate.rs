//! Deterministic whole-system simulation (the VOPR, ISSUE 8's tentpole).
//!
//! This module binds the [`shardstore_sim`] substrate — one seeded event
//! loop owning logical time and a unified queue of timer ticks, message
//! deliveries, disk-fault armings, and whole-node crash-restarts — to a
//! system under test, the `interp` interpreter that drives it,
//! and the `Oracle` that judges what the interpreter observed.
//! There are two worlds, one per alphabet, and the frontends differ only
//! in the oracle (or transport) they plug in:
//!
//! - [`run_conformance_sim`] — a [`Store`] under the strict/§4.4-relaxed
//!   oracle (§4, the crash-free refinement);
//! - [`run_crash_sim`] — a store under the crash-aware oracle (§5), the
//!   only one that honors crash-restart schedule points;
//! - [`crate::fault_sweep::run_schedule`] — a store under the
//!   ack-precise oracle, one enumerated fault per run;
//! - [`run_node_sim_on`] — a multi-disk [`Node`] control plane under the
//!   disk-removal oracle, called directly;
//! - [`run_rpc_sim`] — the same alphabet and oracle driven through the
//!   request plane: a manual-mode [`Engine`] whose executors only make
//!   progress when the event loop delivers, with every request
//!   round-tripped through the wire codec.
//!
//! Operations double as messages: `Apply(i)` *sends* operation `i`
//! (consulting the schedule's drop/delay tables), and `Deliver(i)`
//! executes it against both implementation and model. Because the model
//! updates at delivery order, drops, delays, and reorders are naturally
//! consistent — a clean schedule delivers each message immediately after
//! its send, reproducing a straight-line runner loop event for event.

use std::collections::{BTreeMap, BTreeSet};

use shardstore_core::{Engine, EngineConfig, Node, Store};
use shardstore_faults::coverage;
use shardstore_sim::{CrashPoint, FaultPoint, SimCtx, SimReport, SimSchedule, Simulator, World};

use crate::conformance::{ConformanceConfig, Divergence, RunReport, Strict};
use crate::crash::CrashAware;
use crate::interp::{self, NodePort, NodeRun, Run};
use crate::node_conformance::DiskRemoval;
use crate::ops::{KvOp, NodeOp, RebootType};
use crate::oracle::Oracle;

/// Per-run options orthogonal to the schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Compute a byte-stable run fingerprint (obs trace timeline plus a
    /// final-state dump) for determinism regression checks. Off by
    /// default: detection loops run thousands of executions and never
    /// read it.
    pub fingerprint: bool,
}

/// The result of one simulated execution that did not diverge.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The historical runner report (op counts, §4.4 skips).
    pub report: RunReport,
    /// Event-loop statistics (events, deliveries, simulated end time).
    pub sim: SimReport,
    /// Run fingerprint, when [`SimOptions::fingerprint`] was set.
    pub fingerprint: Option<String>,
    /// End-of-run metrics snapshot (merged across disks for node
    /// worlds): counters, gauges, and the logical-latency histograms.
    pub metrics: shardstore_obs::metrics::MetricsSnapshot,
}

/// The delivery plan a world consults when *sending* a message: drops
/// erase the message entirely (the op never executes anywhere), delays
/// push its delivery past later sends (reordering).
struct NetPlan {
    drops: BTreeSet<usize>,
    delays: BTreeMap<usize, u64>,
}

impl NetPlan {
    fn new(schedule: &SimSchedule) -> Self {
        Self {
            drops: schedule.drops.iter().copied().collect(),
            delays: schedule.delays.iter().copied().collect(),
        }
    }

    /// Sends message `m`: schedules its delivery (or drops it). A clean
    /// schedule delivers at `now + 1`, before the next op's send.
    fn send(&self, ctx: &mut SimCtx<'_>, m: usize) {
        if self.drops.contains(&m) {
            coverage::hit("sim.perturb.drop");
            return;
        }
        let delay = self.delays.get(&m).copied().unwrap_or(0);
        if delay > 0 {
            coverage::hit("sim.perturb.delay");
        }
        ctx.schedule_delivery(ctx.now + 1 + delay, m);
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A byte-stable fingerprint of a store after a run: the full obs trace
/// timeline plus the final key-value mapping (length + content hash per
/// key). Two deterministic runs of the same `(ops, schedule)` must
/// produce equal fingerprints.
fn store_fingerprint(store: &Store) -> String {
    let mut out = String::new();
    let records = store.obs().trace().snapshot();
    out.push_str(&shardstore_obs::oracle::render_timeline(&records));
    out.push_str("\n--- final state ---\n");
    match store.list() {
        Ok(keys) => {
            for key in keys {
                match store.get(key) {
                    Ok(Some(v)) => {
                        out.push_str(&format!("{key}: {} bytes fnv {:016x}\n", v.len(), fnv(&v)));
                    }
                    Ok(None) => out.push_str(&format!("{key}: absent\n")),
                    Err(e) => out.push_str(&format!("{key}: error {e}\n")),
                }
            }
        }
        Err(e) => out.push_str(&format!("list error: {e}\n")),
    }
    out
}

// ---------------------------------------------------------------------------
// Store world (KV alphabet)
// ---------------------------------------------------------------------------

/// A [`shardstore_core::Store`] under one oracle. Operations double as
/// messages (see the module docs); timer ticks pump background IO like
/// an in-alphabet `Pump` at a synthetic index past the sequence;
/// disk-fault points engage the §4.4 relaxation exactly like an
/// in-alphabet `FailDiskOnce`; crash-restart points become dirty reboots
/// with the point's block-survival mask, for the oracle whose alphabet
/// has them.
pub(crate) struct StoreWorld<'a, O> {
    ops: &'a [KvOp],
    pub run: Run,
    pub oracle: O,
    net: NetPlan,
}

impl<'a, O: Oracle> StoreWorld<'a, O> {
    pub fn new(
        ops: &'a [KvOp],
        cfg: &ConformanceConfig,
        oracle: O,
        schedule: &SimSchedule,
    ) -> Self {
        let run = Run::new(cfg.fresh_store(), cfg.geometry);
        Self { ops, run, oracle, net: NetPlan::new(schedule) }
    }

    /// Interprets `op`, judging every observation; operations outside
    /// the oracle's alphabet are skipped without touching the store.
    fn drive(&mut self, i: usize, op: &KvOp) -> Result<(), Divergence> {
        let Self { run, oracle, .. } = self;
        if !oracle.accepts(op) {
            return Ok(());
        }
        interp::apply(run, op, &mut |run, obs| oracle.observe(run, obs))
            .map_err(|detail| Divergence::at(i, op, detail))
    }

    fn outcome(&self, sim: SimReport, opts: &SimOptions) -> SimOutcome {
        SimOutcome {
            report: RunReport {
                ops: self.ops.len(),
                skipped_no_space: self.run.skipped_no_space,
                has_failed: self.run.fault_active,
            },
            sim,
            fingerprint: opts.fingerprint.then(|| store_fingerprint(&self.run.store)),
            metrics: self.run.store.obs().snapshot(),
        }
    }
}

impl<O: Oracle> World for StoreWorld<'_, O> {
    type Error = Divergence;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Divergence> {
        self.net.send(ctx, i);
        Ok(())
    }

    fn deliver(&mut self, _ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Divergence> {
        let op = &self.ops[m];
        coverage::hit(op.probe());
        self.drive(m, op)?;
        self.oracle.after_op(&mut self.run, m).map_err(|detail| Divergence::at(m, op, detail))
    }

    fn tick(&mut self, _ctx: &mut SimCtx<'_>) -> Result<(), Divergence> {
        self.drive(self.ops.len(), &KvOp::Pump(4))
    }

    fn arm_fault(&mut self, f: &FaultPoint) -> Result<(), Divergence> {
        interp::arm_fault(&mut self.run, f);
        Ok(())
    }

    fn crash_restart(&mut self, c: &CrashPoint) -> Result<(), Divergence> {
        let rt = RebootType { flush_index: false, issue_ios: 0, keep_mask: c.keep_mask };
        self.drive(c.at_op, &KvOp::DirtyReboot(rt))
    }

    fn settle(&mut self) -> Result<(), Divergence> {
        let n = self.ops.len();
        self.oracle
            .settle(&mut self.run, n)
            .map_err(|detail| Divergence::at(n, &format_args!("settle"), detail))
    }
}

/// Runs the crash-free conformance checker under the simulator. Crash-
/// restart points are ignored (`Strict`'s model is not crash-aware).
pub fn run_conformance_sim(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let mut world = StoreWorld::new(ops, cfg, Strict::default(), schedule);
    let sim = Simulator::run(&mut world, ops.len(), schedule)
        .map_err(|d| d.with_timeline(&world.run.store))?;
    Ok(world.outcome(sim, opts))
}

/// Runs the crash-consistency checker under the simulator: the only
/// store world that honors crash-restart schedule points (checked by
/// the §5 persistence property).
pub fn run_crash_sim(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let mut world = StoreWorld::new(ops, cfg, CrashAware::new(cfg.faults.clone()), schedule);
    let sim = Simulator::run(&mut world, ops.len(), schedule)?;
    Ok(world.outcome(sim, opts))
}

// ---------------------------------------------------------------------------
// Node world (control-plane alphabet)
// ---------------------------------------------------------------------------

/// A multi-disk [`Node`] under the [`DiskRemoval`] oracle, reached
/// either directly or through the request plane (see [`NodePort`]).
/// Fault and crash points are ignored — the oracle is not
/// failure-relaxed, so arming faults would flag honest unavailability as
/// divergence. Network perturbations (drop/delay/reorder) apply.
struct NodeWorld<'a> {
    ops: &'a [NodeOp],
    run: NodeRun,
    oracle: DiskRemoval,
    net: NetPlan,
}

impl World for NodeWorld<'_> {
    type Error = Divergence;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Divergence> {
        self.net.send(ctx, i);
        Ok(())
    }

    fn deliver(&mut self, _ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Divergence> {
        let op = &self.ops[m];
        coverage::hit(op.probe());
        let Self { run, oracle, .. } = self;
        interp::apply_node(run, op, &mut |run, obs| oracle.observe(run, obs))
            .and_then(|()| oracle.after_op(run, m))
            .map_err(|detail| Divergence::at(m, op, detail))
    }

    /// Drains the engine, then tolerantly pumps every in-service disk's
    /// IO scheduler (errors surface through the per-op oracle, not
    /// here).
    fn tick(&mut self, _ctx: &mut SimCtx<'_>) -> Result<(), Divergence> {
        if let NodePort::Wire { engine, .. } = &self.run.port {
            engine.drain();
        }
        let node = self.run.port.node();
        for d in 0..node.disk_count() {
            if let Some(store) = node.store(d) {
                let sched = store.scheduler();
                let _ = sched.issue_ready(4).and_then(|_| sched.flush_issued());
            }
        }
        Ok(())
    }

    fn settle(&mut self) -> Result<(), Divergence> {
        if let NodePort::Wire { engine, .. } = &self.run.port {
            engine.drain();
            engine.shutdown();
        }
        let n = self.ops.len();
        self.oracle
            .after_op(&mut self.run, n)
            .map_err(|detail| Divergence::at(n, &format_args!("settle"), detail))
    }
}

fn run_node_world(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    port: NodePort,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let run = NodeRun::new(port, cfg.geometry.page_size);
    let mut world =
        NodeWorld { ops, run, oracle: DiskRemoval::default(), net: NetPlan::new(schedule) };
    let sim = Simulator::run(&mut world, ops.len(), schedule)?;
    let node = world.run.port.node();
    // Per-disk fingerprints, and every in-service disk's metrics merged
    // into one node-wide view (same-bounds histograms add bucket-wise).
    let fingerprint = opts.fingerprint.then(|| {
        (0..node.disk_count())
            .map(|d| match node.store(d) {
                Some(store) => format!("=== disk {d} ===\n{}", store_fingerprint(&store)),
                None => format!("=== disk {d}: out of service ===\n"),
            })
            .collect()
    });
    let mut metrics = shardstore_obs::metrics::MetricsSnapshot::default();
    for obs in (0..node.disk_count()).filter_map(|d| node.disk_obs(d)) {
        metrics.merge(&obs.snapshot());
    }
    Ok(SimOutcome {
        report: RunReport {
            ops: ops.len(),
            skipped_no_space: world.run.skipped_no_space,
            has_failed: false,
        },
        sim,
        fingerprint,
        metrics,
    })
}

/// Runs the control-plane conformance checker under the simulator
/// against a freshly-built node with `num_disks` disks.
pub fn run_node_sim(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    run_node_sim_on(ops, cfg, &cfg.fresh_node(num_disks), schedule, opts)
}

/// Runs the control-plane conformance checker under the simulator
/// against a caller-provided node.
pub fn run_node_sim_on(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    node: &Node,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    run_node_world(ops, cfg, NodePort::Direct(node.clone()), schedule, opts)
}

/// Attaches the per-disk causal timelines of the most recent request on
/// each disk, so a minimized request-plane repro shows the failing
/// request's admission→IO→ack (or failure) path.
fn with_node_timeline(node: &Node, mut d: Divergence) -> Divergence {
    let mut out = String::new();
    for disk in 0..node.disk_count() {
        if let Some(obs) = node.disk_obs(disk) {
            let trace = obs.trace();
            let dropped = trace.dropped();
            d.dropped_events = d.dropped_events.max(dropped);
            let causal =
                shardstore_obs::oracle::render_last_req_timeline(&trace.snapshot(), dropped);
            if !causal.is_empty() {
                out.push_str(&format!(
                    "=== disk {disk}: causal timeline (last request) ===\n{causal}"
                ));
            }
        }
    }
    if !out.is_empty() {
        d.timeline = out;
    }
    d
}

/// Runs the node alphabet through the request plane under the simulator:
/// a manual-mode engine (no worker threads — the event loop is the only
/// source of executor progress), wire-codec round-trips on every
/// request, and model conformance checks on every response.
pub fn run_rpc_sim(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    // Always deterministic writeback: a pump thread would be a second
    // source of progress.
    let node = Node::new(num_disks, cfg.geometry, cfg.store.clone(), cfg.faults.clone());
    let engine = Engine::start_manual(node.clone(), EngineConfig::default());
    let client = engine.client();
    run_node_world(ops, cfg, NodePort::Wire { engine, client }, schedule, opts)
        .map_err(|d| with_node_timeline(&node, d))
}
