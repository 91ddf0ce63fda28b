//! The seeded deterministic event loop.
//!
//! One [`Simulator::run`] call is one simulated execution: the schedule
//! is laid out on the logical timeline, and events pop in `(time, seq)`
//! order against a [`World`] supplied by the harness. Determinism is
//! structural — the order of dispatch is a pure function of `(n_ops,
//! schedule)` plus whatever deliveries the world schedules, which are
//! themselves derived from the schedule.
//!
//! Timeline layout (one operation occupies [`OP_SPACING`] ticks):
//!
//! - `Apply(i)` at `(i+1) * OP_SPACING`;
//! - a fault point for op `i` arms at `(i+1) * OP_SPACING - 2`
//!   ("immediately before the op", the fault-sweep convention);
//! - a timer tick after op `i` lands at `(i+1) * OP_SPACING + 1`;
//! - a crash-restart after op `i` lands at `(i+1) * OP_SPACING + 2`;
//! - message deliveries land wherever the world schedules them (send
//!   time plus the schedule's delay), which is how a delayed message
//!   overtakes — or is overtaken by — later traffic.

use shardstore_faults::coverage;

use crate::clock::LogicalClock;
use crate::event::EventQueue;
use crate::schedule::{CrashPoint, FaultPoint, SimFaultKind, SimSchedule};

/// Logical ticks between consecutive operations.
pub const OP_SPACING: u64 = 16;

/// An event on the unified queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Apply (or, in delivery worlds, *send*) operation `i`.
    Apply(usize),
    /// A timer tick (worlds typically pump background IO).
    Tick,
    /// Arm disk fault `schedule.faults[i]`.
    ArmFault(usize),
    /// Whole-node crash-restart `schedule.crashes[i]`.
    CrashRestart(usize),
    /// Deliver in-flight message `m` (scheduled by the world's `apply`).
    Deliver(usize),
}

/// The world's handle into the running simulation: the current logical
/// time, plus the ability to schedule future message deliveries.
pub struct SimCtx<'a> {
    /// Current logical time.
    pub now: u64,
    queue: &'a mut EventQueue<SimEvent>,
}

impl SimCtx<'_> {
    /// Schedules delivery of message `m` at absolute time `at` (clamped
    /// to now — deliveries never travel backwards in time).
    pub fn schedule_delivery(&mut self, at: u64, m: usize) {
        self.queue.push(at.max(self.now), SimEvent::Deliver(m));
    }
}

/// A system under test plus its reference model, interpreted one event
/// at a time. The simulator owns *when*; the world owns *what*.
pub trait World {
    /// The world's failure type (typically the harness divergence).
    type Error;

    /// Applies operation `i` — or, in delivery worlds, *sends* message
    /// `i` (scheduling its delivery through the context).
    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Self::Error>;

    /// A timer tick. Default: no-op.
    fn tick(&mut self, ctx: &mut SimCtx<'_>) -> Result<(), Self::Error> {
        let _ = ctx;
        Ok(())
    }

    /// Arms a disk fault.
    fn arm_fault(&mut self, f: &FaultPoint) -> Result<(), Self::Error> {
        let _ = f;
        Ok(())
    }

    /// Crash-restarts the whole node. Default: no-op (worlds without
    /// crash-aware checking ignore crash points).
    fn crash_restart(&mut self, c: &CrashPoint) -> Result<(), Self::Error> {
        let _ = c;
        Ok(())
    }

    /// Delivers in-flight message `m`. Default: no-op.
    fn deliver(&mut self, ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Self::Error> {
        let _ = (ctx, m);
        Ok(())
    }

    /// Runs once after the queue drains (quiesce + end-of-run oracles).
    fn settle(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Statistics from one simulated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Total events dispatched (including the implicit settle).
    pub events: u64,
    /// `Apply` events dispatched.
    pub ops: u64,
    /// Timer ticks dispatched.
    pub ticks: u64,
    /// Fault points armed.
    pub faults_armed: u64,
    /// Crash-restarts dispatched.
    pub crashes: u64,
    /// Message deliveries dispatched.
    pub deliveries: u64,
    /// Logical time when the queue drained.
    pub end_time: u64,
}

/// Accumulated [`SimReport`]s across a swarm batch of compressed-time
/// executions. The substrate stays wall-clock-free: the harness measures
/// elapsed real time around its batch and asks
/// [`SwarmStats::events_per_sec`] for the throughput figure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwarmStats {
    /// Executions completed.
    pub runs: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Total operations applied.
    pub ops: u64,
    /// Total fault points armed.
    pub faults_armed: u64,
    /// Total crash-restarts dispatched.
    pub crashes: u64,
    /// Total message deliveries dispatched.
    pub deliveries: u64,
    /// Total ticks dispatched.
    pub ticks: u64,
}

impl SwarmStats {
    /// Folds one execution's report into the batch totals.
    pub fn absorb(&mut self, r: &SimReport) {
        self.runs += 1;
        self.events += r.events;
        self.ops += r.ops;
        self.faults_armed += r.faults_armed;
        self.crashes += r.crashes;
        self.deliveries += r.deliveries;
        self.ticks += r.ticks;
    }

    /// Simulated events per wall-clock second over `elapsed_secs`.
    pub fn events_per_sec(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / elapsed_secs
        }
    }
}

/// The deterministic event-loop simulator.
pub struct Simulator;

impl Simulator {
    /// Runs one `n_ops`-operation execution of `world` under `schedule`.
    /// Returns the world's error as soon as any event handler reports
    /// one; otherwise drains the queue, settles, and reports.
    pub fn run<W: World>(
        world: &mut W,
        n_ops: usize,
        schedule: &SimSchedule,
    ) -> Result<SimReport, W::Error> {
        let mut queue: EventQueue<SimEvent> = EventQueue::new();
        for i in 0..n_ops {
            queue.push((i as u64 + 1) * OP_SPACING, SimEvent::Apply(i));
        }
        for (fi, f) in schedule.faults.iter().enumerate() {
            queue.push((f.at_op as u64 + 1) * OP_SPACING - 2, SimEvent::ArmFault(fi));
        }
        for (ci, c) in schedule.crashes.iter().enumerate() {
            queue.push((c.at_op as u64 + 1) * OP_SPACING + 2, SimEvent::CrashRestart(ci));
        }
        if schedule.tick_every > 0 {
            let mut k = schedule.tick_every;
            while k <= n_ops {
                queue.push(k as u64 * OP_SPACING + 1, SimEvent::Tick);
                k += schedule.tick_every;
            }
        }
        let mut clock = LogicalClock::new();
        let mut report = SimReport::default();
        while let Some((t, ev)) = queue.pop() {
            clock.advance_to(t);
            report.events += 1;
            let mut ctx = SimCtx { now: clock.now(), queue: &mut queue };
            match ev {
                SimEvent::Apply(i) => {
                    world.apply(&mut ctx, i)?;
                    report.ops += 1;
                }
                SimEvent::Tick => {
                    coverage::hit("sim.perturb.tick");
                    world.tick(&mut ctx)?;
                    report.ticks += 1;
                }
                SimEvent::ArmFault(fi) => {
                    let f = schedule.faults[fi];
                    match f.kind {
                        SimFaultKind::Transient(_) => coverage::hit("sim.fault.transient"),
                        SimFaultKind::Permanent => coverage::hit("sim.fault.permanent"),
                    }
                    world.arm_fault(&f)?;
                    report.faults_armed += 1;
                }
                SimEvent::CrashRestart(ci) => {
                    coverage::hit("sim.perturb.crash_restart");
                    world.crash_restart(&schedule.crashes[ci])?;
                    report.crashes += 1;
                }
                SimEvent::Deliver(m) => {
                    world.deliver(&mut ctx, m)?;
                    report.deliveries += 1;
                }
            }
        }
        world.settle()?;
        report.events += 1;
        report.end_time = clock.now();
        Ok(report)
    }
}
