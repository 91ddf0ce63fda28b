//! Substrate-level determinism and ordering tests: a toy world records
//! the exact dispatch order so the event-loop guarantees are pinned
//! without any storage stack in the loop.

use shardstore_sim::{
    CrashPoint, FaultPoint, PerturbProfile, SimCtx, SimFaultKind, SimReport, SimSchedule,
    Simulator, SwarmStats, World, OP_SPACING,
};

/// Records every dispatch as a rendered string; `apply` doubles as a
/// "send" that schedules delivery per a fixed delay table.
#[derive(Default)]
struct TraceWorld {
    log: Vec<String>,
    /// `(message, delay)` pairs applied at send time.
    delays: Vec<(usize, u64)>,
    /// Messages never delivered.
    drops: Vec<usize>,
}

impl World for TraceWorld {
    type Error = std::convert::Infallible;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Self::Error> {
        self.log.push(format!("send({i})@{}", ctx.now));
        if self.drops.contains(&i) {
            return Ok(());
        }
        let delay = self
            .delays
            .iter()
            .find(|(m, _)| *m == i)
            .map(|(_, d)| *d)
            .unwrap_or(1);
        ctx.schedule_delivery(ctx.now + delay, i);
        Ok(())
    }

    fn tick(&mut self, ctx: &mut SimCtx<'_>) -> Result<(), Self::Error> {
        self.log.push(format!("tick@{}", ctx.now));
        Ok(())
    }

    fn arm_fault(&mut self, f: &FaultPoint) -> Result<(), Self::Error> {
        self.log.push(format!("fault(op={},ext={})", f.at_op, f.extent));
        Ok(())
    }

    fn crash_restart(&mut self, c: &CrashPoint) -> Result<(), Self::Error> {
        self.log.push(format!("crash(op={})", c.at_op));
        Ok(())
    }

    fn deliver(&mut self, ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Self::Error> {
        self.log.push(format!("deliver({m})@{}", ctx.now));
        Ok(())
    }

    fn settle(&mut self) -> Result<(), Self::Error> {
        self.log.push("settle".into());
        Ok(())
    }
}

#[test]
fn clean_schedule_runs_ops_in_order() {
    let mut w = TraceWorld::default();
    let report = Simulator::run(&mut w, 4, &SimSchedule::clean()).unwrap();
    assert_eq!(report.ops, 4);
    assert_eq!(report.deliveries, 4);
    assert_eq!(report.crashes, 0);
    // Each send is followed by its delivery before the next send (delay
    // 1 < OP_SPACING).
    let sends: Vec<usize> = w
        .log
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("send"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(sends.len(), 4);
    for pair in sends.windows(2) {
        let between = &w.log[pair[0] + 1..pair[1]];
        assert!(between.iter().any(|l| l.starts_with("deliver")));
    }
    assert_eq!(w.log.last().unwrap(), "settle");
}

#[test]
fn fault_arms_immediately_before_its_op_and_crash_after() {
    let schedule = SimSchedule {
        faults: vec![FaultPoint { at_op: 2, extent: 7, kind: SimFaultKind::Permanent }],
        crashes: vec![CrashPoint { at_op: 1, keep_mask: 0 }],
        ..SimSchedule::clean()
    };
    let mut w = TraceWorld::default();
    Simulator::run(&mut w, 4, &schedule).unwrap();
    let pos = |needle: &str| w.log.iter().position(|l| l.starts_with(needle)).unwrap();
    assert!(pos("fault") < pos("send(2)"), "fault arms before op 2: {:?}", w.log);
    assert!(pos("fault") > pos("send(1)"), "fault arms after op 1: {:?}", w.log);
    assert!(pos("crash") > pos("send(1)"), "crash fires after op 1: {:?}", w.log);
    assert!(pos("crash") < pos("send(2)"), "crash fires before op 2: {:?}", w.log);
}

#[test]
fn delayed_delivery_reorders_past_later_sends() {
    let mut w = TraceWorld {
        delays: vec![(0, 2 * OP_SPACING)],
        ..Default::default()
    };
    Simulator::run(&mut w, 3, &SimSchedule::clean()).unwrap();
    let pos = |needle: &str| w.log.iter().position(|l| l.starts_with(needle)).unwrap();
    // Message 0 is delivered after message 1's delivery (reordering).
    assert!(pos("deliver(0)") > pos("deliver(1)"), "log: {:?}", w.log);
}

#[test]
fn dropped_messages_are_never_delivered() {
    let mut w = TraceWorld { drops: vec![1], ..Default::default() };
    let report = Simulator::run(&mut w, 3, &SimSchedule::clean()).unwrap();
    assert_eq!(report.ops, 3);
    assert_eq!(report.deliveries, 2);
    assert!(!w.log.iter().any(|l| l.starts_with("deliver(1)")));
}

#[test]
fn ticks_fire_every_tick_every_ops() {
    let schedule = SimSchedule { tick_every: 2, ..SimSchedule::clean() };
    let mut w = TraceWorld::default();
    let report = Simulator::run(&mut w, 6, &schedule).unwrap();
    assert_eq!(report.ticks, 3);
    let pos = |needle: &str| w.log.iter().position(|l| l.starts_with(needle)).unwrap();
    assert!(pos("tick") > pos("send(1)"));
    assert!(pos("tick") < pos("send(2)"));
}

#[test]
fn identical_inputs_give_identical_dispatch_order() {
    let profile = PerturbProfile::default();
    let schedule = SimSchedule::perturbed(0x5EED, 20, &profile);
    let run = |schedule: &SimSchedule| {
        let mut w = TraceWorld { delays: vec![(3, 40)], drops: vec![7], ..Default::default() };
        let report = Simulator::run(&mut w, 20, schedule).unwrap();
        (w.log, report)
    };
    let (log_a, rep_a) = run(&schedule);
    let (log_b, rep_b) = run(&schedule);
    assert_eq!(log_a, log_b);
    assert_eq!(rep_a, rep_b);
}

#[test]
fn world_errors_abort_the_run() {
    struct FailingWorld;
    impl World for FailingWorld {
        type Error = String;
        fn apply(&mut self, _ctx: &mut SimCtx<'_>, i: usize) -> Result<(), String> {
            if i == 2 {
                Err("boom".into())
            } else {
                Ok(())
            }
        }
    }
    let err = Simulator::run(&mut FailingWorld, 5, &SimSchedule::clean()).unwrap_err();
    assert_eq!(err, "boom");
}

#[test]
fn swarm_stats_absorb_accumulates() {
    let mut s = SwarmStats::default();
    let r = SimReport { events: 10, ops: 5, ticks: 1, ..Default::default() };
    s.absorb(&r);
    s.absorb(&r);
    assert_eq!(s.runs, 2);
    assert_eq!(s.events, 20);
    assert_eq!(s.ops, 10);
    assert_eq!(s.ticks, 2);
}

#[test]
fn swarm_throughput_handles_zero_elapsed() {
    let s = SwarmStats { events: 1000, ..SwarmStats::default() };
    assert_eq!(s.events_per_sec(0.0), 0.0);
    assert!((s.events_per_sec(2.0) - 500.0).abs() < f64::EPSILON);
}
