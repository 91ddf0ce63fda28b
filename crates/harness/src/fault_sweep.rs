//! Deterministic fault-schedule sweeps: §4.4's failure injection taken
//! systematic.
//!
//! The random alphabets inject transient failures at random points
//! ([`KvOp::FailDiskOnce`]); this module instead *enumerates* fault
//! schedules — the cross product of target extent, operation index, and
//! fault kind (a counted transient burst, or a permanent extent death) —
//! and replays each schedule against generated operation sequences.
//!
//! Every run checks three properties:
//!
//! - **Conformance under faults** (§4.4's relaxation): operations may
//!   fail and keys touched by failed operations become uncertain, but no
//!   read ever returns bytes that were never written, and no *untouched*
//!   key is silently lost.
//! - **Durability under quarantine**: a key whose put was acknowledged
//!   (its dependency reported persistent) must afterwards read back as an
//!   acknowledged-or-later value for that key, or fail with a
//!   *distinguishable* degraded error once its extent is quarantined —
//!   never `None`, and never wrong bytes.
//! - **No lost acks**: a dependency that has reported persistent must
//!   never revert. Retry and quarantine bookkeeping in the scheduler must
//!   not un-acknowledge a durable write.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use shardstore_core::StoreConfig;
use shardstore_dependency::Dependency;
use shardstore_faults::FaultConfig;
use shardstore_vdisk::{ExtentId, Geometry};

use crate::conformance::{ConformanceConfig, Strict};
use crate::detect::sample_sequences;
use crate::gen::{kv_ops, GenConfig};
use crate::interp::{Observation, Run};
use crate::ops::KvOp;
use crate::oracle::{check_listing, fault_excuses, judge_get, judge_scan, triage, Oracle, Triage};
use crate::simulate::StoreWorld;

/// The kind of fault a schedule injects — the simulator's vocabulary.
/// A transient count at or below the scheduler's retry budget is absorbed
/// invisibly; above it, the error surfaces and the write requeues. A
/// permanent fault is expected to quarantine the extent on first contact.
pub use shardstore_sim::SimFaultKind as FaultKind;

/// One point in the fault-schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Target extent. Extent 0 (the superblock) is never enumerated: a
    /// dead superblock extent is node death, not degraded mode.
    pub extent: ExtentId,
    /// The fault is armed immediately before this operation index.
    pub op_index: usize,
    /// What kind of fault fires.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Transient(n) => {
                write!(f, "transient×{n} on extent {} before op {}", self.extent.0, self.op_index)
            }
            FaultKind::Permanent => {
                write!(f, "permanent fault on extent {} before op {}", self.extent.0, self.op_index)
            }
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Disk geometry for the stores under test.
    pub geometry: Geometry,
    /// Store configuration.
    pub store: StoreConfig,
    /// Run the stores with the background writeback engine.
    pub background_writeback: bool,
    /// Base seed for sequence generation (sweeps are deterministic).
    pub seed: u64,
    /// Number of generated operation sequences to sweep.
    pub sequences: u64,
    /// Enumerate every `extent_stride`-th extent starting at 1.
    pub extent_stride: u32,
    /// Enumerate every `op_stride`-th operation index starting at 0.
    pub op_stride: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::small(),
            store: StoreConfig::small(),
            background_writeback: false,
            seed: 0xFA17,
            sequences: 4,
            extent_stride: 3,
            op_stride: 7,
        }
    }
}

impl SweepConfig {
    /// Enables the background writeback engine for every store.
    pub fn background(mut self) -> Self {
        self.background_writeback = true;
        self
    }

    /// The fault schedules enumerated for a sequence of `seq_len` ops.
    pub fn schedules(&self, seq_len: usize) -> Vec<FaultSchedule> {
        let kinds = [
            FaultKind::Transient(1),
            FaultKind::Transient(shardstore_dependency::DEFAULT_RETRY_BUDGET + 1),
            FaultKind::Permanent,
        ];
        let mut out = Vec::new();
        let mut extent = 1u32;
        while extent < self.geometry.extent_count {
            let mut op_index = 0usize;
            while op_index < seq_len {
                for kind in kinds {
                    out.push(FaultSchedule { extent: ExtentId(extent), op_index, kind });
                }
                op_index += self.op_stride.max(1);
            }
            extent += self.extent_stride.max(1);
        }
        out
    }
}

/// A property violation found by the sweep.
#[derive(Debug, Clone)]
pub struct SweepViolation {
    /// The schedule that exposed it.
    pub schedule: FaultSchedule,
    /// Index of the sequence (within the sweep) it fired on.
    pub sequence: u64,
    /// Index of the operation at which the violation was observed.
    pub op_index: usize,
    /// Which property failed and how.
    pub detail: String,
    /// Per-op trace timeline from the failing run (tail of the trace
    /// log), rendered for the minimized counterexample report.
    pub timeline: String,
}

impl fmt::Display for SweepViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep violation (seq {}, {}) at op {}: {}",
            self.sequence, self.schedule, self.op_index, self.detail
        )?;
        if !self.timeline.is_empty() {
            write!(f, "\n--- trace timeline (tail) ---\n{}", self.timeline)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepViolation {}

/// Aggregate statistics from a completed sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Sequences swept.
    pub sequences: u64,
    /// Fault schedules executed in total.
    pub schedules: u64,
    /// Runs in which the scheduler absorbed the fault via in-call retry.
    pub retried_runs: u64,
    /// Runs that ended with at least one quarantined extent.
    pub quarantined_runs: u64,
    /// Degraded read errors observed (and tolerated) across all runs.
    pub degraded_reads: u64,
    /// Acknowledged dependencies tracked across all runs.
    pub acks_tracked: u64,
}

/// One acknowledged-durability tracking record: a put (or delete) whose
/// dependency is watched for the no-lost-ack property.
pub(crate) struct Tracked {
    pub key: u128,
    /// Index into the key's write history; `None` for a delete.
    pub hist_idx: Option<usize>,
    pub dep: Dependency,
    pub acked: bool,
}

/// [`Strict`] made precise about acknowledgement, for enumerated fault
/// schedules: only *acknowledged* state carries a durability promise, so
/// a write that never acked may vanish under an armed fault, while an
/// acked one must stay readable or fail *degraded* — and an ack, once
/// given, never reverts.
#[derive(Default)]
pub(crate) struct AckPrecise {
    base: Strict,
    pub tracked: Vec<Tracked>,
    /// Keys deleted at or after their last acked write (a later `None`
    /// read is then legal).
    deleted_after_ack: BTreeSet<u128>,
    /// Degraded read errors observed (and tolerated).
    pub degraded_reads: u64,
    /// Under background writeback the quarantine event (emitted by the
    /// writeback thread) and a concurrent cache hit on the main thread
    /// have no defined trace order, so the isolation trace oracle only
    /// holds in deterministic mode.
    background_writeback: bool,
}

impl AckPrecise {
    pub fn new(background_writeback: bool) -> Self {
        Self { background_writeback, ..Self::default() }
    }

    /// Dependencies that reported persistent.
    pub fn acks(&self) -> u64 {
        self.tracked.iter().filter(|t| t.acked).count() as u64
    }

    /// True if the key's most recent tracked write was never acknowledged
    /// (or it was never written through the tracked path). Under an armed
    /// fault such a write may legitimately vanish — its data write can be
    /// `Lost` to a quarantine before persisting, the doomed index entry
    /// is then filtered out of the next flush, and the client was never
    /// told otherwise.
    fn latest_write_unacked(&self, key: u128) -> bool {
        self.tracked
            .iter()
            .rev()
            .find(|t| t.key == key && t.hist_idx.is_some())
            .is_none_or(|t| !t.acked)
    }

    fn doubtful(&self, run: &Run, key: u128) -> bool {
        run.uncertain.contains(&key) || self.latest_write_unacked(key)
    }

    /// Polls every tracked dependency, promoting to acked and enforcing
    /// the no-lost-ack property.
    fn poll_acks(&mut self, run: &Run, at: usize) -> Result<(), String> {
        let obs = run.store.obs();
        for t in &mut self.tracked {
            let persistent = t.dep.is_persistent();
            if t.acked && !persistent {
                return Err(format!(
                    "no-lost-ack violated at op {at}: key {} was acknowledged durable and reverted",
                    t.key
                ));
            }
            if persistent && !t.acked {
                t.acked = true;
                // Record the acknowledgement in the trace so the
                // acked-durability trace oracle can check that every write
                // the op announced had persisted by this point.
                if let Some(n) = t.dep.trace_node() {
                    obs.trace().event(shardstore_obs::TraceEvent::Acked { dep: n });
                }
                if t.hist_idx.is_none() {
                    self.deleted_after_ack.insert(t.key);
                }
            }
        }
        Ok(())
    }

    /// The durability-under-quarantine property, checked after the
    /// sequence settles: every key with an acknowledged write reads back
    /// as its acked value or a later-written one, or fails *degraded* —
    /// never `None` (unless deleted after the ack), and never unwritten
    /// bytes.
    fn check_acked_durability(&mut self, run: &Run) -> Result<(), String> {
        // The latest acknowledged *write* per key (deletes supersede).
        let mut acked = BTreeMap::new();
        for t in self.tracked.iter().filter(|t| t.acked) {
            match t.hist_idx {
                Some(idx) => acked.insert(t.key, idx),
                None => acked.remove(&t.key),
            };
        }
        for (key, acked_idx) in acked {
            // A later (possibly unacked) delete makes absence legal; only
            // keys the model still holds carry the strict obligation.
            if self.deleted_after_ack.contains(&key) || self.base.model.get(key).is_none() {
                continue;
            }
            // Tolerate leftover transient counts: retry the read a couple
            // of times before judging.
            let mut last = run.store.get(key);
            for _ in 0..2 {
                if last.is_ok() {
                    break;
                }
                last = run.store.get(key);
            }
            match last {
                Ok(Some(got)) => {
                    let hist = run.history.get(&key).expect("acked key has history");
                    if !hist[acked_idx..].iter().any(|v| ***v == *got) {
                        return Err(format!(
                            "durability violated: acked key {key} read back bytes older than (or \
                             foreign to) its acknowledged write"
                        ));
                    }
                }
                Ok(None) => {
                    return Err(format!(
                        "durability violated: acked key {key} is silently missing (no delete, no \
                         degraded error)"
                    ));
                }
                Err(e) if e.is_degraded() => self.degraded_reads += 1,
                // At quiescence the only legitimate read failure for an
                // acknowledged key is a *distinguishable* degraded error
                // (its extent quarantined). Anything else — e.g. a
                // NotFound because some maintenance pass forgot the chunk
                // — is silent loss of acknowledged data.
                Err(e) => {
                    return Err(format!(
                        "durability violated: acked key {key} unreadable with a non-degraded \
                         error: {e}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Oracle for AckPrecise {
    /// Faults come from the enumerated schedule, never the alphabet.
    fn accepts(&self, op: &KvOp) -> bool {
        !op.is_crash_op() && !op.is_failure_op()
    }

    fn observe(&mut self, run: &mut Run, obs: Observation) -> Result<(), String> {
        match obs {
            Observation::Get { key, got } => {
                if matches!(&got, Err(e) if run.fault_active && e.is_degraded()) {
                    self.degraded_reads += 1;
                }
                judge_get(run, key, &got, self.base.model.get(key), self.doubtful(run, key))
            }
            Observation::Mutated { what, writes, result } => {
                match triage(run, what, result)? {
                    Triage::Done(deps) => {
                        let keys: Vec<u128> = writes.iter().map(|w| w.0).collect();
                        let hist = self.base.commit(run, writes);
                        for ((key, hist_idx), dep) in keys.into_iter().zip(hist).zip(deps) {
                            if hist_idx.is_some() {
                                self.deleted_after_ack.remove(&key);
                            }
                            self.tracked.push(Tracked { key, hist_idx, dep, acked: false });
                        }
                    }
                    Triage::NoSpace => run.skipped_no_space += 1,
                    Triage::Tolerated => {
                        run.record_doubtful(&writes);
                        // A partially-applied delete makes later absence
                        // legal.
                        let deleted = writes.iter().filter(|w| w.1.is_none()).map(|w| w.0);
                        self.deleted_after_ack.extend(deleted);
                    }
                }
                Ok(())
            }
            Observation::Scan { start, end, got } => {
                let got = match got {
                    Ok(got) => got,
                    // Degraded mode: the scan crossed a quarantined extent
                    // and honestly refused (§4.4) — it must error rather
                    // than silently skip the key.
                    Err(e) if e.is_degraded() => {
                        self.degraded_reads += 1;
                        return Ok(());
                    }
                    Err(e) => return fault_excuses(run, "scan", &e),
                };
                judge_scan(run, (start, end), &got, &self.base.model.scan(start, end))?;
                // Under a fault, missing keys fall under the per-key
                // relaxations; each returned entry must still be its
                // key's current or (if doubtful) once-written value.
                if run.fault_active {
                    for (key, value) in got {
                        let (got, expected) = (Ok(Some(value.to_vec())), self.base.model.get(key));
                        judge_get(run, key, &got, expected, self.doubtful(run, key))?;
                    }
                }
                Ok(())
            }
            Observation::Pumped(_) => {
                self.base.observe(run, obs)?;
                // Pumping may have surfaced a permanent fault; let the
                // store quarantine and evacuate.
                let _ = run.store.evacuate_pending();
                Ok(())
            }
            Observation::RecoveryBlocked(_) => {
                self.base.observe(run, obs)?;
                run.mark_all_uncertain(self.base.model.list());
                Ok(())
            }
            Observation::Maintenance { .. }
            | Observation::ShutDown(_)
            | Observation::Rebooted { .. }
            | Observation::Crashed => self.base.observe(run, obs),
        }
    }

    /// No lost acks, then the relaxed §4.4 invariant: untouched acked
    /// keys are never silently lost, and nothing readable was never
    /// written.
    fn after_op(&mut self, run: &mut Run, at: usize) -> Result<(), String> {
        self.poll_acks(run, at)?;
        check_listing(run, &self.base.model.list(), |k| self.doubtful(run, k)).map(drop)
    }

    fn settle(&mut self, run: &mut Run, n_ops: usize) -> Result<(), String> {
        // Drive all remaining IO (absorbing leftover transient counts),
        // then check acked durability one final time.
        for _ in 0..4 {
            if run.store.pump().is_ok() {
                break;
            }
        }
        self.poll_acks(run, n_ops)?;
        self.check_acked_durability(run)?;
        // Trace-based oracles: re-derive the causal properties from the
        // run's event log alone. A wrapped (truncated) trace cannot be
        // certified and is skipped — never treated as a pass or a failure.
        use shardstore_obs::oracle as trace;
        let Ok(records) = trace::certify(run.store.obs().trace()) else {
            return Ok(());
        };
        let budget = shardstore_dependency::DEFAULT_RETRY_BUDGET;
        let mut checks = vec![
            ("span-wellformed", trace::check_span_wellformed(&records)),
            ("acked-durability", trace::check_acked_durability(&records)),
            ("retry-budget", trace::check_retry_budget(&records, budget)),
            ("cache-coherence", trace::check_cache_coherence(&records)),
            ("compaction-discipline", trace::check_compaction_discipline(&records)),
        ];
        if !self.background_writeback {
            checks.push(("quarantine-isolation", trace::check_quarantine_isolation(&records)));
        }
        checks.into_iter().try_for_each(|(name, res)| {
            res.map_err(|e| format!("trace oracle {name} failed: {e}"))
        })
    }
}

/// Runs one operation sequence under one fault schedule, checking all
/// three sweep properties. Returns per-run observations on success:
/// whether the scheduler retried, whether an extent ended quarantined,
/// degraded reads tolerated, and acknowledgements tracked.
///
/// A thin frontend over the deterministic simulator: the enumerated
/// [`FaultSchedule`] becomes a one-point [`shardstore_sim::SimSchedule`]
/// — armed "immediately before" the scheduled operation — and the
/// `AckPrecise` oracle carries the checker state.
pub fn run_schedule(
    ops: &[KvOp],
    schedule: FaultSchedule,
    cfg: &SweepConfig,
    faults: &FaultConfig,
) -> Result<(bool, bool, u64, u64), SweepViolation> {
    let store_cfg = ConformanceConfig {
        geometry: cfg.geometry,
        store: cfg.store.clone(),
        faults: faults.clone(),
        background_writeback: cfg.background_writeback,
    };
    // The raw extent is offset by one so the world's wrap into live
    // geometry (`1 + raw % (extent_count - 1)`) lands exactly on the
    // enumerated extent (schedules never target the superblock extent 0).
    let sim_schedule = shardstore_sim::SimSchedule {
        faults: vec![shardstore_sim::FaultPoint {
            at_op: schedule.op_index,
            extent: schedule.extent.0.saturating_sub(1),
            kind: schedule.kind,
        }],
        ..shardstore_sim::SimSchedule::clean()
    };
    let oracle = AckPrecise::new(cfg.background_writeback);
    let mut world = StoreWorld::new(ops, &store_cfg, oracle, &sim_schedule);
    let retries_before = world.run.store.scheduler().counter("sched.retries");
    shardstore_sim::Simulator::run(&mut world, ops.len(), &sim_schedule).map_err(|d| {
        let d = d.with_timeline(&world.run.store);
        SweepViolation {
            schedule,
            sequence: 0,
            op_index: d.op_index,
            detail: d.detail,
            timeline: d.timeline,
        }
    })?;
    // A permanent schedule on an extent the run never touched simply never
    // quarantines: an uninteresting schedule, not a violation.
    let store = &world.run.store;
    let retried = store.scheduler().counter("sched.retries") > retries_before;
    let quarantined = !store.quarantined_extents().is_empty();
    Ok((retried, quarantined, world.oracle.degraded_reads, world.oracle.acks()))
}

/// Sweeps every enumerated fault schedule over `cfg.sequences` generated
/// operation sequences. Returns aggregate statistics, or the first
/// property violation found.
pub fn run_sweep(cfg: &SweepConfig, faults: &FaultConfig) -> Result<SweepReport, SweepViolation> {
    let mut report = SweepReport::default();
    let sequences: Vec<Vec<KvOp>> =
        sample_sequences(kv_ops(GenConfig::conformance()), cfg.seed, cfg.sequences).collect();
    for (seq_idx, ops) in sequences.iter().enumerate() {
        report.sequences += 1;
        for schedule in cfg.schedules(ops.len()) {
            report.schedules += 1;
            match run_schedule(ops, schedule, cfg, faults) {
                Ok((retried, quarantined, degraded, acks)) => {
                    if retried {
                        report.retried_runs += 1;
                    }
                    if quarantined {
                        report.quarantined_runs += 1;
                    }
                    report.degraded_reads += degraded;
                    report.acks_tracked += acks;
                }
                Err(mut v) => {
                    v.sequence = seq_idx as u64;
                    return Err(v);
                }
            }
        }
    }
    Ok(report)
}
