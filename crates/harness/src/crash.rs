//! Crash-consistency checking (§5 of the paper).
//!
//! The alphabet extends the conformance alphabet with
//! `DirtyReboot(RebootType)`: the reboot type decides which volatile
//! component state is flushed or issued before the crash, and which
//! disk-cache pages survive it (coarse per-component choices plus
//! block-level page subsets — both granularities from §5). The
//! persistence and forward-progress properties themselves are the
//! `CrashAware` oracle's, below.

use std::collections::BTreeMap;
use std::sync::Arc;

use shardstore_dependency::Dependency;
use shardstore_faults::{coverage, FaultConfig};
use shardstore_model::CrashAwareKvModel;

use crate::conformance::{ConformanceConfig, Divergence, RunReport};
use crate::interp::{Observation, Run};
use crate::ops::KvOp;
use crate::oracle::{fault_excuses, judge_get, judge_scan, triage, Oracle, Triage};

/// Runs a sequence that may include dirty reboots, checking the §5
/// persistence and forward-progress properties at every crash and clean
/// shutdown.
///
/// A thin frontend over the deterministic simulator (clean schedule = a
/// straight-line loop); perturbed schedules go through
/// [`crate::simulate::run_crash_sim`].
pub fn run_crash_consistency(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
) -> Result<RunReport, Divergence> {
    let outcome = crate::simulate::run_crash_sim(
        ops,
        cfg,
        &shardstore_sim::SimSchedule::clean(),
        &crate::simulate::SimOptions::default(),
    )?;
    Ok(outcome.report)
}

/// Crash consistency against [`CrashAwareKvModel`]: every mutation is
/// recorded with its dependency, so what a crash — or a failed write —
/// may lose is the model's business, not an `uncertain` set's.
///
/// 1. **Persistence** — if a dependency says an operation persisted
///    before a crash, it is readable after the crash (unless superseded
///    by a later persisted operation), and anything read back must be a
///    value that was actually written.
/// 2. **Forward progress** — after a non-crashing shutdown, every
///    operation's dependency reports persistent.
pub(crate) struct CrashAware {
    model: CrashAwareKvModel,
}

impl CrashAware {
    pub fn new(faults: FaultConfig) -> Self {
        Self { model: CrashAwareKvModel::new(faults) }
    }

    fn record(&mut self, key: u128, value: &Option<Arc<Vec<u8>>>, dep: Dependency) {
        match value {
            Some(v) => self.model.put(key, v, dep),
            None => self.model.delete(key, dep),
        }
    }

    /// The §5 persistence check, one key at a time, collecting the
    /// observed post-recovery state to resynchronize the model.
    /// Dependency persistence is frozen by the crash (pending and issued
    /// writes become permanently lost), so polling the model's
    /// expectations *after* recovery sees exactly the pre-crash
    /// persistence.
    fn check_persistence(&mut self, run: &Run) -> Result<(), String> {
        let mut observations = BTreeMap::new();
        for key in self.model.tracked_keys() {
            let exp = self.model.expectation(key);
            let observed = match run.store.get(key) {
                Ok(v) => v.map(Arc::new),
                Err(e) => {
                    fault_excuses(run, &format!("post-crash get({key})"), &e)?;
                    continue;
                }
            };
            observations.insert(key, observed.clone());
            // The allowed set holds the last persisted mutation's value
            // plus every later (possibly surviving) unpersisted one, so a
            // persisted value is "missing" only if nothing in it matches.
            if exp.permits(&observed) {
                continue;
            }
            let len = observed.as_ref().map(|v| v.len());
            if exp.persisted.is_some() && !run.fault_active {
                coverage::hit("crashcheck.persistence_violation");
                return Err(format!(
                    "persistence violation for key {key}: persisted {:?} bytes, observed {len:?} bytes",
                    exp.persisted.as_ref().and_then(|v| v.as_ref()).map(|v| v.len()),
                ));
            }
            // Corruption (bytes never written) is never allowed, failure
            // or not.
            let corrupt = observed.as_ref().is_some_and(|o| !run.was_written(key, o));
            if corrupt || !run.fault_active {
                coverage::hit("crashcheck.consistency_violation");
                return Err(format!(
                    "consistency violation for key {key}: observed {len:?} bytes not in allowed set"
                ));
            }
        }
        self.model.crash_with_observations(&observations);
        Ok(())
    }
}

impl Oracle for CrashAware {
    fn observe(&mut self, run: &mut Run, obs: Observation) -> Result<(), String> {
        match obs {
            // Between crashes execution is sequential, so reads agree
            // with the crash-free current state; under a fault every key
            // is doubtful (the dependencies say what may be lost).
            Observation::Get { key, got } => {
                judge_get(run, key, &got, self.model.current(key), true)
            }
            Observation::Mutated { what, writes, result } => {
                match triage(run, what, result)? {
                    Triage::Done(deps) => {
                        for ((key, value), dep) in writes.into_iter().zip(deps) {
                            self.record(key, &value, dep);
                            if let Some(v) = value {
                                run.record_write(key, v);
                            }
                        }
                    }
                    Triage::NoSpace => run.skipped_no_space += 1,
                    Triage::Tolerated => {
                        // Record the attempt with a dependency that can
                        // never persist: the model then allows either
                        // outcome but never demands the failed write
                        // survive.
                        for (key, value) in &writes {
                            let dead = run.store.scheduler().promise().dependency();
                            self.record(*key, value, dead);
                        }
                        run.record_doubtful(&writes);
                    }
                }
                Ok(())
            }
            Observation::Scan { start, end, got } => {
                let got = match got {
                    Ok(got) => got,
                    Err(e) => return fault_excuses(run, "scan", &e),
                };
                let in_range = self.model.list().into_iter().filter(|k| (start..=end).contains(k));
                let expected: Vec<_> =
                    in_range.map(|k| (k, self.model.current(k).expect("listed key"))).collect();
                judge_scan(run, (start, end), &got, &expected)
            }
            Observation::Maintenance { what, result } => {
                if let Triage::Done(true) = triage(run, what, result)? {
                    self.model.note_reclaim();
                }
                Ok(())
            }
            Observation::Pumped(result) => {
                result.or_else(|e| fault_excuses(run, "pump", &e))
            }
            Observation::ShutDown(result) => {
                // Forward progress is skipped once failures fired (failed
                // writes legitimately never persist) and when the
                // shutdown flush itself had no space: unflushed
                // dependencies then stay unpersistent, and the model
                // already permits their loss.
                let exhausted = matches!(triage(run, "clean shutdown", result)?, Triage::NoSpace);
                if !run.fault_active && !exhausted {
                    if let Err(key) = self.model.check_forward_progress() {
                        coverage::hit("crashcheck.forward_progress_violation");
                        return Err(format!(
                            "forward progress: dependency for key {key} not persistent after clean shutdown"
                        ));
                    }
                }
                Ok(())
            }
            Observation::RecoveryBlocked(e) => fault_excuses(run, "recovery", &e),
            Observation::Rebooted { .. } => {
                self.model.crash();
                Ok(())
            }
            Observation::Crashed => self.check_persistence(run),
        }
    }
}
