//! Sequential crash-free conformance checking (§4 of the paper), with the
//! §4.4 failure-injection relaxation.
//!
//! The runner applies each operation in a sequence to both the
//! implementation (a full [`Store`] over the in-memory disk) and the
//! reference model ([`shardstore_model::KvModel`]), compares the results
//! (the paper's `compare_results!`), and after each operation checks the
//! invariant that both hold the same key-value mapping. The driving is
//! `interp`'s, the judging the `Strict` oracle's below; this
//! module holds the configuration and report types every frontend
//! shares, and the frontend itself.
//!
//! Once an injected failure has fired, the strict equivalence is relaxed
//! by the "has failed" flag: an operation may fail or lose data relative
//! to the model, but may **never return wrong data** — any bytes returned
//! must be some value that was actually written to that key (§4.4).

use std::collections::BTreeSet;
use std::fmt;

use shardstore_core::{Node, Store, StoreConfig};
use shardstore_faults::FaultConfig;
use shardstore_model::KvModel;
use shardstore_vdisk::Geometry;

use crate::interp::{Observation, Run, Write};
use crate::ops::KvOp;
use crate::oracle::{check_listing, fault_excuses, judge_get, judge_scan, triage, Oracle, Triage};

/// A divergence between implementation and model.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the operation that exposed the divergence.
    pub op_index: usize,
    /// Rendering of the operation.
    pub op: String,
    /// What went wrong.
    pub detail: String,
    /// Per-op trace timeline from the failing run (tail of the trace
    /// log); empty when the runner had no store to read it from.
    pub timeline: String,
    /// Events the failing run's trace ring dropped (zero when the whole
    /// history fit): a non-zero count means the timelines are incomplete.
    pub dropped_events: u64,
}

impl Divergence {
    /// A divergence observed at operation `op_index`, with no timeline
    /// attached yet.
    pub(crate) fn at(op_index: usize, op: &impl fmt::Debug, detail: impl Into<String>) -> Self {
        Self {
            op_index,
            op: format!("{op:?}"),
            detail: detail.into(),
            timeline: String::new(),
            dropped_events: 0,
        }
    }

    /// Attaches the tail of the store's trace log, rendered per-op, plus
    /// the causal timeline of the most recent request, so a minimized
    /// counterexample carries the events that led up to it.
    pub(crate) fn with_timeline(mut self, store: &Store) -> Self {
        let obs = store.obs();
        let trace = obs.trace();
        let records = trace.snapshot();
        self.dropped_events = trace.dropped();
        self.timeline = shardstore_obs::oracle::render_timeline_tail(&records, 60);
        let causal = shardstore_obs::oracle::render_last_req_timeline(&records, self.dropped_events);
        if !causal.is_empty() {
            self.timeline.push_str("--- causal timeline (last request) ---\n");
            self.timeline.push_str(&causal);
        }
        self
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence at op {} ({}): {}", self.op_index, self.op, self.detail)?;
        if self.dropped_events > 0 {
            write!(f, "\n({} trace events dropped by the ring)", self.dropped_events)?;
        }
        if !self.timeline.is_empty() {
            write!(f, "\n--- trace timeline (tail) ---\n{}", self.timeline)?;
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

/// Conformance runner configuration.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Disk geometry for the store under test.
    pub geometry: Geometry,
    /// Store configuration.
    pub store: StoreConfig,
    /// Seeded faults (the system under test).
    pub faults: FaultConfig,
    /// Run every store under test with the background writeback engine
    /// enabled (a real pump thread racing the generated sequences). The
    /// checked properties are unchanged — persistence facts are frozen by
    /// crashes and the conformance model is timing-independent — so this
    /// flag only widens the explored behaviours.
    pub background_writeback: bool,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::small(),
            store: StoreConfig::small(),
            faults: FaultConfig::none(),
            background_writeback: false,
        }
    }
}

impl ConformanceConfig {
    /// Default configuration with a seeded bug.
    pub fn with_faults(faults: FaultConfig) -> Self {
        Self { faults, ..Self::default() }
    }

    /// Enables the background writeback engine for the run.
    pub fn background(mut self) -> Self {
        self.background_writeback = true;
        self
    }

    /// Formats the store under test. Reboots reuse the same scheduler,
    /// so the writeback mode survives every recovery in the sequence.
    pub(crate) fn fresh_store(&self) -> Store {
        let store = Store::format(self.geometry, self.store.clone(), self.faults.clone());
        if self.background_writeback {
            crate::enable_background(&store.scheduler());
        }
        store
    }

    /// Builds the node under test, every disk in the configured
    /// writeback mode.
    pub(crate) fn fresh_node(&self, num_disks: usize) -> Node {
        let node = Node::new(num_disks, self.geometry, self.store.clone(), self.faults.clone());
        if self.background_writeback {
            for disk in 0..num_disks {
                if let Some(store) = node.store(disk) {
                    crate::enable_background(&store.scheduler());
                }
            }
        }
        node
    }
}

/// Statistics from a successful run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunReport {
    /// Operations executed.
    pub ops: usize,
    /// Puts that were skipped because the disk genuinely filled up
    /// (resource exhaustion is out of scope per §4.4).
    pub skipped_no_space: usize,
    /// Whether any injected failure fired (the relaxation was active).
    pub has_failed: bool,
}

/// Runs a sequence of crash-free operations, checking conformance against
/// the reference model after every step (Fig. 3's loop).
///
/// A thin frontend over the deterministic simulator: the empty (clean)
/// schedule reproduces the historical straight-line loop event for
/// event, so seeds keep finding the same bugs through the new entry
/// point. Perturbed schedules go through
/// [`crate::simulate::run_conformance_sim`].
pub fn run_conformance(ops: &[KvOp], cfg: &ConformanceConfig) -> Result<RunReport, Divergence> {
    let outcome = crate::simulate::run_conformance_sim(
        ops,
        cfg,
        &shardstore_sim::SimSchedule::clean(),
        &crate::simulate::SimOptions::default(),
    )?;
    Ok(outcome.report)
}

/// Crash-free refinement against [`KvModel`] (§4.1): strict equality,
/// relaxed per *uncertain* key once a fault has been injected (§4.4).
#[derive(Default)]
pub(crate) struct Strict {
    pub model: KvModel,
}

impl Strict {
    /// Applies acknowledged writes to the model; returns each put's index
    /// in its key's write history (`None` for a delete).
    pub fn commit(&mut self, run: &mut Run, writes: Vec<Write>) -> Vec<Option<usize>> {
        writes
            .into_iter()
            .map(|(key, value)| match value {
                Some(v) => {
                    self.model.put(key, &v);
                    Some(run.record_write(key, v))
                }
                None => {
                    self.model.delete(key);
                    None
                }
            })
            .collect()
    }

    /// After a shutdown flush that had nowhere to write, the memtable's
    /// keys — and only those — may roll back across the reboot: adopt
    /// whatever survived, provided it was actually written.
    fn reconcile(&mut self, run: &Run, lost_unflushed: Vec<u128>) -> Result<(), String> {
        for key in lost_unflushed {
            match run.store.get(key) {
                Ok(Some(v)) if self.model.get(key).is_some_and(|e| **e == *v) => {}
                Ok(Some(v)) if run.was_written(key, &v) => self.model.put(key, &v),
                Ok(Some(_)) => {
                    return Err(format!(
                        "key {key} returned bytes never written after a no-space shutdown"
                    ));
                }
                Ok(None) => {
                    self.model.delete(key);
                }
                Err(e) => fault_excuses(run, &format!("post-shutdown get({key})"), &e)?,
            }
        }
        Ok(())
    }
}

impl Oracle for Strict {
    fn accepts(&self, op: &KvOp) -> bool {
        !op.is_crash_op()
    }

    fn observe(&mut self, run: &mut Run, obs: Observation) -> Result<(), String> {
        match obs {
            Observation::Get { key, got } => {
                judge_get(run, key, &got, self.model.get(key), run.uncertain.contains(&key))
            }
            Observation::Mutated { what, writes, result } => {
                match triage(run, what, result)? {
                    Triage::Done(_) => drop(self.commit(run, writes)),
                    Triage::NoSpace => run.skipped_no_space += 1,
                    // The mutation may have partially applied: each key
                    // is ambiguous between its old and new state.
                    Triage::Tolerated => run.record_doubtful(&writes),
                }
                Ok(())
            }
            Observation::Scan { start, end, got } => {
                let got = match got {
                    Ok(got) => got,
                    Err(e) => return fault_excuses(run, "scan", &e),
                };
                let expected = self.model.scan(start, end);
                judge_scan(run, (start, end), &got, &expected)?;
                if run.fault_active {
                    // A certain key appears exactly when the model has it.
                    let got: BTreeSet<u128> = got.iter().map(|(k, _)| *k).collect();
                    let expected: BTreeSet<u128> = expected.iter().map(|(k, _)| *k).collect();
                    let mut certain = got.symmetric_difference(&expected);
                    if let Some(key) = certain.find(|k| !run.uncertain.contains(k)) {
                        return Err(if expected.contains(key) {
                            format!("scan lost key {key} although no operation on it failed")
                        } else {
                            format!("scan returned key {key} the model deleted")
                        });
                    }
                }
                Ok(())
            }
            Observation::Maintenance { what, result } => {
                if !matches!(triage(run, what, result)?, Triage::Done(_)) {
                    run.mark_all_uncertain(self.model.list());
                }
                Ok(())
            }
            Observation::Pumped(result) => {
                if let Err(e) = result {
                    fault_excuses(run, "pump", &e)?;
                    run.mark_all_uncertain(self.model.list());
                }
                Ok(())
            }
            Observation::ShutDown(result) => {
                let result = result.map(|()| false);
                self.observe(run, Observation::Maintenance { what: "clean shutdown", result })
            }
            Observation::RecoveryBlocked(e) => fault_excuses(run, "recovery", &e),
            Observation::Rebooted { lost_unflushed } => self.reconcile(run, lost_unflushed),
            Observation::Crashed => Ok(()),
        }
    }

    /// The §4.1 invariant: implementation and model hold the same
    /// key-value mapping (relaxed to the no-corruption check after
    /// injected failures).
    fn after_op(&mut self, run: &mut Run, _at: usize) -> Result<(), String> {
        let model_keys = self.model.list();
        let doubtful = |k: u128| run.uncertain.contains(&k);
        let Some(impl_keys) = check_listing(run, &model_keys, doubtful)? else {
            return Ok(());
        };
        if run.fault_active {
            return match impl_keys.iter().find(|k| !doubtful(**k) && !model_keys.contains(k)) {
                Some(key) => Err(format!("key {key} present although the model deleted it")),
                None => Ok(()),
            };
        }
        for key in model_keys {
            let expected = self.model.get(key).expect("listed key present");
            match run.store.get(key) {
                Ok(Some(got)) if got == **expected => {}
                Ok(other) => {
                    return Err(format!(
                        "value mismatch for key {key}: impl {:?} bytes",
                        other.map(|v| v.len())
                    ));
                }
                Err(e) => return Err(format!("get({key}) failed: {e}")),
            }
        }
        Ok(())
    }
}
