//! The oracles: every judgement the checkers make over what
//! [`crate::interp`] observed.
//!
//! One store interpreter, three policies. They differ on purpose, and
//! each difference is a line in exactly one oracle:
//!
//! | On… | [`Strict`] (§4, §4.4-relaxed) | [`CrashAware`] (§5) | [`AckPrecise`] (fault sweep) |
//! |---|---|---|---|
//! | tolerated put/delete error | record write, key → `uncertain` | also `model.put/delete` with a never-persisting dep | as strict (+ `deleted_after_ack` on delete) |
//! | tolerated flush/compact/reclaim/pump error | `mark_all_uncertain` | nothing (deps carry it); `Ok(true)` reclaim → `note_reclaim` | `mark_all_uncertain`; pump also `evacuate_pending` |
//! | get `Ok(None)`/stale under a fault | only if key `uncertain` | only never-wrong-data | `uncertain` **or** latest write unacked |
//! | scan `Err` | tolerated once failed | tolerated once failed | degraded → counted; else only if armed |
//! | clean reboot | reconcile `lost_unflushed` into model | forward progress unless failed/no-space; `model.crash()` | as strict + `mark_all_uncertain` on retried recovery |
//! | `DirtyReboot` / `FailDiskOnce` | no-op / arm | §5 check / arm | no-op / no-op |
//! | after every op | `check_invariants` | — | `poll_acks` + listing check |
//!
//! Never relaxed by anyone: bytes that were never written to a key are a
//! violation, fault or not. The node alphabet has one policy,
//! [`DiskRemoval`]. Each policy lives beside the frontend that runs it;
//! here are the trait, the judgements the store policies share, and the
//! test that holds the table to the code.
//!
//! [`Strict`]: crate::conformance::Strict
//! [`CrashAware`]: crate::crash::CrashAware
//! [`AckPrecise`]: crate::fault_sweep::AckPrecise
//! [`DiskRemoval`]: crate::node_conformance::DiskRemoval

use std::fmt::Display;
use std::sync::Arc;

use shardstore_core::{StoreError, ValueBuf};

use crate::interp::{Observation, Run};
use crate::ops::KvOp;

/// A checking policy over one interpreter's observations: of `Op`s
/// applied to `R` (the system under test plus the run state its
/// interpreter keeps). The defaults are the store alphabet's.
pub(crate) trait Oracle<Op = KvOp, R = Run, Obs = Observation> {
    /// Whether `op` belongs to this checker's alphabet; other operations
    /// are skipped without touching the system.
    fn accepts(&self, _op: &Op) -> bool {
        true
    }

    /// Judges one observation and folds it into the model.
    fn observe(&mut self, run: &mut R, obs: Obs) -> Result<(), String>;

    /// The invariant checked after every delivered operation.
    fn after_op(&mut self, _run: &mut R, _at: usize) -> Result<(), String> {
        Ok(())
    }

    /// End-of-run checks, once the event queue has drained.
    fn settle(&mut self, _run: &mut R, _n_ops: usize) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Judgements the store oracles share
// ---------------------------------------------------------------------------

/// True for errors caused by genuine disk-space exhaustion, which the
/// checkers skip rather than flag (§4.4: no oracle for resource
/// exhaustion).
pub(crate) fn is_no_space(e: &StoreError) -> bool {
    use shardstore_chunk::ChunkError::NoSpace;
    matches!(
        e,
        StoreError::Chunk(NoSpace { .. })
            | StoreError::Lsm(shardstore_lsm::LsmError::Chunk(NoSpace { .. }))
    )
}

pub(crate) enum Triage<T> {
    Done(T),
    /// Resource exhaustion: out of scope (§4.4).
    NoSpace,
    /// Failed after a fault was injected: the disk really can fail.
    Tolerated,
}

pub(crate) fn triage<T>(
    run: &Run,
    what: &str,
    result: Result<T, StoreError>,
) -> Result<Triage<T>, String> {
    match result {
        Ok(v) => Ok(Triage::Done(v)),
        Err(e) if is_no_space(&e) => Ok(Triage::NoSpace),
        Err(e) if run.fault_active && !matches!(e, StoreError::OutOfService) => {
            Ok(Triage::Tolerated)
        }
        Err(e) => Err(format!("{what} failed: {e}")),
    }
}

/// An error only an injected fault excuses.
pub(crate) fn fault_excuses(run: &Run, what: &str, e: &dyn Display) -> Result<(), String> {
    if run.fault_active {
        Ok(())
    } else {
        Err(format!("{what} failed: {e}"))
    }
}

/// Compares a read with the model's value. Once a fault is active the
/// read may fail, and a *doubtful* key may read back missing or stale —
/// never as a blanket pass (silent loss of an untouched key is the issue
/// #5 signature), and never as bytes nobody wrote.
pub(crate) fn judge_get(
    run: &Run,
    key: u128,
    got: &Result<Option<Vec<u8>>, StoreError>,
    expected: Option<Arc<Vec<u8>>>,
    doubtful: bool,
) -> Result<(), String> {
    match (got, expected, run.fault_active) {
        (Ok(None), None, _) => Ok(()),
        (Ok(Some(g)), Some(e), _) if *g == **e => Ok(()),
        (Err(_), _, true) => Ok(()),
        (Ok(None), Some(_), true) if doubtful => Ok(()),
        (Ok(Some(g)), _, true) if doubtful && run.was_written(key, g) => Ok(()),
        (Ok(Some(g)), Some(e), _) => {
            Err(format!("get({key}) returned {} bytes, model has {} bytes", g.len(), e.len()))
        }
        (Ok(Some(_)), None, _) => Err(format!("get({key}) returned data for an absent key")),
        (Ok(None), Some(_), _) => Err(format!("get({key}) lost data the model still has")),
        (Err(e), _, false) => Err(format!("get({key}) failed: {e}")),
    }
}

/// Compares a successful scan with the model's range: always ascending
/// and in range; exactly the model's entries while no fault is active;
/// afterwards at least never fabricated bytes.
pub(crate) fn judge_scan(
    run: &Run,
    (start, end): (u128, u128),
    got: &[(u128, ValueBuf)],
    expected: &[(u128, Arc<Vec<u8>>)],
) -> Result<(), String> {
    if !got.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("scan entries are not strictly ascending".to_string());
    }
    if let Some((k, _)) = got.iter().find(|(k, _)| *k < start || *k > end) {
        return Err(format!("scan returned key {k} outside [{start}, {end}]"));
    }
    if run.fault_active {
        return match got.iter().find(|(k, v)| !run.was_written(*k, &v.to_vec())) {
            Some((k, _)) => Err(format!("scan returned bytes for key {k} that were never written")),
            None => Ok(()),
        };
    }
    let got_keys: Vec<u128> = got.iter().map(|(k, _)| *k).collect();
    let exp_keys: Vec<u128> = expected.iter().map(|(k, _)| *k).collect();
    if got_keys != exp_keys {
        return Err(format!("scan key sets diverge: impl {got_keys:?} vs model {exp_keys:?}"));
    }
    match got.iter().zip(expected).find(|((_, gv), (_, ev))| *gv != ***ev) {
        Some(((key, gv), (_, ev))) => Err(format!(
            "scan value mismatch for key {key}: impl {} bytes, model {} bytes",
            gv.len(),
            ev.len()
        )),
        None => Ok(()),
    }
}

/// The listing half of the §4.1 invariant: the same key set while no
/// fault is active; afterwards no key lost unless doubtful, and nothing
/// readable that was never written. Returns the implementation's keys
/// (`None` when a fault made the listing itself fail).
pub(crate) fn check_listing(
    run: &Run,
    model_keys: &[u128],
    doubtful: impl Fn(u128) -> bool,
) -> Result<Option<Vec<u128>>, String> {
    let impl_keys = match run.store.list() {
        Ok(keys) => keys,
        Err(e) => return fault_excuses(run, "list", &e).map(|()| None),
    };
    if !run.fault_active {
        if impl_keys != model_keys {
            return Err(format!("key sets diverge: impl {impl_keys:?} vs model {model_keys:?}"));
        }
        return Ok(Some(impl_keys));
    }
    if let Some(key) = model_keys.iter().find(|k| !impl_keys.contains(k) && !doubtful(**k)) {
        return Err(format!("key {key} lost although no operation on it failed"));
    }
    for key in &impl_keys {
        if let Ok(Some(got)) = run.store.get(*key) {
            if !run.was_written(*key, &got) {
                return Err(format!("key {key} returned bytes that were never written"));
            }
        }
    }
    Ok(Some(impl_keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{ConformanceConfig, Strict};
    use crate::crash::CrashAware;
    use crate::fault_sweep::{AckPrecise, Tracked};
    use crate::interp;
    use crate::ops::{KeyRef, RebootType, ValueSpec};
    use shardstore_dependency::Dependency;
    use shardstore_faults::FaultConfig;
    use shardstore_superblock::ExtentError;
    use shardstore_vdisk::{ExtentId, IoError};

    /// The fixture's key, put through the real interpreter.
    const KEY: u128 = 1;

    /// One step of a case: a change to the run's state, or an observation
    /// (built against the run) for the oracle under test to judge.
    enum Step {
        /// Make the fixture's put durable and let the oracle see the ack.
        Ack,
        Fault,
        NoFault,
        Uncertain,
        Judge(fn(&Run) -> Observation),
        AfterOp,
    }
    use Step::*;

    fn val(key: u128) -> Arc<Vec<u8>> {
        Arc::new(ValueSpec::Small(8).materialize(key, 128))
    }
    fn io() -> StoreError {
        StoreError::Extent(ExtentError::Io(IoError::Injected { extent: ExtentId(1) }))
    }
    fn get(key: u128, got: Result<Option<Vec<u8>>, StoreError>) -> Observation {
        Observation::Get { key, got }
    }
    fn put(key: u128, result: Result<Vec<Dependency>, StoreError>) -> Observation {
        Observation::Mutated { what: "put", writes: vec![(key, Some(val(key)))], result }
    }
    fn scan(e: StoreError) -> Observation {
        Observation::Scan { start: 0, end: 9, got: Err(e) }
    }
    /// An acknowledged-to-the-caller put of key 4 that the store never
    /// saw and whose dependency can never persist.
    fn phantom_put(run: &Run) -> Observation {
        put(4, Ok(vec![run.store.scheduler().promise().dependency()]))
    }

    fn take(step: &Step, run: &mut Run, oracle: &mut dyn Oracle) -> Result<(), String> {
        match step {
            Ack => {
                run.store.flush_index().unwrap();
                run.store.pump().unwrap();
                return oracle.after_op(run, 0);
            }
            Fault => run.fault_active = true,
            NoFault => run.fault_active = false,
            Uncertain => drop(run.uncertain.insert(KEY)),
            Judge(obs) => {
                let obs = obs(run);
                return oracle.observe(run, obs);
            }
            AfterOp => return oracle.after_op(run, 1),
        }
        Ok(())
    }

    /// The policy table of the module docs, cell by cell. Each case runs
    /// against a store in which [`KEY`] was put through the real
    /// interpreter; its last step is legal under `[strict, crash-aware,
    /// ack-precise]` as stated, every earlier one under all three.
    #[test]
    fn oracle_policies_differ_exactly_as_tabled() {
        let absent = |_: &Run| get(KEY, Ok(None));
        let bogus = |_: &Run| get(KEY, Ok(Some(b"bogus".to_vec())));
        let read_fails = |_: &Run| get(KEY, Err(io()));
        let put_fails = |_: &Run| put(2, Err(io()));
        let put_absent = |_: &Run| get(2, Ok(None));
        let put_present = |_: &Run| get(2, Ok(Some(val(2).to_vec())));
        let no_space = |_: &Run| {
            put(2, Err(StoreError::Chunk(shardstore_chunk::ChunkError::NoSpace { requested: 1 })))
        };
        let out_of_service = |_: &Run| put(2, Err(StoreError::OutOfService));
        let flush_fails = |_: &Run| Observation::Maintenance { what: "flush", result: Err(io()) };
        let pump_fails =
            |_: &Run| Observation::Pumped(Err(IoError::Injected { extent: ExtentId(1) }));
        let scan_fails = |_: &Run| scan(io());
        let scan_degraded =
            |_: &Run| scan(StoreError::Extent(ExtentError::Quarantined { extent: ExtentId(1) }));
        let shut_down = |_: &Run| Observation::ShutDown(Ok(()));
        let rebooted = |_: &Run| Observation::Rebooted { lost_unflushed: vec![] };
        let rebooted_lossy = |_: &Run| Observation::Rebooted { lost_unflushed: vec![4] };
        let phantom_absent = |_: &Run| get(4, Ok(None));
        let blocked = |_: &Run| Observation::RecoveryBlocked(io());
        let (none, all) = ([false; 3], [true; 3]);
        let cases: &[(&str, &[Step], [bool; 3])] = &[
            // get `Ok(None)`/stale under a fault
            ("issue #5: a certain, acked key reads absent under a fault",
             &[Ack, Fault, Judge(absent)], [false, true, false]),
            ("absent under a fault, key uncertain", &[Ack, Fault, Uncertain, Judge(absent)], all),
            ("absent under a fault, write never acked",
             &[Fault, Judge(absent)], [false, true, true]),
            ("absent without a fault", &[Uncertain, Judge(absent)], none),
            ("bytes never written", &[Judge(bogus)], none),
            ("bytes never written, every relaxation on", &[Fault, Uncertain, Judge(bogus)], none),
            ("read error without a fault", &[Judge(read_fails)], none),
            ("read error under a fault", &[Fault, Judge(read_fails)], all),
            // tolerated put/delete error
            ("put error without a fault", &[Judge(put_fails)], none),
            ("no-space put is skipped, fault or not", &[Judge(no_space), AfterOp], all),
            ("out-of-service is never tolerated", &[Fault, Judge(out_of_service)], none),
            ("tolerated put error: key uncertain",
             &[Fault, Judge(put_fails), Judge(put_absent)], all),
            ("tolerated put error: value joins the write history",
             &[Fault, Judge(put_fails), Judge(put_present)], all),
            ("tolerated put error: only the crash-aware model adopts the write",
             &[Fault, Judge(put_fails), NoFault, Judge(put_present)], [false, true, false]),
            // tolerated flush/compact/reclaim/pump error
            ("flush error without a fault", &[Judge(flush_fails)], none),
            ("tolerated flush error: every key uncertain",
             &[Ack, Fault, Judge(flush_fails), Judge(absent)], all),
            ("tolerated pump error: every key uncertain",
             &[Ack, Fault, Judge(pump_fails), Judge(absent)], all),
            // scan `Err`
            ("scan error without a fault", &[Judge(scan_fails)], none),
            ("scan error under a fault", &[Fault, Judge(scan_fails)], all),
            ("degraded scan error without a fault: counted by ack-precise alone",
             &[Judge(scan_degraded)], [false, false, true]),
            // clean reboot
            ("forward progress: unpersisted dependency after a clean shutdown",
             &[Judge(phantom_put), Judge(shut_down)], [true, false, true]),
            ("forward progress is not demanded once a fault fired",
             &[Judge(phantom_put), Fault, Judge(shut_down)], all),
            ("a write the reboot lost stays expected unless it was unflushed",
             &[Judge(phantom_put), Judge(rebooted), Judge(phantom_absent)], [false, true, false]),
            ("lost unflushed keys are reconciled into the model",
             &[Judge(phantom_put), Judge(rebooted_lossy), Judge(phantom_absent)], all),
            ("blocked recovery without a fault", &[Judge(blocked)], none),
            ("retried recovery: every key uncertain for ack-precise alone",
             &[Ack, Fault, Judge(blocked), Judge(absent)], [false, true, true]),
            // after every op
            ("model and store disagree on the key set",
             &[Judge(phantom_put), AfterOp], [false, true, false]),
        ];
        let cfg = ConformanceConfig::default();
        for (name, steps, legal) in cases {
            let oracles: [Box<dyn Oracle>; 3] = [
                Box::new(Strict::default()),
                Box::new(CrashAware::new(FaultConfig::none())),
                Box::new(AckPrecise::new(false)),
            ];
            for (which, (mut oracle, legal)) in oracles.into_iter().zip(legal).enumerate() {
                let mut run = Run::new(cfg.fresh_store(), cfg.geometry);
                let put = KvOp::Put(KeyRef::Literal(KEY as u8), ValueSpec::Small(8));
                interp::apply(&mut run, &put, &mut |run, obs| oracle.observe(run, obs)).unwrap();
                let (last, setup) = steps.split_last().expect("a case has steps");
                for step in setup {
                    let verdict = take(step, &mut run, oracle.as_mut());
                    assert_eq!(verdict, Ok(()), "{name} (oracle {which}): setup step rejected");
                }
                let verdict = take(last, &mut run, oracle.as_mut());
                assert_eq!(verdict.is_ok(), *legal, "{name} (oracle {which}): {verdict:?}");
            }
        }

        // `DirtyReboot` / `FailDiskOnce`: who has them in the alphabet.
        let ops = [
            KvOp::DirtyReboot(RebootType { flush_index: false, issue_ios: 0, keep_mask: 0 }),
            KvOp::FailDiskOnce(1),
        ];
        assert_eq!(ops.each_ref().map(|op| Strict::default().accepts(op)), [false, true]);
        let crash_aware = CrashAware::new(FaultConfig::none());
        assert_eq!(ops.each_ref().map(|op| crash_aware.accepts(op)), [true, true]);
        assert_eq!(ops.each_ref().map(|op| AckPrecise::new(false).accepts(op)), [false, false]);

        // An acknowledgement, once given, never reverts.
        let mut run = Run::new(cfg.fresh_store(), cfg.geometry);
        let mut ack = AckPrecise::new(false);
        let dep = run.store.scheduler().promise().dependency();
        ack.tracked.push(Tracked { key: KEY, hist_idx: None, dep, acked: true });
        let reverted = ack.after_op(&mut run, 7).unwrap_err();
        assert!(reverted.contains("no-lost-ack"), "{reverted}");
    }
}
