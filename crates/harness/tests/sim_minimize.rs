//! Property tests for the simulator-aware auto-minimizer (ISSUE 8
//! satellite). The contract under test:
//!
//! 1. the minimized repro's op sequence is a subsequence of the
//!    original's (removal-only shrinking — no op is ever rewritten);
//! 2. the minimized repro still fails, in the same failure *class* as
//!    the original (same detector, digit runs normalized);
//! 3. the minimizer never returns a passing repro.
//!
//! The detectors here are synthetic predicates over `(ops, schedule)` —
//! deterministic stand-ins for harness divergences — plus one real
//! end-to-end case through the crash-consistency world.

use proptest::prelude::*;
use shardstore_harness::conformance::ConformanceConfig;
use shardstore_harness::detect::sample_sequences;
use shardstore_harness::gen::{kv_ops, GenConfig};
use shardstore_harness::minimize::{failure_class, minimize_repro, SimRepro};
use shardstore_harness::ops::{KeyRef, KvOp, ValueSpec};
use shardstore_harness::simulate::{run_crash_sim, SimOptions};
use shardstore_sim::{PerturbProfile, SimSchedule};

fn is_subsequence<T: PartialEq>(needle: &[T], haystack: &[T]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Checks the full minimizer contract for one repro + detector pair.
fn check_contract<Op: Clone + PartialEq + std::fmt::Debug>(
    repro: &SimRepro<Op>,
    fails: impl Fn(&SimRepro<Op>) -> Option<String>,
) -> SimRepro<Op> {
    let original = fails(repro).expect("repro must fail to be minimized");
    let minimized = minimize_repro(repro, &fails);
    assert!(
        is_subsequence(&minimized.ops, &repro.ops),
        "minimized ops are not a subsequence of the original:\n  original {:?}\n  minimized {:?}",
        repro.ops,
        minimized.ops
    );
    let still = fails(&minimized).expect("minimizer returned a passing repro");
    assert_eq!(
        failure_class(&still),
        failure_class(&original),
        "minimizer traded one failure for another"
    );
    assert!(minimized.ops.len() <= repro.ops.len());
    minimized
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic detector: fires iff a `Delete` of a literal key is
    /// present. The minimizer must strip everything else.
    #[test]
    fn minimized_repro_is_failing_subsequence(
        ops in kv_ops(GenConfig::conformance()),
        seed in 0u64..1 << 48,
    ) {
        let schedule = SimSchedule::perturbed(seed, ops.len(), &PerturbProfile::default());
        let mut ops = ops;
        // Plant the op the detector wants somewhere deterministic.
        let at = ops.len() / 2;
        ops.insert(at, KvOp::Delete(KeyRef::Literal(7)));
        let repro = SimRepro { ops, schedule };
        let fails = |r: &SimRepro<KvOp>| {
            r.ops
                .iter()
                .position(|o| matches!(o, KvOp::Delete(KeyRef::Literal(7))))
                .map(|i| format!("phantom delete of key 7 at op {i}"))
        };
        let minimized = check_contract(&repro, fails);
        // This detector needs exactly one op; the minimizer must find it.
        prop_assert_eq!(minimized.ops, vec![KvOp::Delete(KeyRef::Literal(7))]);
    }

    /// Synthetic detector coupling ops *and* schedule: fires only while a
    /// put and at least one schedule fault coexist. Schedule points must
    /// shrink without detaching from the ops they perturb.
    #[test]
    fn schedule_points_shrink_with_the_op_sequence(
        ops in kv_ops(GenConfig::conformance()),
        seed in 0u64..1 << 48,
    ) {
        let mut ops = ops;
        ops.push(KvOp::Put(KeyRef::Literal(3), ValueSpec::Small(9)));
        let schedule = SimSchedule::perturbed(seed, ops.len(), &PerturbProfile {
            faults: 2,
            ..PerturbProfile::default()
        });
        let repro = SimRepro { ops, schedule };
        let fails = |r: &SimRepro<KvOp>| {
            let has_put =
                r.ops.iter().any(|o| matches!(o, KvOp::Put(KeyRef::Literal(3), _)));
            (has_put && !r.schedule.faults.is_empty()).then(|| {
                format!(
                    "put of key 3 lost under fault at op {}",
                    r.schedule.faults[0].at_op
                )
            })
        };
        let minimized = check_contract(&repro, fails);
        prop_assert_eq!(minimized.ops.len(), 1);
        prop_assert_eq!(minimized.schedule.faults.len(), 1);
        prop_assert!(minimized.schedule.crashes.is_empty());
        prop_assert!(minimized.schedule.drops.is_empty());
        prop_assert!(minimized.schedule.delays.is_empty());
        prop_assert_eq!(minimized.schedule.tick_every, 0);
    }

    /// A detector whose message embeds indices that shift during
    /// shrinking: the failure-*class* comparison must hold it together.
    #[test]
    fn shifting_detector_indices_stay_in_class(
        ops in kv_ops(GenConfig::conformance()),
    ) {
        let mut ops = ops;
        ops.push(KvOp::Compact);
        let repro = SimRepro { ops, schedule: SimSchedule::clean() };
        let fails = |r: &SimRepro<KvOp>| {
            r.ops
                .iter()
                .position(|o| matches!(o, KvOp::Compact))
                .map(|i| format!("compaction discipline violated at op {i} of {}", r.ops.len()))
        };
        check_contract(&repro, fails);
    }
}

#[test]
#[should_panic(expected = "passing repro")]
fn minimizer_rejects_a_passing_repro() {
    let repro =
        SimRepro { ops: vec![KvOp::Get(KeyRef::Literal(1))], schedule: SimSchedule::clean() };
    let _ = minimize_repro(&repro, |_| None);
}

/// End-to-end: a real divergence (a schedule fault the crash world's
/// relaxations do not cover would be a bug, so instead plant a model
/// mismatch by corrupting the op stream is impossible — use a seeded
/// detector over the real runner's *output*): the repro fails through
/// the actual crash world and the minimizer preserves that failure.
#[test]
fn minimizes_through_the_real_crash_world() {
    let cfg = ConformanceConfig::default();
    let ops: Vec<KvOp> = sample_sequences(kv_ops(GenConfig::crash()), 0x51A1, 1)
        .next()
        .expect("one sequence");
    let schedule = SimSchedule::perturbed(0x51A1, ops.len(), &PerturbProfile::default());
    let repro = SimRepro { ops, schedule };
    // Real executions on a bug-free build pass, so wrap the runner with a
    // detector that also fires on a structural property — the run must
    // both *pass* and contain at least one put. Failure class is then the
    // detector's own message; the minimizer works against the real
    // simulator executions throughout.
    let fails = |r: &SimRepro<KvOp>| {
        let outcome = run_crash_sim(&r.ops, &cfg, &r.schedule, &SimOptions::default());
        match outcome {
            Err(d) => Some(format!("real divergence: {d}")),
            Ok(_) => r
                .ops
                .iter()
                .any(|o| matches!(o, KvOp::Put(_, _)))
                .then(|| "run passed but contained a put".to_string()),
        }
    };
    if fails(&repro).is_none() {
        // Degenerate sequence without puts; nothing to minimize.
        return;
    }
    let minimized = minimize_repro(&repro, fails);
    assert!(is_subsequence(&minimized.ops, &repro.ops));
    assert_eq!(minimized.ops.iter().filter(|o| matches!(o, KvOp::Put(_, _))).count(), 1);
}

fn is_subsequence_smoke() {
    // Guard the helper itself (it is load-bearing for every assertion).
    assert!(is_subsequence(&[1, 3], &[1, 2, 3]));
    assert!(!is_subsequence(&[3, 1], &[1, 2, 3]));
}

#[test]
fn subsequence_helper_works() {
    is_subsequence_smoke();
}
