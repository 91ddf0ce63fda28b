//! Automated test-case minimization (§4.3 of the paper).
//!
//! Property-based testing tools shrink failing inputs with simple
//! reduction heuristics — remove an operation, shrink an argument toward
//! zero — repeatedly, keeping a reduction only if the test still fails.
//! The proptest runner does this automatically for the property tests;
//! this module provides the same algorithm as a standalone function so
//! the benchmark harness can *measure* minimization (the §4.3 anecdote:
//! 61 operations, 9 crashes, 226 KiB written → 6 operations, 1 crash,
//! 2 bytes).
//!
//! Determinism is what makes this work (§4.3): the runners in this crate
//! are deterministic given the operation sequence, so "still fails" is
//! well-defined.

use shardstore_sim::SimSchedule;

use crate::ops::{KvOp, ValueSpec};

/// Size metrics of an operation sequence, matching the units of the §4.3
/// anecdote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceSize {
    /// Total operations.
    pub ops: usize,
    /// Crash (dirty-reboot) operations.
    pub crashes: usize,
    /// Total bytes written by puts (for a reference page size).
    pub bytes_written: usize,
}

/// Measures a sequence.
pub fn measure(ops: &[KvOp], page_size: usize) -> SequenceSize {
    SequenceSize {
        ops: ops.len(),
        crashes: ops.iter().filter(|o| matches!(o, KvOp::DirtyReboot(_))).count(),
        bytes_written: ops
            .iter()
            .map(|o| match o {
                KvOp::Put(_, spec) => spec.len(page_size),
                _ => 0,
            })
            .sum(),
    }
}

/// Minimizes a failing sequence: `fails` must return true when the given
/// sequence still triggers the failure. Applies the paper's heuristics —
/// chunk removal (delta-debugging style), single-op removal, and argument
/// shrinking — to a fixpoint.
pub fn minimize(ops: &[KvOp], fails: impl Fn(&[KvOp]) -> bool) -> Vec<KvOp> {
    debug_assert!(fails(ops), "minimize called with a passing sequence");
    let mut current: Vec<KvOp> = ops.to_vec();
    let mut progress = true;
    while progress {
        progress = false;
        // Chunk removal: try dropping halves, quarters, ... (classic
        // delta debugging).
        let mut chunk = current.len() / 2;
        while chunk >= 1 {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let candidate: Vec<KvOp> = current[..start]
                    .iter()
                    .chain(current[end..].iter())
                    .cloned()
                    .collect();
                if !candidate.is_empty() && fails(&candidate) {
                    current = candidate;
                    progress = true;
                    // Restart this chunk size from the beginning.
                    start = 0;
                } else {
                    start += chunk;
                }
            }
            chunk /= 2;
        }
        // Argument shrinking: values toward zero bytes.
        for i in 0..current.len() {
            let shrunk = match &current[i] {
                KvOp::Put(k, ValueSpec::NearPage(_)) => Some(KvOp::Put(*k, ValueSpec::Small(2))),
                KvOp::Put(k, ValueSpec::Small(n)) if *n > 2 => {
                    Some(KvOp::Put(*k, ValueSpec::Small(2)))
                }
                _ => None,
            };
            if let Some(shrunk) = shrunk {
                let mut candidate = current.clone();
                candidate[i] = shrunk;
                if fails(&candidate) {
                    current = candidate;
                    progress = true;
                }
            }
        }
    }
    current
}

/// A simulator repro: the failing `(ops, schedule)` pair that fully
/// describes one deterministic execution. This is the unit the
/// simulator-aware auto-minimizer shrinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRepro<Op> {
    /// The operation sequence.
    pub ops: Vec<Op>,
    /// The fault/delivery schedule perturbing it.
    pub schedule: SimSchedule,
}

/// Normalizes a failure message into a *failure class*: runs of digits
/// collapse to `#`, so the same detector firing at a shifted op index or
/// key (which shrinking causes constantly) still counts as the same
/// failure, while a different detector does not.
pub fn failure_class(message: &str) -> String {
    let mut out = String::with_capacity(message.len());
    let mut in_digits = false;
    for c in message.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// Minimizes a failing simulator repro. `fails` runs the repro and
/// returns the failure message when it still fails (`None` = passes).
///
/// Shrinking is **removal-only** — delta-debugging chunk removal over the
/// op sequence (with the schedule remapped through
/// [`SimSchedule::remap_removed_ops`] so its points stay attached to the
/// operations they perturb), removal of individual schedule points, and
/// tick silencing. No operation is ever rewritten, so the result's op
/// sequence is a strict subsequence of the original's, and a candidate
/// is accepted only if it fails in the *same class* as the original —
/// the minimizer never trades one bug for another, and never returns a
/// passing repro.
pub fn minimize_repro<Op: Clone>(
    repro: &SimRepro<Op>,
    fails: impl Fn(&SimRepro<Op>) -> Option<String>,
) -> SimRepro<Op> {
    let original = fails(repro).expect("minimize_repro called with a passing repro");
    let target = failure_class(&original);
    let still =
        |cand: &SimRepro<Op>| fails(cand).map(|m| failure_class(&m) == target).unwrap_or(false);

    let mut current = repro.clone();
    let mut progress = true;
    while progress {
        progress = false;
        // Op chunk removal (delta debugging), schedule kept attached.
        let mut chunk = (current.ops.len() / 2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < current.ops.len() {
                let end = (start + chunk).min(current.ops.len());
                let mut cand = current.clone();
                cand.ops.drain(start..end);
                cand.schedule.remap_removed_ops(start, end);
                if !cand.ops.is_empty() && still(&cand) {
                    current = cand;
                    progress = true;
                    start = 0;
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // Schedule-point removal: each fault, crash, drop, and delay is
        // individually optional.
        progress |= drop_points(&mut current, |s| &mut s.faults, &still);
        progress |= drop_points(&mut current, |s| &mut s.crashes, &still);
        progress |= drop_points(&mut current, |s| &mut s.drops, &still);
        progress |= drop_points(&mut current, |s| &mut s.delays, &still);
        // Tick silencing: a repro that fails without timer ticks is
        // simpler.
        if current.schedule.tick_every != 0 {
            let mut cand = current.clone();
            cand.schedule.tick_every = 0;
            if still(&cand) {
                current = cand;
                progress = true;
            }
        }
    }
    current
}

/// Removes, one at a time, every point of the schedule list `points`
/// selects that the failure does not need. Returns whether any went.
fn drop_points<Op: Clone, T>(
    current: &mut SimRepro<Op>,
    points: fn(&mut SimSchedule) -> &mut Vec<T>,
    still: &impl Fn(&SimRepro<Op>) -> bool,
) -> bool {
    let mut progress = false;
    let mut idx = 0;
    while idx < points(&mut current.schedule).len() {
        let mut cand = current.clone();
        points(&mut cand.schedule).remove(idx);
        if still(&cand) {
            *current = cand;
            progress = true;
        } else {
            idx += 1;
        }
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::KeyRef;

    #[test]
    fn measure_counts_ops_crashes_and_bytes() {
        let ops = vec![
            KvOp::Put(KeyRef::Literal(1), ValueSpec::Small(10)),
            KvOp::Get(KeyRef::Literal(1)),
            KvOp::DirtyReboot(crate::ops::RebootType {
                flush_index: false,
                issue_ios: 0,
                keep_mask: 0,
            }),
            KvOp::Put(KeyRef::Literal(2), ValueSpec::NearPage(0)),
        ];
        let size = measure(&ops, 128);
        assert_eq!(size.ops, 4);
        assert_eq!(size.crashes, 1);
        assert_eq!(size.bytes_written, 10 + 126);
    }

    #[test]
    fn minimize_strips_irrelevant_ops() {
        // Failure condition: the sequence contains a Delete of key 7.
        let ops = vec![
            KvOp::Put(KeyRef::Literal(1), ValueSpec::Small(30)),
            KvOp::Get(KeyRef::Literal(2)),
            KvOp::Delete(KeyRef::Literal(7)),
            KvOp::Put(KeyRef::Literal(3), ValueSpec::NearPage(2)),
            KvOp::Compact,
        ];
        let fails =
            |ops: &[KvOp]| ops.iter().any(|o| matches!(o, KvOp::Delete(KeyRef::Literal(7))));
        let minimized = minimize(&ops, fails);
        assert_eq!(minimized, vec![KvOp::Delete(KeyRef::Literal(7))]);
    }

    #[test]
    fn minimize_shrinks_arguments() {
        // Failure condition: a put of key 1 exists (any size).
        let ops = vec![KvOp::Put(KeyRef::Literal(1), ValueSpec::NearPage(3))];
        let fails = |ops: &[KvOp]| {
            ops.iter().any(|o| matches!(o, KvOp::Put(KeyRef::Literal(1), _)))
        };
        let minimized = minimize(&ops, fails);
        assert_eq!(minimized, vec![KvOp::Put(KeyRef::Literal(1), ValueSpec::Small(2))]);
        assert!(measure(&minimized, 128).bytes_written < measure(&ops, 128).bytes_written);
    }

    #[test]
    fn minimize_preserves_two_op_interactions() {
        // Failure needs both the put and the delete of key 5.
        let ops = vec![
            KvOp::Compact,
            KvOp::Put(KeyRef::Literal(5), ValueSpec::Small(40)),
            KvOp::Get(KeyRef::Literal(5)),
            KvOp::Delete(KeyRef::Literal(5)),
            KvOp::IndexFlush,
        ];
        let fails = |ops: &[KvOp]| {
            ops.iter().any(|o| matches!(o, KvOp::Put(KeyRef::Literal(5), _)))
                && ops.iter().any(|o| matches!(o, KvOp::Delete(KeyRef::Literal(5))))
        };
        let minimized = minimize(&ops, fails);
        assert_eq!(minimized.len(), 2);
        assert!(fails(&minimized));
    }
}
