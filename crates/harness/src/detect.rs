//! The Fig. 5 driver: re-discover each of the sixteen historical issues.
//!
//! For every [`BugId`] this module knows which checker the paper credits
//! with the find — property-based conformance testing, crash-consistency
//! checking, failure injection, or stateless model checking — seeds the
//! bug, and searches for a counterexample. Property-based detections are
//! driven by the same generators as the test suites (deterministic per
//! seed, so "pay-as-you-go": a bigger budget explores more sequences);
//! concurrency detections run the hand-written harnesses of
//! [`crate::concurrent`] under the random-walk scheduler.
//!
//! When a property-based search finds a failing sequence it is also
//! minimized (§4.3), reporting original vs minimized sizes — the numbers
//! behind the paper's 61-ops-to-6-ops anecdote.

use proptest::strategy::Strategy;
use proptest::test_runner::{Config, RngAlgorithm, TestRng, TestRunner};
use shardstore_conc::CheckOptions;
use shardstore_faults::{BugId, FaultConfig};

use crate::conformance::{run_conformance, ConformanceConfig};
use crate::crash::run_crash_consistency;
use crate::gen::{kv_ops, node_ops, GenConfig};
use crate::minimize::{measure, minimize, SequenceSize};
use crate::node_conformance::run_node_conformance;
use crate::ops::{KvOp, NodeOp};

/// Search budget for one detection run.
#[derive(Debug, Clone, Copy)]
pub struct DetectBudget {
    /// Maximum random sequences for property-based detectors.
    pub max_sequences: u64,
    /// Iteration budget for the stateless model checker.
    pub conc_iterations: usize,
    /// Base RNG seed (detections are deterministic per seed).
    pub seed: u64,
}

impl Default for DetectBudget {
    fn default() -> Self {
        Self { max_sequences: 30_000, conc_iterations: 3_000, seed: 0x5EED }
    }
}

/// Outcome of one detection run.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The bug searched for.
    pub bug: BugId,
    /// Whether a counterexample was found within budget.
    pub detected: bool,
    /// The checker used (Fig. 5's implicit "detected by" column).
    pub method: &'static str,
    /// Sequences or schedules explored until detection (or the budget).
    pub attempts: u64,
    /// Counterexample sizes before and after minimization, when the
    /// detector is sequence-based.
    pub minimized: Option<(SequenceSize, SequenceSize)>,
    /// Human-readable detail of the counterexample.
    pub detail: String,
}

fn test_rng(seed: u64) -> TestRng {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
    TestRng::from_seed(RngAlgorithm::ChaCha, &bytes)
}

/// Seed override for CI fault matrices: `SHARDSTORE_SEED` (decimal or
/// `0x`-prefixed hex) replaces `default` when set, so the same test
/// binaries can be fanned out across a seed matrix without recompiling.
/// Unset or unparsable values fall back to `default`, keeping local runs
/// reproducible.
pub fn seed_override(default: u64) -> u64 {
    match std::env::var("SHARDSTORE_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or(default)
        }
        Err(_) => default,
    }
}

/// Deterministically samples operation sequences from a strategy.
pub fn sample_sequences<T: std::fmt::Debug>(
    strategy: impl Strategy<Value = T>,
    seed: u64,
    count: u64,
) -> impl Iterator<Item = T> {
    let mut runner = TestRunner::new_with_rng(Config::default(), test_rng(seed));
    (0..count).map(move |_| {
        strategy.new_tree(&mut runner).expect("strategy never rejects").current()
    })
}

/// A counterexample's size before and after minimization.
type Shrunk = (SequenceSize, SequenceSize);

/// Searches `strategy`'s sequences until `run` reports a failure, then
/// shrinks the counterexample (§4.3) with `shrink`, which gets the
/// original, the config and a "still fails" predicate and returns the
/// (original, minimized) sizes.
fn search<T: std::fmt::Debug>(
    bug: BugId,
    strategy: impl Strategy<Value = Vec<T>>,
    budget: DetectBudget,
    method: &'static str,
    background: bool,
    run: impl Fn(&[T], &ConformanceConfig) -> Option<String>,
    shrink: impl Fn(&[T], &ConformanceConfig, &dyn Fn(&[T]) -> bool) -> Shrunk,
) -> Detection {
    let mut cfg = ConformanceConfig::with_faults(FaultConfig::seed(bug));
    cfg.background_writeback = background;
    let mut attempts = 0u64;
    for ops in sample_sequences(strategy, budget.seed ^ bug.number() as u64, budget.max_sequences) {
        attempts += 1;
        if let Some(detail) = run(&ops, &cfg) {
            // Minimization needs deterministic replay — "still fails" must
            // be well-defined — which the live background pump thread
            // breaks. So background detections quiesce before minimizing:
            // candidates are replayed with the pump disabled (the checked
            // properties are timing-independent, so any sequence that
            // still fails deterministically is the same bug).
            // Counterexamples that *only* fail under the racing pump are
            // reported un-minimized.
            let mut replay_cfg = cfg.clone();
            replay_cfg.background_writeback = false;
            let minimized = if background && run(&ops, &replay_cfg).is_none() {
                None
            } else {
                Some(shrink(&ops, &cfg, &|candidate| run(candidate, &replay_cfg).is_some()))
            };
            return Detection { bug, detected: true, method, attempts, minimized, detail };
        }
    }
    Detection {
        bug,
        detected: false,
        method,
        attempts,
        minimized: None,
        detail: "no counterexample within budget".into(),
    }
}

/// The §4.3 minimizer over key-value sequences, sized in its units.
fn shrink_kv(ops: &[KvOp], cfg: &ConformanceConfig, fails: &dyn Fn(&[KvOp]) -> bool) -> Shrunk {
    let page_size = cfg.geometry.page_size;
    (measure(ops, page_size), measure(&minimize(ops, fails), page_size))
}

/// Greedy single-op removal over control-plane sequences, sized in ops.
fn shrink_node(ops: &[NodeOp], _: &ConformanceConfig, fails: &dyn Fn(&[NodeOp]) -> bool) -> Shrunk {
    let mut current: Vec<NodeOp> = ops.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..current.len()).rev() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                changed = true;
            }
        }
    }
    let size = |ops| SequenceSize { ops, crashes: 0, bytes_written: 0 };
    (size(ops.len()), size(current.len()))
}

fn conformance_failure(ops: &[KvOp], cfg: &ConformanceConfig) -> Option<String> {
    run_conformance(ops, cfg).err().map(|d| d.to_string())
}

fn run_conc(
    bug: BugId,
    budget: DetectBudget,
    harness: impl Fn(FaultConfig, CheckOptions) -> Result<shardstore_conc::CheckReport, shardstore_conc::CheckError>,
) -> Detection {
    // PCT (Shuttle's algorithm) rather than a uniform random walk: the
    // issue #14 class needs one task parked inside a short window while
    // another runs hundreds of steps, which uniform walks essentially
    // never produce (§6's scalability argument).
    let options = CheckOptions::pct(budget.seed ^ bug.number() as u64, 3, budget.conc_iterations);
    match harness(FaultConfig::seed(bug), options) {
        Ok(report) => Detection {
            bug,
            detected: false,
            method: "stateless model checking",
            attempts: report.iterations as u64,
            minimized: None,
            detail: "no failing interleaving within budget".into(),
        },
        Err(e) => {
            let attempts = match &e {
                shardstore_conc::CheckError::Failure { iteration, .. }
                | shardstore_conc::CheckError::Deadlock { iteration, .. } => *iteration as u64 + 1,
                shardstore_conc::CheckError::StepLimit { iteration, .. } => *iteration as u64 + 1,
            };
            Detection {
                bug,
                detected: true,
                method: "stateless model checking",
                attempts,
                minimized: None,
                detail: e.to_string(),
            }
        }
    }
}

fn detect_b15(budget: DetectBudget) -> Detection {
    // Issue #15 is a bug in the chunk-store *model*: locators must be
    // unique across the model's lifetime, an assumption the rest of the
    // validation code relies on. A simple property over random put/delete
    // traces on the model exposes the reuse.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shardstore_model::ChunkStoreModel;
    let mut rng = StdRng::seed_from_u64(budget.seed);
    for attempt in 1..=budget.max_sequences {
        let model = ChunkStoreModel::new(FaultConfig::seed(BugId::B15ModelLocatorReuse));
        let mut seen = std::collections::BTreeSet::new();
        let mut live = Vec::new();
        for _ in 0..20 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let idx = rng.gen_range(0..live.len());
                let l = live.swap_remove(idx);
                model.delete(&l);
            } else {
                let payload = vec![rng.gen::<u8>(); rng.gen_range(1..8)];
                let l = model.put(&payload);
                if !seen.insert((l.extent, l.offset, l.len)) {
                    return Detection {
                        bug: BugId::B15ModelLocatorReuse,
                        detected: true,
                        method: "model property (locator uniqueness)",
                        attempts: attempt,
                        minimized: None,
                        detail: format!("model reissued locator {l}"),
                    };
                }
                live.push(l);
            }
        }
    }
    Detection {
        bug: BugId::B15ModelLocatorReuse,
        detected: false,
        method: "model property (locator uniqueness)",
        attempts: budget.max_sequences,
        minimized: None,
        detail: "no reuse observed".into(),
    }
}

/// Runs the appropriate checker for one seeded bug.
pub fn detect(bug: BugId, budget: DetectBudget) -> Detection {
    detect_with(bug, budget, false)
}

/// Like [`detect`], but with the background writeback engine enabled
/// everywhere a store is driven: property-based detections run their
/// stores in `WritebackMode::Background` (a real pump thread racing the
/// generated sequences), and the concurrency detections use the
/// `*_background_harness` variants where the pump runs as an extra
/// scheduled task under the model checker. Issue #15 is a property of
/// the chunk-store *model* and never touches an IO scheduler, so it runs
/// unchanged. Group commit must not mask any historical bug — this is
/// the acceptance gate for the writeback engine.
pub fn detect_background(bug: BugId, budget: DetectBudget) -> Detection {
    detect_with(bug, budget, true)
}

fn detect_with(bug: BugId, budget: DetectBudget, background: bool) -> Detection {
    use BugId::*;
    match bug {
        B1ReclamationOffByOne | B2CacheNotDrained | B3MetadataShutdownFlush => search(
            bug,
            kv_ops(GenConfig::conformance()),
            budget,
            "conformance PBT",
            background,
            conformance_failure,
            shrink_kv,
        ),
        B4DiskRemovalLosesShards => search(
            bug,
            node_ops(GenConfig::conformance()),
            budget,
            "conformance PBT (control plane)",
            background,
            |ops, cfg| run_node_conformance(ops, cfg, 2).err().map(|d| d.to_string()),
            shrink_node,
        ),
        B5ReclamationTransientError => search(
            bug,
            kv_ops(GenConfig::failure()),
            budget,
            "failure-injection PBT",
            background,
            conformance_failure,
            shrink_kv,
        ),
        B6OwnershipDependency | B7SoftHardPointerMismatch | B8MissingPointerDependency
        | B9ModelCrashReclamation | B10UuidCollision => search(
            bug,
            kv_ops(GenConfig::crash()),
            budget,
            "crash-consistency PBT",
            background,
            |ops, cfg| run_crash_consistency(ops, cfg).err().map(|d| d.to_string()),
            shrink_kv,
        ),
        B11LocatorRace if background => {
            run_conc(bug, budget, crate::concurrent::put_reclaim_background_harness)
        }
        B11LocatorRace => run_conc(bug, budget, crate::concurrent::put_reclaim_harness),
        B12SuperblockDeadlock if background => {
            run_conc(bug, budget, crate::concurrent::superblock_pool_background_harness)
        }
        B12SuperblockDeadlock => {
            run_conc(bug, budget, crate::concurrent::superblock_pool_harness)
        }
        B13ListRemoveRace if background => {
            run_conc(bug, budget, crate::concurrent::list_remove_background_harness)
        }
        B13ListRemoveRace => run_conc(bug, budget, crate::concurrent::list_remove_harness),
        B14CompactionReclaimRace if background => {
            run_conc(bug, budget, crate::concurrent::fig4_background_harness)
        }
        B14CompactionReclaimRace => run_conc(bug, budget, crate::concurrent::fig4_index_harness),
        B15ModelLocatorReuse => detect_b15(budget),
        B16BulkOpsRace if background => {
            run_conc(bug, budget, crate::concurrent::bulk_ops_background_harness)
        }
        B16BulkOpsRace => run_conc(bug, budget, crate::concurrent::bulk_ops_harness),
    }
}
