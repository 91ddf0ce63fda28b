//! Swarm simulation: batches of compressed-time seeds (ISSUE 8).
//!
//! One swarm run is a batch of seeds; each seed deterministically derives
//! an operation sequence (via the §4.2 biased strategies) *and* a
//! perturbed fault/delivery schedule, and drives one simulated execution
//! through [`crate::simulate`]. Seeds alternate between the
//! crash-consistency world (a store under dirty restarts, armed disk
//! faults, and timer ticks) and the request-plane world (the node
//! alphabet through a manual-mode engine with message drops, delays, and
//! reorders). Logical time is compressed — a run's wall-clock cost is
//! only the work its events do — so throughput is reported in simulated
//! events per second.
//!
//! A clean, bug-free build must survive every seed: any failure here is
//! either a real bug or a checker bug, and the reproducing
//! `(seed, world)` pair plus the auto-minimized repro is the artifact to
//! keep.

use std::collections::BTreeMap;

use shardstore_faults::coverage;
use shardstore_obs::metrics::MetricsSnapshot;
use shardstore_sim::{PerturbProfile, SimSchedule, SwarmStats};

use crate::conformance::{ConformanceConfig, Divergence};
use crate::detect::sample_sequences;
use crate::gen::{kv_ops, node_ops, GenConfig};
use crate::minimize::{minimize_repro, SimRepro};
use crate::ops::{KvOp, NodeOp};
use crate::simulate::{run_crash_sim, run_rpc_sim, SimOptions, SimOutcome};

/// Swarm batch configuration.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// First seed of the batch; seed `k` of the batch is `base_seed + k`.
    pub base_seed: u64,
    /// Number of seeds to run.
    pub runs: usize,
    /// Perturbation intensity for every derived schedule.
    pub profile: PerturbProfile,
    /// Disks per node in request-plane runs.
    pub num_disks: usize,
    /// Auto-minimize failing repros before reporting them.
    pub minimize_failures: bool,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        Self {
            base_seed: 0x5EED,
            runs: 16,
            profile: PerturbProfile::default(),
            num_disks: 3,
            minimize_failures: true,
        }
    }
}

/// One failing seed, with its (optionally minimized) repro rendered.
#[derive(Debug, Clone)]
pub struct SwarmFailure {
    /// The failing seed.
    pub seed: u64,
    /// Which world failed (`"crash"` or `"rpc"`).
    pub world: &'static str,
    /// The failure message from the first (unminimized) run.
    pub message: String,
    /// Rendering of the minimized `(ops, schedule)` repro (the original
    /// repro when minimization is disabled).
    pub repro: String,
    /// Operations in the minimized repro.
    pub minimized_ops: usize,
    /// Trace events the failing run's ring dropped: non-zero means the
    /// attached timelines are incomplete.
    pub dropped_events: u64,
}

/// Per-seed observability report from one passing run: event volume,
/// the seed's end-of-run metrics (including logical-latency histograms),
/// and the coverage probes this seed hit (deltas against the global
/// coverage registry; empty when coverage is disabled).
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Which world ran (`"crash"` or `"rpc"`).
    pub world: &'static str,
    /// Simulated events this seed processed.
    pub events: u64,
    /// Operations this seed applied.
    pub ops: u64,
    /// End-of-run metrics snapshot (merged across disks in rpc runs).
    pub metrics: MetricsSnapshot,
    /// Coverage probes hit by this seed, with per-seed hit counts.
    pub coverage: Vec<(String, u64)>,
}

/// The outcome of one swarm batch.
#[derive(Debug, Clone)]
pub struct SwarmOutcome {
    /// Aggregated event statistics across the batch.
    pub stats: SwarmStats,
    /// Wall-clock seconds the batch took.
    pub elapsed_secs: f64,
    /// Every failing seed (empty on a healthy build).
    pub failures: Vec<SwarmFailure>,
    /// One report per passing seed (failing seeds report via
    /// [`SwarmOutcome::failures`] instead).
    pub seed_reports: Vec<SeedReport>,
}

impl SwarmOutcome {
    /// Simulated events per wall-clock second across the batch.
    pub fn events_per_sec(&self) -> f64 {
        self.stats.events_per_sec(self.elapsed_secs)
    }
}

/// Coverage probes hit since `before`, with per-seed hit counts (empty
/// when the global coverage registry is disabled).
fn coverage_delta(before: &BTreeMap<&'static str, u64>) -> Vec<(String, u64)> {
    coverage::snapshot()
        .into_iter()
        .filter_map(|(name, hits)| {
            let delta = hits.saturating_sub(before.get(name).copied().unwrap_or(0));
            (delta > 0).then(|| (name.to_string(), delta))
        })
        .collect()
}

/// Runs one seed's `ops` under its derived schedule; a failure comes
/// back with its (optionally minimized) repro rendered.
fn run_seed<Op: Clone + std::fmt::Debug>(
    config: &SwarmConfig,
    stats: &mut SwarmStats,
    (seed, world): (u64, &'static str),
    ops: Vec<Op>,
    run: impl Fn(&[Op], &SimSchedule) -> Result<SimOutcome, Divergence>,
) -> Result<SeedReport, SwarmFailure> {
    let cov_before: BTreeMap<&'static str, u64> = coverage::snapshot().into_iter().collect();
    let schedule = SimSchedule::perturbed(seed, ops.len(), &config.profile);
    match run(&ops, &schedule) {
        Ok(outcome) => {
            stats.absorb(&outcome.sim);
            Ok(SeedReport {
                seed,
                world,
                events: outcome.sim.events,
                ops: ops.len() as u64,
                metrics: outcome.metrics,
                coverage: coverage_delta(&cov_before),
            })
        }
        Err(d) => {
            let mut repro = SimRepro { ops, schedule };
            if config.minimize_failures {
                repro = minimize_repro(&repro, |cand| {
                    run(&cand.ops, &cand.schedule).err().map(|d| d.to_string())
                });
            }
            Err(SwarmFailure {
                seed,
                world,
                message: d.to_string(),
                repro: format!("ops: {:#?}\nschedule: {:#?}", repro.ops, repro.schedule),
                minimized_ops: repro.ops.len(),
                dropped_events: d.dropped_events,
            })
        }
    }
}

/// Runs a swarm batch: `runs` seeds, alternating worlds, perturbed
/// schedules, auto-minimization on failure.
pub fn run_swarm(config: &SwarmConfig) -> SwarmOutcome {
    let started = std::time::Instant::now();
    let mut stats = SwarmStats::default();
    let mut failures = Vec::new();
    let mut seed_reports = Vec::new();
    let cfg = ConformanceConfig::default();
    let opts = SimOptions::default();
    for k in 0..config.runs {
        let seed = config.base_seed.wrapping_add(k as u64);
        let result = if k % 2 == 0 {
            let ops: Vec<KvOp> =
                sample_sequences(kv_ops(GenConfig::crash()), seed, 1).next().expect("one sequence");
            let run = |ops: &[KvOp], s: &SimSchedule| run_crash_sim(ops, &cfg, s, &opts);
            run_seed(config, &mut stats, (seed, "crash"), ops, run)
        } else {
            let ops: Vec<NodeOp> = sample_sequences(node_ops(GenConfig::conformance()), seed, 1)
                .next()
                .expect("one sequence");
            let disks = config.num_disks;
            let run = |ops: &[NodeOp], s: &SimSchedule| run_rpc_sim(ops, &cfg, disks, s, &opts);
            run_seed(config, &mut stats, (seed, "rpc"), ops, run)
        };
        match result {
            Ok(report) => seed_reports.push(report),
            Err(failure) => failures.push(failure),
        }
    }
    SwarmOutcome { stats, elapsed_secs: started.elapsed().as_secs_f64(), failures, seed_reports }
}
