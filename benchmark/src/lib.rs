//! The repository's end-to-end benchmark, measured from outside: four
//! wire-level workloads against a real `Engine` on the file backend.
//! See `README.md` for the glossary of workloads and metrics.

pub mod oracle;
pub mod probes;
pub mod report;
pub mod rig;
pub mod rng;
pub mod run;
pub mod stats;
pub mod steady;
pub mod workload;

use std::path::Path;

use report::{Outcome, Report, END_TO_END, PER_LAYER};
use workload::Spec;

/// The smoke variant of a workload: a twentieth of the keys (never fewer
/// than a scan page needs), to go with a twentieth of the run length.
pub fn smoke_spec(spec: &Spec) -> Spec {
    let keys = (spec.keys / 20).max(2 * workload::SCAN_SPAN).min(spec.keys);
    Spec {
        keys: keys.next_multiple_of(workload::BULK_KEYS),
        ..*spec
    }
}

/// Runs one workload once and returns the result line the driver reads
/// (every end-to-end metric untraced, every per-layer metric traced),
/// the outcome and the longer report.
pub fn run_once(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<(String, Outcome, Report), String> {
    let (outcome, report, line) = if trace {
        let (outcome, report) = run::per_layer(spec, seed, seconds, out_dir)?;
        let line = report::result_line(&outcome, PER_LAYER.iter().map(|m| (m.0, m.1)))?;
        (outcome, report, line)
    } else {
        let (outcome, report) = run::end_to_end(spec, seed, seconds, out_dir)?;
        let line = report::result_line(&outcome, END_TO_END.iter().map(|m| (m.0, m.1)))?;
        (outcome, report, line)
    };
    Ok((line, outcome, report))
}
