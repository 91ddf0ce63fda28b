//! The metric tables (the same names `BENCHMARK.json` declares), the
//! result line the driver reads, and the longer report written beside
//! the trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u32 = 15;

/// The command `BENCHMARK.json` declares; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// (name, unit, better, bound) of every end-to-end metric, in report
/// order. Defined on every workload and never zero. `bound` is the share
/// of the parent's median by which a later change may worsen the metric.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("sat_ops_per_s", "ops/s", "higher", 0.2),
    ("read_p50_us", "us", "lower", 0.15),
    ("write_p50_us", "us", "lower", 0.25),
    ("write_amp", "ratio", "lower", 0.15),
    ("space_amp", "ratio", "lower", 0.15),
    ("recover_s", "s", "lower", 0.25),
];

/// (name, unit, better) of every per-layer metric. Layer = crate; the
/// prefix names it. `driver.*` is the benchmark's own generator.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("wire.decode_us", "us", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.bytes_per_op", "B", "lower"),
    ("engine.handoff_us", "us", "lower"),
    ("engine.admit_us", "us", "lower"),
    ("engine.exec_us", "us", "lower"),
    ("engine.queue_depth_max", "count", "lower"),
    ("engine.overloaded", "count", "lower"),
    ("engine.batches", "count", "higher"),
    ("store.get_us", "us", "lower"),
    ("store.get_self_us", "us", "lower"),
    ("store.put_us", "us", "lower"),
    ("store.scan_us", "us", "lower"),
    ("lsm.get_us", "us", "lower"),
    ("lsm.scan_us", "us", "lower"),
    ("lsm.tables_per_get", "count", "lower"),
    ("lsm.block_decodes_per_get", "count", "lower"),
    ("lsm.bytes_decoded_per_get", "B", "lower"),
    ("lsm.bloom_skip_share", "ratio", "higher"),
    ("lsm.tables_pruned_per_scan", "count", "higher"),
    ("lsm.flushes", "count", "lower"),
    ("lsm.compactions", "count", "lower"),
    ("lsm.compaction_bytes_out_per_user_byte", "ratio", "lower"),
    ("lsm.flush_us", "us", "lower"),
    ("lsm.stall_share", "ratio", "lower"),
    ("lsm.unflushed_at_crash", "count", "lower"),
    ("lsm.rolled_back_at_crash", "count", "lower"),
    ("cache.hit_share", "ratio", "higher"),
    ("cache.evictions_per_op", "count", "lower"),
    ("cache.get_hit_us", "us", "lower"),
    ("cache.get_miss_us", "us", "lower"),
    ("chunk.get_us", "us", "lower"),
    ("chunk.put_us", "us", "lower"),
    ("chunk.reclaims", "count", "lower"),
    ("chunk.reclaim_us_total", "us", "lower"),
    ("chunk.reclaim_stall_p99_us", "us", "lower"),
    ("chunk.relocations", "count", "lower"),
    ("superblock.extent_allocations", "count", "lower"),
    ("superblock.extent_resets", "count", "lower"),
    ("superblock.free_extents_min", "count", "higher"),
    ("dependency.rounds_per_fence", "count", "lower"),
    ("dependency.issue_us_per_fence", "us", "lower"),
    ("dependency.flush_us_per_fence", "us", "lower"),
    ("dependency.ios_per_write_op", "count", "lower"),
    ("dependency.coalesced_share", "ratio", "higher"),
    ("dependency.extents_fenced_per_fence", "count", "lower"),
    ("dependency.queue_depth_max", "count", "lower"),
    ("vdisk.fsyncs_per_write_op", "count", "lower"),
    ("vdisk.writes_per_write_op", "count", "lower"),
    ("vdisk.bytes_written_per_write_op", "B", "lower"),
    ("vdisk.bytes_synced_per_write_op", "B", "lower"),
    ("vdisk.reads_per_read_op", "count", "lower"),
    ("vdisk.bytes_read_per_read_op", "B", "lower"),
    ("vdisk.bytes_read_per_write_op", "B", "lower"),
    ("vdisk.write_us", "us", "lower"),
    ("vdisk.flush_extent_us", "us", "lower"),
    ("vdisk.flush_self_us", "us", "lower"),
    ("vdisk.recovery_scan_ms", "ms", "lower"),
    ("device.pwrite_fdatasync_p50_us", "us", "lower"),
    ("device.fdatasync_p50_us", "us", "lower"),
    ("device.pread_p50_us", "us", "lower"),
    ("device.write_gap", "ratio", "lower"),
    ("driver.read_samples", "count", "higher"),
    ("driver.write_samples", "count", "higher"),
    ("driver.host_wake_us", "us", "lower"),
    ("driver.read_p99_us", "us", "lower"),
    ("driver.write_p99_us", "us", "lower"),
    ("driver.lag_p99_us", "us", "lower"),
    ("driver.rate_lo.lag_p99_us", "us", "lower"),
    ("driver.rate_hi.lag_p99_us", "us", "lower"),
    ("driver.rate_lo.read_p99_us", "us", "lower"),
    ("driver.rate_lo.write_p99_us", "us", "lower"),
    ("driver.rate_hi.read_p99_us", "us", "lower"),
    ("driver.rate_hi.write_p99_us", "us", "lower"),
    ("driver.max_rate_in_slo", "ops/s", "higher"),
    ("driver.slo_miss_share", "ratio", "lower"),
    ("driver.trace_overhead_share", "ratio", "lower"),
    ("driver.span_self_sum_share", "ratio", "higher"),
];

/// Metric values by name, filled as the run goes.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A float with all its digits, as JSON (which has no NaN or infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome of one run: what the result line carries.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `table`.
/// A declared metric the run did not set is a bug in the benchmark.
pub fn result_line<'a>(
    outcome: &Outcome,
    table: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = outcome
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was never measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            number(value),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// `BENCHMARK.json`, generated from the tables above so the declaration
/// and the program cannot drift apart (a test compares the file).
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = crate::workload::SPECS
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(s.name),
                json_string(s.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_string(name),
                json_string(unit),
                json_string(better)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Key/value pairs of the longer report, rendered as one JSON object in
/// insertion order. Values are already-rendered JSON.
#[derive(Debug, Clone, Default)]
pub struct Report(Vec<(String, String)>);

impl Report {
    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.into(), json));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.raw(key, json_string(value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, number(value));
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1, m.2))
            .chain(PER_LAYER.iter().copied());
        for (name, unit, better) in all {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(better, "lower" | "higher"));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(crate::workload::SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }

    /// `BENCHMARK.json` sits one directory up and is this package's
    /// declaration: regenerate it with `--emit-benchmark-json` after
    /// changing a table.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(on_disk, benchmark_json());
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("a_us", 1.25);
        metrics.set("b", 3.0);
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        let table = [("a_us", "us"), ("b", "count")];
        assert_eq!(
            result_line(&outcome, table.into_iter()).unwrap(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a_us": {"value": 1.25, "unit": "us"}, "b": {"value": 3, "unit": "count"}}}"#
        );
        assert!(result_line(&outcome, [("missing", "us")].into_iter()).is_err());
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
