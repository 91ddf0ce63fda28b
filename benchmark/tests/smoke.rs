//! `--smoke` as a test: every workload at a twentieth of its length (and
//! keys), both run kinds, checking the oracle and the output schema.
//! Timings of a smoke run mean nothing and are not looked at.

use shardstore_benchmark::report::{END_TO_END, PER_LAYER, RUN_SECONDS};
use shardstore_benchmark::workload::SPECS;
use shardstore_benchmark::{run_once, smoke_spec};

#[test]
fn every_workload_passes_its_oracle_and_prints_the_declared_metrics() {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("smoke-test");
    let seconds = f64::from(RUN_SECONDS) / 20.0;
    for spec in &SPECS {
        let spec = smoke_spec(spec);
        for trace in [false, true] {
            let (line, outcome, report) = run_once(&spec, 7, seconds, trace, &out)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
            assert!(
                outcome.correct,
                "{} trace={trace}: {}",
                spec.name,
                report.render()
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(!line.contains('\n'));
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            for name in &declared {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {line}"
                );
            }
            assert_eq!(
                line.matches("\"unit\": ").count(),
                declared.len(),
                "undeclared metrics in {line}"
            );
            if !trace {
                for (name, ..) in END_TO_END {
                    let v = outcome.metrics.get(name).expect("declared metric set");
                    assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", spec.name);
                }
            }
            assert!(
                report.render().ends_with("\"claim\": null}"),
                "the summary ends with the claim"
            );
        }
        assert!(out.join(format!("trace-{}.json", spec.name)).exists());
    }
    std::fs::remove_dir_all(&out).expect("smoke output removed");
}
