//! E2 — regenerates Fig. 6 of the paper: lines of code for the
//! implementation and the validation artifacts, side by side with the
//! paper's numbers. The shape to reproduce: reference models are a tiny
//! fraction of the implementation (paper: ~1%), and the validation
//! artifacts together stay far below the 3–10× overhead of full formal
//! verification (paper: ~20% of the implementation).
//!
//! ```sh
//! cargo run --release -p shardstore-bench --bin fig6_loc
//! ```

use std::path::{Path, PathBuf};

use shardstore_bench::{row, rule};

/// Lines in one file, split at the `#[cfg(test)]` marker: everything from
/// the inline test module onward counts as test code.
fn split_file(path: &Path) -> (usize, usize) {
    let Ok(content) = std::fs::read_to_string(path) else { return (0, 0) };
    let mut impl_lines = 0;
    let mut test_lines = 0;
    let mut in_tests = false;
    for line in content.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            test_lines += 1;
        } else {
            impl_lines += 1;
        }
    }
    (impl_lines, test_lines)
}

fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn count(dir: &Path) -> (usize, usize) {
    rs_files(dir).iter().map(|f| split_file(f)).fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crate_dir = |name: &str| root.join("crates").join(name).join("src");
    let test_dir = |name: &str| root.join("crates").join(name).join("tests");

    // Implementation: the storage node and its substrates.
    let impl_crates = ["vdisk", "dependency", "superblock", "chunk", "cache", "lsm", "core"];
    let mut impl_lines = 0;
    let mut unit_test_lines = 0;
    for c in &impl_crates {
        let (i, t) = count(&crate_dir(c));
        impl_lines += i;
        unit_test_lines += t;
        let (i2, t2) = count(&test_dir(c));
        unit_test_lines += i2 + t2;
    }
    // faults: BugId registry + coverage probes — implementation-side
    // plumbing for the validation effort.
    let (faults_impl, faults_test) = count(&crate_dir("faults"));
    impl_lines += faults_impl;
    unit_test_lines += faults_test;
    // Workspace-level integration tests and examples.
    let (ti, tt) = count(&root.join("tests"));
    unit_test_lines += ti + tt;

    // Specification: the reference models (the bounded-exhaustive model
    // verifier is tooling — the paper's Prusti experiments — not spec).
    let mut model_impl = 0;
    let mut model_verify = 0;
    for f in rs_files(&crate_dir("model")) {
        let (i, t) = split_file(&f);
        unit_test_lines += t;
        if f.file_name().unwrap() == "verify.rs" {
            model_verify += i;
        } else {
            model_impl += i;
        }
    }

    // Validation artifacts, by property (the paper's three rows).
    let harness_src = crate_dir("harness");
    let mut functional = 0;
    let mut crash = 0;
    let mut concurrency = 0;
    for f in rs_files(&harness_src) {
        let (i, t) = split_file(&f);
        let lines = i + t;
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        match name.as_str() {
            "crash.rs" => crash += lines,
            "concurrent.rs" | "lin.rs" => concurrency += lines,
            _ => functional += lines,
        }
    }
    for f in rs_files(&test_dir("harness")) {
        let (i, t) = split_file(&f);
        let lines = i + t;
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        if name.contains("concurrent") {
            concurrency += lines;
        } else {
            functional += lines;
        }
    }

    // Tooling: the stateless model checker (the paper used Shuttle/Loom as
    // external tools, so this row has no Fig. 6 counterpart), the bench
    // harness, and the standalone end-to-end benchmark.
    let (conc_impl, conc_test) = count(&crate_dir("conc"));
    let (conc_ti, conc_tt) = count(&test_dir("conc"));
    let checker_lines = conc_impl + conc_test + conc_ti + conc_tt;
    let (bench_impl, bench_test) = count(&root.join("crates/bench"));
    let bench_lines = bench_impl + bench_test;
    let (e2e_src, e2e_src_test) = count(&root.join("benchmark/src"));
    let (e2e_ti, e2e_tt) = count(&root.join("benchmark/tests"));
    let e2e_lines = e2e_src + e2e_src_test + e2e_ti + e2e_tt;
    let (example_lines, _) = count(&root.join("examples"));

    println!("Fig. 6 — Lines of code (this reproduction vs the paper)\n");
    let widths = [44, 12, 12];
    row(&["Component", "This repo", "Paper"], &widths);
    rule(&widths);
    println!("ShardStore");
    row(&["  Implementation", &impl_lines.to_string(), "44,048"], &widths);
    row(&["  Unit tests & integration tests", &unit_test_lines.to_string(), "19,540"], &widths);
    println!("Specification");
    row(&["  Reference models (§3.2)", &model_impl.to_string(), "450"], &widths);
    println!("Validation");
    row(&["  Functional correctness checks (§4)", &functional.to_string(), "4,860"], &widths);
    row(&["  Crash consistency checks (§5)", &crash.to_string(), "2,661"], &widths);
    row(&["  Concurrency checks (§6)", &concurrency.to_string(), "901"], &widths);
    println!("Tooling (external in the paper)");
    row(&["  Stateless model checker", &checker_lines.to_string(), "(Shuttle/Loom)"], &widths);
    row(&["  Model verifier (§3.2)", &model_verify.to_string(), "(Prusti)"], &widths);
    row(&["  Bench harness (`crates/bench`)", &bench_lines.to_string(), "—"], &widths);
    row(&["  Benchmark (`benchmark/`)", &e2e_lines.to_string(), "—"], &widths);
    row(&["  Examples", &example_lines.to_string(), "—"], &widths);
    rule(&widths);
    let total = impl_lines
        + unit_test_lines
        + model_impl
        + model_verify
        + functional
        + crash
        + concurrency
        + checker_lines
        + bench_lines
        + e2e_lines
        + example_lines;
    row(&["Total", &total.to_string(), "72,460"], &widths);

    let validation = functional + crash + concurrency;
    println!("\nShape checks (the paper's claims):");
    println!(
        "  reference models = {:.1}% of implementation (paper: ~1%)",
        100.0 * model_impl as f64 / impl_lines as f64
    );
    println!(
        "  models + validation = {:.1}% of implementation (paper: ~20%, vs 300-1000% for full verification)",
        100.0 * (model_impl + validation) as f64 / impl_lines as f64
    );
    println!(
        "  tests = {:.0}% of code base (paper: ~31%)",
        100.0 * unit_test_lines as f64 / total as f64
    );
}
