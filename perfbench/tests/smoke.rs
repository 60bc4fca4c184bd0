//! Runs every workload once in smoke mode (tiny shapes, one repetition),
//! untraced and traced, and checks the result line against `BENCHMARK.json`.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` values of the objects in the JSON array under `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let end = section.find(']').expect("arrays are closed");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("names are quoted")].to_string())
        .collect()
}

/// Metric names in a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("result has metrics") + 12..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Every chunk but the last ends with the next metric's `"name": `.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind("\": ")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

/// The value of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key).unwrap_or_else(|| panic!("no {name}")) + key.len()..];
    rest[..rest.find(',').expect("value is followed by its unit")]
        .parse()
        .expect("values are numbers")
}

/// The layers each workload exercises in smoke mode. The result line carries
/// every per-layer metric on every workload; those of any other layer read
/// 0, which means absent.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "fit-mnist" => &[
            "dense.syrk",
            "core.kernel.apply",
            "core.distances.fold_dense",
            "sparse.spmv",
            "core.distances.finish",
            "core.assignment.argmin",
        ],
        "sweep-letter" => &[
            "dense.syrk",
            "core.kernel.apply",
            "core.distances.fold_dense",
            "sparse.spmv",
            "core.distances.finish",
            "core.assignment.argmin",
            "core.batch.lockstep",
        ],
        "knn-scotus" => &[
            "sparse.gram_panel",
            "core.kernel.apply",
            "core.sparsified.select",
            "core.init.kmeanspp",
            "core.distances.fold_csr",
            "sparse.spmv",
            "core.distances.finish",
            "core.assignment.argmin",
        ],
        "serve-acoustic" => &[
            "dense.gemm",
            "core.kernel.apply",
            "core.assignment.argmin",
            "core.model.assign",
            "serve.queue",
            "serve.reference",
        ],
        other => panic!("unknown workload {other}"),
    }
}

/// Every exercised layer reports some non-zero metric; every other layer
/// reports only zeros. Host probes and replay-wide figures are left out.
fn check_layers_present(workload: &str, line: &str, names: &[String]) {
    let mut layers: Vec<&str> = names
        .iter()
        .filter(|name| !name.starts_with("host.") && !name.starts_with("replay."))
        .map(|name| name.rsplit_once('.').expect("layer.quantity").0)
        .collect();
    layers.dedup();
    for layer in layers {
        let values: Vec<f64> = names
            .iter()
            .filter(|name| name.rsplit_once('.').map(|(l, _)| l) == Some(layer))
            .map(|name| metric_value(line, name))
            .collect();
        let present = values.iter().any(|&v| v != 0.0);
        assert_eq!(
            present,
            exercised(workload).contains(&layer),
            "{workload}: layer {layer} reads {values:?}"
        );
    }
}

fn run(workload: &str, trace: &str) -> String {
    let dir = std::env::temp_dir().join(format!("perfbench-smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_correctly_and_reports_the_declared_metrics() {
    let json = benchmark_json();
    let workloads = names_in(&json, "workloads");
    assert_eq!(
        workloads,
        ["fit-mnist", "sweep-letter", "knn-scotus", "serve-acoustic"]
    );
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            let names = metric_names(&line);
            assert_eq!(names, names_in(&json, key), "{workload} trace {trace}");
            if trace == "1" {
                check_layers_present(workload, &line, &names);
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
