//! Integration tests for the `cq-lab` experiment harness.
//!
//! The load-bearing test here is the **differential**: a result row
//! from `cq-lab run` must carry exactly the solver/cache metrics a
//! direct `cq-analyze --json` run on the same materialized inputs
//! reports — the harness may add wall-clock timing, but it must not
//! invent or lose a counter. Plus the CLI contracts: single-task mode
//! always writes its row and exits 0, batch mode gates on outcomes,
//! `report` emits a `BENCH_<date>.json` that round-trips through a
//! self-comparison with all-1.00x ratios.

use cq_cluster::SolverTotals;
use cq_engine::Json;
use cq_lab::{run_task, validate_result, Binaries, Task};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bins() -> Binaries {
    let dir = Path::new(env!("CARGO_BIN_EXE_cq-analyze"))
        .parent()
        .unwrap()
        .to_path_buf();
    // Referencing the other binaries forces cargo to build them too.
    let _ = (
        env!("CARGO_BIN_EXE_cq-serve"),
        env!("CARGO_BIN_EXE_cq-cluster"),
        env!("CARGO_BIN_EXE_cq-lab"),
    );
    Binaries::in_dir(&dir).expect("binaries built")
}

fn task(text: &str) -> Task {
    Task::parse(&Json::parse(text).unwrap()).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cq-lab-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn metric(row: &Json, name: &str) -> i64 {
    row.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("metric {name} missing: {}", row.render()))
}

/// The acceptance differential: the harness's solver/cache metrics on a
/// task equal what `cq-analyze --json` reports on the same inputs. The
/// `cycle-fd` family is used because its compound FD routes through the
/// entropy LPs — the counters the trajectory exists to watch — and it
/// materializes a single program, so every counter is deterministic.
#[test]
fn run_metrics_match_direct_cq_analyze() {
    let bins = bins();
    let task = task(r#"{"task_id":"diff","family":"cycle-fd","k":4}"#);
    let row = run_task(&task, &bins);
    validate_result(&row).unwrap();
    assert_eq!(
        row.get("outcome").and_then(Json::as_str),
        Some("success"),
        "{}",
        row.render()
    );

    // The same inputs, by hand, through the real binary.
    let dir = tmp("diff");
    let mut paths = Vec::new();
    for (name, text) in task.family.materialize() {
        let path = dir.join(format!("{name}.cq"));
        std::fs::write(&path, text).unwrap();
        paths.push(path);
    }
    let out = Command::new(&bins.analyze)
        .args(&paths)
        .arg("--json")
        .env_remove("CQ_LP_ENGINE")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    let summary = lines.pop().unwrap();
    let direct = SolverTotals::from_reports(&lines);
    let cache = |name: &str| {
        summary
            .get("cache_stats")
            .and_then(|c| c.get(name))
            .and_then(Json::as_i64)
            .unwrap()
    };

    assert_eq!(metric(&row, "queries"), lines.len() as i64);
    assert_eq!(metric(&row, "parse_errors"), 0);
    for (name, want) in [
        ("pivots", direct.pivots),
        ("refactorizations", direct.refactorizations),
        ("sparse_solves", direct.sparse_solves),
        ("hybrid_solves", direct.hybrid_solves),
        ("float_pivots", direct.float_pivots),
        ("float_verified", direct.float_verified),
        ("exact_fallbacks", direct.exact_fallbacks),
    ] {
        assert_eq!(metric(&row, name), want as i64, "solver metric {name}");
    }
    for (name, want) in [
        ("cache_hits", cache("hits")),
        ("cache_misses", cache("misses")),
        ("cache_entries", cache("entries")),
        ("cache_evictions", cache("evictions")),
    ] {
        assert_eq!(metric(&row, name), want, "cache metric {name}");
    }
    // The family actually took the entropy path: LPs were solved. (A
    // verified hybrid solve does no exact pivot, so count solves.)
    assert!(
        metric(&row, "sparse_solves") + metric(&row, "hybrid_solves") > 0,
        "{}",
        row.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine variant is applied at the invocation layer: an `exact`
/// task must report rational-engine solves, a `hybrid` task
/// hybrid-engine solves, on the same workload.
#[test]
fn engine_variant_reaches_the_child() {
    let bins = bins();
    let exact = run_task(
        &task(r#"{"task_id":"e","family":"cycle-fd","k":6,"engine":"exact"}"#),
        &bins,
    );
    let hybrid = run_task(
        &task(r#"{"task_id":"h","family":"cycle-fd","k":6,"engine":"hybrid"}"#),
        &bins,
    );
    assert_eq!(exact.get("outcome").and_then(Json::as_str), Some("success"));
    assert_eq!(
        hybrid.get("outcome").and_then(Json::as_str),
        Some("success")
    );
    assert!(metric(&exact, "hybrid_solves") == 0, "{}", exact.render());
    assert!(metric(&exact, "sparse_solves") > 0, "{}", exact.render());
    assert!(metric(&hybrid, "hybrid_solves") > 0, "{}", hybrid.render());
}

/// `workers: 2` runs the cluster path: spawned `cq-serve` workers, the
/// cluster summary's `resubmitted` counter in the metrics.
#[test]
fn cluster_tasks_run_over_spawned_workers() {
    let row = run_task(
        &task(r#"{"task_id":"w2","family":"random","n":4,"seed":1,"workers":2}"#),
        &bins(),
    );
    validate_result(&row).unwrap();
    assert_eq!(
        row.get("outcome").and_then(Json::as_str),
        Some("success"),
        "{}",
        row.render()
    );
    assert_eq!(metric(&row, "queries"), 4);
    assert_eq!(metric(&row, "resubmitted"), 0, "{}", row.render());
}

/// Single-task CLI mode: the result file is always written and the exit
/// code is 0 — the row's `outcome` carries the verdict.
#[test]
fn run_input_output_contract() {
    let dir = tmp("single");
    let task_file = dir.join("task.json");
    let result_file = dir.join("result.json");
    std::fs::write(
        &task_file,
        "{\"task_id\":\"t\",\"family\":\"cycle\",\"k\":4}\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["run", "--input"])
        .arg(&task_file)
        .arg("--output")
        .arg(&result_file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let row = Json::parse(&std::fs::read_to_string(&result_file).unwrap()).unwrap();
    validate_result(&row).unwrap();
    assert_eq!(row.get("outcome").and_then(Json::as_str), Some("success"));

    // A malformed task is a harness error (exit 1), not a result row.
    std::fs::write(&task_file, "{\"task_id\":\"t\",\"family\":\"nope\"}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["run", "--input"])
        .arg(&task_file)
        .arg("--output")
        .arg(dir.join("r2.json"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown family"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batch + report, end to end: two engine variants of one workload
/// merge into a single trajectory row with `exact_secs`/`hybrid_secs`;
/// re-reporting the same results against the first report's output is
/// the all-1.00x self-comparison with a passing gate; and the emitted
/// file re-loads into the identical trajectory (the round-trip the
/// committed `BENCH_*.json` files rely on).
#[test]
fn report_round_trips_and_gates() {
    let dir = tmp("report");
    let tasks_file = dir.join("tasks.jsonl");
    std::fs::write(
        &tasks_file,
        "{\"task_id\":\"tri-exact\",\"family\":\"iso-triangle\",\"n\":3,\"engine\":\"exact\"}\n\
         {\"task_id\":\"tri-hybrid\",\"family\":\"iso-triangle\",\"n\":3,\"engine\":\"hybrid\"}\n",
    )
    .unwrap();
    let results = dir.join("results");
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["run", "--tasks"])
        .arg(&tasks_file)
        .arg("--out-dir")
        .arg(&results)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bench1 = dir.join("BENCH_first.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["report", "--results"])
        .arg(&results)
        .arg("--output")
        .arg(&bench1)
        .args(["--date", "2026-08-08"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = cq_lab::Trajectory::load(&std::fs::read_to_string(&bench1).unwrap()).unwrap();
    assert_eq!(first.runs.len(), 1, "engine variants merge into one row");
    let run = &first.runs[0];
    assert!(run.get("exact_secs").is_some(), "{}", run.render());
    assert!(run.get("hybrid_secs").is_some(), "{}", run.render());
    assert!(run.get("speedup").is_some(), "{}", run.render());

    // Same results, now compared against the first report's output.
    let bench2 = dir.join("BENCH_second.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["report", "--results"])
        .arg(&results)
        .arg("--output")
        .arg(&bench2)
        .args(["--date", "2026-08-08", "--baseline"])
        .arg(&bench1)
        .args(["--threshold", "1.5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "self-comparison must pass the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("(1.00x)"), "{table}");
    assert!(
        table.contains("rows: 1 matched, 0 only-current, 0 only-baseline"),
        "{table}"
    );
    assert!(table.contains("regression gate: pass"), "{table}");
    let second = cq_lab::Trajectory::load(&std::fs::read_to_string(&bench2).unwrap()).unwrap();
    assert_eq!(first.runs, second.runs, "same rows -> same trajectory");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Comparing against the committed PR 6 record works through the CLI:
/// disjoint row identities report as only-current/only-baseline, and
/// with no matched timing rows the gate passes.
#[test]
fn report_against_the_committed_record() {
    let dir = tmp("committed");
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    let row = run_task(&task(r#"{"task_id":"c4","family":"cycle","k":4}"#), &bins());
    std::fs::write(results.join("c4.json"), format!("{}\n", row.render())).unwrap();
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_2026-08-07.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cq-lab"))
        .args(["report", "--results"])
        .arg(&results)
        .arg("--output")
        .arg(dir.join("BENCH_now.json"))
        .args([
            "--date",
            "2026-08-08",
            "--baseline",
            baseline,
            "--threshold",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("rows: 0 matched, 1 only-current, 5 only-baseline"),
        "{table}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
