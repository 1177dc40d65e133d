//! The harness: one task in, one `{outcome, objective, metrics}` row
//! out.
//!
//! The harness measures the **real binaries**, not library shortcuts:
//! a task's workload is written to disk and fed to `cq-analyze --json`
//! (workers = 1) or to `cq-cluster --json` over freshly spawned
//! `cq-serve --tcp` workers (workers ≥ 2, via
//! [`cq_cluster::ServeChild`]). The variant plan is applied at the
//! invocation layer only — `CQ_LP_ENGINE` in the child environment for
//! the engine, `--no-cache` for the cache, the worker count for the
//! topology — so a result row reflects exactly what an operator running
//! the same command line would observe.
//!
//! Every run produces a row, even when the child misbehaves: harness
//! infrastructure problems become `outcome: "error"` rows (with an
//! `error` message), child-reported input failures become
//! `outcome: "failure"`, and only a clean exit with all reports parsed
//! is `outcome: "success"`.

use crate::task::Task;
use cq_cluster::{ServeChild, SolverTotals};
use cq_engine::json::obj;
use cq_engine::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Paths to the three binaries the harness drives.
#[derive(Clone, Debug)]
pub struct Binaries {
    pub analyze: PathBuf,
    pub serve: PathBuf,
    pub cluster: PathBuf,
}

impl Binaries {
    /// Expects `cq-analyze`, `cq-serve` and `cq-cluster` in `dir`.
    pub fn in_dir(dir: &Path) -> io::Result<Binaries> {
        let find = |name: &str| -> io::Result<PathBuf> {
            let path = dir.join(name);
            if path.exists() {
                Ok(path)
            } else {
                Err(io::Error::other(format!(
                    "{name} not found in {} (build the workspace first)",
                    dir.display()
                )))
            }
        };
        Ok(Binaries {
            analyze: find("cq-analyze")?,
            serve: find("cq-serve")?,
            cluster: find("cq-cluster")?,
        })
    }

    /// The default discovery: siblings of the running executable
    /// (`cq-lab` lives in the same target directory as the binaries it
    /// drives).
    pub fn discover() -> io::Result<Binaries> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .ok_or_else(|| io::Error::other("cannot resolve the executable's directory"))?;
        Binaries::in_dir(dir)
    }
}

/// Runs one task end to end and returns its result row. Infallible by
/// contract: anything that goes wrong is encoded in the row's
/// `outcome` / `error` fields rather than thrown at the caller.
pub fn run_task(task: &Task, bins: &Binaries) -> Json {
    run_task_traced(task, bins, None)
}

/// [`run_task`] with explicit control over where the task's trace
/// files land. When the harness itself is traced (`CQ_TRACE` set, or
/// `--trace`), every child is traced too: the analyze/cluster child
/// writes `<dir>/<task_id>.trace.ndjson` and each spawned `cq-serve`
/// worker `<that>.w<i>` — the cluster scatter convention, so
/// `cq-trace assemble` consumes them as-is. The files are assembled
/// after the run and the row gains a top-level `phases` object
/// (per-phase `total_micros` / `self_micros`). With `trace_dir: None`
/// the files live in the task's scratch dir (gone after the run, the
/// `phases` already extracted); pass a directory to keep them.
pub fn run_task_traced(task: &Task, bins: &Binaries, trace_dir: Option<&Path>) -> Json {
    match try_run(task, bins, trace_dir) {
        Ok(row) => row,
        Err(message) => obj([
            ("task_id", Json::str(&task.id)),
            ("outcome", Json::str("error")),
            ("task", task.identity_json()),
            ("error", Json::str(message)),
        ]),
    }
}

fn try_run(task: &Task, bins: &Binaries, trace_dir: Option<&Path>) -> Result<Json, String> {
    let programs = task.family.materialize();
    let dir = Workdir::create(&task.id)?;
    let mut paths: Vec<String> = Vec::with_capacity(programs.len());
    for (name, text) in &programs {
        let path = dir.path.join(format!("{name}.cq"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {name}.cq: {e}"))?;
        paths.push(path.to_string_lossy().into_owned());
    }

    // Trace children only when the harness itself is traced; per-task
    // files follow the cluster scatter convention (client file plus
    // `.w<i>` per worker) so `cq-trace assemble` takes them as-is.
    let traced = std::env::var_os("CQ_TRACE").is_some() || cq_telemetry::tracing_enabled();
    let trace_base: Option<PathBuf> = traced.then(|| {
        trace_dir
            .unwrap_or(&dir.path)
            .join(format!("{}.trace.ndjson", task.id))
    });
    let worker_traces: Vec<String> = (0..task.workers)
        .map(|i| {
            trace_base
                .as_ref()
                .map(|base| format!("{}.w{i}", base.display()))
                .unwrap_or_default()
        })
        .collect();

    // Spawned cq-serve workers (workers >= 2) carry the variant plan
    // themselves: the engine env var and --no-cache apply where the
    // LPs are actually solved.
    let env = ("CQ_LP_ENGINE", task.engine.env_value());
    let mut workers: Vec<ServeChild> = Vec::new();
    if task.workers >= 2 {
        let extra: &[&str] = if task.cache { &[] } else { &["--no-cache"] };
        for worker_trace in worker_traces.iter().take(task.workers) {
            let mut child_env: Vec<(&str, Option<&str>)> = vec![env];
            if trace_base.is_some() {
                child_env.push(("CQ_TRACE", Some(worker_trace)));
            }
            workers.push(
                ServeChild::spawn_with_env(&bins.serve, extra, &child_env)
                    .map_err(|e| format!("cannot spawn cq-serve worker: {e}"))?,
            );
        }
    }

    let mut command = if task.workers >= 2 {
        let mut c = Command::new(&bins.cluster);
        for worker in &workers {
            c.arg("--worker").arg(worker.addr().to_string());
        }
        c
    } else {
        let mut c = Command::new(&bins.analyze);
        if !task.cache {
            c.arg("--no-cache");
        }
        c
    };
    command.args(&paths).arg("--json");
    match env.1 {
        Some(value) => command.env(env.0, value),
        None => command.env_remove(env.0),
    };
    match &trace_base {
        // The child writes its own per-task file — never the harness's
        // shared sink path, which several tasks would interleave.
        Some(base) => command.env("CQ_TRACE", base),
        None => command.env_remove("CQ_TRACE"),
    };

    let start = Instant::now();
    let output = command
        .output()
        .map_err(|e| format!("cannot run {:?}: {e}", command.get_program()))?;
    let wall_secs = start.elapsed().as_secs_f64();
    for mut worker in workers {
        worker.kill();
    }

    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if lines.is_empty() {
        return Err(format!(
            "child produced no output (stderr: {})",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut parsed: Vec<Json> = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        parsed.push(
            Json::parse(line)
                .map_err(|e| format!("stdout line {} is not JSON ({e}): {line}", i + 1))?,
        );
    }
    let summary = parsed.pop().expect("nonempty");
    let cache_stats = summary
        .get("cache_stats")
        .ok_or("last stdout line is not the cache_stats summary")?
        .clone();
    let reports = parsed;
    if reports.len() != programs.len() {
        return Err(format!(
            "expected {} report lines, got {}",
            programs.len(),
            reports.len()
        ));
    }

    let parse_errors = reports.iter().filter(|r| r.get("error").is_some()).count();
    let solver = SolverTotals::from_reports(&reports);
    let cache_field =
        |name: &str| -> usize { cache_stats.get(name).and_then(Json::as_usize).unwrap_or(0) };

    let mut metrics: Vec<(String, Json)> = vec![
        ("queries".to_owned(), Json::int(reports.len())),
        ("parse_errors".to_owned(), Json::int(parse_errors)),
        ("wall_secs".to_owned(), Json::Float(round3(wall_secs))),
        ("cache_hits".to_owned(), Json::int(cache_field("hits"))),
        ("cache_misses".to_owned(), Json::int(cache_field("misses"))),
        (
            "cache_entries".to_owned(),
            Json::int(cache_field("entries")),
        ),
        (
            "cache_evictions".to_owned(),
            Json::int(cache_field("evictions")),
        ),
        ("pivots".to_owned(), Json::int(solver.pivots as usize)),
        (
            "refactorizations".to_owned(),
            Json::int(solver.refactorizations as usize),
        ),
        (
            "sparse_solves".to_owned(),
            Json::int(solver.sparse_solves as usize),
        ),
        (
            "hybrid_solves".to_owned(),
            Json::int(solver.hybrid_solves as usize),
        ),
        (
            "float_pivots".to_owned(),
            Json::int(solver.float_pivots as usize),
        ),
        (
            "float_verified".to_owned(),
            Json::int(solver.float_verified as usize),
        ),
        (
            "exact_fallbacks".to_owned(),
            Json::int(solver.exact_fallbacks as usize),
        ),
    ];
    if task.workers >= 2 {
        let resubmitted = summary
            .get("cluster")
            .and_then(|c| c.get("resubmitted"))
            .and_then(Json::as_usize)
            .unwrap_or(0);
        metrics.push(("resubmitted".to_owned(), Json::int(resubmitted)));
    }

    let outcome = if !output.status.success() || parse_errors > 0 {
        "failure"
    } else {
        "success"
    };
    let mut row: Vec<(String, Json)> = vec![
        ("task_id".to_owned(), Json::str(&task.id)),
        ("outcome".to_owned(), Json::str(outcome)),
        (
            "objective".to_owned(),
            obj([
                ("name", Json::str("wall_secs")),
                ("value", Json::Float(round3(wall_secs))),
            ]),
        ),
        ("task".to_owned(), task.identity_json()),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ];
    if let Some(phases) = phases_from_traces(trace_base.as_deref(), task.workers) {
        row.push(("phases".to_owned(), phases));
    }
    Ok(Json::Obj(row))
}

/// Assembles the task's trace files (client plus `.w<i>` scatter) into
/// a per-phase `{name: {total_micros, self_micros}}` object. Best
/// effort on purpose: tracing problems must never fail a measurement,
/// so missing files or ingestion errors yield `None`, not an error
/// row (record-level damage is already only warnings inside
/// `cq_trace`).
fn phases_from_traces(trace_base: Option<&Path>, workers: usize) -> Option<Json> {
    let base = trace_base?;
    let mut files: Vec<PathBuf> = vec![base.to_path_buf()];
    files.extend((0..workers).map(|i| PathBuf::from(format!("{}.w{i}", base.display()))));
    files.retain(|p| p.exists());
    let assembly = cq_trace::assemble(cq_trace::ingest_files(&files).ok()?);
    let fields: Vec<(String, Json)> = assembly
        .phases
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                obj([
                    ("total_micros", Json::int(p.total_micros as usize)),
                    ("self_micros", Json::int(p.self_micros as usize)),
                ]),
            )
        })
        .collect();
    if fields.is_empty() {
        None
    } else {
        Some(Json::Obj(fields))
    }
}

/// Timing rounded the way the committed trajectory files record it.
pub fn round3(secs: f64) -> f64 {
    (secs * 1000.0).round() / 1000.0
}

/// Validates a result row against the harness contract. Used by
/// `cq-lab report` (and the CI smoke job through it) so a drifted row
/// schema fails loudly instead of aggregating into nonsense.
pub fn validate_result(row: &Json) -> Result<(), String> {
    let Json::Obj(_) = row else {
        return Err("a result row must be a JSON object".into());
    };
    row.get("task_id")
        .and_then(Json::as_str)
        .ok_or("result row needs a \"task_id\" string")?;
    let outcome = row
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or("result row needs an \"outcome\" string")?;
    if !matches!(outcome, "success" | "failure" | "error") {
        return Err(format!(
            "outcome must be \"success\", \"failure\" or \"error\", got {outcome:?}"
        ));
    }
    match row.get("objective") {
        None => {
            if outcome != "error" {
                return Err(format!("a {outcome:?} row needs an \"objective\"",));
            }
        }
        Some(objective) => {
            objective
                .get("name")
                .and_then(Json::as_str)
                .ok_or("objective needs a \"name\" string")?;
            match objective.get("value") {
                Some(Json::Int(_)) | Some(Json::Float(_)) => {}
                _ => return Err("objective needs a numeric \"value\"".into()),
            }
        }
    }
    if let Some(metrics) = row.get("metrics") {
        let Json::Obj(fields) = metrics else {
            return Err("\"metrics\" must be an object".into());
        };
        for (key, value) in fields {
            match value {
                Json::Int(_) | Json::Float(_) | Json::Bool(_) => {}
                _ => {
                    return Err(format!(
                        "metric {key:?} must be a number or boolean, got {}",
                        value.render()
                    ))
                }
            }
        }
    }
    if let Some(phases) = row.get("phases") {
        let Json::Obj(entries) = phases else {
            return Err("\"phases\" must be an object".into());
        };
        for (name, stat) in entries {
            let Json::Obj(fields) = stat else {
                return Err(format!("phase {name:?} must be an object"));
            };
            for (key, value) in fields {
                match value {
                    Json::Int(_) | Json::Float(_) => {}
                    _ => {
                        return Err(format!(
                            "phase {name:?} field {key:?} must be a number, got {}",
                            value.render()
                        ))
                    }
                }
            }
        }
    }
    match row.get("task") {
        Some(Json::Obj(_)) => Ok(()),
        Some(_) => Err("\"task\" must be an object".into()),
        None => Err("result row needs its \"task\" identity echo".into()),
    }
}

/// A per-task scratch directory under the system temp dir; removed on
/// drop (best effort — a crashed harness leaves it for inspection).
struct Workdir {
    path: PathBuf,
}

impl Workdir {
    fn create(task_id: &str) -> Result<Workdir, String> {
        let path = std::env::temp_dir().join(format!("cq-lab-{}-{task_id}", std::process::id()));
        // A stale directory from a previous crashed run with the same
        // pid is indistinguishable from concurrent reuse; replace it.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create workdir {}: {e}", path.display()))?;
        Ok(Workdir { path })
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_the_contract_shapes() {
        let ok = Json::parse(
            r#"{"task_id":"t","outcome":"success",
                "objective":{"name":"wall_secs","value":1.5},
                "task":{"family":"cycle","k":4},
                "metrics":{"queries":1,"wall_secs":1.5}}"#,
        )
        .unwrap();
        validate_result(&ok).unwrap();
        let error_row = Json::parse(
            r#"{"task_id":"t","outcome":"error","task":{"family":"cycle","k":4},
                "error":"spawn failed"}"#,
        )
        .unwrap();
        validate_result(&error_row).unwrap();
        let traced = Json::parse(
            r#"{"task_id":"t","outcome":"success",
                "objective":{"name":"wall_secs","value":1.5},
                "task":{"family":"cycle","k":4},
                "metrics":{"queries":1},
                "phases":{"serve.execute":{"total_micros":900,"self_micros":120}}}"#,
        )
        .unwrap();
        validate_result(&traced).unwrap();
    }

    #[test]
    fn validate_rejects_contract_violations() {
        for (bad, want) in [
            (r#"{"outcome":"success"}"#, "task_id"),
            (r#"{"task_id":"t"}"#, "outcome"),
            (
                r#"{"task_id":"t","outcome":"ok","task":{}}"#,
                "outcome must be",
            ),
            (
                r#"{"task_id":"t","outcome":"success","task":{}}"#,
                "objective",
            ),
            (
                r#"{"task_id":"t","outcome":"success",
                    "objective":{"name":"x","value":"fast"},"task":{}}"#,
                "numeric",
            ),
            (
                r#"{"task_id":"t","outcome":"success",
                    "objective":{"name":"x","value":1},
                    "metrics":{"notes":"hi"},"task":{}}"#,
                "metric",
            ),
            (
                r#"{"task_id":"t","outcome":"success",
                    "objective":{"name":"x","value":1}}"#,
                "task",
            ),
            (
                r#"{"task_id":"t","outcome":"success",
                    "objective":{"name":"x","value":1},
                    "phases":{"serve.execute":7},"task":{}}"#,
                "phase",
            ),
            (
                r#"{"task_id":"t","outcome":"success",
                    "objective":{"name":"x","value":1},
                    "phases":{"serve.execute":{"total_micros":"fast"}},"task":{}}"#,
                "number",
            ),
        ] {
            let err = validate_result(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(want), "{bad}: {err}");
        }
    }

    #[test]
    fn round3_rounds_to_milliseconds() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(round3(0.0004), 0.0);
    }
}
