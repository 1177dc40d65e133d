//! The traced run: replays the workload's first rounds in-process
//! through each layer's public functions, with a span around every call.
//!
//! A pass replays the fixed input list from fresh state (new cache, new
//! workers, the same warm-up), so two passes do identical work. Each
//! round of the run makes three passes:
//!
//! - **H**: every request through `ServeEngine::handle_line`, whole;
//! - **U**: the staged replay with the recorder off (untraced baseline);
//! - **T**: the staged replay with the recorder on.
//!
//! The staged replay calls the memoized `AnalysisSession` accessors in
//! dependency order, so each span holds only its own stage's work. Work
//! counts come from the passes, and every pass must produce the same
//! counts, or the run reports itself incorrect.

use crate::check::{check_report, check_response};
use crate::e2e::request_line;
use crate::server::{Server, Transport};
use crate::workload::{Request, Stream, Workload};
use crate::{median, quantile, Metric, Outcome};
use cq_cluster::{ClusterClient, PlanMode, ReportMerger, ShardPlanner, WorkerAddr};
use cq_engine::{AnalysisSession, Json, LpCache, ReportOptions, ServeEngine, WitnessReport};
use cq_hypergraph::canonical_key;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: name, request, parent, start and end.
struct SpanRec {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory; a disabled recorder records nothing.
struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    request: usize,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        if self.enabled {
            self.spans[id].name = name;
        }
    }

    /// Self time per span name: duration minus the children's durations.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - children;
        }
        totals
    }

    fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("name".to_owned(), Json::str(span.name)),
                ("request".to_owned(), Json::int(span.request)),
                ("span".to_owned(), Json::int(id)),
                ("parent".to_owned(), Json::opt(span.parent, Json::int)),
                ("start_ns".to_owned(), Json::Int(span.start_ns as i64)),
                ("end_ns".to_owned(), Json::Int(span.end_ns as i64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Work counts of one pass. Every count is a pure function of the
/// inputs, so all passes of a run, and all runs with one seed, agree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The staged replay of one `analyze` request: the report JSON, and the
/// time spent in the extra `canonical_key` call.
fn staged(
    rec: &mut Recorder,
    req: &Request,
    cache: &Arc<LpCache>,
    counts: &mut Counts,
) -> Result<(String, Duration), String> {
    let root = rec.enter("request");

    let s = rec.enter("parse");
    let session = AnalysisSession::parse(req.name.as_str(), &req.text)
        .map_err(|e| e.to_string())?
        .with_cache(Arc::clone(cache));
    rec.exit(s);

    // Canonicalization on its own, as the shard planner and the cache
    // key do it. The program does not make this call here, so its time
    // is reported apart and left out of the replay's wall time.
    let s = rec.enter("cache.canonical");
    let canonical_start = Instant::now();
    let query = session.query();
    black_box(canonical_key(&query.hypergraph(), &query.head_var_set()));
    let canonical = canonical_start.elapsed();
    rec.exit(s);

    let s = rec.enter("session.chase");
    black_box(session.chase_result());
    rec.exit(s);

    let s = rec.enter("session.fd_removal");
    black_box(session.removal_trace());
    rec.exit(s);

    // The coloring LP stage, named after the fact by what the cache did.
    let s = rec.enter("session.coloring_lp");
    let before = session.stats();
    black_box(session.size_bound());
    let after = session.stats();
    if after.cache_hits > before.cache_hits {
        rec.rename(s, "cache.hit");
    } else if after.cache_misses > before.cache_misses {
        rec.rename(s, "cache.miss");
    }
    rec.exit(s);

    let s = rec.enter("session.treewidth");
    black_box(session.treewidth_preservation());
    rec.exit(s);

    let s = rec.enter("session.decision");
    black_box(session.size_increase());
    rec.exit(s);

    let s = rec.enter("session.hypertree");
    let widths = *session.query_widths();
    rec.exit(s);

    // The entropy LPs run only where the report consults them.
    if !session.simple_fds() {
        let s = rec.enter("session.entropy_color");
        black_box(session.entropy_color_number());
        rec.exit(s);
        let s = rec.enter("session.entropy_bound");
        black_box(session.entropy_exponent());
        rec.exit(s);
    }

    // `witness_check` split into its two halves: building the Prop 4.5
    // database and evaluating the query on it.
    let witness = match (req.witness, session.size_bound()) {
        (Some(m), Some(bound)) => {
            let s = rec.enter("witness.build");
            let db = cq_core::worst_case_database(&bound.query, &bound.coloring, m);
            rec.exit(s);
            let s = rec.enter("witness.eval");
            let check = cq_core::check_size_bound(&bound.query, &db, &bound.exponent);
            rec.exit(s);
            counts.add(
                "witness.db_tuples",
                db.relations().map(|r| r.len() as u64).sum(),
            );
            counts.add("witness.output_tuples", check.measured as u64);
            Some(WitnessReport {
                m,
                rmax: check.rmax,
                measured: check.measured,
                bound_approx: check.bound_approx,
                holds: check.holds,
            })
        }
        _ => None,
    };

    let s = rec.enter("report.build");
    let mut report = session.report(&ReportOptions {
        witness_m: None,
        database: None,
    });
    report.witness = witness;
    rec.exit(s);

    let s = rec.enter("report.serialize");
    let json = report.to_json_string();
    rec.exit(s);
    rec.exit(root);

    let stats = session.stats();
    counts.add("lp.pivots", stats.lp_pivots as u64);
    counts.add("lp.dense_solves", stats.lp_dense_solves as u64);
    counts.add("lp.sparse_solves", stats.lp_sparse_solves as u64);
    counts.add("lp.hybrid_solves", stats.lp_hybrid_solves as u64);
    counts.add("lp.float_pivots", stats.lp_float_pivots as u64);
    counts.add("lp.float_verified", stats.lp_float_verified as u64);
    counts.add("lp.exact_fallbacks", stats.lp_exact_fallbacks as u64);
    counts.add(
        if widths.hypertree_exact {
            "widths.exact"
        } else {
            "widths.heuristic"
        },
        1,
    );
    counts.add("response_bytes", json.len() as u64);
    Ok((json, canonical))
}

/// What one pass produced.
struct Pass {
    /// Wall time per query of the measured path, in ns.
    per_query_ns: Vec<u64>,
    self_ns: BTreeMap<&'static str, u64>,
    counts: Counts,
    mismatches: Vec<String>,
    recorder: Recorder,
}

fn batch_line(id: usize, batch: &[Request]) -> String {
    let queries = batch
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".to_owned(), Json::str(&r.name)),
                ("query".to_owned(), Json::str(&r.text)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("id".to_owned(), Json::int(id)),
        ("cmd".to_owned(), Json::str("batch")),
        ("queries".to_owned(), Json::Arr(queries)),
    ])
    .render()
}

/// Pass H: each unit through `ServeEngine::handle_line` on a fresh
/// engine (one worker thread, as the daemons run).
fn pass_handle_line(units: &[Vec<Request>], warmup: &[Request], cluster: bool) -> Pass {
    let engine = ServeEngine::new().with_workers(1);
    let mut mismatches = Vec::new();
    if cluster {
        engine.handle_line(&batch_line(0, warmup));
    } else {
        for (id, req) in warmup.iter().enumerate() {
            engine.handle_line(request_line(id, req).trim_end());
        }
    }
    let mut rec = Recorder::new(true);
    let mut per_query_ns = Vec::new();
    for (id, unit) in units.iter().enumerate() {
        rec.request = id;
        let line = if cluster {
            batch_line(id, unit)
        } else {
            request_line(id, &unit[0]).trim_end().to_owned()
        };
        let s = rec.enter("serve.handle_line");
        let start = Instant::now();
        let response = engine.handle_line(&line);
        let ns = start.elapsed().as_nanos() as u64;
        rec.exit(s);
        per_query_ns.extend(std::iter::repeat_n(ns / unit.len() as u64, unit.len()));
        if cluster {
            let reports = Json::parse(&response)
                .ok()
                .and_then(|r| {
                    r.get("reports")
                        .and_then(Json::as_array)
                        .map(<[Json]>::to_vec)
                })
                .unwrap_or_default();
            if reports.len() != unit.len() {
                mismatches.push(format!("batch {id}: {} reports", reports.len()));
            }
            for (report, req) in reports.iter().zip(unit) {
                if let Err(e) = check_report(report, req) {
                    mismatches.push(e);
                }
            }
        } else if let Err(e) = check_response(&response, id, &unit[0]) {
            mismatches.push(e);
        }
    }
    Pass {
        per_query_ns,
        self_ns: rec.self_ns(),
        counts: Counts::default(),
        mismatches,
        recorder: rec,
    }
}

/// Passes U and T: the staged replay, plus on cluster-cold the cluster
/// client's plan / run / merge around each batch.
fn pass_staged(
    workload: Workload,
    units: &[Vec<Request>],
    warmup: &[Request],
    serve_bin: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let cache = Arc::new(LpCache::new());
    let mut warm_counts = Counts::default();
    let mut silent = Recorder::new(false);
    for req in warmup {
        staged(&mut silent, req, &cache, &mut warm_counts)?;
    }
    let cache_before = cache.stats();

    let cluster = if workload == Workload::ClusterCold {
        let servers = (0..2)
            .map(|_| {
                Server::spawn(serve_bin, Transport::Tcp).map_err(|e| format!("spawn cq-serve: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let client = ClusterClient::new(
            servers
                .iter()
                .map(|s| WorkerAddr::Tcp(s.addr().to_owned()))
                .collect(),
        );
        let warm: Vec<(String, String)> = warmup
            .iter()
            .map(|r| (r.name.clone(), r.text.clone()))
            .collect();
        client
            .run(&warm)
            .map_err(|e| format!("warm-up batch: {e}"))?;
        Some((servers, client))
    } else {
        None
    };

    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();
    let mut mismatches = Vec::new();
    let mut per_query_ns = Vec::new();
    let mut worker_completed: Vec<u64> = vec![0; 2];
    for (id, unit) in units.iter().enumerate() {
        rec.request = id;
        if let Some((_, client)) = &cluster {
            let inputs: Vec<(String, String)> = unit
                .iter()
                .map(|r| (r.name.clone(), r.text.clone()))
                .collect();
            let s = rec.enter("cluster.plan");
            black_box(ShardPlanner::new(PlanMode::ByCanonicalKey, 2).plan(&inputs));
            rec.exit(s);
            let s = rec.enter("cluster.run");
            let run = client
                .run(&inputs)
                .map_err(|e| format!("batch {id}: {e}"))?;
            rec.exit(s);
            let s = rec.enter("cluster.merge");
            let mut merger = ReportMerger::new(run.reports.len());
            for (i, report) in run.reports.iter().enumerate() {
                merger.insert(i, report.clone());
            }
            let reports = merger.into_reports();
            rec.exit(s);
            for (report, req) in reports.iter().zip(unit) {
                if let Err(e) = check_report(report, req) {
                    mismatches.push(e);
                }
            }
            counts.add("cluster.resubmitted", run.resubmitted as u64);
            for (w, summary) in run.workers.iter().enumerate() {
                worker_completed[w] += summary.completed as u64;
            }
        }
        for req in unit {
            let start = Instant::now();
            let (json, canonical) = staged(&mut rec, req, &cache, &mut counts)?;
            per_query_ns.push(start.elapsed().saturating_sub(canonical).as_nanos() as u64);
            let report = Json::parse(&json).map_err(|e| e.to_string())?;
            if let Err(e) = check_report(&report, req) {
                mismatches.push(e);
            }
        }
    }
    if let Some((servers, _)) = cluster {
        for server in servers {
            server.stop();
        }
        let busiest = worker_completed.iter().copied().max().unwrap_or(0);
        counts.add("cluster.busiest_worker_queries", busiest);
    }
    let cache_after = cache.stats();
    counts.add("cache.hits", cache_after.hits - cache_before.hits);
    counts.add("cache.misses", cache_after.misses - cache_before.misses);
    counts.add(
        "cache.evictions",
        cache_after.evictions - cache_before.evictions,
    );
    Ok(Pass {
        per_query_ns,
        self_ns: rec.self_ns(),
        counts,
        mismatches,
        recorder: rec,
    })
}

/// Span names whose mean self time per query is reported as `<name>_us`.
const STAGES: [&str; 18] = [
    "parse",
    "cache.canonical",
    "session.chase",
    "session.fd_removal",
    "cache.hit",
    "cache.miss",
    "session.treewidth",
    "session.decision",
    "session.hypertree",
    "session.entropy_color",
    "session.entropy_bound",
    "witness.build",
    "witness.eval",
    "report.build",
    "report.serialize",
    "cluster.plan",
    "cluster.run",
    "cluster.merge",
];

/// Counts reported as they are, per pass.
const COUNTS: [&str; 15] = [
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "lp.pivots",
    "lp.dense_solves",
    "lp.sparse_solves",
    "lp.hybrid_solves",
    "lp.float_pivots",
    "lp.float_verified",
    "lp.exact_fallbacks",
    "widths.exact",
    "widths.heuristic",
    "witness.db_tuples",
    "witness.output_tuples",
    "response_bytes",
];

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    serve_bin: &Path,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let warmup = Stream::warmup(workload, seed);
    let mut stream = Stream::new(workload, seed);
    let cluster = workload == Workload::ClusterCold;
    let units: Vec<Vec<Request>> = (0..workload.traced_rounds())
        .flat_map(|_| {
            let round = stream.next_round();
            if cluster {
                vec![round]
            } else {
                round.into_iter().map(|r| vec![r]).collect()
            }
        })
        .collect();
    let queries: usize = units.iter().map(Vec::len).sum();

    let start = Instant::now();
    let mut handle_passes = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < 2 || start.elapsed().as_secs() < seconds {
        handle_passes.push(pass_handle_line(&units, &warmup, cluster));
        untraced.push(pass_staged(workload, &units, &warmup, serve_bin, false)?);
        traced.push(pass_staged(workload, &units, &warmup, serve_bin, true)?);
    }

    let reference = traced[0].counts.clone();
    let deterministic = traced
        .iter()
        .chain(&untraced)
        .all(|pass| pass.counts == reference);
    if !deterministic {
        eprintln!("perfbench: work counts differ between passes of one input list");
        for pass in traced.iter().chain(&untraced) {
            eprintln!("perfbench:   {:?}", pass.counts);
        }
    }
    let mut mismatches: Vec<&String> = Vec::new();
    for pass in handle_passes.iter().chain(&untraced).chain(&traced) {
        mismatches.extend(&pass.mismatches);
    }
    for e in mismatches.iter().take(5) {
        eprintln!("perfbench: mismatch: {e}");
    }

    let per_query_us = |pass: &Pass, name: &str| -> f64 {
        pass.self_ns.get(name).copied().unwrap_or(0) as f64 / queries as f64 / 1e3
    };
    let median_over = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let mean_us = |pass: &Pass| -> f64 {
        pass.per_query_ns.iter().sum::<u64>() as f64 / queries as f64 / 1e3
    };
    let p50_us = |pass: &Pass| -> f64 {
        let v: Vec<f64> = pass
            .per_query_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        quantile(&v, 0.5)
    };

    let mut metrics = Vec::new();
    let handle_us = median_over(&handle_passes, &mean_us);
    let staged_us = median_over(&untraced, &mean_us);
    metrics.push(Metric::new(
        "serve.overhead_us",
        handle_us - staged_us,
        "us",
    ));
    for name in STAGES {
        metrics.push(Metric::new(
            format!("{name}_us"),
            median_over(&traced, &|p| per_query_us(p, name)),
            "us",
        ));
    }
    // The whole coloring-LP stage: cache lookup and, on a miss, the
    // solve; cache.hit_us and cache.miss_us split it by outcome.
    let lp_us = median_over(&traced, &|p| {
        ["cache.hit", "cache.miss", "session.coloring_lp"]
            .iter()
            .map(|name| per_query_us(p, name))
            .sum()
    });
    metrics.push(Metric::new("session.coloring_lp_us", lp_us, "us"));
    for name in COUNTS {
        let unit = if name == "response_bytes" {
            "bytes"
        } else {
            "count"
        };
        metrics.push(Metric::new(name, reference.get(name) as f64, unit));
    }
    let lookups = reference.get("cache.hits") + reference.get("cache.misses");
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        reference.get("cache.hits") as f64 / lookups as f64
    };
    metrics.push(Metric::new("cache.hit_ratio", hit_ratio, "ratio"));
    metrics.push(Metric::new(
        "cluster.resubmitted",
        reference.get("cluster.resubmitted") as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "cluster.max_worker_share",
        reference.get("cluster.busiest_worker_queries") as f64 / queries as f64,
        "ratio",
    ));
    let overhead = (median_over(&traced, &p50_us) / median_over(&untraced, &p50_us) - 1.0) * 100.0;
    metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));

    let last = traced.last().expect("at least two traced passes");
    if let Err(e) = last.recorder.write_ndjson(spans_out) {
        eprintln!("perfbench: could not write {}: {e}", spans_out.display());
    }

    let passes = handle_passes.len() + untraced.len() + traced.len();
    let attempted = passes * queries;
    Ok(Outcome {
        correct: deterministic && mismatches.is_empty(),
        attempted,
        failed: mismatches.len(),
        metrics,
    })
}
