//! Scratch profiler for the hybrid engine on the 6.10 entropy family.
//!
//! The per-phase split comes from the telemetry layer: spans stream to
//! the NDJSON sink (stderr here, or wherever `CQ_TRACE` points) and the
//! always-on phase histograms summarize to count/sum/p50/p95/p99 per
//! phase.
use cq_bench::cycle_query;
use cq_core::build_color_number_entropy_lp;
use cq_lp::{solve_hybrid, PivotRule};
use cq_telemetry::Metrics;
use std::time::Instant;

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    if let Err(e) = cq_telemetry::init_tracing(true) {
        eprintln!("hybrid_profile: cannot open trace sink: {e}");
        return;
    }
    let lp = build_color_number_entropy_lp(&cycle_query(k), &[]);
    let t = Instant::now();
    let s = solve_hybrid(&lp, PivotRule::DantzigThenBland);
    eprintln!(
        "k={k} total {:?} verified={} fallbacks={} float_pivots={}",
        t.elapsed(),
        s.stats.float_verified,
        s.stats.exact_fallbacks,
        s.stats.float_pivots
    );
    // The phase histograms the spans fed: the old one-line profile,
    // now derived from the same data every production binary records.
    for (name, h) in Metrics::global().snapshot().histograms {
        if name.starts_with("cq_lp_") {
            eprintln!(
                "  {name}: count={} sum={} p50={} p95={} p99={}",
                h.count, h.sum, h.p50, h.p95, h.p99
            );
        }
    }
}
