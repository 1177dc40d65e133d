//! The cross-query LP cache on isomorphic-heavy workloads: the
//! canonical-key cache vs cold re-solving, plus the canonicalization
//! overhead in isolation.
//!
//! The headline comparison analyzes a 100-query workload of permuted
//! copies drawn from a handful of structural templates — the
//! batch/serving common case, where application queries come from
//! templates and differ only in naming. The cached run pays one LP
//! solve plus 99 canonicalizations; the uncached run pays 100 solves.

use cq_bench::{cycle_query, isomorphic_workload, random_query, Workload};
use cq_engine::{AnalysisSession, BatchAnalyzer, LpCache, ReportOptions};
use cq_hypergraph::canonical_key;
use cq_relation::FdSet;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

/// 100 queries: 20 permuted copies each of five templates — two
/// symmetric families with large fractional LPs and three asymmetric
/// template queries (the shape application-generated queries take).
fn workload_100() -> Workload {
    let mut bases: Workload = vec![
        ("cycle8".into(), cycle_query(8), FdSet::new()),
        ("cycle11".into(), cycle_query(11), FdSet::new()),
    ];
    for seed in [3u64, 11, 13] {
        bases.push((
            format!("template{seed}"),
            random_query(seed, 8, 7),
            FdSet::new(),
        ));
    }
    isomorphic_workload(0xcafe, &bases, 20)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_cache");
    g.sample_size(10);

    let workload = workload_100();
    assert_eq!(workload.len(), 100);

    // Baseline: every query re-solves its LPs from scratch.
    g.bench_function("batch100_isomorphic_uncached", |b| {
        b.iter(|| {
            BatchAnalyzer::with_threads(1)
                .analyze_queries(&workload, &ReportOptions::default())
                .len()
        })
    });

    // Cached: one fresh cache per run — the first copy of each template
    // misses, the other 19 hit.
    g.bench_function("batch100_isomorphic_cached", |b| {
        b.iter(|| {
            let cache = Arc::new(LpCache::new());
            let n = BatchAnalyzer::with_threads(1)
                .with_cache(Arc::clone(&cache))
                .analyze_queries(&workload, &ReportOptions::default())
                .len();
            let stats = cache.stats();
            assert!(
                stats.hits >= 90,
                "workload must be hit-dominated: {stats:?}"
            );
            n
        })
    });

    // Warm cache (the long-lived daemon case): every query hits.
    let warm = Arc::new(LpCache::new());
    BatchAnalyzer::with_threads(1)
        .with_cache(Arc::clone(&warm))
        .analyze_queries(&workload, &ReportOptions::default());
    g.bench_function("batch100_isomorphic_warm", |b| {
        b.iter(|| {
            BatchAnalyzer::with_threads(1)
                .with_cache(Arc::clone(&warm))
                .analyze_queries(&workload, &ReportOptions::default())
                .len()
        })
    });

    // Note: a warm-cache hit bypasses the solver *entirely* — zero
    // pivots, zero solves on any engine — it is not merely "a faster
    // solve". The session's solver counters prove it: a hit never
    // reaches the solver at all.
    {
        let (name, q, fds) = &workload[0];
        let session =
            AnalysisSession::from_parts(name, q.clone(), fds.clone()).with_cache(Arc::clone(&warm));
        session.size_bound();
        let stats = session.stats();
        assert!(stats.cache_hits >= 1, "warm cache must hit: {stats:?}");
        assert_eq!(
            stats.lp_sparse_solves + stats.lp_hybrid_solves,
            0,
            "a cache hit must bypass the solver entirely: {stats:?}"
        );
        assert_eq!(stats.lp_pivots, 0, "{stats:?}");
        println!("lp_cache/warm_hit_bypasses_solver: 0 solves, 0 pivots (verified)");
    }

    // The key computation in isolation: what a lookup costs before the
    // map is even consulted.
    let q = cycle_query(6);
    g.bench_function("canonical_key_cycle6", |b| {
        b.iter(|| canonical_key(&q.hypergraph(), &q.head_var_set()).hash)
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
