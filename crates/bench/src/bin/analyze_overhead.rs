//! Acceptance bench: the cost of observed-statistics collection (the
//! EXPLAIN ANALYZE counters) on the E3b enrichment-dominated workload.
//!
//! Statistics collection is on by default — every plan node bumps
//! per-node counters (calls, rows, evidence, hits, wall time) into the
//! run's collector, and the engine folds each run into the view's
//! decayed profile. This bench runs the annotatorless quality process
//! twice per iteration, interleaved:
//!
//! * `baseline` — `set_stats_enabled(false)`: counters skipped entirely;
//! * `analyze`  — `set_stats_enabled(true)`: full collection + profile
//!   fold, exactly what `qv run --analyze` pays.
//!
//! The overhead statistic is the min-of-N wall-clock delta (scheduler
//! interference on a shared machine only ever adds time, so minima are
//! the most drift-resistant estimator); the per-iteration paired deltas
//! are reported as a cross-check. Writes `BENCH_analyze_overhead.json`;
//! the acceptance criterion is `overhead_pct <= 5`.
//!
//! ```sh
//! cargo run --release -p bench --bin analyze_overhead [n_items]
//! ```

use bench::results::{measure_ms, quantile, BenchResult};
use bench::{bench_view, seed_cache, synthetic_hits};
use qurator::prelude::*;

const ITERS: usize = 9;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let dataset = synthetic_hits(n);
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    seed_cache(&engine, &dataset);
    let mut spec = bench_view();
    spec.annotators.clear();

    // warm-up: populate instrument caches and the condition compiler
    engine.execute_view(&spec, &dataset).expect("warm-up run");

    // interleave the two variants so slow machine drift (noisy
    // containers) hits both sample sets equally
    let mut baseline = Vec::with_capacity(ITERS);
    let mut analyze = Vec::with_capacity(ITERS);
    let mut paired = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        engine.set_stats_enabled(false);
        let off = measure_ms(1, || {
            std::hint::black_box(engine.execute_view(&spec, &dataset).expect("baseline run"));
        });
        engine.set_stats_enabled(true);
        let on = measure_ms(1, || {
            std::hint::black_box(engine.execute_view(&spec, &dataset).expect("analyze run"));
        });
        if off[0] > 0.0 {
            paired.push((on[0] - off[0]) / off[0] * 100.0);
        }
        baseline.extend(off);
        analyze.extend(on);
    }
    let stats = engine.last_run_stats().expect("instrumented run records stats");
    assert_eq!(stats.items, n as u64, "stats cover every item");
    assert!(stats.nodes.values().any(|s| s.rows_out > 0), "no rows counted: {stats:?}");

    let base_med = quantile(&baseline, 0.5);
    let on_med = quantile(&analyze, 0.5);
    // minimum-of-N: on a shared machine interference only ever adds time,
    // so the minima are the closest observable to the true costs
    let base_min = baseline.iter().cloned().fold(f64::INFINITY, f64::min);
    let on_min = analyze.iter().cloned().fold(f64::INFINITY, f64::min);
    let overhead_pct = if base_min > 0.0 { (on_min - base_min) / base_min * 100.0 } else { 0.0 };
    let paired_median_pct = quantile(&paired, 0.5);

    println!("== observed-statistics overhead on the E3b enrichment workload ==\n");
    println!("items: {n} | iterations: {ITERS}");
    println!(
        "baseline (stats off): min {base_min:.3} ms, median {base_med:.3} ms, p95 {:.3} ms",
        quantile(&baseline, 0.95)
    );
    println!(
        "analyze  (stats on):  min {on_min:.3} ms, median {on_med:.3} ms, p95 {:.3} ms",
        quantile(&analyze, 0.95)
    );
    println!("overhead: {overhead_pct:+.2}% (min-of-N wall-clock delta; acceptance: <= 5%)");
    println!("paired-delta cross-check: {paired_median_pct:+.2}% (median of per-iteration deltas)");

    let result = BenchResult::new("analyze_overhead")
        .config("n_items", n)
        .config("iters", ITERS)
        .config("nproc", std::thread::available_parallelism().map_or(1, |p| p.get()))
        .config("workload", "cache-seeded quality process (E3b shape)")
        .metric("baseline_min_ms", base_min)
        .metric("baseline_median_ms", base_med)
        .metric("baseline_p95_ms", quantile(&baseline, 0.95))
        .metric("analyze_min_ms", on_min)
        .metric("analyze_median_ms", on_med)
        .metric("analyze_p95_ms", quantile(&analyze, 0.95))
        .metric("overhead_pct", overhead_pct)
        .metric("paired_median_pct", paired_median_pct)
        .samples_ms(analyze);
    let path = result.write().expect("bench artifact");
    println!("-> {}", path.display());
}
