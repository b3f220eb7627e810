//! Acceptance bench: the cost of the telemetry subsystem on the E3b
//! enrichment-dominated workload.
//!
//! The metrics registry and span recording are compiled in and always on
//! (sharded atomics + per-worker buffers); the toggleable component is the
//! per-item decision-provenance ledger. This bench runs the annotatorless
//! quality process (cache-seeded enrichment → z-score + classifier QA →
//! filter action — the §5/§6.2 E3b shape) twice:
//!
//! * `baseline`  — ledger disabled (passive telemetry only);
//! * `telemetry` — ledger enabled, recording evidence / assertion /
//!   action provenance for every item.
//!
//! The overhead statistic is the provenance phase's share of the
//! instrumented run, read from its own span — exact within a run, immune
//! to the cross-run drift that dominates wall-clock A/B deltas on shared
//! machines (reported separately as a cross-check). Writes
//! `BENCH_telemetry_overhead.json`; the acceptance criterion is
//! `overhead_pct < 5`.
//!
//! ```sh
//! cargo run --release -p bench --bin telemetry_overhead [n_items]
//! ```

use bench::results::{measure_ms, quantile, BenchResult};
use bench::{bench_view, seed_cache, synthetic_hits};
use qurator::prelude::*;

const ITERS: usize = 7;

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
    let mut telemetry = Vec::with_capacity(ITERS);
    let mut overheads = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        engine.set_provenance_enabled(false);
        baseline.extend(measure_ms(1, || {
            std::hint::black_box(engine.execute_view(&spec, &dataset).expect("baseline run"));
        }));
        engine.set_provenance_enabled(true);
        // clearing the previous round's traces is setup, not recording
        engine.ledger().clear();
        telemetry.extend(measure_ms(1, || {
            std::hint::black_box(engine.execute_view(&spec, &dataset).expect("telemetry run"));
        }));
        // the authoritative measurement: provenance recording has its own
        // span (`phase:provenance`), so its share of the view span is exact
        // within a single run — wall-clock A/B deltas on a shared container
        // drift more than the effect being measured
        let trace = engine.last_trace().expect("instrumented run records a trace");
        let view_ns =
            trace.roots().next().and_then(|s| s.duration_ns()).expect("closed view span") as f64;
        let prov_ns = trace
            .spans()
            .iter()
            .find(|s| s.name == "phase:provenance")
            .and_then(|s| s.duration_ns())
            .expect("closed provenance span") as f64;
        overheads.push(prov_ns / (view_ns - prov_ns) * 100.0);
    }
    assert_eq!(engine.ledger().len(), n, "ledger covers every item");

    let base_med = quantile(&baseline, 0.5);
    let tele_med = quantile(&telemetry, 0.5);
    // minimum-of-N for the wall-clock cross-check: scheduler interference
    // on a shared machine only ever adds time
    let base_min = baseline.iter().cloned().fold(f64::INFINITY, f64::min);
    let tele_min = telemetry.iter().cloned().fold(f64::INFINITY, f64::min);
    let wallclock_delta_pct =
        if base_min > 0.0 { (tele_min - base_min) / base_min * 100.0 } else { 0.0 };
    let overhead_pct = quantile(&overheads, 0.5);

    println!("== telemetry overhead on the E3b enrichment workload ==\n");
    println!("items: {n} | iterations: {ITERS}");
    println!(
        "baseline (ledger off): min {base_min:.3} ms, median {base_med:.3} ms, p95 {:.3} ms",
        quantile(&baseline, 0.95)
    );
    println!(
        "telemetry (ledger on): min {tele_min:.3} ms, median {tele_med:.3} ms, p95 {:.3} ms",
        quantile(&telemetry, 0.95)
    );
    println!(
        "overhead: {overhead_pct:.2}% (median provenance share of the instrumented run, measured from its own span; acceptance: < 5%)"
    );
    println!("wall-clock min-of-N cross-check: {wallclock_delta_pct:+.2}% (noise-dominated on shared machines)");

    let result = BenchResult::new("telemetry_overhead")
        .config("n_items", n)
        .config("iters", ITERS)
        .config("nproc", std::thread::available_parallelism().map_or(1, |p| p.get()))
        .config("workload", "cache-seeded quality process (E3b shape)")
        .metric("baseline_min_ms", base_min)
        .metric("baseline_median_ms", base_med)
        .metric("baseline_p95_ms", quantile(&baseline, 0.95))
        .metric("telemetry_min_ms", tele_min)
        .metric("telemetry_median_ms", tele_med)
        .metric("telemetry_p95_ms", quantile(&telemetry, 0.95))
        .metric("overhead_pct", overhead_pct)
        .metric("wallclock_delta_pct", wallclock_delta_pct)
        .samples_ms(telemetry);
    let path = result.write().expect("bench artifact");
    println!("-> {}", path.display());
}
