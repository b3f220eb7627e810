//! Acceptance bench: what end-to-end run correlation costs on the
//! serve request path, priced layer by layer.
//!
//! PR 6's `qv serve` executed a view per request with observability on
//! (retention + drift) but nothing connecting a response to its
//! telemetry. This PR adds two separable layers on top:
//!
//! 1. the **always-on decision ledger** — `qv serve` enables per-item
//!    provenance capture into a bounded ledger so `GET /runs/<id>` can
//!    serve a decision slice. Capture work is proportional to items per
//!    request and is priced as `ledger_overhead_pct`;
//! 2. the **correlation layer** — a caller-minted [`RunId`] threaded
//!    through the run plus one structured access-log record per
//!    request. This is the layer the ≤5% telemetry bound covers
//!    (`overhead_pct`); SLO gauges are computed on `/metrics` scrape,
//!    off the request path.
//!
//! Three identical engines run the same generated spots (each spot
//! standing in for one `POST /run/<view>` request), interleaved in
//! rotating order so machine drift hits all sample sets equally:
//!
//! * `baseline`   — PR 6 serve path: observability on, ledger off;
//! * `ledger`     — + provenance capture into a serve-sized ledger;
//! * `correlated` — + run-id threading and the access log.
//!
//! Acceptance: `overhead_pct` (correlated vs ledger, median of paired
//! back-to-back deltas) ≤ 5%. `ledger_overhead_pct` (ledger vs
//! baseline) and `total_overhead_pct` (correlated vs baseline) are
//! reported alongside so the full cost is on the record.
//!
//! ```sh
//! cargo run --release -p bench --bin correlation_overhead [seed]
//! ```

use bench::results::{measure_ms, quantile, BenchResult};
use qurator::prelude::*;
use qurator_plan::PlanConfig;
use qurator_proteomics::{World, WorldConfig};
use qurator_repro::ispider::{figure7_view, hits_to_dataset};
use qurator_telemetry::{AccessLog, AccessRecord, RunId, TelemetryConfig};

const ITERS: usize = 21;
/// Mirrors `SERVE_LEDGER_CAPACITY` in `qv serve`.
const LEDGER_CAPACITY: usize = 8192;

/// Median of per-pair relative deltas — each pair ran back-to-back, so
/// slow-machine drift largely cancels.
fn paired_delta_pct(base: &[f64], variant: &[f64]) -> f64 {
    let mut paired: Vec<f64> = base
        .iter()
        .zip(variant)
        .filter(|(b, _)| **b > 0.0)
        .map(|(b, v)| (v - b) / b * 100.0)
        .collect();
    paired.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantile(&paired, 0.5)
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let world = World::generate(&WorldConfig::paper_scale(seed)).expect("testbed");
    let view = figure7_view();

    // one dataset per spot, prepared up front: each stands in for the
    // parsed body of one POST /run/<view> request
    let datasets: Vec<DataSet> = world
        .peak_lists()
        .iter()
        .map(|peak_list| hits_to_dataset(&peak_list.spot_id, &world.imprint.search(peak_list)))
        .collect();

    // three identical engines; the drift monitor is process-global and
    // part of every variant, so it stays on throughout
    let config = TelemetryConfig::default();
    let base_engine = QualityEngine::with_proteomics_defaults().expect("engine");
    base_engine.enable_observability(&config);
    let ledger_engine = QualityEngine::with_proteomics_defaults().expect("engine");
    ledger_engine.enable_observability(&config);
    ledger_engine.set_provenance_enabled(true);
    ledger_engine.ledger().set_trace_capacity(LEDGER_CAPACITY);
    let corr_engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let retainer = corr_engine.enable_observability(&config);
    corr_engine.set_provenance_enabled(true);
    corr_engine.ledger().set_trace_capacity(LEDGER_CAPACITY);
    let access_log = AccessLog::new(1024);

    // warm-up all variants (condition compiler, annotation caches) —
    // like a serving process, caches stay warm between requests
    for dataset in &datasets {
        base_engine.execute_view(&view, dataset).expect("baseline warm-up");
        ledger_engine.execute_view(&view, dataset).expect("ledger warm-up");
        corr_engine.execute_view(&view, dataset).expect("correlated warm-up");
    }

    let mut baseline = Vec::with_capacity(ITERS);
    let mut ledger = Vec::with_capacity(ITERS);
    let mut correlated = Vec::with_capacity(ITERS);
    let run_baseline = |out: &mut Vec<f64>| {
        out.extend(measure_ms(1, || {
            for dataset in &datasets {
                std::hint::black_box(
                    base_engine.execute_view(&view, dataset).expect("baseline run"),
                );
            }
        }));
    };
    let run_ledger = |out: &mut Vec<f64>| {
        out.extend(measure_ms(1, || {
            for dataset in &datasets {
                std::hint::black_box(
                    ledger_engine.execute_view(&view, dataset).expect("ledger run"),
                );
            }
        }));
    };
    let run_correlated = |out: &mut Vec<f64>| {
        out.extend(measure_ms(1, || {
            for dataset in &datasets {
                let run = RunId::mint();
                std::hint::black_box(
                    corr_engine
                        .execute_interpreted(&view, dataset, &PlanConfig::default(), run)
                        .expect("correlated run"),
                );
                access_log.record(AccessRecord {
                    seq: 0,
                    ts_ms: 0,
                    peer: "bench".into(),
                    route: "/run".into(),
                    status: 200,
                    bytes: 0,
                    latency_us: 0,
                    run_id: Some(run),
                    shed: false,
                    timeout: false,
                });
            }
        }));
    };
    // rotate the within-triple order so cache/scheduler effects don't
    // systematically favour one variant
    for i in 0..ITERS {
        match i % 3 {
            0 => {
                run_baseline(&mut baseline);
                run_ledger(&mut ledger);
                run_correlated(&mut correlated);
            }
            1 => {
                run_ledger(&mut ledger);
                run_correlated(&mut correlated);
                run_baseline(&mut baseline);
            }
            _ => {
                run_correlated(&mut correlated);
                run_baseline(&mut baseline);
                run_ledger(&mut ledger);
            }
        }
    }

    let overhead_pct = paired_delta_pct(&ledger, &correlated);
    let ledger_overhead_pct = paired_delta_pct(&baseline, &ledger);
    let total_overhead_pct = paired_delta_pct(&baseline, &correlated);

    println!("== run-correlation overhead on the serve request path (seed {seed}) ==\n");
    println!("requests per iteration: {} | iterations: {ITERS}", datasets.len());
    for (name, samples) in [
        ("baseline (PR 6 serve)", &baseline),
        ("+ ledger", &ledger),
        ("+ correlation", &correlated),
    ] {
        println!(
            "{name:22}  min {:.3} ms, median {:.3} ms, p95 {:.3} ms",
            samples.iter().cloned().fold(f64::INFINITY, f64::min),
            quantile(samples, 0.5),
            quantile(samples, 0.95),
        );
    }
    println!(
        "correlation + access log overhead: {overhead_pct:+.2}% (median of paired deltas; acceptance: <= 5%)"
    );
    println!(
        "always-on ledger: {ledger_overhead_pct:+.2}% | total vs PR 6: {total_overhead_pct:+.2}%"
    );
    println!(
        "ledger: {} trace(s) resident (capacity {LEDGER_CAPACITY}) | access log: {} record(s)",
        corr_engine.ledger().len(),
        access_log.recorded(),
    );
    assert!(
        corr_engine.ledger().len() <= LEDGER_CAPACITY,
        "serve-sized ledger must stay within its bound"
    );
    assert!(retainer.resident() <= retainer.capacity());

    let result = BenchResult::new("correlation_overhead")
        .config("seed", seed)
        .config("iters", ITERS)
        .config("workload", "Figure 7 spots as serve requests")
        .config("ledger_capacity", LEDGER_CAPACITY)
        .metric("baseline_median_ms", quantile(&baseline, 0.5))
        .metric("ledger_median_ms", quantile(&ledger, 0.5))
        .metric("correlated_median_ms", quantile(&correlated, 0.5))
        .metric("overhead_pct", overhead_pct)
        .metric("ledger_overhead_pct", ledger_overhead_pct)
        .metric("total_overhead_pct", total_overhead_pct)
        .metric("requests_per_iter", datasets.len() as f64)
        .metric("access_log_records", access_log.recorded() as f64)
        .samples_ms(correlated);
    let path = result.write().expect("bench artifact");
    println!("-> {}", path.display());
}
