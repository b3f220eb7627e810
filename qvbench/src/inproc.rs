//! In-process workloads (`batch`, `archive`) and the layer-by-layer replica
//! of one execution that the traced runs time.

use crate::gen::{self, Gen};
use crate::stats::{self, median, quantile};
use crate::trace::{ratio, Tracer};
use crate::{Config, Report};
use qurator::engine::ActionOutcome;
use qurator::prelude::*;
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use std::path::Path;
use std::time::{Duration, Instant};

/// The §5.1 bench view: annotate into `cache`, enrich, three QAs, and the
/// classifier filter (`bench::bench_view`, frozen here so the benchmark's
/// input does not move with the repository's fixtures).
pub const BENCH_VIEW: &str = include_str!("../views/bench_view.xml");
/// `samples/persistent_archive.xml`, frozen likewise: annotate `HitRatio`
/// into the persistent repository `archive`, one QA, one filter.
pub const ARCHIVE_VIEW: &str = include_str!("../views/archive_view.xml");

/// Items per `batch` execution.
pub const BATCH_ITEMS: u64 = 20_000;
/// Items per `archive` commit.
const COMMIT_ITEMS: u64 = 500;
/// `archive` commits per second of `--seconds`: a fixed count for a given
/// run length, so store size and memory compare across commits.
const COMMITS_PER_SECOND: u64 = 6;
/// Set-ups timed after each `batch` run and each `archive` commit;
/// `setup_s` is the median of all of them. One set-up takes ~0.1 ms and its
/// speed follows the host's for the moment, so timing them in one burst
/// would let a few milliseconds of a slow or fast host decide the median;
/// spread over the run, they see the same host the operations see.
const SETUPS_PER_RUN: usize = 10;
const SETUPS_PER_COMMIT: usize = 1;
/// Set-ups a traced run times for `xmlio.parse_us`.
pub const TRACED_SETUPS: usize = 201;
/// Fewest measured operations per run.
const MIN_OPS: usize = 5;
/// Seeded `HitRatio` lookups checked after reopening the archive store.
const LOOKUP_SAMPLE: u64 = 200;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds the engine `qv run` builds, rooted at `store` when given, and
/// parses and validates `xml` on it. Traced, the parse is a span.
pub fn setup(
    xml: &str,
    store: Option<&Path>,
    tracer: Option<&mut Tracer>,
) -> Result<(QualityEngine, QualityViewSpec), String> {
    let engine = QualityEngine::with_proteomics_defaults().map_err(err)?;
    let spec = match tracer {
        Some(tr) => {
            let root = tr.start_op("setup");
            let s = tr.start("xmlio.parse", Some(root));
            let spec = qurator::xmlio::parse_quality_view(xml).map_err(err)?;
            tr.end(s, 1, 1);
            tr.end(root, 1, 1);
            spec
        }
        None => qurator::xmlio::parse_quality_view(xml).map_err(err)?,
    };
    if let Some(dir) = store {
        engine.set_store_root(dir).map_err(err)?;
    }
    engine.validate(&spec).map_err(err)?;
    Ok((engine, spec))
}

/// Times `reps` set-ups, appending their seconds to `secs`; `store` gives
/// each set-up a fresh empty store directory.
pub fn time_setups(
    xml: &str,
    store: Option<&Path>,
    reps: usize,
    secs: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    for _ in 0..reps {
        let dir = store.map(|d| d.join(format!("setup-{}", secs.len())));
        let started = Instant::now();
        let built = setup(xml, dir.as_deref(), tracer.as_deref_mut())?;
        secs.push(started.elapsed().as_secs_f64());
        drop(built);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok(())
}

/// Item ids of the first (accepted) group.
pub fn accepted(outcome: &ActionOutcome) -> Vec<String> {
    outcome
        .groups
        .first()
        .map(|g| g.dataset.items().iter().map(Term::to_string).collect())
        .unwrap_or_default()
}

/// One execution of `spec` over `dataset`, returning the outcome and the
/// wall time of the call(s).
///
/// Untraced, this is the public `QualityEngine::execute_view`. Traced, it
/// is the same sequence `execute_view` runs, made of the public calls of
/// each layer with a span around each: validate, plan, bind, annotate,
/// enrich, assert (per QA), act. The replica skips decision provenance,
/// which has no public entry point; the traced runs price it as
/// `execute_view` with the ledger on minus off.
pub fn execute(
    engine: &QualityEngine,
    spec: &QualityViewSpec,
    dataset: &DataSet,
    tracer: Option<(&mut Tracer, Option<usize>)>,
) -> Result<(ActionOutcome, u64), String> {
    let started = Instant::now();
    let Some((tr, parent)) = tracer else {
        let outcome = engine.execute_view(spec, dataset).map_err(err)?;
        return Ok((outcome, started.elapsed().as_nanos() as u64));
    };
    let items = dataset.len() as u64;
    let root = match parent {
        Some(p) => tr.start("execute", Some(p)),
        None => tr.start_op("execute"),
    };
    let s = tr.start("validate", Some(root));
    let view = engine.validate(spec).map_err(err)?;
    tr.end(s, 1, 1);
    let s = tr.start("plan", Some(root));
    let plan =
        qurator::planner::physical_plan(&view, engine.iq(), &qurator_plan::PlanConfig::default())
            .map_err(err)?;
    tr.end(s, 1, 1);
    let s = tr.start("exec.bind", Some(root));
    let bound = qurator::exec::bind(&plan, engine.iq(), engine.registry(), engine.catalog())
        .map_err(err)?;
    bound.stats.set_enabled(engine.stats_enabled());
    tr.end(s, 1, 1);
    for (_, annotator) in &bound.annotators {
        let s = tr.start("annotate", Some(root));
        let written = annotator.annotate(dataset).map_err(err)?;
        tr.end(s, written as u64, written as u64);
    }
    let reads = stats::self_io().syscr;
    let s = tr.start("enrich", Some(root));
    let mut map = bound.enrichment.enrich(dataset.items()).map_err(err)?;
    tr.end(s, items, 0);
    tr.set_reads(s, stats::self_io().syscr.saturating_sub(reads));
    let hits = map
        .items()
        .iter()
        .filter(|i| map.item(i).is_some_and(|row| row.evidence_entries().next().is_some()))
        .count();
    tr.count(s, items, hits as u64);
    for assertion in &bound.assertions {
        let s = tr.start("assert", Some(root));
        assertion.processor.assert_quality(&mut map).map_err(err)?;
        tr.end(s, items, items);
    }
    let mut groups = Vec::new();
    for (_, action) in &bound.actions {
        let s = tr.start("act", Some(root));
        let out = action.apply(dataset, &map).map_err(err)?;
        tr.end(s, items, 0);
        tr.count(s, items, out.first().map_or(0, |g| g.dataset.len() as u64));
        groups.extend(out);
    }
    let outcome = ActionOutcome { groups };
    tr.end(root, items, accepted(&outcome).len() as u64);
    Ok((outcome, started.elapsed().as_nanos() as u64))
}

/// The three ways a traced run executes each operation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `execute_view`, decision provenance on (the default).
    Plain,
    /// `execute_view` with the ledger off.
    NoLedger,
    /// The traced replica (no ledger: see [`execute`]).
    Traced,
}

pub const MODES: [Mode; 3] = [Mode::Plain, Mode::NoLedger, Mode::Traced];

/// Execution walls per mode, one entry per operation.
#[derive(Default)]
pub struct Layered {
    pub plain_ns: Vec<f64>,
    pub off_ns: Vec<f64>,
    pub items_per_op: f64,
}

impl Layered {
    pub fn push(&mut self, mode: Mode, ns: u64) {
        match mode {
            Mode::Plain => self.plain_ns.push(ns as f64),
            Mode::NoLedger => self.off_ns.push(ns as f64),
            Mode::Traced => {}
        }
    }
}

/// Interleaved layer measurement over `datasets`: every operation runs in
/// each [`Mode`] on that mode's own engine. With `fresh`, the engines are
/// rebuilt before every operation (as `qv run` does); otherwise each
/// persists across operations (as in `qv serve`). Runs until `budget` has
/// passed and at least [`MIN_OPS`] operations ran, or the datasets run out.
/// Checks that the replica's outcome equals `execute_view`'s.
pub fn probe(
    xml: &str,
    datasets: &[&DataSet],
    fresh: bool,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Layered, String> {
    let build = |mode: Mode| -> Result<(QualityEngine, QualityViewSpec), String> {
        let built = setup(xml, None, None)?;
        built.0.set_provenance_enabled(mode != Mode::NoLedger);
        Ok(built)
    };
    let mut engines: [Option<(QualityEngine, QualityViewSpec)>; 3] = [None, None, None];
    let mut layered = Layered::default();
    let started = Instant::now();
    let mut items = 0.0;
    for (op, dataset) in datasets.iter().enumerate() {
        if op >= MIN_OPS && started.elapsed() >= budget {
            break;
        }
        let mut outcomes = Vec::with_capacity(3);
        for (slot, mode) in engines.iter_mut().zip(MODES) {
            if fresh || slot.is_none() {
                *slot = None; // drop the old engine before building its successor
                *slot = Some(build(mode)?);
            }
            let (engine, spec) = slot.as_ref().expect("engine built above");
            let traced = (mode == Mode::Traced).then_some((&mut *tracer, None));
            let (outcome, ns) = execute(engine, spec, dataset, traced)?;
            layered.push(mode, ns);
            outcomes.push(accepted(&outcome));
        }
        report.check(outcomes[0] == outcomes[2] && outcomes[0] == outcomes[1], || {
            format!("op {op}: modes disagree on the accepted set")
        });
        items += dataset.len() as f64;
    }
    layered.items_per_op = items / layered.plain_ns.len() as f64;
    Ok(layered)
}

/// The per-layer metrics every traced run reports, from the replica's
/// spans and the per-mode walls.
pub fn layer_metrics(tracer: &Tracer, layered: &Layered, report: &mut Report) {
    let execute = tracer.total("execute");
    let ops = execute.spans as f64;
    report.set("xmlio.parse_us", tracer.total("xmlio.parse").us_per_span());
    report.set("validate.us", tracer.total("validate").us_per_span());
    report.set("plan.us", tracer.total("plan").us_per_span());
    report.set("exec.bind_us", tracer.total("exec.bind").us_per_span());
    let annotate = tracer.total("annotate");
    report.set("annotate.us_per_value", annotate.us_per_work());
    report.set("annotate.values", ratio(annotate.work as f64, ops));
    let enrich = tracer.total("enrich");
    report.set("enrich.us_per_item", enrich.us_per_work());
    report.set("enrich.hit_ratio", enrich.useful_share());
    report.set(
        "assert.us_per_item",
        ratio(tracer.total("assert").ns as f64 / 1e3, execute.work as f64),
    );
    let act = tracer.total("act");
    report.set("act.us_per_item", act.us_per_work());
    report.set("act.selectivity", act.useful_share());
    // per-operation pairs (the modes of one operation run back to back),
    // so drift of the host between operations cancels
    let (plain, off) = (&layered.plain_ns, &layered.off_ns);
    let (layers, traced) = (tracer.child_sums_ns("execute"), tracer.durations_ns("execute"));
    let paired = |f: &dyn Fn(usize) -> f64| median(&(0..plain.len()).map(f).collect::<Vec<_>>());
    report
        .set("provenance.us_per_item", paired(&|i| plain[i] - off[i]) / 1e3 / layered.items_per_op);
    report.set("unattributed.share", paired(&|i| (off[i] - layers[i]) / plain[i]));
    // the replica against the same calls untraced: `execute_view` without
    // the ledger, which the replica also skips
    report.set("trace.overhead_pct", paired(&|i| traced[i] / off[i] - 1.0) * 100.0);
}

/// Sets every metric whose name starts with one of `prefixes` to 0: layers
/// the workload does not exercise.
pub fn zero_unexercised(report: &mut Report, prefixes: &[&str]) {
    for (name, _) in crate::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            report.set(name, 0.0);
        }
    }
}

fn peak_rss_mib() -> f64 {
    stats::proc_status_kib("self", "VmHWM") as f64 / 1024.0
}

/// `batch`: `execute_view` of the bench view over the same 20,000 seeded
/// items, each run on a fresh engine, for `--seconds`.
pub fn batch(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(config.run_id.clone());
    let rows = Gen::new(config.seed).rows(0..BATCH_ITEMS);
    let dataset = gen::dataset(&rows);
    let n = BATCH_ITEMS as usize;

    // warm-up run; its accepted set is the one every later run must match
    let (engine, spec) = setup(BENCH_VIEW, None, None)?;
    let reference = accepted(&execute(&engine, &spec, &dataset, None)?.0);
    report.check(!reference.is_empty() && reference.len() < n, || {
        format!("kept {} of {n} items", reference.len())
    });
    let cache_terms = engine.catalog().get("cache").map_or(0, |c| c.term_count());
    drop(engine);

    if config.trace {
        time_setups(BENCH_VIEW, None, TRACED_SETUPS, &mut Vec::new(), Some(&mut tracer))?;
        let datasets = vec![&dataset; 1 + config.seconds as usize];
        let layered =
            probe(BENCH_VIEW, &datasets, true, config.budget(), &mut tracer, &mut report)?;
        layer_metrics(&tracer, &layered, &mut report);
        report.set("cache.terms_per_item", cache_terms as f64 / n as f64);
        zero_unexercised(&mut report, &["storage.", "archive.", "serve."]);
        write_trace(config, &tracer)?;
        return Ok(report);
    }

    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_OPS || started.elapsed() < config.budget() {
        let (engine, spec) = setup(BENCH_VIEW, None, None)?;
        let (outcome, ns) = execute(&engine, &spec, &dataset, None)?;
        let kept = accepted(&outcome);
        report.check(kept == reference, || format!("run {}: accepted set differs", walls.len()));
        walls.push(ns as f64 / 1e9);
        drop(engine);
        time_setups(BENCH_VIEW, None, SETUPS_PER_RUN, &mut setups, None)?;
    }
    let wall = median(&walls);
    report.set("setup_s", median(&setups));
    report.set("items_per_s", n as f64 / wall);
    report.set("requests_per_s", 1.0 / wall);
    report.set("latency_ms_p50", wall * 1e3);
    report.set("peak_rss_mib", peak_rss_mib());
    Ok(report)
}

pub fn write_trace(config: &Config, tracer: &Tracer) -> Result<(), String> {
    let path = config.out_dir.join(format!("{}.spans.jsonl", tracer.run_id()));
    tracer.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("qvbench: {} spans -> {}", tracer.spans().len(), path.display());
    Ok(())
}

/// Storage-layer counters accumulated around traced commits only.
#[derive(Default)]
struct StorageCounters {
    flush_us: Vec<f64>,
    commit_ms: Vec<f64>,
    compacting: Vec<bool>,
    fsync_buckets: Vec<u64>,
    bytes_written: u64,
    triples: u64,
    sys_cpu: Duration,
    wall: Duration,
}

/// One `archive` commit: `execute_view` (or its traced replica) over
/// `dataset`, then `flush_stores()`. Returns the outcome, the execution
/// wall and the commit wall (execute plus flush).
fn commit(
    engine: &QualityEngine,
    spec: &QualityViewSpec,
    dataset: &DataSet,
    counters: Option<(&mut Tracer, &mut StorageCounters)>,
) -> Result<(ActionOutcome, u64, Duration), String> {
    let started = Instant::now();
    let Some((tr, c)) = counters else {
        let (outcome, exec_ns) = execute(engine, spec, dataset, None)?;
        engine.flush_stores().map_err(err)?;
        return Ok((outcome, exec_ns, started.elapsed()));
    };
    // bind creates the repository on the first commit
    let before = engine.catalog().get("archive").map(|r| (r.triple_count(), r.storage_status()));
    let (triples0, compactions0) = before.map_or((0, 0), |(t, s)| (t, s.compactions));
    let fsync = qurator_telemetry::metrics().histogram("store.wal.fsync_ns");
    let (io0, cpu0, fsync0) = (stats::self_io(), stats::self_system_cpu(), fsync.bucket_counts());
    let root = tr.start_op("commit");
    let (outcome, exec_ns) = execute(engine, spec, dataset, Some((&mut *tr, Some(root))))?;
    let s = tr.start("storage.flush", Some(root));
    engine.flush_stores().map_err(err)?;
    tr.end(s, 1, 1);
    tr.end(root, dataset.len() as u64, accepted(&outcome).len() as u64);
    let wall = started.elapsed();
    let (io1, cpu1, fsync1) = (stats::self_io(), stats::self_system_cpu(), fsync.bucket_counts());
    let repo = engine.catalog().get("archive").ok_or("no archive repository")?;
    c.flush_us.push(tr.spans()[s].ns() as f64 / 1e3);
    c.commit_ms.push(tr.spans()[root].ns() as f64 / 1e6);
    c.compacting.push(repo.storage_status().compactions > compactions0);
    c.fsync_buckets.resize(fsync1.len(), 0);
    for (acc, (a, b)) in c.fsync_buckets.iter_mut().zip(fsync1.iter().zip(fsync0)) {
        *acc += a - b;
    }
    c.bytes_written += io1.write_bytes - io0.write_bytes;
    c.triples += repo.triple_count().saturating_sub(triples0) as u64;
    c.sys_cpu += cpu1.saturating_sub(cpu0);
    c.wall += wall;
    Ok((outcome, exec_ns, wall))
}

/// `archive`: commits of 500 fresh items into the persistent repository
/// `archive`, each `execute_view` plus `flush_stores()`, on a store that
/// starts empty; [`COMMITS_PER_SECOND`] × `--seconds` commits.
pub fn archive(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(config.run_id.clone());
    let dir = config.out_dir.join(&config.run_id);
    std::fs::create_dir_all(&dir).map_err(err)?;
    let result = archive_in(config, &dir, &mut report, &mut tracer);
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    if config.trace {
        write_trace(config, &tracer)?;
    }
    Ok(report)
}

fn archive_in(
    config: &Config,
    dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let commits = COMMITS_PER_SECOND * config.seconds;
    let gen = Gen::new(config.seed);
    // one engine per mode when traced (interleaved per commit), one otherwise
    let modes: &[Mode] = if config.trace { &MODES } else { &[Mode::Plain] };
    let mut engines = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        let (engine, spec) = setup(ARCHIVE_VIEW, Some(&dir.join(format!("store-{i}"))), None)?;
        engine.set_provenance_enabled(*mode != Mode::NoLedger);
        engines.push((engine, spec));
    }
    let mut layered = Layered::default();
    let mut counters = StorageCounters::default();
    let mut commit_walls = Vec::with_capacity(commits as usize);
    let mut setups = Vec::new();
    for c in 0..commits {
        let dataset = gen::dataset(&gen.rows(c * COMMIT_ITEMS..(c + 1) * COMMIT_ITEMS));
        for ((engine, spec), &mode) in engines.iter().zip(modes) {
            let traced = (mode == Mode::Traced).then_some((&mut *tracer, &mut counters));
            let (outcome, exec_ns, wall) = commit(engine, spec, &dataset, traced)?;
            layered.push(mode, exec_ns);
            if mode == Mode::Plain {
                commit_walls.push(wall.as_secs_f64());
            }
            let kept = accepted(&outcome).len();
            report.check(kept > 0 && kept < dataset.len(), || {
                format!("commit {c}: kept {kept} of {}", dataset.len())
            });
        }
        if !config.trace {
            time_setups(ARCHIVE_VIEW, Some(dir), SETUPS_PER_COMMIT, &mut setups, None)?;
        }
    }
    layered.items_per_op = COMMIT_ITEMS as f64;

    // restart: reopen the plain engine's store in a fresh engine, check it
    let live = engines[0].0.catalog().get("archive").map_or(0, |r| r.triple_count());
    engines.clear(); // releases the store locks
    let store = dir.join("store-0");
    let reopen_started = Instant::now();
    let reopened = QualityEngine::with_proteomics_defaults().map_err(err)?;
    reopened.set_store_root(&store).map_err(err)?;
    let reopen_s = reopen_started.elapsed().as_secs_f64();
    let repo = reopened.catalog().get("archive").ok_or("archive repository not reopened")?;
    report.check(repo.triple_count() == live && live > 0, || {
        format!("reopened store holds {} triples, {live} acknowledged", repo.triple_count())
    });
    let total_items = commits * COMMIT_ITEMS;
    let hit_ratio = q::iri("HitRatio");
    for k in 0..LOOKUP_SAMPLE {
        let n = gen::mix(config.seed ^ gen::mix(k) ^ 0x10_0c) % total_items;
        let row = gen.row(n);
        let found = repo.lookup(&Term::iri(row.id()), &hit_ratio).map_err(err)?;
        report.check(found == EvidenceValue::Number(row.hit_ratio), || {
            format!("item {n}: HitRatio {found:?}, committed {}", row.hit_ratio)
        });
    }
    let store_bytes = stats::dir_bytes(&store);
    drop(reopened);

    if config.trace {
        time_setups(ARCHIVE_VIEW, Some(dir), TRACED_SETUPS, &mut Vec::new(), Some(&mut *tracer))?;
        layer_metrics(tracer, &layered, report);
        report.set("cache.terms_per_item", 0.0); // the archive view has no cache repository
        storage_metrics(&counters, tracer, report);
        report.set("archive.commit_ms_p90", quantile(&commit_walls, 0.9) * 1e3);
        report.set("archive.reopen_s", reopen_s);
        report.set("archive.store_bytes_per_item", store_bytes as f64 / total_items as f64);
        zero_unexercised(report, &["serve."]);
    } else {
        // commits over the loop's wall time, compaction stalls included
        let commits_per_s = commits as f64 / commit_walls.iter().sum::<f64>();
        report.set("setup_s", median(&setups));
        report.set("items_per_s", commits_per_s * COMMIT_ITEMS as f64);
        report.set("requests_per_s", commits_per_s);
        report.set("latency_ms_p50", median(&commit_walls) * 1e3);
        report.set("peak_rss_mib", peak_rss_mib());
    }
    Ok(())
}

fn storage_metrics(c: &StorageCounters, tracer: &Tracer, report: &mut Report) {
    report.set("storage.flush_us_p50", median(&c.flush_us));
    report.set("storage.flush_us_max", c.flush_us.iter().copied().fold(0.0, f64::max));
    let compacting: Vec<f64> =
        c.commit_ms.iter().zip(&c.compacting).filter(|(_, &x)| x).map(|(&ms, _)| ms).collect();
    report.set("storage.compactions", compacting.len() as f64);
    let stall = if compacting.is_empty() {
        0.0
    } else {
        compacting.iter().sum::<f64>() / compacting.len() as f64 - median(&c.commit_ms)
    };
    report.set("storage.compaction_stall_ms", stall);
    let fsyncs: u64 = c.fsync_buckets.iter().sum();
    report.set("storage.wal_fsyncs", fsyncs as f64);
    let mut seen = 0;
    let p50_bucket = c.fsync_buckets.iter().position(|&n| {
        seen += n;
        fsyncs > 0 && seen * 2 >= fsyncs
    });
    report.set(
        "storage.wal_fsync_us_p50",
        p50_bucket.map_or(0.0, |b| qurator_telemetry::metrics::bucket_upper_bound(b) as f64 / 1e3),
    );
    report.set("storage.bytes_written_per_triple", ratio(c.bytes_written as f64, c.triples as f64));
    let enrich = tracer.total("enrich");
    report.set("storage.read_syscalls_per_item", ratio(enrich.reads as f64, enrich.work as f64));
    report.set("storage.sys_cpu_share", ratio(c.sys_cpu.as_secs_f64(), c.wall.as_secs_f64()));
}
