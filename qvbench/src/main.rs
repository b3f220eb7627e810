//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qvbench/Cargo.toml -- \
//!     --workload <batch|serve|archive> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks the
//! program's outputs, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! run records benchmark-side spans around each layer's public calls and
//! reports the per-layer ones ([`PER_LAYER`]). See `NOTES.md`.

mod gen;
mod inproc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("requests_per_s", "req/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer a
/// workload does not exercise (storage on `batch`, the server on
/// `archive`, ...) reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("xmlio.parse_us", "us"),
    ("validate.us", "us"),
    ("plan.us", "us"),
    ("exec.bind_us", "us"),
    ("annotate.us_per_value", "us/value"),
    ("annotate.values", "values/op"),
    ("enrich.us_per_item", "us/item"),
    ("enrich.hit_ratio", "ratio"),
    ("assert.us_per_item", "us/item"),
    ("act.us_per_item", "us/item"),
    ("act.selectivity", "ratio"),
    ("provenance.us_per_item", "us/item"),
    ("unattributed.share", "ratio"),
    ("cache.terms_per_item", "terms/item"),
    ("storage.flush_us_p50", "us"),
    ("storage.flush_us_max", "us"),
    ("storage.compactions", "count"),
    ("storage.compaction_stall_ms", "ms"),
    ("storage.wal_fsyncs", "count"),
    ("storage.wal_fsync_us_p50", "us"),
    ("storage.bytes_written_per_triple", "B/triple"),
    ("storage.read_syscalls_per_item", "syscalls/item"),
    ("storage.sys_cpu_share", "ratio"),
    ("archive.commit_ms_p90", "ms"),
    ("archive.reopen_s", "s"),
    ("archive.store_bytes_per_item", "B/item"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.outside_engine_ms_p50", "ms"),
    ("serve.server_latency_ms_p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_triples", "count"),
    ("serve.cache_terms", "count"),
    ("serve.rss_kib_per_request", "KiB/request"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Identifies this run's spans and scratch files.
    pub run_id: String,
    /// Scratch space for stores and span files, inside the benchmark's
    /// directory (ignored by git).
    pub out_dir: PathBuf,
}

impl Config {
    pub fn budget(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.seconds)
    }
}

/// Checks passed and failed, plus the metrics measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation; a failure is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("qvbench: check failed: {}", what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `names`, in order.
    fn to_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was checked".into());
        }
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self.metrics.get(name).copied().ok_or(format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or(format!("{} needs a value", args[i]))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{} {value:?} is not a number", args[i]));
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["batch", "serve", "archive"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    Ok(Config {
        run_id: format!("{workload}-s{seed}-{stamp:x}"),
        workload,
        seed,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qvbench: {e}");
            eprintln!(
                "usage: qvbench --workload <batch|serve|archive> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match config.workload.as_str() {
        "batch" => inproc::batch(&config),
        "archive" => inproc::archive(&config),
        _ => serve::run(&config),
    };
    let names: &[(&str, &str)] = if config.trace { &PER_LAYER } else { &END_TO_END };
    match result.and_then(|report| {
        for (name, unit) in names {
            if let Some(v) = report.metrics.get(name) {
                eprintln!("qvbench: {name} = {v} {unit}");
            }
        }
        report.to_json(names)
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = qurator_telemetry::json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut report = Report::default();
        report.check(true, String::new);
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.to_json(&END_TO_END).unwrap();
        let doc = qurator_telemetry::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("metrics").and_then(|v| v.as_object()).unwrap().len(), 5);
        report.metrics.remove("setup_s");
        assert!(report.to_json(&END_TO_END).is_err());
    }
}
