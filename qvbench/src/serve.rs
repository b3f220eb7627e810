//! `serve`: a spawned `qv serve` publishing the bench view, driven by a
//! closed loop of keep-alive connections from this one process.
//!
//! Client rules: at most `nproc` connections, one thread each; every
//! request goes out in one write on a `TCP_NODELAY` socket, so the
//! client's own Nagle delay is never charged to the server; a request's
//! latency runs from that write to the last byte of its response.

use crate::gen::{self, Gen, Row};
use crate::inproc::{self, BENCH_VIEW};
use crate::stats::{self, median, ms, quantile};
use crate::trace::Tracer;
use crate::{Config, Report};
use qurator_telemetry::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Rows per request.
const ROWS_PER_REQUEST: usize = 200;
/// Requests per second of `--seconds` (at least [`MIN_REQUESTS`]): a
/// fixed count for a given run length, so server memory compares across
/// commits.
const REQUESTS_PER_SECOND: usize = 50;
/// Enough requests for ten samples beyond the p99.
const MIN_REQUESTS: usize = 1000;
/// Requests sent one at a time before the timed load, not timed.
const WARMUP_REQUESTS: usize = 20;
/// Server spawns timed for `setup_s`.
const SETUP_SPAWNS: usize = 5;
/// `GET /runs/<id>` fetches after the traced load; the server keeps the
/// last 256 runs, so these all fall inside its window.
const BUNDLES: usize = 200;
/// The traced load scrapes `/metrics` on one connection every this many
/// requests, for the queue-depth maximum.
const SCRAPE_EVERY: usize = 25;
/// Request datasets the traced run replays in process for the layer split.
const PROBE_REQUESTS: usize = 100;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const VIEW_NAME: &str = "ispider-pmf-quality";

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds `qv` from the repository's workspace and returns its path.
fn build_qv() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(&root)
        .args(["build", "--release", "--offline", "--quiet", "-p", "qurator-cli", "--bin", "qv"])
        .args(["--message-format", "json"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building qv failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find_map(|msg| Some(PathBuf::from(msg.get("executable")?.as_str()?)))
        .ok_or_else(|| "cargo reported no qv executable".to_string())
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A running `qv serve`.
struct Server {
    child: Child,
    addr: SocketAddr,
    pid: String,
}

impl Server {
    /// Spawns `qv serve` on a free port and waits for `/healthz` to answer
    /// 200. Returns the server and the time from spawn to that answer.
    fn start(qv: &Path, workers: usize) -> Result<(Server, Duration), String> {
        let addr = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).map_err(err)?;
        let view = Path::new(env!("CARGO_MANIFEST_DIR")).join("views/bench_view.xml");
        let started = Instant::now();
        let child = Command::new(qv)
            .arg("serve")
            .arg(&view)
            .args(["--addr", &addr.to_string(), "--workers", &workers.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", qv.display()))?;
        let pid = child.id().to_string();
        let mut server = Server { child, addr, pid };
        loop {
            let healthy = Client::new(addr).send("GET", "/healthz", "").map(|r| r.0.status == 200);
            if matches!(healthy, Ok(true)) {
                return Ok((server, started.elapsed()));
            }
            if started.elapsed() > IO_TIMEOUT {
                return Err("qv serve did not become healthy".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("qv serve exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn kib(&self, field: &str) -> u64 {
        stats::proc_status_kib(&self.pid, field)
    }

    /// Sends SIGTERM and waits for the drain; true when the server exited 0.
    fn stop(mut self) -> bool {
        let pid = i32::try_from(self.child.id()).expect("pid fits in i32");
        // SAFETY: kill(2) takes two integers and reads no memory of this
        // process; `pid` is our own child, not yet waited for, so the id
        // cannot have been reused by another process.
        unsafe { kill(pid, SIGTERM) };
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return false, // dropping the server kills it
            }
        }
    }
}

/// A server left running by an early return is killed and reaped.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One response.
struct Reply {
    status: u16,
    run_id: Option<String>,
    body: String,
    close: bool,
}

/// One keep-alive connection, reopened when the server closes it.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None }
    }

    /// Sends one request in a single write and reads the whole response.
    /// The duration runs from the write to the response's last byte.
    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(Reply, Duration)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: qvbench\r\nContent-Type: text/tab-separated-values\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        let started = Instant::now();
        let result = stream.write_all(&request).and_then(|()| read_reply(stream));
        let took = started.elapsed();
        match result {
            Ok(reply) => {
                if reply.close {
                    self.stream = None;
                }
                Ok((reply, took))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn read_reply(stream: &mut TcpStream) -> std::io::Result<Reply> {
    use std::io::{Error, ErrorKind};
    let mut buf = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed before the head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let (mut length, mut run_id, mut close) = (0usize, None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                length =
                    value.parse().map_err(|_| Error::new(ErrorKind::InvalidData, "bad length"))?
            }
            "x-qv-run-id" => run_id = Some(value.to_string()),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "short body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[body_start..body_start + length]).into_owned();
    Ok(Reply { status, run_id, body, close })
}

/// One timed `POST /run` of the load.
struct Sent {
    index: usize,
    latency: Duration,
    done: Instant,
    reply: Result<Reply, String>,
}

/// What one load phase measured.
struct Load {
    sent: Vec<Sent>,
    wall: Duration,
    queue_depth_max: f64,
}

/// Sends `bodies[range]` from `clients` closed-loop connections, each
/// taking the next unsent request as soon as its previous one completes.
/// With `scrape`, the first connection also reads `/metrics` every
/// [`SCRAPE_EVERY`] requests for the queue depth.
fn load(
    addr: SocketAddr,
    bodies: &[String],
    range: std::ops::Range<usize>,
    clients: usize,
    scrape: bool,
) -> Load {
    let next = AtomicUsize::new(range.start);
    let path = format!("/run/{VIEW_NAME}");
    let started = Instant::now();
    let per_client: Vec<(Vec<Sent>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, path, end) = (&next, &path, range.end);
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let (mut sent, mut depth_max, mut count) = (Vec::new(), 0.0f64, 0usize);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= end {
                            break;
                        }
                        let begun = Instant::now();
                        let result = client.send("POST", path, &bodies[index]);
                        let done = Instant::now();
                        let (reply, latency) = match result {
                            Ok((reply, latency)) => (Ok(reply), latency),
                            Err(e) => (Err(e.to_string()), done - begun),
                        };
                        sent.push(Sent { index, latency, done, reply });
                        count += 1;
                        if scrape && c == 0 && count % SCRAPE_EVERY == 0 {
                            if let Ok((r, _)) = client.send("GET", "/metrics", "") {
                                depth_max = depth_max.max(prometheus(&r.body, "serve.queue.depth"));
                            }
                        }
                    }
                    (sent, depth_max)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = started.elapsed();
    let queue_depth_max = per_client.iter().map(|(_, d)| *d).fold(0.0, f64::max);
    let mut sent: Vec<Sent> = per_client.into_iter().flat_map(|(s, _)| s).collect();
    sent.sort_by_key(|s| s.index);
    Load { sent, wall, queue_depth_max }
}

/// The value of the first Prometheus sample whose series starts with
/// `series` (0 when absent).
fn prometheus(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(series))
        .find_map(|l| l.rsplit_once(' ')?.1.parse().ok())
        .unwrap_or(0.0)
}

/// `(group name, item ids)` of a `POST /run` response body.
fn response_groups(body: &str) -> Option<Vec<(String, Vec<String>)>> {
    let doc = json::parse(body).ok()?;
    doc.get("groups")?
        .as_array()?
        .iter()
        .map(|g| {
            let name = g.get("name")?.as_str()?.to_string();
            let items = g
                .get("items")?
                .as_array()?
                .iter()
                .map(|i| i.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?;
            Some((name, items))
        })
        .collect()
}

/// The library's answer for the same rows on a fresh engine.
fn library_groups(rows: &[Row]) -> Result<Vec<(String, Vec<String>)>, String> {
    let (engine, spec) = inproc::setup(BENCH_VIEW, None, None)?;
    let outcome = engine.execute_view(&spec, &gen::dataset(rows)).map_err(err)?;
    Ok(outcome
        .groups
        .iter()
        .map(|g| (g.name.clone(), g.dataset.items().iter().map(|i| i.to_string()).collect()))
        .collect())
}

/// Checks every response of a load: status 200, a complete body, and the
/// groups and items the library computes for the same rows.
fn check_responses(
    sent: &[Sent],
    requests: &[Vec<Row>],
    report: &mut Report,
) -> Result<(), String> {
    for s in sent {
        let expected = library_groups(&requests[s.index])?;
        let verdict = match &s.reply {
            Err(e) => Err(format!("connection error: {e}")),
            Ok(r) if r.status != 200 => Err(format!("status {}: {}", r.status, r.body)),
            Ok(r) => match response_groups(&r.body) {
                None => Err("unparseable body".to_string()),
                Some(groups) if groups != expected => {
                    Err("groups differ from the library's".into())
                }
                Some(_) => Ok(()),
            },
        };
        report.check(verdict.is_ok(), || format!("request {}: {}", s.index, verdict.unwrap_err()));
    }
    Ok(())
}

/// Completed 200 responses per second of the load's wall time.
fn rate(load: &Load) -> f64 {
    ok_latencies_ms(&load.sent).len() as f64 / load.wall.as_secs_f64()
}

fn ok_latencies_ms(sent: &[Sent]) -> Vec<f64> {
    sent.iter()
        .filter(|s| matches!(&s.reply, Ok(r) if r.status == 200))
        .map(|s| ms(s.latency))
        .collect()
}

/// One server's life: start, warm-up, timed load, optional scrapes, stop.
struct Phase {
    load: Load,
    rss_after_warmup_kib: u64,
    rss_end_kib: u64,
    hwm_kib: u64,
    metrics_text: String,
    store_json: String,
    bundles: Vec<(usize, String)>,
}

fn phase(
    qv: &Path,
    nproc: usize,
    bodies: &[String],
    traced: bool,
    report: &mut Report,
) -> Result<(Phase, Vec<Sent>), String> {
    let (server, _) = Server::start(qv, nproc)?;
    let warmup = load(server.addr, bodies, 0..WARMUP_REQUESTS, 1, false).sent;
    let rss_after_warmup_kib = server.kib("VmRSS");
    let load = load(server.addr, bodies, WARMUP_REQUESTS..bodies.len(), nproc, traced);
    let (rss_end_kib, hwm_kib) = (server.kib("VmRSS"), server.kib("VmHWM"));
    let (mut metrics_text, mut store_json, mut bundles) =
        (String::new(), String::new(), Vec::new());
    if traced {
        let mut client = Client::new(server.addr);
        let get = |client: &mut Client, path: &str| {
            client.send("GET", path, "").map(|(r, _)| r.body).map_err(err)
        };
        metrics_text = get(&mut client, "/metrics")?;
        store_json = get(&mut client, "/store")?;
        let mut recent: Vec<&Sent> = load.sent.iter().collect();
        recent.sort_by_key(|s| s.done);
        for s in recent.iter().rev().take(BUNDLES) {
            if let Ok(Reply { run_id: Some(run), .. }) = &s.reply {
                bundles.push((s.index, get(&mut client, &format!("/runs/{run}"))?));
            }
        }
    }
    report.check(server.stop(), || "qv serve did not exit 0 on SIGTERM".into());
    let phase = Phase {
        load,
        rss_after_warmup_kib,
        rss_end_kib,
        hwm_kib,
        metrics_text,
        store_json,
        bundles,
    };
    Ok((phase, warmup))
}

pub fn run(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(config.run_id.clone());
    let qv = build_qv()?;
    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get());
    eprintln!("qvbench: serve with {nproc} workers and {nproc} client connections");

    let total = WARMUP_REQUESTS + (REQUESTS_PER_SECOND * config.seconds as usize).max(MIN_REQUESTS);
    let gen = Gen::new(config.seed);
    let requests: Vec<Vec<Row>> =
        gen.serve_requests(total, ROWS_PER_REQUEST).into_iter().map(|ids| gen.rows(ids)).collect();
    let bodies: Vec<String> = requests.iter().map(|rows| gen::tsv(rows)).collect();

    let (plain, warmup) = phase(&qv, nproc, &bodies, false, &mut report)?;
    check_responses(&warmup, &requests, &mut report)?;
    check_responses(&plain.load.sent, &requests, &mut report)?;
    let latencies = ok_latencies_ms(&plain.load.sent);
    if latencies.is_empty() {
        return Err("no request succeeded".into());
    }
    if !config.trace {
        // spawns timed after the load, when the machine is warm
        let mut setup = Vec::with_capacity(SETUP_SPAWNS);
        for _ in 0..SETUP_SPAWNS {
            let (server, took) = Server::start(&qv, nproc)?;
            setup.push(took.as_secs_f64());
            report.check(server.stop(), || "qv serve did not exit 0 on SIGTERM".into());
        }
        report.set("setup_s", median(&setup));
        let rps = rate(&plain.load);
        report.set("items_per_s", rps * ROWS_PER_REQUEST as f64);
        report.set("requests_per_s", rps);
        report.set("latency_ms_p50", median(&latencies));
        report.set("peak_rss_mib", plain.hwm_kib as f64 / 1024.0);
        return Ok(report);
    }

    let (traced, _) = phase(&qv, nproc, &bodies, true, &mut report)?;
    check_responses(&traced.load.sent, &requests, &mut report)?;
    for s in &traced.load.sent {
        let root = tracer.start_op("serve.request");
        tracer.place(root, s.done - s.latency, s.done);
        let status = s.reply.as_ref().map_or(0, |r| r.status);
        tracer.count(root, ROWS_PER_REQUEST as u64, u64::from(status == 200));
    }
    serve_metrics(&plain, &traced, &mut report);

    // the library layers on request-shaped inputs, one engine per mode
    // kept across requests as the server keeps its engine
    inproc::time_setups(
        BENCH_VIEW,
        None,
        inproc::TRACED_SETUPS,
        &mut Vec::new(),
        Some(&mut tracer),
    )?;
    let datasets: Vec<_> =
        requests.iter().take(PROBE_REQUESTS).map(|rows| gen::dataset(rows)).collect();
    let refs: Vec<_> = datasets.iter().collect();
    let layered = inproc::probe(BENCH_VIEW, &refs, false, Duration::MAX, &mut tracer, &mut report)?;
    inproc::layer_metrics(&tracer, &layered, &mut report);
    // the headline, requests per second, untraced against traced
    report.set("trace.overhead_pct", (rate(&plain.load) / rate(&traced.load) - 1.0) * 100.0);
    let rows_sent = (bodies.len() * ROWS_PER_REQUEST) as f64;
    report.set("cache.terms_per_item", report.metrics["serve.cache_terms"] / rows_sent);
    inproc::zero_unexercised(&mut report, &["storage.", "archive."]);
    inproc::write_trace(config, &tracer)?;
    Ok(report)
}

/// The `serve.*` metrics: the tail from the untraced phase, the rest from
/// the traced phase's scrapes.
fn serve_metrics(plain: &Phase, traced: &Phase, report: &mut Report) {
    report.set("serve.latency_ms_p99", quantile(&ok_latencies_ms(&plain.load.sent), 0.99));
    let latency_of =
        |index: usize| traced.load.sent.iter().find(|s| s.index == index).map(|s| ms(s.latency));
    let (mut engine_ms, mut outside_ms) = (Vec::new(), Vec::new());
    for (index, bundle) in &traced.bundles {
        let Some(nodes) = json::parse(bundle).ok().and_then(|doc| {
            let nodes = doc.get("stats")?.get("nodes")?.as_object()?.clone();
            Some(nodes)
        }) else {
            continue;
        };
        let wall_ns: f64 = nodes.values().filter_map(|n| n.get("wall_ns")?.as_f64()).sum();
        engine_ms.push(wall_ns / 1e6);
        if let Some(latency) = latency_of(*index) {
            outside_ms.push(latency - wall_ns / 1e6);
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.set("serve.engine_ms_p50", med(&engine_ms));
    report.set("serve.outside_engine_ms_p50", med(&outside_ms));
    report.set(
        "serve.server_latency_ms_p50",
        prometheus(&traced.metrics_text, "serve.request.latency_p50{route=\"/run\"}") / 1e3,
    );
    report.set("serve.queue_depth_max", traced.load.queue_depth_max);
    let cache = json::parse(&traced.store_json).ok().and_then(|doc| {
        let repos = doc.get("repositories")?.as_array()?.to_vec();
        repos.into_iter().find(|r| r.get("name").and_then(|n| n.as_str()) == Some("cache"))
    });
    let field = |f: &str| cache.as_ref().and_then(|c| c.get(f)?.as_f64()).unwrap_or(0.0);
    report.set("serve.cache_triples", field("triples"));
    report.set("serve.cache_terms", field("terms"));
    let requests = traced.load.sent.len() as f64;
    let growth = traced.rss_end_kib.saturating_sub(traced.rss_after_warmup_kib) as f64;
    report.set("serve.rss_kib_per_request", growth / requests);
}
