//! Serving load bench: N concurrent clients against a live `qv serve`.
//!
//! ROADMAP open item #1 (fixed by the concurrent-serve PR) documented the
//! defining failure of the demo endpoint: a single-threaded accept loop
//! means one slow client stalls every submission. This bench pins the
//! fix's effect as a number every later PR can regress against: it
//! spawns the real `qv` binary (same process shape CI's smoke job and
//! production use), drives the Figure 7 workload through
//! `POST /run/<view>` from N keep-alive clients, and writes
//! `BENCH_serve_load.json` with requests/sec and p50/p99 latency for
//! both a single-worker server (the old serial behaviour) and the full
//! worker pool. The headline metric is `speedup`: pooled rps over
//! single-worker rps at the same client count.
//!
//! Clients are *paced*: each submission's body is trickled in with
//! `--pace-ms` of transmission time, the WAN shape that made the serial
//! accept loop pathological — the server spends most of a request's
//! wall time waiting on the client's socket, so a serial server
//! serializes those waits while the pool overlaps them. Pacing is what
//! the fix is *for*; `--pace-ms 0` degenerates the bench into a pure
//! engine-throughput measurement (bounded by cores, not by the serve
//! architecture).
//!
//! ```sh
//! cargo run --release -p bench --bin serve_load -- \
//!     [--clients N] [--requests R] [--rows M] [--workers W] [--pace-ms P]
//! ```
//!
//! The server is stopped with SIGTERM after each variant and its exit
//! status checked, so the graceful-drain contract is exercised on every
//! bench run too.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bench::results::{quantile, BenchResult};
use bench::synthetic_hits_tsv;
use qurator_repro::ispider::figure7_view;

struct Args {
    clients: usize,
    requests: usize,
    rows: usize,
    workers: usize,
    pace: Duration,
}

fn parse_args() -> Args {
    let mut args =
        Args { clients: 8, requests: 12, rows: 200, workers: 8, pace: Duration::from_millis(150) };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = || -> usize {
            argv.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{} needs a number", argv[i]))
        };
        match argv[i].as_str() {
            "--clients" => args.clients = value().max(1),
            "--requests" => args.requests = value().max(1),
            "--rows" => args.rows = value().max(1),
            "--workers" => args.workers = value().max(1),
            "--pace-ms" => args.pace = Duration::from_millis(value() as u64),
            other => panic!("unknown flag {other:?}"),
        }
        i += 2;
    }
    args
}

/// The `qv` binary sits next to this bench binary in `target/<profile>/`.
fn qv_binary() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("target dir");
    let qv = dir.join("qv");
    assert!(
        qv.exists(),
        "{} not found; build with `cargo build --release -p qurator-cli`",
        qv.display()
    );
    qv
}

struct Server {
    child: Child,
    addr: String,
    /// Held open so the server's shutdown print has somewhere to go.
    _stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `qv serve` on an ephemeral port and parses the bound address
/// off its startup line.
fn spawn_server(qv: &std::path::Path, view: &std::path::Path, workers: usize) -> Server {
    let mut child = Command::new(qv)
        .arg("serve")
        .arg(view)
        .args(["--addr", "127.0.0.1:0"])
        .args(["--workers", &workers.to_string()])
        .args(["--keep-alive-max", "100000"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qv serve");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split([' ', '/']).next())
        .unwrap_or_else(|| panic!("cannot parse address from {line:?}"))
        .to_string();
    // the listener is bound before the line prints, but give the accept
    // loop a moment on loaded machines
    for _ in 0..50 {
        if TcpStream::connect(&addr).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Server { child, addr, _stdout: reader }
}

/// SIGTERM + wait: returns true when the server drained to exit 0.
fn stop_server(mut server: Server) -> bool {
    #[cfg(unix)]
    {
        let _ = Command::new("kill")
            .args(["-TERM", &server.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        for _ in 0..100 {
            if let Some(status) = server.child.try_wait().expect("try_wait") {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let _ = server.child.kill();
        false
    }
    #[cfg(not(unix))]
    {
        let _ = server.child.kill();
        true
    }
}

/// One keep-alive client: `requests` sequential POSTs on a single
/// connection, returning per-request latencies (ms) and the non-200
/// count. A non-zero `pace` trickles each body in two halves with the
/// pace as transmission time, holding the server's read for that long —
/// the slow-client shape.
fn run_client(
    addr: &str,
    view: &str,
    body: &str,
    requests: usize,
    pace: Duration,
) -> (Vec<f64>, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // each part goes out when written, so the pace is the only delay
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let head = format!(
        "POST /run/{view} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let (first, second) = body.as_bytes().split_at(body.len() / 2);
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0usize;
    for _ in 0..requests {
        let started = Instant::now();
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(first).expect("write body");
        stream.flush().expect("flush");
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
        stream.write_all(second).expect("write body");
        let status = read_response(&mut stream);
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        if status != 200 {
            errors += 1;
        }
    }
    (latencies, errors)
}

/// Reads one framed response, returning its status code.
fn read_response(stream: &mut TcpStream) -> u16 {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed the connection mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let content_length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - head_end - 4;
    while have < content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "server closed the connection mid-body");
        have += n;
    }
    status
}

/// Drives `clients` concurrent keep-alive clients and returns
/// (wall seconds, per-request latencies ms, error count).
fn drive(
    addr: &str,
    view: &str,
    body: &str,
    clients: usize,
    requests: usize,
    pace: Duration,
) -> (f64, Vec<f64>, usize) {
    let started = Instant::now();
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(move || run_client(addr, view, body, requests, pace)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut errors = 0;
    for (l, e) in results {
        latencies.extend(l);
        errors += e;
    }
    (wall, latencies, errors)
}

fn main() {
    let args = parse_args();
    let qv = qv_binary();

    // the Figure 7 view + synthetic Imprint gradient, on disk for qv
    let spec = figure7_view();
    let view_name = spec.name.clone();
    let dir = std::env::temp_dir().join("qv-serve-load");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let view_path = dir.join("figure7.xml");
    std::fs::write(&view_path, qurator::xmlio::spec_to_xml(&spec)).expect("write view");
    let body = synthetic_hits_tsv(args.rows);

    let run_variant = |workers: usize| -> (f64, Vec<f64>) {
        let server = spawn_server(&qv, &view_path, workers);
        // warm-up: condition compiler, annotation caches, allocator
        let (_, warm_errors) = run_client(&server.addr, &view_name, &body, 3, Duration::ZERO);
        assert_eq!(warm_errors, 0, "warm-up requests failed");
        let (wall, latencies, errors) =
            drive(&server.addr, &view_name, &body, args.clients, args.requests, args.pace);
        assert_eq!(errors, 0, "{errors} request(s) failed under workers={workers}");
        assert!(stop_server(server), "server did not drain to exit 0 (workers={workers})");
        let rps = (args.clients * args.requests) as f64 / wall;
        println!(
            "workers={workers:2}  clients={}  rps={rps:8.1}  p50={:.2}ms  p99={:.2}ms",
            args.clients,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
        );
        (rps, latencies)
    };

    let (rps_single, _) = run_variant(1);
    let (rps_pool, latencies) = run_variant(args.workers);
    let speedup = if rps_single > 0.0 { rps_pool / rps_single } else { 0.0 };
    println!("speedup: {speedup:.2}x over the single-worker (pre-fix) accept loop");

    let result = BenchResult::new("serve_load")
        .config("clients", args.clients)
        .config("requests_per_client", args.requests)
        .config("rows", args.rows)
        .config("workers", args.workers)
        .config("pace_ms", args.pace.as_millis())
        .config("view", &view_name)
        .metric("rps_single_worker", rps_single)
        .metric("rps_pool", rps_pool)
        .metric("speedup", speedup)
        .metric("p50_ms", quantile(&latencies, 0.5))
        .metric("p99_ms", quantile(&latencies, 0.99))
        .samples_ms(latencies);
    let path = result.write().expect("write artifact");
    println!("wrote {}", path.display());
}
