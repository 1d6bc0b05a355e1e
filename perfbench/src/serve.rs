//! `serve-mixed`: the real `maestro serve` binary as a child process with
//! `nproc` workers, driven over TCP by this process with at most `nproc`
//! connections. The seeded request mix:
//!
//! * hot `/v1/analyze` points that repeat (report-cache hits);
//! * NoC-only variants of hot points: a fresh NoC bandwidth, so only the
//!   stage cache hits and the daemon runs `finish`;
//! * cold points drawn from every zoo layer x style x PE count, a set far
//!   larger than the daemon's shared cache (`--shards` x `--memo-cap`), so
//!   they build and evict;
//! * 8-point `/v1/batch` requests drawn from the same three kinds.
//!
//! The shares (60% hot, 20% NoC-only, 20% cold points; one request in ten
//! a batch, as in `loadgen --mode mixed`) and the 32-point hot set are
//! assumptions: the repository holds no record of real traffic. Every run
//! notes the share of each kind it served.
//!
//! An open-loop phase sends at a fixed rate well below capacity on one
//! keep-alive connection and times each request from when it was due.
//! Two closed-loop phases (`nproc` keep-alive connections, then one)
//! measure throughput. Client and daemon share one CPU (see `main.rs`).
//! Every served report is compared bit for bit with an in-process
//! `maestro_core::analyze` of the same point.

use crate::checks::{self, Served};
use crate::stats::{median, ms, nproc, quantile, HostSpeed, Latencies, Rng};
use crate::trace::Trace;
use crate::{Outcome, Run, SETUP_REPEATS};
use maestro_core::LayerReport;
use maestro_dnn::{zoo, Layer};
use maestro_hw::Accelerator;
use maestro_ir::Style;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's shared cache: `SHARDS` x `MEMO_CAP` entries per tier.
const SHARDS: u64 = 4;
const MEMO_CAP: u64 = 256;
/// PE counts of the point pool (every zoo layer analyzes at each).
const PES: [u64; 4] = [64, 128, 256, 1024];
const HOT_POINTS: usize = 32;
/// NoC bandwidth and L1/L2 sizes of hot and cold points.
const BW: u32 = 32;
const L1: u64 = 2048;
const L2: u64 = 1 << 20;
const BATCH: usize = 8;
/// Open-loop offered load, requests per second, from one sender on one
/// keep-alive connection.
const OPEN_RATE: f64 = 1000.0;
/// How long before a due time the open-loop sender stops sleeping.
const SPIN: Duration = Duration::from_micros(300);

/// One analyze point of the pool.
struct Entry {
    model: &'static str,
    layer: Layer,
    style: Style,
    pes: u64,
}

/// How a point was drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Hot,
    NocOnly,
    Cold,
}

/// A requested point: a pool entry at a NoC bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Point {
    entry: u32,
    bw: u32,
    kind: Kind,
}

struct Inputs {
    pool: Vec<Entry>,
    hot: Vec<u32>,
}

fn inputs(seed: u64) -> Inputs {
    let mut pool = Vec::new();
    for model in crate::zoo::ZOO {
        let m = zoo::by_name(model, 1).expect("zoo model");
        for layer in m.iter() {
            for style in Style::ALL {
                for pes in PES {
                    pool.push(Entry {
                        model,
                        layer: layer.clone(),
                        style,
                        pes,
                    });
                }
            }
        }
    }
    let mut rng = Rng::new(seed);
    let hot = (0..HOT_POINTS)
        .map(|_| rng.below(pool.len() as u64) as u32)
        .collect();
    Inputs { pool, hot }
}

/// Draw one point: 60% hot, 20% NoC-only variant of a hot point, 20% cold.
fn draw_point(rng: &mut Rng, inp: &Inputs) -> Point {
    let hot = |rng: &mut Rng| inp.hot[rng.below(inp.hot.len() as u64) as usize];
    match rng.below(10) {
        0..=5 => Point {
            entry: hot(rng),
            bw: BW,
            kind: Kind::Hot,
        },
        6 | 7 => Point {
            entry: hot(rng),
            bw: 33 + rng.below(4000) as u32,
            kind: Kind::NocOnly,
        },
        _ => Point {
            entry: rng.below(inp.pool.len() as u64) as u32,
            bw: BW,
            kind: Kind::Cold,
        },
    }
}

fn point_json(inp: &Inputs, p: Point) -> String {
    let e = &inp.pool[p.entry as usize];
    format!(
        "{{\"model\":\"{}\",\"layer\":\"{}\",\"dataflow\":\"{}\",\"pes\":{},\"bw\":{},\"l1\":{L1},\"l2\":{L2}}}",
        e.model,
        e.layer.name,
        e.style.short_name(),
        e.pes,
        p.bw
    )
}

/// Draw one request: one in ten is an 8-point batch. Returns the path,
/// the body and the points asked for.
fn draw_request(rng: &mut Rng, inp: &Inputs) -> (&'static str, String, Vec<Point>) {
    if rng.below(10) == 0 {
        let points: Vec<Point> = (0..BATCH).map(|_| draw_point(rng, inp)).collect();
        let items: Vec<String> = points.iter().map(|&p| point_json(inp, p)).collect();
        (
            "/v1/batch",
            format!("{{\"points\":[{}]}}", items.join(",")),
            points,
        )
    } else {
        let p = draw_point(rng, inp);
        ("/v1/analyze", point_json(inp, p), vec![p])
    }
}

struct Reply {
    status: u16,
    degraded: bool,
    body: String,
}

/// One HTTP/1.1 exchange on `s`; `buf` keeps bytes read past the reply.
fn exchange(
    s: &mut TcpStream,
    buf: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> Result<Reply, String> {
    let conn = if close { "Connection: close\r\n" } else { "" };
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut chunk = [0u8; 16384];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .ok_or("reply without content-length")?;
            if buf.len() >= end + 4 + len {
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad status line")?;
                let degraded = head.contains("\r\nx-maestro-degraded:");
                let body = String::from_utf8_lossy(&buf[end + 4..end + 4 + len]).into_owned();
                buf.drain(..end + 4 + len);
                return Ok(Reply {
                    status,
                    degraded,
                    body,
                });
            }
        }
        let n = s.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-reply".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// A one-off request on its own connection.
fn get(addr: &str, path: &str) -> Result<Reply, String> {
    exchange(&mut connect(addr)?, &mut Vec::new(), "GET", path, "", true)
}

/// The daemon child process. Dropping it kills a daemon still running.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `maestro serve` and wait until `/readyz` answers 200; returns
    /// the daemon and the time from spawn to ready.
    fn spawn(run: &Run, access_log: Option<&Path>) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(&run.daemon);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &nproc().to_string()])
            .args([
                "--shards",
                &SHARDS.to_string(),
                "--memo-cap",
                &MEMO_CAP.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(p) = access_log {
            cmd.arg("--access-log").arg(p);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", run.daemon.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut d = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        read.map_err(|e| format!("daemon announcement: {e}"))?;
        d.addr = line
            .trim()
            .strip_prefix("serving on ")
            .ok_or_else(|| format!("unexpected daemon announcement {line:?}"))?
            .to_string();
        loop {
            if let Ok(r) = get(&d.addr, "/readyz") {
                if r.status == 200 {
                    return Ok((d, t0.elapsed()));
                }
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("daemon not ready within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM the daemon and wait for it; a clean drain exits 0.
    fn stop(mut self) -> Result<(), String> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".to_string());
        }
        let t0 = Instant::now();
        loop {
            if let Some(st) = self.child.try_wait().map_err(|e| e.to_string())? {
                return match st.code() {
                    Some(0) => Ok(()),
                    code => Err(format!("daemon drained with exit status {code:?}")),
                };
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not exit within 30 s of SIGTERM".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client thread's record.
#[derive(Default)]
struct Client {
    requests: u64,
    batches: u64,
    points: u64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    connect_us: Vec<f64>,
    /// Wall time of the phase (closed loop: until the last reply).
    wall: Duration,
    /// Closed loop: when each reply came in, from the phase's start.
    done: Vec<Duration>,
    seen: Vec<(Point, Served)>,
    violations: Vec<String>,
}

impl Client {
    fn record(&mut self, path: &str, points: &[Point], reply: Result<Reply, String>) {
        self.requests += 1;
        self.batches += u64::from(path == "/v1/batch");
        self.points += points.len() as u64;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => return self.violations.push(format!("{path}: {e}")),
        };
        if !(200..300).contains(&reply.status) || reply.degraded {
            let head: String = reply.body.chars().take(200).collect();
            return self.violations.push(format!(
                "{path}: status {} degraded={} body {head}",
                reply.status, reply.degraded
            ));
        }
        let items = checks::served_reports(&reply.body);
        if items.len() != points.len() {
            return self.violations.push(format!(
                "{path}: {} items for {} points",
                items.len(),
                points.len()
            ));
        }
        for (&p, item) in points.iter().zip(items) {
            match item {
                Some(s) => self.seen.push((p, s)),
                None => self
                    .violations
                    .push(format!("{path}: error item for {p:?}")),
            }
        }
    }
}

/// What one phase's threads recorded, merged.
fn merge(clients: Vec<Client>) -> Client {
    let mut all = Client::default();
    for c in clients {
        all.requests += c.requests;
        all.batches += c.batches;
        all.points += c.points;
        all.latency_ms.extend(c.latency_ms);
        all.lag_ms.extend(c.lag_ms);
        all.connect_us.extend(c.connect_us);
        all.wall = all.wall.max(c.wall);
        all.done.extend(c.done);
        all.seen.extend(c.seen);
        all.violations.extend(c.violations);
    }
    all
}

/// Open loop: one sender on one keep-alive connection at `OPEN_RATE`,
/// every request timed from its due time.
fn open_loop(addr: &str, inp: &Inputs, seed: u64, dur: Duration) -> Client {
    let mut c = Client::default();
    let mut rng = Rng::new(seed ^ (0x0be1 << 32));
    let t = Instant::now();
    let mut st = match connect(addr) {
        Ok(st) => st,
        Err(e) => {
            c.violations.push(e);
            return c;
        }
    };
    c.connect_us.push(t.elapsed().as_secs_f64() * 1e6);
    let mut buf = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(5);
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let mut due = t0;
    while due < t0 + dur {
        let (path, body, points) = draw_request(&mut rng, inp);
        // Sleep to just short of the due time, then spin: a timer
        // wake-up overshoots by ~0.1 ms, which would be the client's lag,
        // not the daemon's latency.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        c.lag_ms.push(ms(due.elapsed()));
        let reply = {
            let _s = maestro_obs::span::span("bench.serve.request");
            exchange(&mut st, &mut buf, "POST", path, &body, false)
        };
        c.latency_ms.push(ms(due.elapsed()));
        let broken = reply.is_err();
        c.record(path, &points, reply);
        if broken {
            break;
        }
        due += interval;
    }
    c
}

/// Closed loop: `conns` keep-alive connections, each sending its next
/// request when the previous reply is in.
fn closed_loop(addr: &str, inp: &Inputs, seed: u64, conns: usize, dur: Duration) -> Client {
    let t0 = Instant::now();
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|j| {
                s.spawn(move || {
                    let mut c = Client::default();
                    let mut rng =
                        Rng::new(seed ^ (0xc105 << 32) ^ ((conns as u64) << 16) ^ j as u64);
                    let mut st = match connect(addr) {
                        Ok(st) => st,
                        Err(e) => {
                            c.violations.push(e);
                            return c;
                        }
                    };
                    let mut buf = Vec::new();
                    while t0.elapsed() < dur {
                        let (path, body, points) = draw_request(&mut rng, inp);
                        let t = Instant::now();
                        let reply = {
                            let _s = maestro_obs::span::span("bench.serve.request");
                            exchange(&mut st, &mut buf, "POST", path, &body, false)
                        };
                        c.latency_ms.push(ms(t.elapsed()));
                        c.wall = t0.elapsed();
                        c.done.push(c.wall);
                        let broken = reply.is_err();
                        c.record(path, &points, reply);
                        if broken {
                            break;
                        }
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    merge(clients)
}

/// Closed-loop throughput: replies per second of the phase.
fn rate(c: &Client) -> f64 {
    c.requests as f64 / c.wall.as_secs_f64()
}

/// The window of the closed-loop window rates.
const WINDOW: Duration = Duration::from_millis(20);

/// Closed-loop throughput window by window: the reply rate in each whole
/// `WINDOW` of the phase, appended to `into`. Their median drops the
/// windows in which the host took the CPU away (see `stats::ChunkTimes`).
fn window_rates(c: &Client, into: &mut Vec<f64>) {
    let whole = (c.wall.as_nanos() / WINDOW.as_nanos()) as usize;
    let mut counts = vec![0u32; whole];
    for d in &c.done {
        if let Some(n) = counts.get_mut((d.as_nanos() / WINDOW.as_nanos()) as usize) {
            *n += 1;
        }
    }
    into.extend(counts.iter().map(|&n| f64::from(n) / WINDOW.as_secs_f64()));
}

/// `maestro_analysis_calls` (cost-model builds) from `/metrics`.
fn builds(addr: &str) -> Result<f64, String> {
    let r = get(addr, "/metrics")?;
    r.body
        .lines()
        .find_map(|l| l.strip_prefix("maestro_analysis_calls "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no maestro_analysis_calls in /metrics".to_string())
}

/// Compare every served report with an in-process analysis of its point.
fn verify(inp: &Inputs, seen: &[(Point, Served)]) -> Vec<String> {
    let mut expected: HashMap<(u32, u32), Result<LayerReport, String>> = HashMap::new();
    let mut v = Vec::new();
    for (p, got) in seen {
        let e = &inp.pool[p.entry as usize];
        let want = expected.entry((p.entry, p.bw)).or_insert_with(|| {
            let acc = Accelerator::builder(e.pes)
                .noc_bandwidth(u64::from(p.bw))
                .l1_bytes(L1)
                .l2_bytes(L2)
                .build();
            maestro_core::analyze(&e.layer, &e.style.dataflow(), &acc).map_err(|x| x.to_string())
        });
        let what = format!(
            "{}/{}/{}/{} PEs/bw {}",
            e.model,
            e.layer.name,
            e.style.short_name(),
            e.pes,
            p.bw
        );
        match want {
            Ok(r) => v.extend(checks::served_matches(&what, e.style.short_name(), got, r)),
            Err(err) => v.push(format!(
                "{what}: served, but in-process analysis fails: {err}"
            )),
        }
    }
    v
}

/// Access-log column means over the analyze and batch requests.
fn access_means(path: &Path) -> Result<[f64; 4], String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("access log: {e}"))?;
    let cols = ["queue_us", "parse_us", "analyze_us", "serialize_us"];
    let mut sums = [0f64; 4];
    let mut n = 0f64;
    for line in text.lines().filter(|l| l.contains("\"route\":\"POST ")) {
        for (sum, col) in sums.iter_mut().zip(cols) {
            let tag = format!("\"{col}\":");
            let v = line
                .find(&tag)
                .map(|i| &line[i + tag.len()..])
                .and_then(|r| {
                    r[..r.find([',', '}']).unwrap_or(r.len())]
                        .parse::<f64>()
                        .ok()
                })
                .ok_or_else(|| format!("access-log line without {col}: {line}"))?;
            *sum += v;
        }
        n += 1.0;
    }
    if n == 0.0 {
        return Err("access log holds no POST requests".to_string());
    }
    Ok(sums.map(|s| s / n))
}

/// Spawn the daemon `SETUP_REPEATS` times; all but the last are drained
/// at once and must exit 0. Returns the last and every spawn-to-ready
/// time.
fn start(run: &Run, access_log: Option<&Path>) -> Result<(Daemon, Vec<f64>), String> {
    let mut ready = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let (d, t) = Daemon::spawn(run, None)?;
        ready.push(t.as_secs_f64());
        d.stop()?;
    }
    let (d, t) = Daemon::spawn(run, access_log)?;
    ready.push(t.as_secs_f64());
    Ok((d, ready))
}

pub fn run(run: &Run) -> Outcome {
    match measure(run) {
        Ok(out) => out,
        Err(e) => {
            let mut out = Outcome::default();
            out.violations.push(e);
            out
        }
    }
}

/// The daemons' own CPU use while the host-speed reference task runs.
/// They share the reference task's CPU, so a daemon that burns CPU while
/// idle (a busy poll, a spinning thread) would slow the reference task,
/// inflate the host factor and scale its own lost throughput back up.
#[derive(Debug, Default)]
struct IdleCpu {
    ticks: u64,
    sampled: Duration,
}

/// Most CPU share the idle daemons may take during host-speed samples.
const IDLE_CPU_MAX: f64 = 0.1;

impl IdleCpu {
    /// Take a host-speed sample (when due), counting the daemons' CPU
    /// ticks across it.
    fn sample(&mut self, host: &mut HostSpeed, daemons: &[&Daemon]) -> Result<(), String> {
        let ticks = || -> Result<u64, String> {
            daemons
                .iter()
                .map(|d| {
                    crate::stats::cpu_ticks(&d.pid())
                        .ok_or_else(|| format!("no CPU time for daemon {}", d.pid()))
                })
                .sum()
        };
        let before = ticks()?;
        if let Some(took) = host.sample() {
            self.ticks += ticks()? - before;
            self.sampled += took;
        }
        Ok(())
    }

    fn share(&self) -> f64 {
        self.ticks as f64 / crate::stats::CLOCK_TICKS / self.sampled.as_secs_f64().max(1e-9)
    }

    fn describe(&self) -> String {
        format!(
            "idle daemons used {:.1}% CPU during {:.3} s of host-speed samples",
            100.0 * self.share(),
            self.sampled.as_secs_f64()
        )
    }

    fn check(&self) -> Option<String> {
        (self.share() > IDLE_CPU_MAX).then(|| {
            format!(
                "{}: over {:.0}%, so the host factor would hide the daemons' own cost",
                self.describe(),
                100.0 * IDLE_CPU_MAX
            )
        })
    }
}

/// Phase lengths within one measuring cycle.
const OPEN_SEGMENT: Duration = Duration::from_millis(400);
const CLOSED_SEGMENT: Duration = Duration::from_millis(200);

fn measure(run: &Run) -> Result<Outcome, String> {
    let t = Instant::now();
    let inp = inputs(run.seed);
    let inputs_ms = ms(t.elapsed());
    let threads = nproc();
    let mut out = Outcome::default();
    // A traced run drives two daemons turn about: a plain one for the
    // untraced reference rate and one writing the access log.
    let access_log: Option<PathBuf> = run.trace.then(|| {
        run.out_dir
            .join(format!("access-{}-{}.jsonl", run.seed, std::process::id()))
    });
    if let Some(p) = &access_log {
        std::fs::create_dir_all(p.parent().expect("out dir")).map_err(|e| e.to_string())?;
    }
    let (d, ready) = start(run, access_log.as_deref())?;
    let plain = match run.trace {
        true => Some(Daemon::spawn(run, None)?.0),
        false => None,
    };
    let warm = Duration::from_secs_f64(run.seconds * 0.05);
    let mut clients = vec![closed_loop(&d.addr, &inp, run.seed, threads, warm)];
    if let Some(p) = &plain {
        clients.push(closed_loop(&p.addr, &inp, run.seed, threads, warm));
    }
    let builds0 = builds(&d.addr)?;
    let mut trace = run.trace.then(Trace::default);
    let (mut open, mut rate_many, mut rate_plain) = (vec![], vec![], vec![]);
    let (mut points, mut closed_wall) = (0u64, Duration::ZERO);
    let (mut windows_one, mut windows_many) = (vec![], vec![]);
    let mut host = HostSpeed::default();
    let mut idle = IdleCpu::default();
    let mut lat = Latencies::default();
    let start = Instant::now();
    let mut cycle = 0u64;
    while start.elapsed() < run.budget().saturating_sub(warm) || cycle == 0 {
        let daemons: Vec<&Daemon> = std::iter::once(&d).chain(&plain).collect();
        idle.sample(&mut host, &daemons)?;
        let seed = run.seed ^ (cycle << 8);
        cycle += 1;
        let o = open_loop(&d.addr, &inp, seed, OPEN_SEGMENT);
        points += o.points;
        for &l in &o.latency_ms {
            lat.push(l);
        }
        lat.end_round();
        open.push(o);
        idle.sample(&mut host, &daemons)?;
        let many = match trace.as_mut() {
            Some(t) => t.record(|| closed_loop(&d.addr, &inp, seed ^ 1, threads, CLOSED_SEGMENT)),
            None => closed_loop(&d.addr, &inp, seed ^ 1, threads, CLOSED_SEGMENT),
        };
        points += many.points;
        closed_wall += many.wall;
        rate_many.push(rate(&many));
        window_rates(&many, &mut windows_many);
        clients.push(many);
        if let Some(p) = &plain {
            let c = closed_loop(&p.addr, &inp, seed ^ 2, threads, CLOSED_SEGMENT);
            rate_plain.push(rate(&c));
            clients.push(c);
        } else {
            let one = closed_loop(&d.addr, &inp, seed ^ 3, 1, CLOSED_SEGMENT);
            points += one.points;
            window_rates(&one, &mut windows_one);
            clients.push(one);
        }
    }
    let builds1 = builds(&d.addr)?;
    let rss = crate::stats::peak_rss_mb(&d.pid());
    d.stop()?;
    if let Some(p) = plain {
        p.stop()?;
    }

    out.violations.extend(idle.check());
    let open = merge(open);
    let lag_p99 = quantile(&open.lag_ms, 0.99);
    let connect_us = median(&open.connect_us);
    let open_n = open.requests;
    clients.push(open);
    let total = merge(clients);
    out.violations = total.violations;
    out.violations.extend(verify(&inp, &total.seen));
    out.attempted = total.requests;
    let distinct: std::collections::HashSet<_> = inp
        .pool
        .iter()
        .map(|e| {
            (
                maestro_core::ShapeKey::of(&e.layer),
                e.style.short_name(),
                e.pes,
            )
        })
        .collect();
    out.note(format!(
        "{} requests, {} reports checked; {cycle} cycles, open loop {open_n} requests at {OPEN_RATE}/s; cold pool {} distinct contexts vs {} cache entries per tier",
        total.requests,
        total.seen.len(),
        distinct.len(),
        SHARDS * MEMO_CAP
    ));
    let served = total.seen.len().max(1) as f64;
    let share =
        |k: Kind| 100.0 * total.seen.iter().filter(|(p, _)| p.kind == k).count() as f64 / served;
    out.note(format!(
        "served: {:.1}% batch requests; points {:.1}% hot, {:.1}% NoC-only, {:.1}% cold",
        100.0 * total.batches as f64 / total.requests.max(1) as f64,
        share(Kind::Hot),
        share(Kind::NocOnly),
        share(Kind::Cold)
    ));
    out.note(idle.describe());
    let Some(trace) = trace else {
        crate::put_end_to_end(
            &mut out,
            &host,
            &ready,
            rss,
            median(&windows_one),
            median(&windows_many),
            &lat,
        );
        return Ok(out);
    };
    let cols = access_means(access_log.as_deref().expect("traced run"))?;
    for (name, v) in [
        "serve.queue_us",
        "serve.parse_us",
        "serve.analyze_us",
        "serve.serialize_us",
    ]
    .into_iter()
    .zip(cols)
    {
        out.put(name, v);
    }
    out.put("serve.connect_us", connect_us);
    out.put(
        "serve.cache_hit_ratio",
        1.0 - (builds1 - builds0) / points as f64,
    );
    out.put("serve.client_lag_ms", lag_p99);
    out.put("setup.inputs_ms", inputs_ms);
    out.put("setup.daemon_ready_ms", 1e3 * median(&ready));
    crate::put_overhead(&mut out, median(&rate_plain), median(&rate_many));
    crate::put_attributed(&mut out, &trace, closed_wall * threads as u32);
    out.trace = Some(trace);
    Ok(out)
}
