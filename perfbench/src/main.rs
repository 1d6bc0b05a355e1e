//! perfbench: the repository's benchmark. One run measures one workload
//! end to end (`--trace 0`) or layer by layer (`--trace 1`), checks the
//! program's outputs, and prints a header, the metrics by name and, as its
//! last line, one JSON object:
//!
//! ```text
//! perfbench --workload <zoo-analyze|dse-sweep|conform-sim|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> --daemon <path to maestro>
//! ```
//!
//! It exits 1 when any output check fails and 2 on a usage error. See
//! README.md for the workloads, metrics and reference figures.

mod checks;
mod conform;
mod dse;
mod serve;
mod stats;
mod trace;
mod zoo;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::Trace;

/// End-to-end metrics (`--trace 0`), with units, as in BENCHMARK.json.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("ops_per_s_mt", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units, as in BENCHMARK.json. A
/// workload that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 36] = [
    ("core.build_us", "us"),
    ("core.stage.tensor_us", "us"),
    ("core.stage.reuse_us", "us"),
    ("core.stage.buffer_us", "us"),
    ("core.stage.noc_us", "us"),
    ("core.finish_us", "us"),
    ("core.builds", "count"),
    ("core.finishes", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.stage_hit_ratio", "ratio"),
    ("dse.sweep_ms", "ms"),
    ("dse.expand_us", "us"),
    ("pareto.insert_ns", "ns"),
    ("dse.valid_ratio", "ratio"),
    ("dse.capacity_skipped", "count"),
    ("dse.pareto_inserted", "count"),
    ("dse.pareto_rejected", "count"),
    ("dse.parallel_speedup", "ratio"),
    ("sim.simulate_us", "us"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("conform.analyze_us", "us"),
    ("conform.compared", "count"),
    ("conform.skipped", "count"),
    ("serve.queue_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.analyze_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.client_lag_ms", "ms"),
    ("setup.inputs_ms", "ms"),
    ("setup.daemon_ready_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// How many times `serve-mixed` starts the daemon to take the median
/// spawn-to-ready time.
pub const SETUP_REPEATS: usize = 21;

/// The shortest in-process set-up sample: a sample repeats the input build
/// until this much time has passed and reports the mean build, because a
/// single build (0.05 ms on `dse-sweep`) is shorter than the host's noise.
const SETUP_SAMPLE: Duration = Duration::from_millis(10);

/// One in-process set-up sample; returns the last build and the mean
/// seconds per build. The workloads take one before they start and one
/// beside every host-speed sample, so the set-up median sees the same host
/// as the rest of the run.
pub fn setup_sample<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let mut builds = 0u32;
    let mut last = None;
    while builds == 0 || t.elapsed() < SETUP_SAMPLE {
        drop(last.take());
        last = Some(std::hint::black_box(build()));
        builds += 1;
    }
    let secs = t.elapsed().as_secs_f64() / f64::from(builds);
    (last.expect("at least one build"), secs)
}

const WORKLOADS: [&str; 4] = ["zoo-analyze", "dse-sweep", "conform-sim", "serve-mixed"];

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    /// Where trace files and access logs go.
    pub out_dir: PathBuf,
}

impl Run {
    /// How long the run measures. Workloads interleave their phases (one
    /// thread, `nproc` threads and, when traced, one thread in spans) over
    /// the whole of it, so slow drifts of the host touch each phase alike.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The end-to-end metrics: set-up time (the median sample), peak memory,
/// the one-thread and all-threads rates (from chunk medians, see
/// `stats::ChunkTimes`) and the median operation latency (the p90 goes to
/// the notes, see README: host scaling and tails). Times and rates are
/// scaled to the reference host (see `stats::HostSpeed`); the raw figures
/// go to the report's notes.
pub fn put_end_to_end(
    out: &mut Outcome,
    host: &stats::HostSpeed,
    setups: &[f64],
    rss_mb: f64,
    rate: f64,
    rate_mt: f64,
    lat: &stats::Latencies,
) {
    let (setup_s, p50_ms) = (stats::median(setups), lat.p50());
    let (f, f_all) = (host.factor(), host.factor_all());
    out.note(format!(
        "raw: setup {setup_s:.6} s, {rate:.1}/s, {rate_mt:.1}/s on all threads, p50 {p50_ms:.6} ms, p90 {:.6} ms; host factor {f:.4}, all threads {f_all:.4}",
        lat.p90()
    ));
    out.put("setup_s", setup_s / f);
    out.put("peak_rss_mb", rss_mb);
    out.put("ops_per_s", rate * f);
    out.put("ops_per_s_mt", rate_mt * f_all);
    out.put("op_p50_ms", p50_ms / f);
}

/// Mean duration of each `maestro.analysis.*` build stage.
pub fn put_stage_means(out: &mut Outcome, trace: &Trace) {
    out.put(
        "core.stage.tensor_us",
        trace.mean_us("maestro.analysis.tensor"),
    );
    out.put(
        "core.stage.reuse_us",
        trace.mean_us("maestro.analysis.reuse"),
    );
    out.put(
        "core.stage.buffer_us",
        trace.mean_us("maestro.analysis.buffer"),
    );
    out.put("core.stage.noc_us", trace.mean_us("maestro.analysis.noc"));
}

/// Tracing overhead: how much the traced rate falls below the untraced one.
pub fn put_overhead(out: &mut Outcome, untraced: f64, traced: f64) {
    out.put(
        "obs.trace_overhead_pct",
        100.0 * (untraced - traced) / untraced,
    );
}

/// Reconciliation: the share of the traced phase's wall time that the
/// benchmark's root spans cover, and the rest.
pub fn put_attributed(out: &mut Outcome, trace: &Trace, wall: Duration) {
    let pct = 100.0 * trace.bench_root_ns as f64 / wall.as_nanos().max(1) as f64;
    out.put("trace.attributed_pct", pct);
    out.put("trace.unattributed_pct", 100.0 - pct);
    if pct < 90.0 {
        out.note(format!(
            "trace: {:.1}% of the traced wall time is unattributed",
            100.0 - pct
        ));
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> --daemon <maestro binary>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::from("maestro"),
        out_dir: PathBuf::from("perfbench-out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let val = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = val,
            "--seed" => run.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                run.seconds = val
                    .parse()
                    .map_err(|_| format!("bad value `{val}` for {flag}"))?
            }
            "--trace" => run.trace = val.parse::<u8>().map_err(bad)? != 0,
            "--daemon" => run.daemon = PathBuf::from(val),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload `{}`", run.workload));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(run)
}

/// First line of a command's stdout, or `none`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".to_string())
}

/// The commit of the working directory, when it is a git checkout's root.
fn git_sha() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    match (std::path::Path::new(&top).canonicalize().ok(), cwd) {
        (Some(t), Some(c)) if t == c => command_line("git", &["rev-parse", "HEAD"]),
        _ => "none".to_string(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs this process may run on, as the kernel lists them (`0-1`).
fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// The first CPU this process may run on.
fn first_cpu() -> Option<String> {
    Some(allowed_cpus()?.split([',', '-']).next()?.to_string())
}

/// The one CPU this process is pinned to, if it may run on only one.
fn pinned_cpu() -> Option<String> {
    allowed_cpus().filter(|l| !l.contains([',', '-']))
}

/// `serve-mixed` runs its client and the daemon on one CPU: on a small
/// virtual machine a request/reply that crosses vCPUs waits on the
/// hypervisor's wake-up, which swung one-connection throughput between
/// 7.4k and 16.6k requests/s from run to run. Re-run this process under
/// `taskset` (the daemon inherits the mask) and pass on its exit code.
fn pinned_rerun() -> Option<ExitCode> {
    let cpu = first_cpu()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args().skip(1))
        .env(stats::PINNED_NPROC, stats::nproc().to_string())
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(msg) => return usage(&msg),
    };
    if run.workload == "serve-mixed" && std::env::var_os(stats::PINNED_NPROC).is_none() {
        if let Some(code) = pinned_rerun() {
            return code;
        }
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let pinned = pinned_cpu();
    println!(
        "host nproc={} cpu=\"{}\" rustc=\"{}\" git={} pinned={}",
        stats::nproc(),
        cpu_model(),
        command_line("rustc", &["-V"]),
        git_sha(),
        pinned
            .as_ref()
            .map_or("no".to_string(), |c| format!("cpu{c}"))
    );
    let mut out = match run.workload.as_str() {
        "zoo-analyze" => zoo::run(&run),
        "dse-sweep" => dse::run(&run),
        "conform-sim" => conform::run(&run),
        _ => serve::run(&run),
    };
    if run.workload == "serve-mixed" && pinned.is_none() {
        out.violations.push(
            "serve-mixed ran unpinned (taskset missing or failed): its figures are not comparable"
                .to_string(),
        );
    }
    println!(
        "operations attempted={} failed={}",
        out.attempted, out.failed
    );
    for n in &out.notes {
        println!("note: {n}");
    }
    let mut correct = out.violations.is_empty();
    for v in out.violations.iter().take(20) {
        println!("VIOLATION: {v}");
    }
    if out.violations.len() > 20 {
        println!("VIOLATION: ... {} in all", out.violations.len());
    }
    if let Some(t) = &out.trace {
        let path = run
            .out_dir
            .join(format!("trace-{}-{}.jsonl", run.workload, run.seed));
        match t.write(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            // An unexercised layer reads 0; an end-to-end metric must be
            // measured on every workload.
            None if run.trace => 0.0,
            _ => {
                println!("VIOLATION: metric {name} was not measured ({value:?})");
                correct = false;
                0.0
            }
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
