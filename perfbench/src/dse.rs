//! `dse-sweep`: per-layer sweeps over `SweepSpace::standard()` for every
//! distinct layer shape of MobileNetV2 and ResNet-50 (CONV, depthwise,
//! pointwise and FC)
//! under each Table-3 style's variant set, at one thread and at `nproc`
//! threads. The seed draws the sweep order.

use crate::stats::{median, ms, ChunkTimes, HostSpeed, Latencies, Rng};
use crate::trace::Trace;
use crate::{checks, Outcome, Run};
use maestro_dnn::{zoo, Layer};
use maestro_dse::{variants, DesignPoint, DseResult, Explorer, ParetoFront, SweepSpace};
use maestro_ir::{Dataflow, Style};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Inputs {
    layers: Vec<Layer>,
    /// Variant set per style.
    maps: Vec<Vec<Dataflow>>,
    /// (layer, style) sweeps in run order.
    sweeps: Vec<(usize, usize)>,
}

fn inputs(seed: u64) -> Inputs {
    // Each distinct layer shape once: repeated blocks would rerun
    // identical sweeps.
    let mut layers: Vec<Layer> = Vec::new();
    for l in [zoo::mobilenet_v2(1), zoo::resnet50(1)]
        .iter()
        .flat_map(|m| m.iter())
    {
        if !layers.iter().any(|k| k.op == l.op && k.dims == l.dims) {
            layers.push(l.clone());
        }
    }
    let maps: Vec<Vec<Dataflow>> = Style::ALL.iter().map(|&s| variants::variants(s)).collect();
    let mut sweeps: Vec<(usize, usize)> = (0..layers.len())
        .flat_map(|l| (0..maps.len()).map(move |s| (l, s)))
        .collect();
    Rng::new(seed).shuffle(&mut sweeps);
    Inputs {
        layers,
        maps,
        sweeps,
    }
}

/// FNV-1a over every deterministic field of a result (all but the
/// wall-clock `seconds` and `rate`).
fn digest(r: &DseResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &r.stats;
    for x in [
        s.explored,
        s.evaluated,
        s.valid,
        s.memo_hits,
        s.nonfinite_dropped,
        s.capacity_skipped,
        s.pareto_inserted,
        s.pareto_rejected,
        s.quarantined.len() as u64,
        u64::from(r.partial),
    ] {
        eat(x);
    }
    let best = [&r.best_throughput, &r.best_energy, &r.best_edp];
    let points = r
        .pareto
        .iter()
        .chain(best.into_iter().flatten())
        .chain(&r.sample);
    for p in points {
        for x in [p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes] {
            eat(x);
        }
        for x in [
            p.area_mm2,
            p.power_mw,
            p.runtime,
            p.throughput,
            p.energy,
            p.edp,
        ] {
            eat(x.to_bits());
        }
        for b in p.mapping.bytes() {
            eat(u64::from(b));
        }
    }
    h
}

/// What the first round of a phase keeps of each sweep's result.
struct Recorded {
    digest: u64,
    explored: u64,
    quarantined: usize,
}

/// Per-round totals of the deterministic sweep statistics.
#[derive(Default)]
struct Totals {
    explored: u64,
    valid: u64,
    capacity_skipped: u64,
    pareto_inserted: u64,
    pareto_rejected: u64,
}

/// One way of running the sweeps (one thread, `nproc` threads, traced).
#[derive(Default)]
struct Phase {
    /// Designs explored per second of sweep time, one entry per round.
    rates: Vec<f64>,
    busy: Duration,
    /// Sweep time over all rounds.
    wall: Duration,
    designs: u64,
    /// The first round's record of each sweep.
    recorded: Vec<Recorded>,
    totals: Totals,
    /// Each sweep's time in every round.
    chunks: ChunkTimes,
}

impl Phase {
    fn end_round(&mut self) {
        self.rates
            .push(self.designs as f64 / self.busy.as_secs_f64());
        self.wall += self.busy;
        self.busy = Duration::ZERO;
        self.designs = 0;
    }
}

/// Sweep `i` at `threads`, timed; the first round records its result.
fn sweep(
    ex: &Explorer,
    inp: &Inputs,
    i: usize,
    threads: usize,
    ph: &mut Phase,
) -> (Duration, DseResult) {
    let (l, s) = inp.sweeps[i];
    let t = Instant::now();
    let r = {
        let _s = maestro_obs::span::span("bench.dse.sweep");
        ex.explore_parallel(&inp.layers[l], &inp.maps[s], threads)
    }
    .expect("standard space is valid");
    let d = t.elapsed();
    ph.chunks.push(i, d);
    ph.busy += d;
    ph.designs += r.stats.explored;
    if ph.recorded.len() == i {
        ph.recorded.push(Recorded {
            digest: digest(&r),
            explored: r.stats.explored,
            quarantined: r.stats.quarantined.len(),
        });
        let t = &mut ph.totals;
        t.explored += r.stats.explored;
        t.valid += r.stats.valid;
        t.capacity_skipped += r.stats.capacity_skipped;
        t.pareto_inserted += r.stats.pareto_inserted;
        t.pareto_rejected += r.stats.pareto_rejected;
    }
    (d, r)
}

/// `ParetoFront::insert` timed on a sweep's sampled and front points.
fn time_pareto(r: &DseResult) -> (Duration, u64) {
    let pts: Vec<&DesignPoint> = r.sample.iter().chain(&r.pareto).collect();
    let t = Instant::now();
    let mut front = ParetoFront::new();
    for p in &pts {
        black_box(front.insert(p));
    }
    (t.elapsed(), pts.len() as u64)
}

/// The explored-count and quarantine checks on one phase's first round,
/// plus the brute-force oracle on `SweepSpace::tiny()` for every sweep.
fn check(inp: &Inputs, recorded: &[Recorded]) -> Vec<String> {
    let mut v = Vec::new();
    let std_size = SweepSpace::standard().size();
    let tiny = Explorer::new(SweepSpace::tiny());
    for (&(l, s), r) in inp.sweeps.iter().zip(recorded) {
        let what = format!("{}/{}", inp.layers[l].name, Style::ALL[s].short_name());
        let want = std_size * inp.maps[s].len() as u64;
        if r.explored != want {
            v.push(format!(
                "{what}: explored {} != space x variants {want}",
                r.explored
            ));
        }
        if r.quarantined > 0 {
            v.push(format!("{what}: {} work units quarantined", r.quarantined));
        }
        let t = tiny
            .explore(&inp.layers[l], &inp.maps[s])
            .expect("tiny space is valid");
        let front: Vec<(f64, f64)> = t.pareto.iter().map(|p| (p.runtime, p.energy)).collect();
        let (ov, of) = checks::dse_oracle(&tiny, &inp.layers[l], &inp.maps[s]);
        v.extend(checks::dse_matches_oracle(
            &what,
            t.stats.valid,
            &front,
            ov,
            &of,
        ));
    }
    v
}

pub fn run(run: &Run) -> Outcome {
    let (inp, first) = crate::setup_sample(|| inputs(run.seed));
    let mut setups = vec![first];
    let ex = Explorer::new(SweepSpace::standard());
    let mut out = Outcome::default();
    let threads = crate::stats::nproc();
    let (mut one, mut many, mut traced) = (Phase::default(), Phase::default(), Phase::default());
    let mut lat = Latencies::default();
    let mut trace = run.trace.then(Trace::default);
    let mut pareto = (Duration::ZERO, 0u64);
    let reg = maestro_obs::registry();
    let cache = ["hits", "misses", "stage_hits", "stage_misses"]
        .map(|n| reg.counter(&format!("maestro.cache.{n}")));
    let mut cache_delta = [0u64; 4];
    let mut host = HostSpeed::default();
    let start = Instant::now();
    while start.elapsed() < run.budget() || one.rates.is_empty() {
        for i in 0..inp.sweeps.len() {
            if host.sample().is_some() {
                setups.push(crate::setup_sample(|| inputs(run.seed)).1);
            }
            let (d, r) = sweep(&ex, &inp, i, 1, &mut one);
            lat.push(ms(d));
            black_box(r);
            black_box(sweep(&ex, &inp, i, threads, &mut many));
            if let Some(t) = trace.as_mut() {
                let before = cache.each_ref().map(|c| c.get());
                let (_, r) = t.record(|| sweep(&ex, &inp, i, 1, &mut traced));
                for (k, c) in cache.iter().enumerate() {
                    cache_delta[k] += c.get() - before[k];
                }
                if traced.rates.is_empty() {
                    let (d, n) = time_pareto(&r);
                    pareto.0 += d;
                    pareto.1 += n;
                }
            }
        }
        one.end_round();
        lat.end_round();
        many.end_round();
        if trace.is_some() {
            traced.end_round();
        }
    }
    out.violations = check(&inp, &one.recorded);
    for (i, (a, b)) in one.recorded.iter().zip(&many.recorded).enumerate() {
        if a.digest != b.digest {
            let (l, s) = inp.sweeps[i];
            out.violations.push(format!(
                "{}/{}: result at {threads} threads differs from 1 thread",
                inp.layers[l].name,
                Style::ALL[s].short_name()
            ));
        }
    }
    let rounds = one.rates.len() + many.rates.len() + traced.rates.len();
    out.attempted = (rounds * inp.sweeps.len()) as u64;
    out.note(format!(
        "{} sweeps per round ({} layers x 5 styles), {:.3e} designs per round; {} rounds each at 1 thread and at {threads}",
        inp.sweeps.len(),
        inp.layers.len(),
        one.totals.explored as f64,
        one.rates.len()
    ));
    let Some(trace) = trace else {
        crate::put_end_to_end(
            &mut out,
            &host,
            &setups,
            crate::stats::peak_rss_mb("self"),
            one.chunks.rate(one.totals.explored as f64),
            many.chunks.rate(many.totals.explored as f64),
            &lat,
        );
        return out;
    };
    let [hits, misses, stage_hits, stage_misses] = cache_delta.map(|x| x as f64);
    let t = &one.totals;
    put_core(&mut out, &trace, traced.rates.len() as f64);
    out.put("memo.hit_ratio", hits / (hits + misses));
    out.put(
        "memo.stage_hit_ratio",
        stage_hits / (stage_hits + stage_misses),
    );
    out.put("dse.sweep_ms", trace.mean_us("bench.dse.sweep") / 1e3);
    out.put("dse.expand_us", trace.mean_self_us("maestro.dse.unit"));
    out.put(
        "pareto.insert_ns",
        pareto.0.as_nanos() as f64 / pareto.1.max(1) as f64,
    );
    out.put("dse.valid_ratio", t.valid as f64 / t.explored as f64);
    out.put("dse.capacity_skipped", t.capacity_skipped as f64);
    out.put("dse.pareto_inserted", t.pareto_inserted as f64);
    out.put("dse.pareto_rejected", t.pareto_rejected as f64);
    out.put(
        "dse.parallel_speedup",
        median(&many.rates) / median(&one.rates),
    );
    out.put("setup.inputs_ms", 1e3 * median(&setups));
    crate::put_overhead(&mut out, median(&one.rates), median(&traced.rates));
    crate::put_attributed(&mut out, &trace, traced.wall);
    out.trace = Some(trace);
    out
}

/// Core-layer metrics from the program's own analysis spans: per-call
/// stage and finish means, and builds and finishes per round.
pub fn put_core(out: &mut Outcome, trace: &Trace, rounds: f64) {
    let builds = trace.get("maestro.analysis.tensor").count as f64;
    let stage_ns: u64 = ["tensor", "reuse", "buffer", "noc"]
        .iter()
        .map(|s| trace.get(&format!("maestro.analysis.{s}")).total_ns)
        .sum();
    out.put("core.build_us", stage_ns as f64 / builds.max(1.0) / 1e3);
    crate::put_stage_means(out, trace);
    out.put("core.finish_us", trace.mean_us("maestro.analysis.perf"));
    out.put("core.builds", builds / rounds);
    out.put(
        "core.finishes",
        trace.get("maestro.analysis.perf").count as f64 / rounds,
    );
}
