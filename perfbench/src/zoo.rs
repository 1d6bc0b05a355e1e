//! `zoo-analyze`: every layer of the ten zoo networks under the five
//! Table-3 styles at 64, 256 and 1024 PEs, one fused `analyze` per point
//! per pass, no cache. The seed draws each point's NoC bandwidth and the
//! pass order.

use crate::stats::{median, ms, parallel_chunks, ChunkTimes, HostSpeed, Latencies, Rng};
use crate::trace::Trace;
use crate::{checks, Outcome, Run};
use maestro_core::{analyze, StagedAnalysis};
use maestro_dnn::{zoo, Layer};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Style};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The ten zoo networks, by CLI name.
pub const ZOO: [&str; 10] = [
    "vgg16",
    "alexnet",
    "resnet50",
    "resnext50",
    "mobilenet_v2",
    "unet",
    "dcgan",
    "deepspeech2",
    "googlenet",
    "efficientnet_b0",
];
const PES: [u64; 3] = [64, 256, 1024];

struct Point {
    layer: usize,
    style: usize,
    acc: Accelerator,
}

struct Inputs {
    layers: Vec<Layer>,
    flows: Vec<Dataflow>,
    points: Vec<Point>,
}

pub fn zoo_layers() -> Vec<Layer> {
    ZOO.iter()
        .flat_map(|name| zoo::by_name(name, 1).expect("zoo model").layers().to_vec())
        .collect()
}

fn inputs(seed: u64) -> Inputs {
    let bws = maestro_dse::SweepSpace::standard().noc_bw;
    let mut rng = Rng::new(seed);
    let layers = zoo_layers();
    let flows: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    let mut points = Vec::with_capacity(layers.len() * flows.len() * PES.len());
    for layer in 0..layers.len() {
        for style in 0..flows.len() {
            for pes in PES {
                let bw = bws[rng.below(bws.len() as u64) as usize];
                let acc = Accelerator::builder(pes).noc_bandwidth(bw).build();
                points.push(Point { layer, style, acc });
            }
        }
    }
    rng.shuffle(&mut points);
    Inputs {
        layers,
        flows,
        points,
    }
}

/// Points per chunk of a pass (see `stats::ChunkTimes`).
const CHUNK: usize = 1024;

/// One single-threaded pass, timing each call and each chunk; returns its
/// wall time.
fn pass(inp: &Inputs, lat: &mut Latencies, chunks: &mut ChunkTimes) -> Duration {
    let t0 = Instant::now();
    for (c, part) in inp.points.chunks(CHUNK).enumerate() {
        let tc = Instant::now();
        for p in part {
            let t = Instant::now();
            let r = analyze(&inp.layers[p.layer], &inp.flows[p.style], &p.acc);
            lat.push(ms(t.elapsed()));
            black_box(r).expect("analysis of a checked point");
        }
        chunks.push(c, tc.elapsed());
    }
    t0.elapsed()
}

/// One pass on `threads` threads, chunk by chunk; returns its wall time.
fn pass_mt(inp: &Inputs, threads: usize, chunks: &mut ChunkTimes) -> Duration {
    let t0 = Instant::now();
    let (times, _) = parallel_chunks(inp.points.len(), CHUNK, threads, |i| {
        let p = &inp.points[i];
        black_box(analyze(&inp.layers[p.layer], &inp.flows[p.style], &p.acc))
            .expect("analysis of a checked point");
    });
    for (c, d) in times.into_iter().enumerate() {
        chunks.push(c, d);
    }
    t0.elapsed()
}

/// One pass with the build and finish stages in `bench.*` spans.
fn pass_traced(inp: &Inputs) -> Duration {
    let t0 = Instant::now();
    for p in &inp.points {
        let staged = {
            let _s = maestro_obs::span::span("bench.core.build");
            StagedAnalysis::build(&inp.layers[p.layer], &inp.flows[p.style], &p.acc)
        }
        .expect("analysis of a checked point");
        let _s = maestro_obs::span::span("bench.core.finish");
        black_box(staged.finish(p.acc.noc.bandwidth, p.acc.noc.avg_latency))
            .expect("analysis of a checked point");
    }
    t0.elapsed()
}

/// Every output check on every point, outside the timed region.
fn check(inp: &Inputs) -> Vec<String> {
    let mut v = Vec::new();
    for p in &inp.points {
        let layer = &inp.layers[p.layer];
        let flow = &inp.flows[p.style];
        match analyze(layer, flow, &p.acc) {
            Ok(r) => v.extend(checks::report(layer, &p.acc, &r)),
            Err(e) => v.push(format!(
                "{}/{}: analysis failed: {e}",
                layer.name,
                flow.name()
            )),
        }
        if let Ok(s) = StagedAnalysis::build(layer, flow, &p.acc) {
            v.extend(checks::noc_monotone(
                &s,
                &[1, 4, 16, 64, 256],
                &[1, 2, 4, 16],
            ));
        }
    }
    v
}

pub fn run(run: &Run) -> Outcome {
    let (inp, first) = crate::setup_sample(|| inputs(run.seed));
    let mut setups = vec![first];
    let n = inp.points.len() as f64;
    let mut out = Outcome {
        violations: check(&inp),
        ..Outcome::default()
    };
    if !out.violations.is_empty() {
        return out;
    }
    let threads = crate::stats::nproc();
    let mut trace = run.trace.then(Trace::default);
    let mut lat = Latencies::default();
    let (mut rates, mut rates_mt, mut traced_rates) = (vec![], vec![], vec![]);
    let mut wall = Duration::ZERO;
    let mut host = HostSpeed::default();
    let (mut chunks, mut chunks_mt) = (ChunkTimes::default(), ChunkTimes::default());
    let start = Instant::now();
    while start.elapsed() < run.budget() || rates.len() < 3 {
        if host.sample().is_some() {
            setups.push(crate::setup_sample(|| inputs(run.seed)).1);
        }
        rates.push(n / pass(&inp, &mut lat, &mut chunks).as_secs_f64());
        lat.end_round();
        rates_mt.push(n / pass_mt(&inp, threads, &mut chunks_mt).as_secs_f64());
        if let Some(t) = trace.as_mut() {
            let d = t.record(|| pass_traced(&inp));
            wall += d;
            traced_rates.push(n / d.as_secs_f64());
        }
    }
    let passes = rates.len() + rates_mt.len() + traced_rates.len();
    out.attempted = passes as u64 * inp.points.len() as u64;
    out.note(format!(
        "{} points ({} layers x 5 styles x {:?} PEs); {} passes each at 1 thread and at {threads}",
        inp.points.len(),
        inp.layers.len(),
        PES,
        rates.len()
    ));
    let Some(trace) = trace else {
        crate::put_end_to_end(
            &mut out,
            &host,
            &setups,
            crate::stats::peak_rss_mb("self"),
            chunks.rate(n),
            chunks_mt.rate(n),
            &lat,
        );
        return out;
    };
    let rounds = traced_rates.len() as f64;
    out.put("core.build_us", trace.mean_us("bench.core.build"));
    crate::put_stage_means(&mut out, &trace);
    out.put("core.finish_us", trace.mean_us("bench.core.finish"));
    out.put(
        "core.builds",
        trace.get("bench.core.build").count as f64 / rounds,
    );
    out.put(
        "core.finishes",
        trace.get("bench.core.finish").count as f64 / rounds,
    );
    out.put("setup.inputs_ms", 1e3 * median(&setups));
    crate::put_overhead(&mut out, median(&rates), median(&traced_rates));
    crate::put_attributed(&mut out, &trace, wall);
    out.trace = Some(trace);
    out
}
