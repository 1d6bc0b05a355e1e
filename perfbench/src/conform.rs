//! `conform-sim`: the seeded conformance corpus (`conform::gen_case` from
//! seed 1, 2,000 cases), each case run through `conform::check_case` —
//! `analyze`, `maestro_sim::simulate` and the comparison under the default
//! tolerances, exactly as `maestro conform` classifies it. The corpus is
//! fixed, so its known divergences fail on every run; the seed draws the
//! order in which the cases run.

use crate::stats::{median, ms, parallel_chunks, ChunkTimes, HostSpeed, Latencies, Rng};
use crate::trace::Trace;
use crate::{checks, Outcome, Run};
use maestro_sim::conform::{check_case, gen_case, CaseOutcome};
use maestro_sim::{simulate, Case, ConformConfig, SimOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

const CORPUS_SEED: u64 = 1;
const CORPUS_CASES: usize = 2000;

fn corpus(seed: u64) -> Vec<Case> {
    let mut rng = proptest::TestRng::from_seed(CORPUS_SEED);
    let mut cases: Vec<Case> = (0..CORPUS_CASES).map(|_| gen_case(&mut rng)).collect();
    Rng::new(seed).shuffle(&mut cases);
    cases
}

/// Cases per chunk of a round (see `stats::ChunkTimes`).
const CHUNK: usize = 100;

/// One round over the corpus on this thread, timing each case and each
/// chunk.
fn round(
    cases: &[Case],
    cfg: &ConformConfig,
    lat: &mut Latencies,
    chunks: &mut ChunkTimes,
) -> (Duration, Vec<CaseOutcome>) {
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(cases.len());
    for (c, part) in cases.chunks(CHUNK).enumerate() {
        let tc = Instant::now();
        for case in part {
            let t = Instant::now();
            outcomes.push(black_box(check_case(case, &cfg.tol, cfg.max_steps)));
            lat.push(ms(t.elapsed()));
        }
        chunks.push(c, tc.elapsed());
    }
    (t0.elapsed(), outcomes)
}

/// One round with each case in a `bench.conform.case` span.
fn round_traced(cases: &[Case], cfg: &ConformConfig) -> (Duration, Vec<CaseOutcome>) {
    let t0 = Instant::now();
    let outcomes = cases
        .iter()
        .map(|case| {
            let _s = maestro_obs::span::span("bench.conform.case");
            black_box(check_case(case, &cfg.tol, cfg.max_steps))
        })
        .collect();
    (t0.elapsed(), outcomes)
}

/// One round on `threads` threads, chunk by chunk.
fn round_mt(
    cases: &[Case],
    cfg: &ConformConfig,
    threads: usize,
    chunks: &mut ChunkTimes,
) -> (Duration, Vec<CaseOutcome>) {
    let t0 = Instant::now();
    let (times, outcomes) = parallel_chunks(cases.len(), CHUNK, threads, |i| {
        black_box(check_case(&cases[i], &cfg.tol, cfg.max_steps))
    });
    for (c, d) in times.into_iter().enumerate() {
        chunks.push(c, d);
    }
    (t0.elapsed(), outcomes)
}

/// The simulator checks, on one simulation per compared case made outside
/// the timed rounds. Returns the violations and the simulated steps of a
/// round.
fn check_simulations(
    cases: &[Case],
    outcomes: &[CaseOutcome],
    max_steps: u64,
) -> (Vec<String>, u64) {
    let (mut v, mut steps) = (Vec::new(), 0);
    for (c, o) in cases.iter().zip(outcomes) {
        if matches!(o, CaseOutcome::Skipped(_)) {
            continue;
        }
        match simulate(&c.layer, &c.dataflow, &c.acc, SimOptions { max_steps }) {
            Ok(s) => {
                v.extend(checks::simulation(&c.layer, &c.acc, s.macs, s.cycles));
                steps += s.steps;
            }
            Err(e) => v.push(format!("{c}: compared, but simulates with error {e}")),
        }
    }
    (v, steps)
}

fn same_as_first(outcomes: &[CaseOutcome], first: &[CaseOutcome]) -> Option<String> {
    (outcomes != first).then(|| "a round's case outcomes differ from the first round's".to_string())
}

pub fn run(run: &Run) -> Outcome {
    let (cases, first) = crate::setup_sample(|| corpus(run.seed));
    let mut setups = vec![first];
    let cfg = ConformConfig::default();
    let threads = crate::stats::nproc();
    let mut out = Outcome::default();
    let n = cases.len() as f64;
    let mut trace = run.trace.then(Trace::default);
    let mut lat = Latencies::default();
    let (mut rates, mut rates_mt, mut traced_rates) = (vec![], vec![], vec![]);
    let mut first: Vec<CaseOutcome> = Vec::new();
    let mut wall = Duration::ZERO;
    let mut host = HostSpeed::default();
    let (mut chunks, mut chunks_mt) = (ChunkTimes::default(), ChunkTimes::default());
    let start = Instant::now();
    while start.elapsed() < run.budget() || rates.is_empty() {
        if host.sample().is_some() {
            setups.push(crate::setup_sample(|| corpus(run.seed)).1);
        }
        let (d, res) = round(&cases, &cfg, &mut lat, &mut chunks);
        lat.end_round();
        if first.is_empty() {
            first = res;
        } else {
            out.violations.extend(same_as_first(&res, &first));
        }
        rates.push(n / d.as_secs_f64());
        host.sample();
        let (d, res) = round_mt(&cases, &cfg, threads, &mut chunks_mt);
        out.violations.extend(same_as_first(&res, &first));
        rates_mt.push(n / d.as_secs_f64());
        if let Some(t) = trace.as_mut() {
            let (d, res) = t.record(|| round_traced(&cases, &cfg));
            out.violations.extend(same_as_first(&res, &first));
            wall += d;
            traced_rates.push(n / d.as_secs_f64());
        }
    }
    let (sim_violations, steps) = check_simulations(&cases, &first, cfg.max_steps);
    out.violations.extend(sim_violations);
    let count = |f: fn(&CaseOutcome) -> bool| first.iter().filter(|o| f(o)).count() as u64;
    let skipped = count(|o| matches!(o, CaseOutcome::Skipped(_)));
    let failed = count(|o| matches!(o, CaseOutcome::Diverged(_)));
    let compared = first.len() as u64 - skipped;
    let rounds = (rates.len() + rates_mt.len() + traced_rates.len()) as u64;
    out.attempted = rounds * compared;
    out.failed = rounds * failed;
    out.note(format!(
        "{} cases per round (seed {CORPUS_SEED}): {compared} compared, {failed} diverged, {skipped} skipped; {} rounds each at 1 thread and at {threads}",
        cases.len(),
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
    let sim = trace.get("maestro.sim.simulate");
    crate::dse::put_core(&mut out, &trace, traced_rates.len() as f64);
    out.put("sim.simulate_us", trace.mean_us("maestro.sim.simulate"));
    out.put("sim.steps", steps as f64);
    out.put(
        "sim.steps_per_s",
        (steps * traced_rates.len() as u64) as f64 / (sim.total_ns as f64 / 1e9),
    );
    out.put(
        "conform.analyze_us",
        trace.mean_us("maestro.analysis.analyze"),
    );
    out.put("conform.compared", compared as f64);
    out.put("conform.skipped", skipped as f64);
    out.put("setup.inputs_ms", 1e3 * median(&setups));
    crate::put_overhead(&mut out, median(&rates), median(&traced_rates));
    crate::put_attributed(&mut out, &trace, wall);
    out.trace = Some(trace);
    out
}
