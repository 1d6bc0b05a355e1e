//! Order statistics, a seeded generator and small helpers shared by the
//! workloads.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank on a sorted
/// copy; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: the benchmark's input generator. Every input a workload
/// draws comes from one of these seeded with `--seed`, so the same seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be4c_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Operation latencies summarised per round: each round's p50 and p90,
/// then the median of those across rounds, so a burst of host noise that
/// spoils a few rounds does not move the figures.
#[derive(Debug, Default)]
pub struct Latencies {
    round: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.round.push(ms);
    }

    pub fn end_round(&mut self) {
        if !self.round.is_empty() {
            self.p50.push(quantile(&self.round, 0.5));
            self.p90.push(quantile(&self.round, 0.9));
            self.round.clear();
        }
    }

    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    pub fn p90(&self) -> f64 {
        median(&self.p90)
    }
}

/// Reference-task rate of the reference host (the 2-vCPU Xeon host the
/// README's figures come from), tasks per second on one thread, roughly.
pub const REF_RATE: f64 = 160.0;

/// The benchmark's own reference task: 48 times, sort 4,096 integers and
/// fold a quarter of them into a small hash map. It shares no code with
/// the program, so its rate tracks only the host: clock speed, steal time
/// and neighbours on the same cores. Its working set (32 KiB) is small, as
/// the workloads' are: in five-run trials on the reference host it tracked
/// all three in-process workloads more closely than a sort of 1.6 MB did.
fn reference_task() -> Duration {
    let t = std::time::Instant::now();
    let mut acc = 0u64;
    for r in 0..48u64 {
        let mut v: Vec<u64> = (0..4096u64)
            .map(|i| (i ^ r).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i >> 3))
            .collect();
        v.sort_unstable();
        let mut h = std::collections::HashMap::new();
        for x in v.iter().step_by(4) {
            *h.entry(x % 503).or_insert(0u64) += x;
        }
        acc = acc.wrapping_add(h.len() as u64 + v[7]);
    }
    std::hint::black_box(acc);
    t.elapsed()
}

/// Host speed, sampled between a workload's operations as the rate of the
/// reference task on one thread, and on `nproc` threads at once. A slow
/// host (a busy neighbour, a lower clock) moves the reference task and the
/// workload alike, while a change in the program's own speed moves only
/// the workload; scaling by the reference rate keeps the first out of the
/// figures. The workload's figures are medians that drop the moments the
/// host took the CPU away (see [`ChunkTimes`]), so they are scaled by the
/// reference task's uninterrupted rate, its upper quartile, not by its
/// median, which steal time drags down.
#[derive(Debug, Default)]
pub struct HostSpeed {
    one: Vec<f64>,
    all: Vec<f64>,
    last: Option<std::time::Instant>,
}

impl HostSpeed {
    /// Sample the reference task, at most every 200 ms; returns how long
    /// the sample took, or `None` when it was not yet due.
    pub fn sample(&mut self) -> Option<Duration> {
        if self
            .last
            .is_some_and(|t| t.elapsed() < Duration::from_millis(200))
        {
            return None;
        }
        let t0 = std::time::Instant::now();
        self.one.push(1.0 / reference_task().as_secs_f64());
        // As many threads as this process may run at once (one when pinned).
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let rates: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..cpus).map(|_| s.spawn(reference_task)).collect();
            hs.into_iter()
                .map(|h| 1.0 / h.join().expect("reference task").as_secs_f64())
                .collect()
        });
        self.all
            .push(rates.iter().sum::<f64>() / rates.len() as f64);
        self.last = Some(std::time::Instant::now());
        Some(t0.elapsed())
    }

    /// The factor that scales a one-thread rate measured now to the
    /// reference host; times are divided by it.
    pub fn factor(&self) -> f64 {
        REF_RATE / quantile(&self.one, 0.75)
    }

    /// The same for a rate measured on all threads.
    pub fn factor_all(&self) -> f64 {
        REF_RATE / quantile(&self.all, 0.75)
    }
}

/// Wall times of the same chunks of work (a sweep, a few hundred
/// analyses, a hundred conformance cases), round after round. On a shared
/// host a round's total carries whatever steal time and neighbours' bursts
/// fell into it; a chunk's median across rounds drops the rounds in which
/// that chunk was interrupted, while a change in the program's speed moves
/// the chunk in every round, and so its median.
#[derive(Debug, Default)]
pub struct ChunkTimes {
    /// Per chunk, its seconds in each round.
    times: Vec<Vec<f64>>,
}

impl ChunkTimes {
    /// Record one round's time of chunk `i`.
    pub fn push(&mut self, i: usize, d: Duration) {
        if self.times.len() <= i {
            self.times.resize_with(i + 1, Vec::new);
        }
        self.times[i].push(d.as_secs_f64());
    }

    /// Operations per second of a round whose chunks each take their
    /// median time; `ops` is the operations in one round.
    pub fn rate(&self, ops: f64) -> f64 {
        ops / self.times.iter().map(|t| median(t)).sum::<f64>()
    }
}

/// Run `work(i)` for every `i` in `0..n` on `threads` threads, `chunk`
/// items at a time: the threads take the chunk's items from a shared
/// counter and wait for each other at its end. Returns each chunk's wall
/// time and the results in item order.
pub fn parallel_chunks<R: Send>(
    n: usize,
    chunk: usize,
    threads: usize,
    work: impl Fn(usize) -> R + Sync,
) -> (Vec<Duration>, Vec<R>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next: Vec<AtomicUsize> = (0..n.div_ceil(chunk))
        .map(|c| AtomicUsize::new(c * chunk))
        .collect();
    let barrier = std::sync::Barrier::new(threads);
    let mut times = Vec::with_capacity(next.len());
    // Every thread runs this; the calling thread also times the chunks.
    let body = |mut times: Option<&mut Vec<Duration>>| {
        let mut out = Vec::new();
        barrier.wait();
        let mut t0 = std::time::Instant::now();
        for (c, counter) in next.iter().enumerate() {
            let end = n.min((c + 1) * chunk);
            loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                out.push((i, work(i)));
            }
            barrier.wait();
            if let Some(times) = times.as_deref_mut() {
                times.push(t0.elapsed());
                t0 = std::time::Instant::now();
            }
        }
        out
    };
    let mut results = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(|| body(None))).collect();
        let mut results = body(Some(&mut times));
        for h in helpers {
            results.extend(h.join().expect("parallel chunk worker panicked"));
        }
        results
    });
    results.sort_by_key(|r| r.0);
    (times, results.into_iter().map(|r| r.1).collect())
}

/// Environment variable carrying the host's parallelism into a run that
/// was pinned to one CPU (where `available_parallelism` reads 1).
pub const PINNED_NPROC: &str = "PERFBENCH_PINNED_NPROC";

/// Worker threads for the parallel phases: the host's available
/// parallelism.
pub fn nproc() -> usize {
    std::env::var(PINNED_NPROC)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Kernel clock ticks per second (`USER_HZ`), the unit of the CPU times
/// in `/proc/<pid>/stat`; 100 on every mainstream Linux build.
pub const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU time of process `pid` so far, in clock ticks, from
/// fields 14 and 15 of `/proc/<pid>/stat`; `None` when unreadable.
pub fn cpu_ticks(pid: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; count after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of process `pid` (`self` for this one), in MB,
/// from the kernel's `VmHWM` line; `NaN` when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rng_is_seeded_and_shuffle_is_a_permutation() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(v, s);
    }

    #[test]
    fn chunk_medians_drop_interrupted_rounds() {
        let mut c = ChunkTimes::default();
        let ms = Duration::from_millis;
        // Chunk 0 is interrupted in round 1, chunk 1 in round 2.
        for (a, b) in [(10, 20), (90, 20), (10, 80)] {
            c.push(0, ms(a));
            c.push(1, ms(b));
        }
        assert!((c.rate(3.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_chunks_run_every_item_once_in_order() {
        let (times, out) = parallel_chunks(103, 10, 3, |i| i * 2);
        assert_eq!(times.len(), 11);
        assert_eq!(out, (0..103).map(|i| i * 2).collect::<Vec<_>>());
        let (times, out) = parallel_chunks(5, 10, 1, |i| i);
        assert_eq!((times.len(), out), (1, vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn cpu_ticks_reads_this_process() {
        let before = cpu_ticks("self").expect("own /proc stat");
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(reference_task());
        }
        assert!(cpu_ticks("self").expect("own /proc stat") > before);
        assert_eq!(cpu_ticks("0"), None);
    }

    #[test]
    fn latencies_take_the_median_of_per_round_quantiles() {
        let mut l = Latencies::default();
        for r in 0..5 {
            // One spoiled round out of five.
            let scale = if r == 2 { 100.0 } else { 1.0 };
            for i in 1..=100 {
                l.push(f64::from(i) * scale);
            }
            l.end_round();
        }
        assert_eq!(l.p50(), 51.0);
        assert_eq!(l.p90(), 90.0);
    }
}
