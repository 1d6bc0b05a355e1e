//! The traced run's span bookkeeping.
//!
//! The benchmark opens its own `bench.*` spans (through maestro-obs's span
//! API) around every call it makes into a layer; the program's existing
//! spans (`maestro.analysis.*`, `maestro.dse.unit`, `maestro.sim.simulate`)
//! nest inside them. Events are drained after every traced pass and folded
//! into per-name totals, so memory stays bounded however long the run; the
//! first [`KEEP`] raw events are kept and written out when the run ends.

use maestro_obs::span::{self, SpanEvent};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Raw events retained for the trace file.
const KEEP: usize = 100_000;

/// Per-span-name totals.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub stats: BTreeMap<&'static str, SpanStat>,
    /// Summed duration of root spans the benchmark opened (`bench.*`): the
    /// part of the timed wall time the trace accounts for.
    pub bench_root_ns: u64,
    kept: Vec<SpanEvent>,
}

impl Trace {
    /// Run `f` with span collection on, then fold what it recorded.
    pub fn record<T>(&mut self, f: impl FnOnce() -> T) -> T {
        span::enable();
        let out = f();
        span::disable();
        let events = span::drain();
        self.fold(&events);
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(events.into_iter().take(room));
        out
    }

    fn fold(&mut self, events: &[SpanEvent]) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for e in events {
            if let Some(p) = e.parent {
                *child_ns.entry(p).or_default() += e.duration_ns;
            }
        }
        for e in events {
            let s = self.stats.entry(e.name).or_default();
            s.count += 1;
            s.total_ns += e.duration_ns;
            s.self_ns += e
                .duration_ns
                .saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0));
            if e.parent.is_none() && e.name.starts_with("bench.") {
                self.bench_root_ns += e.duration_ns;
            }
        }
    }

    pub fn get(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of `name` in µs (0 when it never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let s = self.get(name);
        if s.count == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.count as f64 / 1e3
        }
    }

    /// Mean self time of `name` in µs (0 when it never ran).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let s = self.get(name);
        if s.count == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.count as f64 / 1e3
        }
    }

    /// Write the kept events as JSON Lines, followed by one
    /// `{"summary": ...}` line per span name.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = span::to_jsonl(&self.kept);
        for (name, s) in &self.stats {
            out.push_str(&format!(
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}\n",
                s.count, s.total_ns, s.self_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, id: u64, parent: Option<u64>, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            id,
            parent,
            thread: 0,
            depth: u32::from(parent.is_some()),
            start_ns: 0,
            duration_ns: dur,
            trace: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::default();
        t.fold(&[
            ev("bench.a", 1, None, 100),
            ev("maestro.b", 2, Some(1), 30),
            ev("maestro.b", 3, Some(1), 50),
            ev("maestro.c", 4, None, 7),
        ]);
        assert_eq!(t.get("bench.a").self_ns, 20);
        assert_eq!(t.get("maestro.b").count, 2);
        assert_eq!(t.get("maestro.b").self_ns, 80);
        assert_eq!(t.bench_root_ns, 100, "only bench roots count as attributed");
        assert_eq!(t.mean_us("maestro.b"), 0.04);
    }
}
