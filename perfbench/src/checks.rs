//! Output checks. Each compares a program output against a value the
//! benchmark computes apart from the program (dimension products, tensor
//! sizes, a brute-force design-space oracle, an in-process analysis) or
//! against a property the method must have. A check returns the list of
//! violations it found; an empty list means the output passed.
//!
//! Bounds are written `!(value >= bound)` so that a NaN fails them.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use maestro_core::{LayerReport, StagedAnalysis};
use maestro_dnn::{Layer, Operator, TensorKind};
use maestro_hw::{Accelerator, EnergyModel};
use maestro_ir::Dataflow;

/// Relative floating-point rounding allowed between the model's
/// `macs_dense` and the exact dimension product.
const MACS_ROUNDING: f64 = 1e-12;

/// Dense MAC count of `layer`, from its `LayerDims` and operator alone.
pub fn dense_macs(layer: &Layer) -> u64 {
    let d = &layer.dims;
    let (oy, ox) = (d.out_y(), d.out_x());
    match layer.op {
        Operator::Conv2d { .. } | Operator::TransposedConv2d { .. } => {
            d.n * d.k * d.c * oy * ox * d.r * d.s
        }
        Operator::DepthwiseConv2d | Operator::Pooling => d.n * d.c * oy * ox * d.r * d.s,
        Operator::FullyConnected => d.n * d.k * d.c,
        Operator::ElementwiseAdd => d.n * d.k * oy * ox,
    }
}

/// Element counts of the weight (second operand) and output tensors.
pub fn weight_output_elems(layer: &Layer) -> (u64, u64) {
    let d = &layer.dims;
    let (oy, ox) = (d.out_y(), d.out_x());
    match layer.op {
        Operator::Conv2d { .. } | Operator::TransposedConv2d { .. } => {
            (d.k * d.c * d.r * d.s, d.n * d.k * oy * ox)
        }
        Operator::DepthwiseConv2d => (d.c * d.r * d.s, d.n * d.c * oy * ox),
        Operator::Pooling => (0, d.n * d.c * oy * ox),
        Operator::FullyConnected => (d.k * d.c, d.n * d.k),
        Operator::ElementwiseAdd => (d.n * d.k * oy * ox, d.n * d.k * oy * ox),
    }
}

/// The checks on one `analyze` report of `layer` on `acc`.
pub fn report(layer: &Layer, acc: &Accelerator, r: &LayerReport) -> Vec<String> {
    let mut v = Vec::new();
    let at = format!("{}/{}/{} PEs", layer.name, r.dataflow, acc.num_pes);
    // The model accumulates `macs_dense` in floating point, so it may
    // differ from the exact product by rounding (README: faults found);
    // anything beyond rounding, such as one MAC, is a violation.
    let macs = dense_macs(layer) as f64;
    if (r.macs_dense - macs).abs() > MACS_ROUNDING * macs {
        v.push(format!(
            "{at}: macs_dense {} != dimension product {macs}",
            r.macs_dense
        ));
    }
    let floor = r.macs_effective / (r.used_pes * acc.vector_width) as f64;
    if !(r.runtime >= floor) {
        v.push(format!(
            "{at}: runtime {} below compute floor {floor}",
            r.runtime
        ));
    }
    if !(r.utilization > 0.0 && r.utilization <= 1.0) {
        v.push(format!(
            "{at}: utilization {} outside (0, 1]",
            r.utilization
        ));
    }
    let c = &r.counts;
    if matches!(
        layer.op,
        Operator::Conv2d { .. } | Operator::DepthwiseConv2d | Operator::FullyConnected
    ) {
        for kind in [TensorKind::Input, TensorKind::Weight] {
            if !(c.l1_read[kind] >= r.macs_effective) {
                v.push(format!(
                    "{at}: L1 reads of {kind:?} {} below effective MACs {}",
                    c.l1_read[kind], r.macs_effective
                ));
            }
        }
    }
    let (weights, outputs) = weight_output_elems(layer);
    if !(c.l2_write[TensorKind::Output] >= outputs as f64) {
        v.push(format!(
            "{at}: L2 output writes {} below the output tensor's {outputs}",
            c.l2_write[TensorKind::Output]
        ));
    }
    if !(c.dram_read[TensorKind::Weight] >= weights as f64) {
        v.push(format!(
            "{at}: DRAM weight reads {} below the weight tensor's {weights}",
            c.dram_read[TensorKind::Weight]
        ));
    }
    v
}

/// `finish` runtime must not rise as NoC bandwidth rises, nor fall as NoC
/// latency rises. `bws` and `lats` are ascending.
pub fn noc_monotone(staged: &StagedAnalysis, bws: &[u64], lats: &[u64]) -> Vec<String> {
    let mut v = Vec::new();
    let rt = |bw, lat| staged.finish(bw, lat).map(|r| r.runtime);
    let at = format!("{}/{}", staged.layer(), staged.dataflow());
    for w in bws.windows(2) {
        match (rt(w[0], 1), rt(w[1], 1)) {
            (Ok(a), Ok(b)) if b <= a => {}
            (a, b) => v.push(format!(
                "{at}: runtime at bandwidth {} ({a:?}) vs {} ({b:?})",
                w[0], w[1]
            )),
        }
    }
    for w in lats.windows(2) {
        match (rt(16, w[0]), rt(16, w[1])) {
            (Ok(a), Ok(b)) if b >= a => {}
            (a, b) => v.push(format!(
                "{at}: runtime at latency {} ({a:?}) vs {} ({b:?})",
                w[0], w[1]
            )),
        }
    }
    v
}

/// The simulator's checks: its MAC count equals the dimension product and
/// its cycles are at least the compute floor.
pub fn simulation(layer: &Layer, acc: &Accelerator, macs: u64, cycles: f64) -> Vec<String> {
    let mut v = Vec::new();
    let exact = dense_macs(layer);
    if macs != exact {
        v.push(format!(
            "{}: simulated MACs {macs} != dimension product {exact}",
            layer.name
        ));
    }
    let floor = exact as f64 / (acc.num_pes * acc.vector_width) as f64;
    if !(cycles >= floor) {
        v.push(format!(
            "{}: simulated cycles {cycles} below compute floor {floor}",
            layer.name
        ));
    }
    v
}

/// A brute-force design-space sweep: every grid point analyzed with the
/// fused `analyze`, filtered with the public area, power and energy
/// models, and an O(n²) Pareto front over (runtime, energy). Returns the
/// valid-point count and the front's distinct (runtime, energy) pairs,
/// sorted.
pub fn dse_oracle(
    ex: &maestro_dse::Explorer,
    layer: &Layer,
    maps: &[Dataflow],
) -> (u64, Vec<(f64, f64)>) {
    let s = &ex.space;
    let prec = ex.precision_bytes.max(1);
    let mut valid = 0u64;
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for &pes in &s.pes {
        for map in maps {
            for &bw in &s.noc_bw {
                let builder = || {
                    Accelerator::builder(pes)
                        .noc_bandwidth(bw)
                        .precision_bytes(ex.precision_bytes)
                };
                let Ok(r) = maestro_core::analyze(layer, map, &builder().build()) else {
                    continue;
                };
                for &l1 in &s.l1_bytes {
                    for &l2 in &s.l2_bytes {
                        if l1 / prec < r.l1_per_pe_elems || l2 / prec < r.l2_staging_elems {
                            continue;
                        }
                        let placed = builder().l1_bytes(l1).l2_bytes(l2).build();
                        let area = ex.area_model.total_area(&placed);
                        let power = ex.power_model.total_power(&placed);
                        if area > ex.constraints.max_area_mm2 || power > ex.constraints.max_power_mw
                        {
                            continue;
                        }
                        let mut em = EnergyModel::cacti_28nm(l1, l2);
                        em.dram = ex.dram_pj;
                        let mut counts = r.counts;
                        let (dr, dw) = maestro_core::report::offchip_traffic(
                            &counts,
                            r.tensor_elems,
                            l2 / prec,
                        );
                        counts.dram_read = dr;
                        counts.dram_write = dw;
                        let e = counts.energy(&em);
                        let finite = [area, power, r.runtime, r.throughput(), e, e * r.runtime]
                            .iter()
                            .all(|x| x.is_finite());
                        if finite {
                            valid += 1;
                            pts.push((r.runtime, e));
                        }
                    }
                }
            }
        }
    }
    (valid, pareto_pairs(&pts))
}

/// Distinct non-dominated (runtime, energy) pairs of `pts`, sorted.
pub fn pareto_pairs(pts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut front: Vec<(f64, f64)> = pts
        .iter()
        .filter(|p| {
            !pts.iter()
                .any(|q| q.0 <= p.0 && q.1 <= p.1 && (q.0 < p.0 || q.1 < p.1))
        })
        .copied()
        .collect();
    front.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    front.dedup_by(|a, b| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
    front
}

/// The explorer's result against the oracle's: valid count and front
/// (runtime, energy) pairs, bit for bit.
pub fn dse_matches_oracle(
    what: &str,
    valid: u64,
    front: &[(f64, f64)],
    oracle_valid: u64,
    oracle_front: &[(f64, f64)],
) -> Vec<String> {
    let mut v = Vec::new();
    if valid != oracle_valid {
        v.push(format!(
            "{what}: {valid} valid designs, oracle finds {oracle_valid}"
        ));
    }
    let mut got = front.to_vec();
    got.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let same = got.len() == oracle_front.len()
        && got
            .iter()
            .zip(oracle_front)
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
    if !same {
        v.push(format!(
            "{what}: front of {} points differs from the oracle's {} points",
            got.len(),
            oracle_front.len()
        ));
    }
    v
}

/// The fields of one served report that are compared with an in-process
/// analysis, as the daemon printed them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Served {
    pub dataflow: String,
    pub runtime: String,
    pub macs_dense: String,
    pub l1_per_pe_elems: String,
    pub l2_staging_elems: String,
}

/// Extract the value printed after `"key":` (up to the next `,` or `}`;
/// string values without their quotes).
fn field(body: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return Some(s[..s.find('"')?].to_string());
    }
    let end = rest.find([',', '}'])?;
    Some(rest[..end].to_string())
}

/// Every `"report":{...}` in a served body (one for `/v1/analyze`, one
/// per item for `/v1/batch`), or `None` for an item that carries no
/// report (an error item).
pub fn served_reports(body: &str) -> Vec<Option<Served>> {
    let mut items = Vec::new();
    let parts: Vec<&str> = body.split("\"report\":{").collect();
    // Each part after the first opens with a report; a batch item without
    // one shows up as an `"error"` key after it (or before the first).
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            items.push(Some(Served {
                dataflow: field(part, "dataflow").unwrap_or_default(),
                runtime: field(part, "runtime").unwrap_or_default(),
                macs_dense: field(part, "macs_dense").unwrap_or_default(),
                l1_per_pe_elems: field(part, "l1_per_pe_elems").unwrap_or_default(),
                l2_staging_elems: field(part, "l2_staging_elems").unwrap_or_default(),
            }));
        }
        items.extend(std::iter::repeat_n(None, part.matches("\"error\"").count()));
    }
    items
}

/// A served report against the in-process `expected` analysis of the same
/// point: the dataflow names the requested style and the numbers are
/// equal bit for bit.
pub fn served_matches(
    what: &str,
    style: &str,
    got: &Served,
    expected: &LayerReport,
) -> Vec<String> {
    let mut v = Vec::new();
    if got.dataflow != style {
        v.push(format!(
            "{what}: served dataflow `{}` for requested style `{style}`",
            got.dataflow
        ));
    }
    let f64_eq = |s: &str, x: f64| s.parse::<f64>().is_ok_and(|y| y.to_bits() == x.to_bits());
    let u64_eq = |s: &str, x: u64| s.parse::<u64>().is_ok_and(|y| y == x);
    if !f64_eq(&got.runtime, expected.runtime) {
        v.push(format!(
            "{what}: served runtime {} != in-process {:?}",
            got.runtime, expected.runtime
        ));
    }
    if !f64_eq(&got.macs_dense, expected.macs_dense) {
        v.push(format!(
            "{what}: served macs_dense {} != in-process {:?}",
            got.macs_dense, expected.macs_dense
        ));
    }
    if !u64_eq(&got.l1_per_pe_elems, expected.l1_per_pe_elems) {
        v.push(format!(
            "{what}: served l1_per_pe_elems {} != in-process {}",
            got.l1_per_pe_elems, expected.l1_per_pe_elems
        ));
    }
    if !u64_eq(&got.l2_staging_elems, expected.l2_staging_elems) {
        v.push(format!(
            "{what}: served l2_staging_elems {} != in-process {}",
            got.l2_staging_elems, expected.l2_staging_elems
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::zoo;
    use maestro_dse::{variants, Explorer, SweepSpace};
    use maestro_ir::Style;

    fn conv() -> Layer {
        zoo::resnet50(1).layers()[0].clone()
    }

    fn acc() -> Accelerator {
        Accelerator::builder(256).noc_bandwidth(32).build()
    }

    #[test]
    fn report_checks_accept_todays_outputs_on_every_operator() {
        for model in [
            zoo::mobilenet_v2(1),
            zoo::resnet50(1),
            zoo::unet(1),
            zoo::deepspeech2(1),
        ] {
            for layer in model.iter() {
                for style in Style::ALL {
                    let r = maestro_core::analyze(layer, &style.dataflow(), &acc()).unwrap();
                    assert_eq!(report(layer, &acc(), &r), Vec::<String>::new());
                }
            }
        }
    }

    #[test]
    fn report_checks_reject_a_mac_count_off_by_one() {
        let mut r = maestro_core::analyze(&conv(), &Style::KCP.dataflow(), &acc()).unwrap();
        r.macs_dense += 1.0;
        let v = report(&conv(), &acc(), &r);
        assert!(v.iter().any(|m| m.contains("macs_dense")), "{v:?}");
    }

    #[test]
    fn report_checks_reject_a_runtime_below_the_compute_floor_and_short_traffic() {
        let good = maestro_core::analyze(&conv(), &Style::XP.dataflow(), &acc()).unwrap();
        let mut r = good.clone();
        r.runtime = 1.0;
        assert!(report(&conv(), &acc(), &r)[0].contains("compute floor"));
        let mut r = good.clone();
        r.counts.dram_read[TensorKind::Weight] -= 1.0;
        assert!(report(&conv(), &acc(), &r)[0].contains("DRAM weight reads"));
        let mut r = good;
        r.utilization = 0.0;
        assert!(report(&conv(), &acc(), &r)[0].contains("utilization"));
    }

    #[test]
    fn noc_monotonicity_holds_today() {
        let s = StagedAnalysis::build(&conv(), &Style::YRP.dataflow(), &acc()).unwrap();
        assert!(noc_monotone(&s, &[1, 4, 16, 64], &[1, 2, 8]).is_empty());
        // Descending bandwidths must be flagged: runtime rises.
        assert!(!noc_monotone(&s, &[64, 1], &[1]).is_empty());
    }

    #[test]
    fn simulation_checks_reject_a_mac_shortfall() {
        // Cases of the conformance corpus the simulator runs.
        let mut rng = proptest::TestRng::from_seed(1);
        let mut checked = 0;
        while checked < 20 {
            let c = maestro_sim::conform::gen_case(&mut rng);
            let opts = maestro_sim::SimOptions { max_steps: 100_000 };
            let Ok(sim) = maestro_sim::simulate(&c.layer, &c.dataflow, &c.acc, opts) else {
                continue;
            };
            checked += 1;
            assert!(simulation(&c.layer, &c.acc, sim.macs, sim.cycles).is_empty());
            let v = simulation(&c.layer, &c.acc, sim.macs - 1, sim.cycles);
            assert!(v.len() == 1 && v[0].contains("simulated MACs"), "{v:?}");
            assert!(!simulation(&c.layer, &c.acc, sim.macs, 0.0).is_empty());
        }
    }

    #[test]
    fn oracle_matches_the_explorer_and_rejects_a_dominated_point() {
        let ex = Explorer::new(SweepSpace::tiny());
        let layer = &zoo::alexnet(1).layers()[2].clone();
        let maps = variants::variants(Style::KCP);
        let r = ex.explore(layer, &maps).unwrap();
        let front: Vec<(f64, f64)> = r.pareto.iter().map(|p| (p.runtime, p.energy)).collect();
        let (ov, of) = dse_oracle(&ex, layer, &maps);
        assert!(ov > 0 && !of.is_empty());
        assert!(dse_matches_oracle("t", r.stats.valid, &front, ov, &of).is_empty());
        // A point dominated by a front member, added to the front.
        let mut bad = front.clone();
        bad.push((front[0].0 + 1.0, front[0].1 + 1.0));
        assert_eq!(
            dse_matches_oracle("t", r.stats.valid, &bad, ov, &of).len(),
            1
        );
        assert_eq!(
            dse_matches_oracle("t", r.stats.valid + 1, &front, ov, &of).len(),
            1
        );
    }

    #[test]
    fn served_reports_compare_bit_for_bit() {
        let layer = conv();
        let expected = maestro_core::analyze(&layer, &Style::KCP.dataflow(), &acc()).unwrap();
        let body = format!(
            "{{\"model\":\"ResNet50\",\"layer\":\"CONV1\",\"report\":{}}}",
            serde_json::to_string(&expected).unwrap()
        );
        let items = served_reports(&body);
        assert_eq!(items.len(), 1);
        let got = items[0].clone().unwrap();
        assert!(served_matches("t", "KC-P", &got, &expected).is_empty());
        // The served runtime changed in its last bit.
        let mut off = got.clone();
        off.runtime = f64::from_bits(expected.runtime.to_bits() + 1).to_string();
        let v = served_matches("t", "KC-P", &off, &expected);
        assert!(v.len() == 1 && v[0].contains("runtime"), "{v:?}");
        // A report for another style than the one requested.
        assert_eq!(served_matches("t", "YR-P", &got, &expected).len(), 1);
    }

    #[test]
    fn batch_bodies_split_into_items_and_errors() {
        let r = maestro_core::analyze(&conv(), &Style::CP.dataflow(), &acc()).unwrap();
        let js = serde_json::to_string(&r).unwrap();
        let body = format!(
            "{{\"count\":3,\"results\":[{{\"report\":{js}}},{{\"error\":\"bad\"}},{{\"report\":{js}}}]}}"
        );
        let items = served_reports(&body);
        assert_eq!(items.len(), 3);
        assert!(items[0].is_some() && items[1].is_none() && items[2].is_some());
        assert_eq!(items[2].as_ref().unwrap().dataflow, "C-P");
    }
}
