//! Verification, the two metric sets, and the result line.

use crate::ladder::Replay;
use crate::trace::{Layer, LayerTimes};
use crate::workload::Plan;
use crate::{Rec, Round, Timed};
use axml::json::Json;

pub type Metric = (&'static str, f64, &'static str);

/// The `GET /stats` counters the benchmark reads.
#[derive(Clone, Copy, Default)]
pub struct ServerStats {
    pub logical_nodes: u64,
    pub distinct_subtrees: u64,
    pub edits_applied: u64,
    pub spine_nodes_interned: u64,
    pub delta_facts: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub incremental_evals: u64,
    pub full_fallbacks: u64,
    pub executed: u64,
    pub helped: u64,
    pub max_queue_residency_ns: u64,
}

/// The integer after `"key":` in a flat JSON text. A missing key is an
/// error: a renamed or dropped counter must not read as 0.
fn field(json: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|i| &json[i + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .ok_or_else(|| format!("GET /stats has no integer {key:?}"))
}

impl ServerStats {
    pub fn parse(json: &str) -> Result<Self, String> {
        let f = |k| field(json, k);
        let helped = f("executed_helped")?;
        Ok(ServerStats {
            logical_nodes: f("logical_nodes")?,
            distinct_subtrees: f("distinct_subtrees")?,
            edits_applied: f("edits_applied")?,
            spine_nodes_interned: f("spine_nodes_interned")?,
            delta_facts: f("delta_facts_retired")? + f("delta_facts_added")?,
            memo_hits: f("memo_hits")?,
            memo_misses: f("memo_misses")?,
            incremental_evals: f("incremental_evals")?,
            full_fallbacks: f("full_fallbacks")?,
            executed: f("executed_owned")?
                + helped
                + f("executed_stolen")?
                + f("executed_injected")?,
            helped,
            max_queue_residency_ns: f("max_queue_residency_ns")?,
        })
    }
}

/// Operations whose reply differs from the reference in status, length
/// or body hash, plus any the replay itself could not serve
/// consistently.
pub fn failures(plan: &Plan, timed: &Timed, reference: &Replay) -> usize {
    plan.ops
        .iter()
        .zip(&timed.recs)
        .zip(&reference.expects)
        .filter(|((_, got), want)| {
            !want.consistent
                || got.status != want.status
                || got.len != want.len
                || got.hash != want.hash
        })
        .count()
}

/// Nearest-rank percentile of unsorted values (`p` in 0..=1).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    percentile(&mut values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics. Every timing metric is computed per round
/// of the timed run and reported as the median over rounds.
pub fn end_to_end(plan: &Plan, t: &Timed) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(t.rounds.iter().map(f).collect());
    let us = |ns: u64| ns as f64 / 1e3;
    let pick = |r: &Round, read: bool, f: fn(&Rec) -> u64| -> Vec<f64> {
        r.ops
            .clone()
            .filter(|&k| {
                let op = plan.op(plan.ops[k]);
                if read {
                    op.is_read()
                } else {
                    op.is_write()
                }
            })
            .map(|k| us(f(&t.recs[k])))
            .collect()
    };
    let latency = |p: f64| per_round(&|r| percentile(&mut pick(r, true, |x| x.total_ns), p));
    vec![
        ("setup_s", median(t.setup_s.clone()), "s"),
        (
            "throughput_rps",
            per_round(&|r| r.ops.len() as f64 / r.wall_s),
            "1/s",
        ),
        ("latency_p50_us", latency(0.5), "us"),
        ("latency_p90_us", latency(0.9), "us"),
        (
            "ttfb_p50_us",
            per_round(&|r| median(pick(r, true, |x| x.ttfb_ns))),
            "us",
        ),
        (
            "write_p50_us",
            per_round(&|r| median(pick(r, false, |x| x.total_ns))),
            "us",
        ),
        (
            "cpu_us_per_op",
            per_round(&|r| r.cpu_s * 1e6 / r.ops.len() as f64),
            "us",
        ),
        (
            "heap_peak_mib",
            t.heap_peak_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ]
}

pub fn per_layer(plan: &Plan, t: &Timed, reference: &Replay, traced: &Replay) -> Vec<Metric> {
    let all = traced.tracer.self_times(plan.ops.len() + plan.setup.len());
    let ops = &all[..plan.ops.len()];
    let reads: Vec<usize> = (0..plan.ops.len())
        .filter(|&k| plan.op(plan.ops[k]).is_read())
        .collect();
    // Reads served by a live cursor (not the shredded route, whose
    // cursor walks an already-materialized result).
    let cursor_reads: Vec<&LayerTimes> = reads
        .iter()
        .map(|&k| &ops[k])
        .filter(|lt| !lt.has(Layer::FixpointEval))
        .collect();
    let us = |ns: u64| ns as f64 / 1e3;
    let med_us = |set: &mut dyn Iterator<Item = &LayerTimes>, l: Layer| {
        median(set.filter(|lt| lt.has(l)).map(|lt| us(lt.ns(l))).collect())
    };
    let read_med = |l: Layer| med_us(&mut reads.iter().map(|&k| &ops[k]), l);
    let any_med = |l: Layer| med_us(&mut all.iter(), l);
    let cursor_med = |l: Layer| med_us(&mut cursor_reads.iter().copied(), l);
    let sum_cursor = |ls: &[Layer]| -> f64 {
        cursor_reads
            .iter()
            .map(|lt| ls.iter().map(|&l| lt.ns(l)).sum::<u64>() as f64)
            .sum()
    };
    let mean_read = |f: &dyn Fn(&crate::ladder::Expect) -> u64| {
        reads
            .iter()
            .map(|&k| f(&reference.expects[k]) as f64)
            .sum::<f64>()
            / reads.len().max(1) as f64
    };
    let hits = reads
        .iter()
        .filter(|&&k| reference.expects[k].registry_hit != Some(false))
        .count();
    let residual = median(
        reads
            .iter()
            .map(|&k| (t.recs[k].total_ns as f64 - ops[k].on_path_ns() as f64) / 1e3)
            .collect(),
    );
    let (b, a) = (&t.before, &t.after);
    let d = |f: fn(&ServerStats) -> u64| f(a).saturating_sub(f(b)) as f64;
    let edits = d(|s| s.edits_applied);
    let incr = d(|s| s.incremental_evals);
    let memo = d(|s| s.memo_hits);
    vec![
        ("http.parse_us", any_med(Layer::HttpParse), "us"),
        ("http.write_us", read_med(Layer::HttpWrite), "us"),
        ("http.writes_per_req", mean_read(&|e| e.writes), "count"),
        ("http.bytes_per_req", mean_read(&|e| e.bytes), "bytes"),
        ("registry.get_us", any_med(Layer::RegistryGet), "us"),
        ("registry.prepare_us", any_med(Layer::RegistryPrepare), "us"),
        (
            "registry.hit_ratio",
            ratio(hits as f64, reads.len() as f64),
            "ratio",
        ),
        ("registry.lookups", reads.len() as f64, "count"),
        (
            "eval.materialize_us",
            read_med(Layer::EvalMaterialize),
            "us",
        ),
        ("fixpoint.eval_us", any_med(Layer::FixpointEval), "us"),
        (
            "incr.incremental_ratio",
            ratio(incr, incr + d(|s| s.full_fallbacks)),
            "ratio",
        ),
        (
            "incr.memo_hit_ratio",
            ratio(memo, memo + d(|s| s.memo_misses)),
            "ratio",
        ),
        (
            "cursor.first_piece_us",
            cursor_med(Layer::CursorFirstPiece),
            "us",
        ),
        ("cursor.drain_us", cursor_med(Layer::CursorDrain), "us"),
        (
            "cursor.overhead_x",
            ratio(
                sum_cursor(&[Layer::CursorFirstPiece, Layer::CursorDrain]),
                sum_cursor(&[Layer::EvalMaterialize]),
            ),
            "x",
        ),
        ("json.encode_us", read_med(Layer::JsonEncode), "us"),
        ("edit.apply_us", any_med(Layer::EditApply), "us"),
        (
            "edit.spine_nodes_per_edit",
            ratio(d(|s| s.spine_nodes_interned), edits),
            "count",
        ),
        (
            "edit.delta_facts_per_edit",
            ratio(d(|s| s.delta_facts), edits),
            "count",
        ),
        ("engine.load_us", any_med(Layer::EngineLoad), "us"),
        (
            "arena.distinct_subtrees",
            a.distinct_subtrees as f64,
            "count",
        ),
        (
            "arena.rows_per_logical_node",
            ratio(a.distinct_subtrees as f64, a.logical_nodes as f64),
            "ratio",
        ),
        (
            "pool.max_residency_us",
            a.max_queue_residency_ns as f64 / 1e3,
            "us",
        ),
        (
            "pool.helped_share",
            ratio(d(|s| s.helped), d(|s| s.executed)),
            "ratio",
        ),
        ("server.residual_us", residual, "us"),
        (
            "trace.overhead_pct",
            (traced.ops_ns as f64 / reference.ops_ns as f64 - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut j = Json::new();
    j.begin_obj();
    j.key("correct");
    j.bool(correct);
    j.key("attempted");
    j.int(attempted as u64);
    j.key("failed");
    j.int(failed as u64);
    j.key("metrics");
    j.begin_obj();
    for &(name, value, unit) in metrics {
        j.key(name);
        j.begin_obj();
        j.key("value");
        j.num(value);
        j.key("unit");
        j.str(unit);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    j.finish()
}
