//! Per-layer metrics of a traced window.
//!
//! Everything here is read from what the program already exposes — the
//! `obs` spans and counters it records, plus spans the benchmark opens
//! around its own calls into each layer — or measured by the workload
//! from outside (server and load-generator numbers). Work counters and
//! self times are divided by the window's operations, so a faster layer
//! that completes more operations in the same window does not read as
//! doing more work.

use crate::harness::Window;
use crate::report::Metric;
use crate::stats::median;
use obs::json::Json;
use obs::SpanRecord;
use std::collections::BTreeMap;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// traced run reports each of them on every workload; a layer the
/// workload does not reach reads 0.
pub const METRICS: &[(&str, &str)] = &[
    ("imp.parse_ms", "ms"),
    ("cfa.lower_ms", "ms"),
    ("dataflow.build_ms", "ms"),
    ("by.memo_hits", "count/op"),
    ("by.memo_misses", "count/op"),
    ("by.memo_hit_ratio", "fraction"),
    ("session.compile_ms", "ms"),
    ("session.check_ms", "ms/op"),
    ("reach.self_ms", "ms/op"),
    ("reach.states", "count/op"),
    ("reach.states_per_s", "1/s"),
    ("reach.post_cache_hit_ratio", "fraction"),
    ("lia.checks", "count/op"),
    ("lia.checks_per_cluster", "count"),
    ("lia.fm_pairings", "count/op"),
    ("lia.splits", "count/op"),
    ("encode.self_ms", "ms/op"),
    ("solve.self_ms", "ms/op"),
    ("slice.self_ms", "ms/op"),
    ("slice.edges_kept", "count/op"),
    ("slice.edges_dropped", "count/op"),
    ("slice.keep_ratio", "fraction"),
    ("slicer.slice_ms", "ms"),
    ("slicer.ns_per_op", "ns"),
    ("slicer.first_slice_ms", "ms"),
    ("refine.self_ms", "ms/op"),
    ("checker.rounds", "count/op"),
    ("attempt.self_ms", "ms/op"),
    ("semantics.interp_ms", "ms"),
    ("semantics.interp_ns_per_op", "ns"),
    ("certify.self_ms", "ms/op"),
    ("cert.validations", "count/op"),
    ("cert.certificates_built", "count/op"),
    ("incr.update_ms", "ms"),
    ("incr.fn_hits", "count/op"),
    ("incr.cfa_reused", "count/op"),
    ("incr.fixpoint_reused", "count/op"),
    ("incr.invalidated_clusters", "count/op"),
    ("incr.verdict_reused", "count/op"),
    ("incr.cert_rejected", "count/op"),
    ("incr.reuse_ratio", "fraction"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.service_ms_p50", "ms"),
    ("server.service_ms_p99", "ms"),
    ("server.wire_ms_p50", "ms"),
    ("server.wire_ms_p99", "ms"),
    ("server.check_ms_p50", "ms"),
    ("server.cache_hit_ratio", "fraction"),
    ("server.cache_evictions", "count/op"),
    ("server.verdict_hits", "count/op"),
    ("journal.appended", "count/op"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("obs.overhead_pct", "%"),
];

/// Program counters reported per operation.
const PER_OP_COUNTERS: &[&str] = &[
    "by.memo_hits",
    "by.memo_misses",
    "reach.states",
    "lia.checks",
    "lia.fm_pairings",
    "lia.splits",
    "slice.edges_kept",
    "slice.edges_dropped",
    "checker.rounds",
    "cert.validations",
    "cert.certificates_built",
    "incr.fn_hits",
    "incr.cfa_reused",
    "incr.fixpoint_reused",
    "incr.invalidated_clusters",
    "incr.verdict_reused",
    "incr.cert_rejected",
];

/// Program spans whose self time is reported per operation.
const SELF_TIMED: &[(&str, &str)] = &[
    ("reach", "reach.self_ms"),
    ("encode", "encode.self_ms"),
    ("solve", "solve.self_ms"),
    ("slice", "slice.self_ms"),
    ("refine", "refine.self_ms"),
    ("attempt", "attempt.self_ms"),
    ("certify", "certify.self_ms"),
];

/// Spans the benchmark opens around single calls, and the metric that
/// reports their median duration.
const PER_CALL: &[(&str, &str)] = &[
    ("imp.parse", "imp.parse_ms"),
    ("cfa.lower", "cfa.lower_ms"),
    ("dataflow.build", "dataflow.build_ms"),
    ("session.compile", "session.compile_ms"),
    ("session.update", "incr.update_ms"),
    ("slicer.slice", "slicer.slice_ms"),
    ("slicer.first_slice", "slicer.first_slice_ms"),
];

/// `part / (part + rest)`, with its base; 0 when the base is 0.
fn ratio(part: u64, rest: u64) -> (f64, u64) {
    let base = part + rest;
    (
        if base == 0 {
            0.0
        } else {
            part as f64 / base as f64
        },
        base,
    )
}

/// Builds the traced window's layer document: every metric of
/// [`METRICS`], the self-time table, and the tracing overhead of each
/// end-to-end metric (traced minus untraced).
pub fn collect(
    tw: &Window,
    counters: &BTreeMap<&'static str, u64>,
    window_spans: &[SpanRecord],
    probe_spans: &[SpanRecord],
    probed: &[(&'static str, f64)],
    untraced: &[Metric],
    traced: &[Metric],
) -> Json {
    let ops = tw.attempted.max(1);
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let phases = obs::phase_totals(window_spans);
    let self_us = |name: &str| phases.get(name).map_or(0, |p| p.self_us);
    let mut values: BTreeMap<&str, (f64, u64)> = BTreeMap::new();

    for &c in PER_OP_COUNTERS {
        values.insert(c, (count(c) as f64 / ops as f64, ops));
    }
    for &(span, metric) in SELF_TIMED {
        values.insert(metric, (self_us(span) as f64 / 1e3 / ops as f64, ops));
    }
    let session_check_us = phases.get("session.check").map_or(0, |p| p.total_us);
    values.insert(
        "session.check_ms",
        (session_check_us as f64 / 1e3 / ops as f64, ops),
    );
    let clusters = phases.get("attempt").map_or(0, |p| p.count);
    values.insert(
        "lia.checks_per_cluster",
        (
            count("lia.checks") as f64 / clusters.max(1) as f64,
            clusters,
        ),
    );
    let reach_s = self_us("reach") as f64 / 1e6;
    values.insert(
        "reach.states_per_s",
        (
            if reach_s > 0.0 {
                count("reach.states") as f64 / reach_s
            } else {
                0.0
            },
            count("reach.states"),
        ),
    );
    values.insert(
        "by.memo_hit_ratio",
        ratio(count("by.memo_hits"), count("by.memo_misses")),
    );
    values.insert(
        "reach.post_cache_hit_ratio",
        ratio(
            count("reach.post_cache_hits"),
            count("reach.post_cache_misses"),
        ),
    );
    values.insert(
        "slice.keep_ratio",
        ratio(count("slice.edges_kept"), count("slice.edges_dropped")),
    );
    values.insert(
        "incr.reuse_ratio",
        ratio(
            count("incr.verdict_reused"),
            count("incr.invalidated_clusters"),
        ),
    );
    for &(span, metric) in PER_CALL {
        let durations: Vec<f64> = window_spans
            .iter()
            .chain(probe_spans)
            .filter(|s| s.name == span)
            .map(|s| s.dur_us as f64 / 1e3)
            .collect();
        values.insert(metric, (median(&durations), durations.len() as u64));
    }
    for &(name, v) in tw.layers.iter().chain(probed) {
        values.insert(name, (v, ops));
    }
    let p50 = |list: &[Metric]| {
        list.iter()
            .find(|m| m.name == "p50_ms")
            .map_or(0.0, |m| m.value)
    };
    let (plain, with) = (p50(untraced), p50(traced));
    values.insert(
        "obs.overhead_pct",
        (
            if plain > 0.0 {
                (with - plain) / plain * 100.0
            } else {
                0.0
            },
            ops,
        ),
    );

    let metrics: Vec<Metric> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let (v, n) = values.get(name).copied().unwrap_or((0.0, 0));
            Metric::new(name, v, unit, n)
        })
        .collect();
    let self_time = Json::Arr(
        phases
            .iter()
            .map(|(name, p)| {
                Json::Obj(vec![
                    ("span".into(), Json::Str(name.clone())),
                    ("count".into(), Json::Num(p.count as i64)),
                    ("total_ms".into(), Json::Float(p.total_us as f64 / 1e3)),
                    ("self_ms".into(), Json::Float(p.self_us as f64 / 1e3)),
                    (
                        "self_ms_per_op".into(),
                        Json::Float(p.self_us as f64 / 1e3 / ops as f64),
                    ),
                ])
            })
            .collect(),
    );
    let overhead = Json::Obj(
        untraced
            .iter()
            .zip(traced)
            .filter(|(u, _)| !matches!(u.name.as_str(), "setup_s" | "peak_rss_mb"))
            .map(|(u, t)| {
                (
                    u.name.clone(),
                    Json::Obj(vec![
                        ("untraced".into(), Json::Float(u.value)),
                        ("traced".into(), Json::Float(t.value)),
                        (
                            "delta_pct".into(),
                            Json::Float((t.value - u.value) / u.value * 100.0),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("ops".into(), Json::Num(ops as i64)),
        ("metrics".into(), Metric::list_json(&metrics)),
        ("self_time".into(), self_time),
        ("overhead".into(), overhead),
    ])
}
