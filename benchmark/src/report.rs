//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract; `BENCHMARK.json`
//! repeats them and a unit test keeps the two in step.

use std::collections::BTreeMap;

/// `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// End-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("served_frac", "fraction"),
    ("sim_verts_per_s", "vertices/sim-s"),
    ("wall_verts_per_s", "vertices/s"),
    ("sim_p50_ms", "sim-ms"),
    ("sim_p99_ms", "sim-ms"),
    ("slo_attainment", "fraction"),
    ("max_rps_sim", "req/sim-s"),
];

/// Per-layer metrics, reported by the traced run on every workload. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("graph.generate_s", "s"),
    ("gpu_sim.upload_s", "s"),
    ("gpu_sim.launches_per_kvert", "launches/kvert"),
    ("gpu_sim.gld_transactions_per_vert", "tx/vertex"),
    ("gpu_sim.divergent_branches_per_vert", "branches/vertex"),
    ("gpu_sim.launch_us", "us"),
    ("gpu_sim.lane_ns", "ns"),
    ("gpu_sim.radix_sort_ns_per_key.512", "ns"),
    ("gpu_sim.radix_sort_ns_per_key.65536", "ns"),
    ("hostpool.host_cores", "count"),
    ("hostpool.launch_speedup", "x"),
    ("hostpool.lane_speedup", "x"),
    ("engine.sched_sim_share", "fraction"),
    ("engine.phase_sim_ms.scheduling", "sim-ms"),
    ("engine.phase_sim_ms.transit", "sim-ms"),
    ("engine.phase_sim_ms.subwarp", "sim-ms"),
    ("engine.phase_sim_ms.block", "sim-ms"),
    ("engine.phase_sim_ms.grid", "sim-ms"),
    ("engine.phase_sim_ms.collective", "sim-ms"),
    ("engine.phase_sim_ms.postprocess", "sim-ms"),
    ("engine.sched_index_us", "us"),
    ("engine.sim_overhead_x", "x"),
    ("session.query_wall_ms.p50", "ms"),
    ("session.query_wall_ms.p90", "ms"),
    ("session.wall_per_sim_ms", "ms/sim-ms"),
    ("session.age_drift", "x"),
    ("session.cold_warm_ratio", "x"),
    ("tuning.cache_hit_rate", "fraction"),
    ("tuning.sched_reuse_rate", "fraction"),
    ("tuning.plan_updates", "count"),
    ("shard.handoffs_per_query", "walkers"),
    ("shard.handoff_bytes_per_query", "bytes"),
    ("shard.super_steps_per_query", "count"),
    ("shard.edge_cut_fraction", "fraction"),
    ("batcher.submit_us", "us"),
    ("batcher.drain_ms.p50", "ms"),
    ("batcher.drain_ms.p99", "ms"),
    ("batcher.queued_sim_ms.p99", "sim-ms"),
    ("batcher.service_sim_ms.p99", "sim-ms"),
    ("batcher.admit_lag_sim_ms.p99", "sim-ms"),
    ("batcher.batch_size_mean", "requests"),
    ("batcher.class_launches_per_batch", "count"),
    ("batcher.queue_depth_p99", "requests"),
    ("batcher.refused", "count"),
    ("replica.retries", "count"),
    ("replica.breaker_trips", "count"),
    ("replica.recoveries", "count"),
    ("replica.shed", "count"),
    ("replica.cooldown_waits", "count"),
    ("replica.degraded_sim_ms", "sim-ms"),
    ("server.overhead_us", "us"),
    ("trace.spans_per_request", "spans/request"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// What one measurement (one or more passes of a workload) produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted: queries, dispatches or requests.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Output-check and repeatability failures.
    pub mismatches: Vec<String>,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mib`.
    pub e2e: Vec<Metric>,
    /// The per-layer metrics the workload's own calls yield.
    pub layers: Vec<Metric>,
    /// Simulated time work waited on each layer (queueing, backoff).
    pub wait_sim_ms: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// The named end-to-end metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A metric with its unit looked up in `list`.
pub fn metric(list: &[(&str, &'static str)], name: &str, value: f64) -> Metric {
    let unit = list
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    (name.to_string(), value, unit)
}

/// Every metric of `list`, in its order, taking values from `got` and 0
/// for those `got` lacks.
pub fn complete(list: &[(&str, &'static str)], got: &[Metric]) -> Vec<Metric> {
    for (n, _, _) in got {
        assert!(
            list.iter().any(|(m, _)| m == n),
            "{n} is not a declared metric"
        );
    }
    list.iter()
        .map(|(n, u)| {
            let v = got
                .iter()
                .find(|(m, _, _)| m == n)
                .map_or(0.0, |(_, v, _)| *v);
            (n.to_string(), v, *u)
        })
        .collect()
}

/// A finite number in JSON syntax with every digit Rust keeps (and no
/// negative zero, which an empty float sum yields).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{:?}", v + 0.0)
}

/// `"name": {"value": v, "unit": "u"}`.
pub fn metric_json((n, v, u): &Metric) -> String {
    format!(
        "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
        json_num(*v)
    )
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics.iter().map(metric_json).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_bench::jsonv::{parse, Json};

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = parse(text).expect("BENCHMARK.json parses");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::setup::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let m = vec![metric(&END_TO_END, "setup_s", 0.125)];
        let line = result_line(true, 3, 0, &m);
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Json::Num(3.0)));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value"), Some(&Json::Num(0.125)));
        let all = complete(&PER_LAYER, &[]);
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.iter().all(|(_, v, _)| *v == 0.0));
    }
}
