//! The metric names the harness emits — the same lists, in the same
//! order, as `BENCHMARK.json` (a self-test compares the two).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Measured per workload from untraced child processes (and, for
/// `setup_s`, an untraced in-process loop). Host time and memory.
pub const END_TO_END: &[Metric] = &[
    metric("wall_s", "s", "lower"),
    metric("req_per_s", "1/s", "higher"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
];

/// Measured per workload in the traced in-process pass. A layer the
/// workload's pipeline never enters reads 0 with no samples.
pub const PER_LAYER: &[Metric] = &[
    metric("cli.overhead_s", "s", "lower"),
    metric("cli.cpu_s", "s", "lower"),
    metric("config.load_s", "s", "lower"),
    metric("config.write_dir_s", "s", "lower"),
    metric("config.bytes", "B", "lower"),
    metric("synth.generate_s", "s", "lower"),
    metric("synth.instances", "count", "higher"),
    metric("builder.build_s", "s", "lower"),
    metric("builder.builds", "count", "lower"),
    metric("event.hold_ns_small", "ns", "lower"),
    metric("event.hold_ns_large", "ns", "lower"),
    metric("sim.run_s", "s", "lower"),
    metric("sim.events", "count", "lower"),
    metric("sim.events_per_sec", "1/s", "higher"),
    metric("sim.ns_per_event", "ns", "lower"),
    metric("sim.allocs_per_event", "count", "lower"),
    metric("dist.exp_sample_ns", "ns", "lower"),
    metric("dist.lognormal_sample_ns", "ns", "lower"),
    metric("histogram.sample_ns", "ns", "lower"),
    metric("metrics.summary_s", "s", "lower"),
    metric("telemetry.decomp_overhead", "ratio", "lower"),
    metric("telemetry.sampler_overhead", "ratio", "lower"),
    metric("telemetry.export_s", "s", "lower"),
    metric("critpath.stream_overhead", "ratio", "lower"),
    metric("critpath.replay_s", "s", "lower"),
    metric("critpath.report_s", "s", "lower"),
    metric("trace.record_overhead", "ratio", "lower"),
    metric("trace.audit_s", "s", "lower"),
    metric("trace.span_events", "count", "lower"),
    metric("partition.plan_s", "s", "lower"),
    metric("partition.cells", "count", "higher"),
    metric("partition.classic_run_s", "s", "lower"),
    metric("partition.run_s_shards1", "s", "lower"),
    metric("partition.run_s_shards2", "s", "lower"),
    metric("partition.speedup", "ratio", "higher"),
    metric("partition.merge_s", "s", "lower"),
    metric("runner.sweep_s_jobs1", "s", "lower"),
    metric("runner.sweep_s_jobs2", "s", "lower"),
    metric("runner.speedup", "ratio", "higher"),
    metric("runner.cells", "count", "higher"),
    metric("runner.cell_s", "s", "lower"),
    metric("runner.render_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc[key]
            .as_array()
            .expect("BENCHMARK.json lists its metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("metric field is a string").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("BENCHMARK.json lists its workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name is a string"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
