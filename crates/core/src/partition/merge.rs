//! Deterministic merges of per-cell outputs.
//!
//! Spec: DESIGN.md §11.5. Every merge in this module is a pure function of
//! the per-cell outputs *in cell order* — no wall-clock, no thread
//! identity, no iteration over hash maps — so the merged run summary,
//! Prometheus exposition, CSV, JSON dump, Chrome trace, audit report, and
//! chaos summary are byte-identical at any shard count (spec invariant
//! **P5**, pinned by the `shards_*_byte_identical` tests in
//! `tests/partition.rs` and the CLI differential tests). **Merges read
//! remains, not simulators**: a [`CellOutput`] owns what its cell's
//! simulator left behind (samples, counters, registry snapshot, and — when
//! the run's options asked for them — the retained span log and the
//! sampler's series); the simulator is gone before any merge runs.
//! The merge of **one** cell is the identity — the cell's own artifact,
//! with no cell labels, prefixes or wrappers — which
//! `crates/cli/tests/one_cell_identity.rs` pins against a bare simulator.

use std::cmp::Ordering;

use crate::critpath::CpcProfile;
use crate::fault::FaultSummary;
use crate::metrics::LatencySummary;
use crate::run::RunResult;
use crate::telemetry::{
    metrics_json_with, Metric, MetricValue, MetricsRegistry, MetricsSnapshot, SampledSeries,
    StreamingHistogram, CSV_HEADER,
};
use crate::trace::{AuditReport, ChromeTrace, TraceAuditor};
use minipool::Pool;
use serde::Value;
use serde_json::json;

use super::exec::CellOutput;

/// Merges per-cell run summaries into the cluster-level [`RunResult`].
///
/// Counters sum; the latency summaries are **re-summarized from every
/// cell's exact samples** (percentiles are not mergeable from
/// percentiles) — one ascending merge over all the cells' sealed runs,
/// `LatencySummary::merged`, which copies no sample; throughput and
/// goodput are recomputed from the merged counts over the shared
/// measurement window. The merged result carries the *master* seed — each
/// cell ran under its own derived [`cell_seed`](super::cell_seed). One
/// cell's summary is returned as it is (its seed *is* the master seed).
///
/// # Panics
///
/// Panics when `cells` is empty ([`super::run_partitioned`] always
/// produces at least one cell).
pub fn merge_results(master_seed: u64, cells: &[CellOutput]) -> RunResult {
    assert!(!cells.is_empty(), "cannot merge zero cells");
    if let [only] = cells {
        return RunResult {
            seed: master_seed,
            ..only.result.clone()
        };
    }
    let duration = cells[0].result.duration;
    let warmup = cells[0].result.warmup;
    let latency = LatencySummary::merged(cells.iter().map(|c| &c.latency_samples));
    let timeout_latency = LatencySummary::merged(cells.iter().map(|c| &c.timeout_latency_samples));
    let measured = (duration.as_secs_f64() - warmup.as_secs_f64()).max(f64::EPSILON);
    let degraded_measured: u64 = cells.iter().map(|c| c.degraded_measured).sum();
    let good = (latency.count as u64).saturating_sub(degraded_measured);
    let sum = |f: fn(&RunResult) -> u64| -> u64 { cells.iter().map(|c| f(&c.result)).sum() };
    let faults: Vec<&FaultSummary> = cells
        .iter()
        .filter_map(|c| c.result.fault.as_ref())
        .collect();
    // Fold per-cell CPC profiles in cell order: site labels are globally
    // unique across cells, so the merge is a pure histogram sum and the
    // merged profile is byte-identical at any shard count (invariant P7).
    let mut critpath: Option<CpcProfile> = None;
    for c in cells {
        if let Some(p) = &c.result.critpath {
            critpath.get_or_insert_with(CpcProfile::new).merge(p);
        }
    }
    RunResult {
        seed: master_seed,
        duration,
        warmup,
        generated: sum(|r| r.generated),
        completed: sum(|r| r.completed),
        timeouts: sum(|r| r.timeouts),
        achieved_qps: latency.count as f64 / measured,
        goodput_qps: good as f64 / measured,
        dropped: sum(|r| r.dropped),
        shed: sum(|r| r.shed),
        retried: sum(|r| r.retried),
        degraded: sum(|r| r.degraded),
        latency,
        timeout_latency,
        events_processed: sum(|r| r.events_processed),
        metrics: merge_snapshots(cells),
        fault: if faults.is_empty() {
            None
        } else {
            Some(merge_fault_summaries(&faults))
        },
        critpath,
    }
}

/// Merges per-cell [`MetricsSnapshot`]s: utilizations are weighted means
/// (instances for `instance_utilization`, irq-equipped machines for
/// `network_utilization`, decomposed requests for the component means), so
/// the merged snapshot equals what one simulator owning every entity would
/// report for the same per-entity measurements.
fn merge_snapshots(cells: &[CellOutput]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    let wavg = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let inst_w = |c: &CellOutput| c.instances as f64;
    let irq_w = |c: &CellOutput| c.irq_machines as f64;
    out.instance_utilization = wavg(
        cells
            .iter()
            .map(|c| c.result.metrics.instance_utilization * inst_w(c))
            .sum(),
        cells.iter().map(inst_w).sum(),
    );
    out.network_utilization = wavg(
        cells
            .iter()
            .map(|c| c.result.metrics.network_utilization * irq_w(c))
            .sum(),
        cells.iter().map(irq_w).sum(),
    );
    out.decomposed_requests = cells
        .iter()
        .map(|c| c.result.metrics.decomposed_requests)
        .sum();
    let dec_w = out.decomposed_requests as f64;
    for j in 0..out.component_mean_s.len() {
        out.component_mean_s[j] = wavg(
            cells
                .iter()
                .map(|c| {
                    c.result.metrics.component_mean_s[j]
                        * c.result.metrics.decomposed_requests as f64
                })
                .sum(),
            dec_w,
        );
    }
    out
}

/// How one canonical metric family merges across cells.
#[derive(Clone, Copy, PartialEq)]
enum Merge {
    /// One unlabeled counter per cell; values sum.
    SumCounter,
    /// One unlabeled gauge per cell; values sum (live counts).
    SumGauge,
    /// Identical in every cell (sim time); take the first occurrence.
    First,
    /// Per-entity series with cell-disjoint label sets; concatenate in
    /// cell order.
    Concat,
    /// The e2e latency summary; rebuild from the merged
    /// [`StreamingHistogram`]s.
    HistE2e,
    /// Per-component latency summaries; merge histograms component-wise.
    HistComponents,
}

/// The canonical family walk: every family `Simulator::metrics_registry`
/// can emit, in its emission order, with its merge strategy. Walking this
/// list (instead of any one cell's registry positionally) keeps the merge
/// correct when a family is absent from some cells — e.g. a pool-less
/// cell emits no `uqsim_pool_free` at all.
const FAMILIES: &[(&str, Merge)] = &[
    ("uqsim_requests_generated_total", Merge::SumCounter),
    ("uqsim_requests_completed_total", Merge::SumCounter),
    ("uqsim_request_timeouts_total", Merge::SumCounter),
    ("uqsim_events_processed_total", Merge::SumCounter),
    ("uqsim_sim_time_seconds", Merge::First),
    ("uqsim_live_requests", Merge::SumGauge),
    ("uqsim_live_jobs", Merge::SumGauge),
    ("uqsim_instance_utilization", Merge::Concat),
    ("uqsim_instance_queue_depth", Merge::Concat),
    ("uqsim_network_utilization", Merge::Concat),
    ("uqsim_pool_free", Merge::Concat),
    ("uqsim_pool_waiters", Merge::Concat),
    ("uqsim_requests_dropped_total", Merge::SumCounter),
    ("uqsim_requests_shed_total", Merge::SumCounter),
    ("uqsim_retries_total", Merge::SumCounter),
    ("uqsim_responses_degraded_total", Merge::SumCounter),
    ("uqsim_hedges_total", Merge::SumCounter),
    ("uqsim_jobs_killed_total", Merge::SumCounter),
    ("uqsim_packets_dropped_total", Merge::SumCounter),
    ("uqsim_retransmits_total", Merge::SumCounter),
    ("uqsim_breaker_trips_total", Merge::SumCounter),
    ("uqsim_instance_fault_down", Merge::Concat),
    ("uqsim_e2e_latency_seconds", Merge::HistE2e),
    ("uqsim_latency_component_seconds", Merge::HistComponents),
    ("uqsim_stage_queue_wait_seconds", Merge::Concat),
    ("uqsim_stage_service_seconds", Merge::Concat),
];

/// The metrics of `reg` named `name`, in emission order.
fn family<'a>(reg: &'a MetricsRegistry, name: &str) -> Vec<&'a Metric> {
    reg.metrics().iter().filter(|m| m.name == name).collect()
}

/// Merges per-cell metrics registries into one cluster-level registry
/// whose Prometheus exposition is byte-identical at any shard count.
///
/// The merge walks the canonical family list in registry emission order;
/// each family takes its name/help strings from the first cell that emits
/// it and merges values per its strategy (counters sum, live gauges sum,
/// per-entity series concatenate in cell order, latency summaries are
/// rebuilt from the merged underlying histograms). A family emitted by no
/// cell is omitted, exactly as a single simulator's registry omits it.
pub fn merge_registries(cells: &[CellOutput]) -> MetricsRegistry {
    let registries: Vec<&MetricsRegistry> = cells.iter().map(|c| &c.registry).collect();
    let mut out = MetricsRegistry::new();
    for &(name, strategy) in FAMILIES {
        let per_cell: Vec<Vec<&Metric>> = registries.iter().map(|r| family(r, name)).collect();
        let Some(first) = per_cell.iter().flatten().next().copied() else {
            continue;
        };
        match strategy {
            Merge::SumCounter => {
                let mut total = 0u64;
                for ms in per_cell.iter().flatten() {
                    if let MetricValue::Counter(v) = ms.value {
                        total += v;
                    }
                }
                out.push(Metric {
                    value: MetricValue::Counter(total),
                    ..first.clone()
                });
            }
            Merge::SumGauge => {
                let mut total = 0.0f64;
                for ms in per_cell.iter().flatten() {
                    if let MetricValue::Gauge(v) = ms.value {
                        total += v;
                    }
                }
                out.push(Metric {
                    value: MetricValue::Gauge(total),
                    ..first.clone()
                });
            }
            Merge::First => out.push(first.clone()),
            Merge::Concat => {
                for ms in per_cell.iter().flatten() {
                    out.push((*ms).clone());
                }
            }
            Merge::HistE2e => {
                let mut merged = StreamingHistogram::new();
                for c in cells {
                    if let Some(h) = &c.e2e_histogram {
                        merged.merge(h);
                    }
                }
                out.summary(first.name, first.help, first.labels.clone(), &merged);
            }
            Merge::HistComponents => {
                // Every telemetry-enabled cell emits one summary per
                // latency component, in the same component order.
                let proto = per_cell
                    .iter()
                    .find(|ms| !ms.is_empty())
                    .expect("first metric exists, so some cell has the family");
                for (j, m) in proto.iter().enumerate() {
                    let mut merged = StreamingHistogram::new();
                    for c in cells {
                        if let Some(h) = c.component_histograms.as_ref().and_then(|hs| hs.get(j)) {
                            merged.merge(h);
                        }
                    }
                    out.summary(m.name, m.help, m.labels.clone(), &merged);
                }
            }
        }
    }
    // Forward-compatibility: any family a future registry emits that this
    // walk does not know yet is concatenated in cell order (first-seen
    // name order) rather than silently dropped.
    let known: Vec<&str> = FAMILIES.iter().map(|&(n, _)| n).collect();
    let mut extra: Vec<&'static str> = Vec::new();
    for r in &registries {
        for m in r.metrics() {
            if !known.contains(&m.name) && !extra.contains(&m.name) {
                extra.push(m.name);
            }
        }
    }
    for name in extra {
        for r in &registries {
            for m in family(r, name) {
                out.push(m.clone());
            }
        }
    }
    out
}

/// Merges per-cell telemetry CSVs (`t_s,metric,label,value`) into one
/// tick-major stream: for each sampler tick, cell 0's rows, then cell 1's,
/// and so on. Because the windowed latency percentiles of different cells
/// cannot be combined into one summary row, each cell's `windowed_*` rows
/// keep their values and gain a `cell<i>` label where a single simulator's
/// CSV leaves the label empty; per-entity gauge rows pass through unchanged
/// (entity names are cell-disjoint). Returns `None` when any cell ran
/// without the sampler (all cells share one telemetry config, so this is
/// all-or-nothing in practice).
///
/// **Row/label ordering contract** (pinned by the `metrics_golden` CLI
/// test): within each tick, rows follow
/// [`Simulator::metrics_csv`](crate::sim::Simulator::metrics_csv) order —
/// the five `windowed_*` summary rows, then every gauge series in its
/// registration (configuration) order — and cells concatenate in cell
/// order. A **single-cell** merge is the identity: its bytes equal the
/// cell's own CSV exactly, `windowed_*` labels included — cell labels
/// appear only when there is genuinely more than one summary to keep
/// apart.
///
/// All cells tick on the same schedule (same duration, same interval); if
/// tick counts ever differ the merge stops at the shortest cell.
pub fn merge_csv(cells: &[CellOutput]) -> Option<String> {
    let sampled = cells.iter().map(sampled).collect::<Option<Vec<_>>>()?;
    let n_ticks = sampled.iter().map(SampledSeries::ticks).min().unwrap_or(0);
    // One cell's summary rows keep a lone simulator's empty label.
    let windowed_labels: Vec<String> = match sampled.len() {
        1 => vec![String::new()],
        n => (0..n).map(|i| format!("cell{i}")).collect(),
    };
    let mut out = String::from(CSV_HEADER);
    for k in 0..n_ticks {
        for (cell, windowed_label) in sampled.iter().zip(&windowed_labels) {
            cell.push_csv_tick(&mut out, k, windowed_label);
        }
    }
    Some(out)
}

/// What `cell`'s sampler recorded, if it ran.
fn sampled(cell: &CellOutput) -> Option<SampledSeries<'_>> {
    cell.series.as_ref().map(|kept| SampledSeries {
        windows: &kept.windows,
        series: &kept.series,
    })
}

/// Merges the per-cell `metrics_json` dumps. One cell: that cell's dump,
/// untouched. More: a cluster-level header — the merged run counters /
/// latency / snapshot / fault summary from `merged`, a `partition` block
/// recording the cell count — over the per-cell dumps under `"cells"` (in
/// cell order) for drill-down. Returns `None` when any cell ran without
/// the sampler (see [`merge_csv`]).
pub fn merge_json(merged: &RunResult, cells: &[CellOutput]) -> Option<Value> {
    let mut cell_dumps = cells
        .iter()
        .map(|c| {
            let head = c.series.as_ref()?.json_head.clone();
            Some(metrics_json_with(head, sampled(c), &[]))
        })
        .collect::<Option<Vec<Value>>>()?;
    if cell_dumps.len() == 1 {
        return cell_dumps.pop();
    }
    Some(json!({
        "partition": {
            "cells": cells.len() as u64,
        },
        "run": {
            "seed": merged.seed,
            "sim_time_s": merged.duration.as_secs_f64(),
            "warmup_s": merged.warmup.as_secs_f64(),
            "generated": merged.generated,
            "completed": merged.completed,
            "timeouts": merged.timeouts,
            "events_processed": merged.events_processed,
        },
        "latency": merged.latency,
        "snapshot": merged.metrics,
        "fault": merged.fault,
        "cells": Value::Array(cell_dumps),
    }))
}

/// The cells' span logs as one canonical Chrome trace: a [`ChromeTrace`]
/// over the retained logs in cell order, which shifts pids and prefixes
/// span ids as it is written (one cell's trace is that cell's, untouched).
/// Returns `None` unless every cell retained its span log
/// ([`CellOutput::trace`]) — not when tracing was off, nor when the log was
/// streamed away to be checked ([`CellOutput::checks`]).
pub fn merge_chrome_traces(cells: &[CellOutput]) -> Option<ChromeTrace<'_>> {
    let traces = cells
        .iter()
        .map(|c| c.trace.as_ref().map(|t| (&t.log, &t.meta)))
        .collect::<Option<Vec<_>>>()?;
    Some(ChromeTrace::of_cells(traces))
}

/// Merges per-cell audit reports: counts sum, violations and notes
/// concatenate in cell order with a `[cell <i>]` prefix (one cell's report
/// is returned as it is). The merged report is clean iff every per-cell
/// report is clean. A cell that checked its span log while it ran
/// ([`CellOutput::checks`]) has its report already; retained logs are
/// audited here, in parallel. Returns `None` when any cell ran without
/// span tracing (no log to audit).
pub fn merge_audits(cells: &[CellOutput]) -> Option<AuditReport> {
    let mut reports = match cells
        .iter()
        .map(|c| c.checks.as_ref().map(|checks| checks.audit.clone()))
        .collect::<Option<Vec<_>>>()
    {
        Some(reports) => reports,
        None => {
            let traces = cells
                .iter()
                .map(|c| c.trace.as_ref())
                .collect::<Option<Vec<_>>>()?;
            Pool::with_available_jobs().map_indexed(traces.len(), |cell| {
                TraceAuditor::new().audit(&traces[cell].log, &traces[cell].counts)
            })
        }
    };
    if reports.len() == 1 {
        return reports.pop();
    }
    let mut out = AuditReport::default();
    for (i, r) in reports.iter().enumerate() {
        out.events_checked += r.events_checked;
        out.spans_checked += r.spans_checked;
        out.violations
            .extend(r.violations.iter().map(|v| format!("[cell {i}] {v}")));
        out.notes
            .extend(r.notes.iter().map(|n| format!("[cell {i}] {n}")));
    }
    Some(out)
}

/// Merges per-cell fault summaries: counters sum; timelines concatenate in
/// cell order, then stable-sort by simulated time — so simultaneous
/// transitions in different cells order by cell, deterministically.
pub fn merge_fault_summaries(summaries: &[&FaultSummary]) -> FaultSummary {
    let mut out = FaultSummary::default();
    for s in summaries {
        out.dropped += s.dropped;
        out.shed += s.shed;
        out.retried += s.retried;
        out.hedged += s.hedged;
        out.degraded += s.degraded;
        out.timed_out += s.timed_out;
        out.jobs_killed += s.jobs_killed;
        out.packets_dropped += s.packets_dropped;
        out.retransmits += s.retransmits;
        out.breaker_trips += s.breaker_trips;
        out.timeline.extend(s.timeline.iter().cloned());
    }
    out.timeline
        .sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap_or(Ordering::Equal));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultTimelineEntry;

    #[test]
    fn fault_timelines_interleave_by_time_stably() {
        let a = FaultSummary {
            dropped: 2,
            timeline: vec![
                FaultTimelineEntry {
                    t_s: 0.1,
                    what: "a-first".into(),
                },
                FaultTimelineEntry {
                    t_s: 0.5,
                    what: "a-second".into(),
                },
            ],
            ..FaultSummary::default()
        };
        let b = FaultSummary {
            dropped: 3,
            timeline: vec![FaultTimelineEntry {
                t_s: 0.5,
                what: "b-first".into(),
            }],
            ..FaultSummary::default()
        };
        let m = merge_fault_summaries(&[&a, &b]);
        assert_eq!(m.dropped, 5);
        let order: Vec<&str> = m.timeline.iter().map(|e| e.what.as_str()).collect();
        // Stable sort: the t=0.5 entries keep cell order (a before b).
        assert_eq!(order, ["a-first", "a-second", "b-first"]);
    }
}
