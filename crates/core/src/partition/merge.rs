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
//! simulator left behind (samples, counters, and — when the run's options
//! asked for them — the registry snapshot, the retained span log and the
//! sampler's series); the simulator is gone before any merge runs.
//! The merge of **one** cell is the identity — the cell's own artifact,
//! with no cell labels, prefixes or wrappers — which
//! `crates/cli/tests/one_cell_identity.rs` pins against a bare simulator.

use std::cmp::Ordering;

use crate::critpath::CpcProfile;
use crate::fault::FaultSummary;
use crate::metrics::LatencySummary;
use crate::run::RunResult;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot, SampledSeries, CSV_HEADER};
use crate::trace::{AuditReport, ChromeTrace};
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

/// Merges per-cell metrics registries into one cluster-level registry
/// whose Prometheus exposition is byte-identical at any shard count: the
/// cells' registries folded in cell order, each family by the merge rule
/// its emitter declared. One cell's registry is returned as it is. Returns
/// `None` when any cell kept no registry — it ran without telemetry, and
/// all cells share one telemetry config.
pub fn merge_registries(cells: &[CellOutput]) -> Option<MetricsRegistry> {
    let (first, rest) = cells.split_first()?;
    let mut out = first.registry.clone()?;
    for c in rest {
        out.merge(c.registry.as_ref()?);
    }
    Some(out)
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

/// Merges the per-cell `metrics_json` dumps, each rendered from the cell's
/// registry, run summary and sampled series. One cell: that cell's dump,
/// untouched. More: a cluster-level header — the merged run counters /
/// latency / snapshot / fault summary from `merged`, a `partition` block
/// recording the cell count — over the per-cell dumps under `"cells"` (in
/// cell order) for drill-down. Returns `None` when any cell ran without
/// the sampler (see [`merge_csv`]).
pub fn merge_json(merged: &RunResult, cells: &[CellOutput]) -> Option<Value> {
    let mut cell_dumps = cells
        .iter()
        .map(|c| Some(c.registry.as_ref()?.to_json(&c.result, Some(sampled(c)?))))
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
/// report is clean. Every cell that recorded its span log audited it on its
/// worker ([`CellOutput::checks`]); returns `None` when any cell ran
/// without span tracing (no log to audit).
pub fn merge_audits(cells: &[CellOutput]) -> Option<AuditReport> {
    let mut reports = cells
        .iter()
        .map(|c| c.checks.as_ref().map(|checks| checks.audit.clone()))
        .collect::<Option<Vec<_>>>()?;
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
