//! Corruption sweep: real span logs, one event corrupted at a time.
//!
//! Each case takes a clean log a bundled scenario recorded, breaks exactly
//! one invariant by editing, duplicating or removing one event, and must
//! come back from the auditor with that invariant's violation — while the
//! untouched log stays clean and the auditor counts exactly the spans
//! [`TraceLog::spans`] returns. The same logs, cut into chunks of any
//! size, must give the folds the streamed logs feed ([`AuditFold`],
//! [`ReplayFold`]) exactly what the whole log gives them.
//!
//! The retirement rule has its own cases ([`RETIREMENTS`]): a release
//! that is lost, doubled or moved ahead of its request's last events, and
//! an event behind it. Half of them need a release logged on its own,
//! which only a request with stragglers has: [`QUORUM_FANOUT`].

use super::*;
use crate::config::ScenarioConfig;
use crate::critpath::{CpcProfile, ReplayFold};
use crate::fasthash::FastMap;
use crate::fault::FaultPlan;
use crate::time::SimDuration;

const QUICKSTART: &str = include_str!("../../../cli/configs/quickstart.json");
const QUICKSTART_FAULTS: &str = include_str!("../../../cli/configs/quickstart_faults.json");
const SOCIAL_NETWORK: &str = include_str!("../../../cli/configs/social_network.json");

/// A front end fanning out to three back ends whose replies join on a
/// quorum of two: the third branch is a straggler, and wherever it outlives
/// the response the request's slot is released late, by a `RequestRetired`
/// of its own (about two requests in three).
const QUORUM_FANOUT: &str = r#"{
  "seed": 31, "warmup_s": 0.1,
  "machines": [
    { "name": "m", "cores": 8, "dvfs": { "levels_ghz": [2.6] },
      "network": { "irq_cores": 0,
        "rx_time": { "type": "constant", "value": 0.0 },
        "wire_latency": { "type": "constant", "value": 0.000005 } } }
  ],
  "services": [
    { "name": "front",
      "stages": [ { "name": "proc", "queue": { "type": "single" },
        "service": { "base": { "type": "constant", "value": 0.0 },
          "per_job": { "type": "exponential", "mean": 0.00003 },
          "ref_freq_ghz": 2.6, "freq_alpha": 1.0 } } ],
      "paths": [{ "name": "p", "stages": [0] }] },
    { "name": "back",
      "stages": [ { "name": "proc", "queue": { "type": "single" },
        "service": { "base": { "type": "constant", "value": 0.0 },
          "per_job": { "type": "exponential", "mean": 0.00008 },
          "ref_freq_ghz": 2.6, "freq_alpha": 1.0 } } ],
      "paths": [{ "name": "p", "stages": [0] }] }
  ],
  "instances": [
    { "name": "front0", "service": "front", "machine": "m", "cores": 2,
      "exec": { "type": "simple" } },
    { "name": "back0", "service": "back", "machine": "m", "cores": 2,
      "exec": { "type": "simple" } },
    { "name": "back1", "service": "back", "machine": "m", "cores": 2,
      "exec": { "type": "simple" } },
    { "name": "back2", "service": "back", "machine": "m", "cores": 2,
      "exec": { "type": "simple" } }
  ],
  "pools": [],
  "request_types": [
    { "name": "fanout",
      "nodes": [
        { "name": "root",
          "target": { "type": "service", "service": "front",
            "instance": { "type": "fixed", "name": "front0" }, "exec_path": "p" },
          "children": ["b0", "b1", "b2"] },
        { "name": "b0",
          "target": { "type": "service", "service": "back",
            "instance": { "type": "fixed", "name": "back0" }, "exec_path": "p" },
          "children": ["join"] },
        { "name": "b1",
          "target": { "type": "service", "service": "back",
            "instance": { "type": "fixed", "name": "back1" }, "exec_path": "p" },
          "children": ["join"] },
        { "name": "b2",
          "target": { "type": "service", "service": "back",
            "instance": { "type": "fixed", "name": "back2" }, "exec_path": "p" },
          "children": ["join"] },
        { "name": "join",
          "target": { "type": "service", "service": "front",
            "instance": { "type": "same_as_node", "node": "root" }, "exec_path": "p" },
          "children": ["sink"],
          "link": { "reply_via": { "entries": [["b0", "b0"], ["b1", "b1"], ["b2", "b2"]] } },
          "fan_in_policy": { "type": "quorum", "k": 2 } },
        { "name": "sink", "target": { "type": "client_sink" },
          "link": { "reply": { "of": "root" } } }
      ] }
  ],
  "clients": [
    { "name": "c", "connections": 64,
      "arrivals": { "type": "poisson", "schedule": { "segments": [[0.0, 2000.0]] } },
      "mix": [["fanout", 1.0]], "roots": ["front0"] }
  ]
}"#;

/// Runs a bundled scenario with the span log on and returns the log with
/// the counters it must reconcile with.
fn record(scenario: &str, faults: Option<&str>, secs: f64) -> (TraceLog, AuditCounts) {
    let (log, counts, _) = record_with_meta(scenario, faults, secs);
    (log, counts)
}

/// [`record`], plus the names a replay of the log resolves its sites with.
fn record_with_meta(
    scenario: &str,
    faults: Option<&str>,
    secs: f64,
) -> (TraceLog, AuditCounts, TraceMeta) {
    let mut sim = ScenarioConfig::from_json(scenario)
        .expect("bundled scenario parses")
        .build()
        .expect("bundled scenario builds");
    if let Some(plan) = faults {
        let plan = FaultPlan::from_json(plan).expect("bundled fault plan parses");
        sim.install_faults(&plan).expect("plan matches scenario");
    }
    sim.enable_span_tracing(2_000_000);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let (counts, meta) = (sim.audit_counts(), sim.trace_meta());
    let log = sim.take_span_log().expect("span tracing is on");
    assert_eq!(log.dropped(), 0, "capacity too small for this test");
    (log, counts, meta)
}

/// A retained log with the same events.
fn copy(log: &TraceLog) -> TraceLog {
    TraceLog {
        chunk: log.chunk.clone(),
        ..TraceLog::new(log.capacity)
    }
}

/// Index of the first event `pick` accepts.
fn find(log: &TraceLog, pick: impl Fn(&TraceEvent) -> bool) -> Option<usize> {
    log.chunk.events.iter().position(pick)
}

fn duplicate(log: &mut TraceLog, pick: impl Fn(&TraceEvent) -> bool) -> Option<()> {
    let i = find(log, pick)?;
    log.chunk.events.insert(i + 1, log.chunk.events[i]);
    Some(())
}

/// A measured completion: present in every log, and the one whose loss
/// every counter notices.
fn measured_completion(ev: &TraceEvent) -> bool {
    matches!(ev, TraceEvent::RequestCompleted { measured: true, .. })
}

/// Index of the first `BatchStart` whose predecessor on its core is also
/// its predecessor on its thread and lasted at least 2 ns, with that
/// predecessor's end.
fn batch_after_same_core_and_thread(log: &TraceLog) -> Option<(usize, SimTime)> {
    let mut last_on_core = FastMap::default();
    let mut last_on_thread = FastMap::default();
    for (i, ev) in log.chunk.events.iter().enumerate() {
        if let TraceEvent::BatchStart {
            instance,
            machine,
            thread,
            core,
            start,
            end,
            ..
        } = *ev
        {
            let on_core = last_on_core.insert((machine, core), (i, start, end));
            let on_thread = last_on_thread.insert((instance, thread), (i, start, end));
            match (on_core, on_thread) {
                (Some(a), Some(b)) if a == b && a.2.as_nanos() >= a.1.as_nanos() + 2 => {
                    return Some((i, a.2));
                }
                _ => {}
            }
        }
    }
    None
}

/// One way to break a log, and the violation it must produce.
struct Corruption {
    name: &'static str,
    /// Every one of these must appear in some violation.
    expect: &'static [&'static str],
    /// Corrupts the log in place; `None` if the log has no event to corrupt.
    apply: fn(&mut TraceLog) -> Option<()>,
}

const CORRUPTIONS: &[Corruption] = &[
    Corruption {
        name: "duplicate an emission",
        expect: &["emitted twice"],
        apply: |log| duplicate(log, |ev| matches!(ev, TraceEvent::RequestEmitted { .. })),
    },
    Corruption {
        name: "drop a completion",
        expect: &["conservation", "completion events", "warmup accounting"],
        apply: |log| {
            let i = find(log, measured_completion)?;
            log.chunk.events.remove(i);
            Some(())
        },
    },
    Corruption {
        name: "complete twice",
        expect: &["completed twice", "completed after terminal completed"],
        apply: |log| duplicate(log, measured_completion),
    },
    Corruption {
        name: "drop a terminal drop",
        expect: &["conservation", "drop events"],
        apply: |log| {
            let i = find(log, |ev| matches!(ev, TraceEvent::RequestDropped { .. }))?;
            log.chunk.events.remove(i);
            Some(())
        },
    },
    Corruption {
        name: "shift a batch back onto its core's and thread's previous one",
        expect: &["non-overlap: core", "non-overlap: thread"],
        apply: |log| {
            let (i, prev_end) = batch_after_same_core_and_thread(log)?;
            let TraceEvent::BatchStart { start, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names a BatchStart");
            };
            *start = SimTime::from_nanos(prev_end.as_nanos() - 1);
            Some(())
        },
    },
    Corruption {
        name: "enqueue after service started",
        expect: &["span ordering"],
        apply: |log| {
            let i = find(log, |ev| matches!(ev, TraceEvent::Enqueue { .. }))?;
            let TraceEvent::Enqueue { t, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names an Enqueue");
            };
            *t = SimTime::MAX;
            Some(())
        },
    },
    Corruption {
        name: "end a span after its request completed",
        expect: &["after completion"],
        apply: |log| {
            // The first completed request's first span, stretched past the
            // completion. No bundled config fires a fan-in early, so every
            // request is under `all`.
            let (request, done) = log.chunk.events.iter().find_map(|ev| match *ev {
                TraceEvent::RequestCompleted { request, t, .. } => Some((request, t)),
                _ => None,
            })?;
            let span = log.spans().into_iter().find(|s| s.request == request)?;
            let i = find(log, |ev| {
                matches!(*ev, TraceEvent::BatchStart { instance, thread, start, .. }
                    if (instance, thread, start) == (span.instance, span.thread, span.start_t))
            })?;
            let TraceEvent::BatchStart { end, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names a BatchStart");
            };
            *end = SimTime::from_nanos(done.as_nanos() + 1);
            Some(())
        },
    },
    Corruption {
        name: "bump a fan-in arrival count",
        expect: &["fan-in"],
        apply: |log| {
            let i = find(log, |ev| matches!(ev, TraceEvent::FanIn { .. }))?;
            let TraceEvent::FanIn { arrivals, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names a FanIn");
            };
            *arrivals += 1;
            Some(())
        },
    },
    Corruption {
        name: "acquire a busy connection",
        expect: &["acquired while busy"],
        apply: |log| duplicate(log, |ev| matches!(ev, TraceEvent::PoolAcquire { .. })),
    },
    Corruption {
        name: "release a free connection",
        expect: &["released while free"],
        apply: |log| duplicate(log, |ev| matches!(ev, TraceEvent::PoolRelease { .. })),
    },
    Corruption {
        name: "flip measured",
        expect: &["warmup accounting"],
        apply: |log| {
            let i = find(log, measured_completion)?;
            let TraceEvent::RequestCompleted { measured, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names a RequestCompleted");
            };
            *measured = false;
            Some(())
        },
    },
];

/// The request an event releases the slot of, if it does.
fn retires(ev: &TraceEvent) -> Option<RequestId> {
    match *ev {
        TraceEvent::RequestCompleted {
            request,
            retired: true,
            ..
        }
        | TraceEvent::RequestDropped { request, .. }
        | TraceEvent::RequestShed { request, .. }
        | TraceEvent::RequestRetired { request, .. } => Some(request),
        _ => None,
    }
}

/// Index of the first event `pick` accepts that releases a slot which a
/// later emission takes again.
fn find_reused(log: &TraceLog, pick: impl Fn(&TraceEvent) -> bool) -> Option<usize> {
    let events = &log.chunk.events;
    (0..events.len()).find(|&i| {
        pick(&events[i])
            && retires(&events[i]).is_some_and(|gone| {
                events[i..].iter().any(|ev| {
                    matches!(*ev, TraceEvent::RequestEmitted { request, .. }
                        if request.slot() == gone.slot())
                })
            })
    })
}

fn own_retirement(ev: &TraceEvent) -> bool {
    matches!(ev, TraceEvent::RequestRetired { .. })
}

/// The ways to break the retirement rule, and what each must raise.
const RETIREMENTS: &[Corruption] = &[
    Corruption {
        name: "lose the retirement a completion carries",
        expect: &["which never retired", "retirement:"],
        apply: |log| {
            let i = find_reused(log, |ev| matches!(ev, TraceEvent::RequestCompleted { .. }))?;
            let TraceEvent::RequestCompleted { retired, .. } = &mut log.chunk.events[i] else {
                unreachable!("the index names a RequestCompleted");
            };
            *retired = false;
            Some(())
        },
    },
    Corruption {
        name: "lose a retirement logged on its own",
        expect: &["which never retired", "retirement:"],
        apply: |log| {
            let i = find_reused(log, own_retirement)?;
            log.chunk.events.remove(i);
            Some(())
        },
    },
    Corruption {
        name: "retire twice",
        expect: &["retired twice"],
        apply: |log| {
            let i = find(log, |ev| retires(ev).is_some())?;
            let again = TraceEvent::RequestRetired {
                request: retires(&log.chunk.events[i])?,
                t: log.chunk.events[i].time(),
            };
            log.chunk.events.insert(i + 1, again);
            Some(())
        },
    },
    Corruption {
        name: "move a retirement ahead of the stragglers it waited for",
        expect: &["after its retirement"],
        apply: |log| {
            let i = find(log, own_retirement)?;
            let retirement = log.chunk.events.remove(i);
            let completion = find(log, |ev| {
                matches!(*ev, TraceEvent::RequestCompleted { request, .. }
                    if Some(request) == retires(&retirement))
            })?;
            log.chunk.events.insert(completion + 1, retirement);
            Some(())
        },
    },
    Corruption {
        name: "name a request after its retirement",
        expect: &["launch names request", "after its retirement"],
        apply: |log| {
            let i = find(log, |ev| retires(ev).is_some())?;
            let gone = retires(&log.chunk.events[i]);
            let launch = find(
                log,
                |ev| matches!(*ev, TraceEvent::RequestLaunched { request, .. } if Some(request) == gone),
            )?;
            log.chunk.events.insert(i + 1, log.chunk.events[launch]);
            Some(())
        },
    },
];

#[test]
fn every_one_event_corruption_of_a_real_log_is_flagged() {
    // Every log takes the retirement cases. The quorum log takes only
    // those: a span may outlive a completion there.
    let both: Vec<&Corruption> = CORRUPTIONS.iter().chain(RETIREMENTS).collect();
    let retirements = &both[CORRUPTIONS.len()..];
    let logs = [
        ("quickstart", record(QUICKSTART, None, 1.0), &both[..]),
        (
            "quickstart + faults",
            record(QUICKSTART, Some(QUICKSTART_FAULTS), 1.6),
            &both[..],
        ),
        // The one bundled config with join nodes and connection pools.
        (
            "social_network",
            record(SOCIAL_NETWORK, None, 0.6),
            &both[..],
        ),
        (
            "quorum fan-out",
            record(QUORUM_FANOUT, None, 1.0),
            retirements,
        ),
    ];
    let mut applied = std::collections::BTreeMap::new();
    for (scenario, (log, counts), corruptions) in &logs {
        let clean = TraceAuditor::new().audit(log, counts);
        assert!(clean.is_clean(), "{scenario}: {:?}", clean.violations);
        assert_eq!(clean.events_checked, log.len(), "{scenario}");
        assert_eq!(clean.spans_checked, log.spans().len(), "{scenario}");
        assert!(clean.spans_checked > 1_000, "{scenario}: a trivial log");

        for corruption in *corruptions {
            let mut broken = copy(log);
            if (corruption.apply)(&mut broken).is_none() {
                continue;
            }
            *applied.entry(corruption.name).or_insert(0) += 1;
            let report = TraceAuditor::new().audit(&broken, counts);
            for class in corruption.expect {
                assert!(
                    report.violations.iter().any(|v| v.contains(class)),
                    "{scenario}, {}: no `{class}` violation in {:?}",
                    corruption.name,
                    report.violations
                );
            }
        }
    }
    for corruption in &both {
        let n = applied.get(corruption.name).copied().unwrap_or(0);
        assert!(n > 0, "{}: no log had an event to corrupt", corruption.name);
    }
    // The quorum log is what it is for: some releases ride on the
    // completion, the others wait for a straggler.
    let (quorum, _) = &logs[3].1;
    let own = quorum
        .events()
        .iter()
        .filter(|ev| own_retirement(ev))
        .count();
    let carried = quorum.events().iter().filter_map(retires).count() - own;
    assert!(own > 100 && carried > 100, "{own} own, {carried} carried");
}

/// The events of `log` cut into chunks of `size`, each with the job lists
/// of its own batches — what a streamed log of that chunk size hands over.
fn rechunk(log: &TraceLog, size: usize) -> Vec<SpanChunk> {
    let cut = |events: &[TraceEvent]| {
        let mut chunk = SpanChunk::default();
        for ev in events {
            let mut ev = *ev;
            if let TraceEvent::BatchStart { jobs, .. } = &mut ev {
                let list = log.batch_jobs(*jobs);
                *jobs = BatchJobs {
                    offset: chunk.jobs.len() as u32,
                    len: list.len() as u32,
                };
                chunk.jobs.extend_from_slice(list);
            }
            chunk.events.push(ev);
        }
        chunk
    };
    log.events().chunks(size).map(cut).collect()
}

fn audit_chunks(chunks: &[SpanChunk], counts: &AuditCounts, dropped: u64) -> AuditReport {
    let mut fold = AuditFold::new();
    chunks.iter().for_each(|chunk| fold.feed(chunk));
    let events = chunks.iter().map(|chunk| chunk.events.len()).sum();
    fold.finish(counts, events, dropped)
}

fn replay_chunks(chunks: &[SpanChunk], meta: &TraceMeta) -> Result<CpcProfile, String> {
    let mut fold = ReplayFold::new();
    chunks.iter().for_each(|chunk| fold.feed(chunk));
    let events = chunks.iter().map(|chunk| chunk.events.len()).sum();
    fold.finish(meta, events, 0)
}

const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

/// Audits and replays the log a scenario records, and each of
/// `corruptions` applied to it, whole and in chunks of every size: the
/// reports and the profiles must be equal, and only the untouched log
/// clean. Returns how many corruptions the log took, and the names of
/// those whose replay fails with "goes back in time".
fn chunked_equals_whole(scenario: &str, corruptions: &[Corruption]) -> (usize, Vec<&'static str>) {
    let (log, counts, meta) = record_with_meta(scenario, None, 0.6);
    let mut logs = vec![("untouched", copy(&log))];
    for corruption in corruptions {
        let mut broken = copy(&log);
        if (corruption.apply)(&mut broken).is_some() {
            logs.push((corruption.name, broken));
        }
    }
    let mut back_in_time = Vec::new();
    for (name, log) in &logs {
        let whole = TraceAuditor::new().audit(log, &counts);
        assert_eq!(whole.is_clean(), *name == "untouched", "{name}");
        let whole_profile = CpcProfile::from_trace(log, &meta);
        if matches!(&whole_profile, Err(e) if e.contains("goes back in time")) {
            back_in_time.push(*name);
        }
        for size in CHUNK_SIZES {
            let chunks = rechunk(log, size);
            assert_eq!(
                audit_chunks(&chunks, &counts, 0),
                whole,
                "{name}, chunks of {size}"
            );
            assert_eq!(
                replay_chunks(&chunks, &meta),
                whole_profile,
                "{name}, chunks of {size}"
            );
        }
    }
    (logs.len() - 1, back_in_time)
}

#[test]
fn folds_do_not_see_chunk_boundaries() {
    let (taken, back_in_time) = chunked_equals_whole(SOCIAL_NETWORK, CORRUPTIONS);
    assert!(taken >= 8, "social_network takes most corruptions");
    // A timestamp behind its request's frontier is an error of the replay,
    // not a panic in it.
    assert_eq!(
        back_in_time,
        [
            "shift a batch back onto its core's and thread's previous one",
            "enqueue after service started"
        ]
    );
    // The retirement rule, on a log with releases of both kinds. The
    // replay forgets a request at its terminal event, so it takes them all.
    let (taken, back_in_time) = chunked_equals_whole(QUORUM_FANOUT, RETIREMENTS);
    assert_eq!(taken, RETIREMENTS.len());
    assert!(back_in_time.is_empty(), "{back_in_time:?}");
    // A faulted log too: retries, drops and sheds cross chunk boundaries.
    let (log, counts, meta) = record_with_meta(QUICKSTART, Some(QUICKSTART_FAULTS), 1.6);
    for size in CHUNK_SIZES {
        let chunks = rechunk(&log, size);
        assert_eq!(
            audit_chunks(&chunks, &counts, 0),
            TraceAuditor::new().audit(&log, &counts)
        );
        assert_eq!(
            replay_chunks(&chunks, &meta),
            CpcProfile::from_trace(&log, &meta)
        );
    }
}

/// Whether the log is truncated is only known when it ends. Violations
/// that only a complete log can be held to are kept until then, and go
/// only if it turns out truncated — the others stay, in log order.
#[test]
fn completeness_violations_wait_for_the_end_of_the_log() {
    let (log, counts) = record(QUICKSTART, None, 1.0);
    let mut broken = copy(&log);
    // Lose the first emission (its request is launched, served and
    // completed "but never emitted") and complete some request twice.
    let i = find(&broken, |ev| {
        matches!(ev, TraceEvent::RequestEmitted { .. })
    })
    .unwrap();
    broken.chunk.events.remove(i);
    duplicate(&mut broken, measured_completion).unwrap();
    for size in CHUNK_SIZES {
        let chunks = rechunk(&broken, size);
        let complete = audit_chunks(&chunks, &counts, 0);
        assert_eq!(complete, TraceAuditor::new().audit(&broken, &counts));
        let never_emitted = |v: &&String| v.contains("never emitted");
        assert!(complete.violations.iter().filter(never_emitted).count() >= 2);
        assert!(complete
            .violations
            .iter()
            .any(|v| v.contains("conservation")));

        let truncated = audit_chunks(&chunks, &counts, 1);
        assert_eq!(truncated.violations.iter().filter(never_emitted).count(), 0);
        assert!(!truncated
            .violations
            .iter()
            .any(|v| v.contains("conservation")));
        // What is left is what the complete log's list has besides, in
        // the same order.
        let kept: Vec<&String> = complete
            .violations
            .iter()
            .filter(|v| truncated.violations.contains(v))
            .collect();
        assert_eq!(kept, truncated.violations.iter().collect::<Vec<_>>());
        assert!(kept.iter().any(|v| v.contains("completed twice")));
        assert_eq!(truncated.notes.len(), 1);
    }
}
