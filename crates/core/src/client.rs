//! Workload clients (`client.json`): open-loop and closed-loop load
//! generation, request mixes, and time-varying (diurnal) rate schedules.
//!
//! The paper's validation uses an open-loop generator (a modified `wrk2`)
//! with exponentially distributed inter-arrival times, a fixed number of
//! connections, and — for the power-management study — a diurnal load
//! pattern (Fig. 15).

use crate::config::Name;
use crate::dist::Distribution;
use crate::ids::RequestTypeId;
use crate::rng::RngFactory;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Label of the dedicated [`RngFactory`] stream the *stateful* (bursty)
/// arrival processes draw from, one sub-stream per client. The stateless
/// processes keep drawing from the engine's shared `"arrival"` stream, so
/// adding a bursty client to a scenario never perturbs the draws — and
/// therefore the byte-level artifacts — of existing scenarios.
pub const BURST_STREAM: &str = "burst";

/// The rates an arrival process may reach, in requests per second: from
/// one per 1,000 s — an exponential gap drawn at a lower rate can overflow
/// the simulated nanosecond clock — to one per simulated nanosecond, the
/// clock's resolution (at a finer rate every gap rounds to zero and the
/// clock never advances). [`ArrivalProcess::check_rates`] holds every
/// process to it, and a sweep's `--qps` points are held to it as well.
pub const QPS_RANGE: std::ops::RangeInclusive<f64> = 1e-3..=1e9;

/// `Err` naming `key` unless `qps` lies in [`QPS_RANGE`].
fn check_rate(key: impl FnOnce() -> String, qps: f64) -> Result<(), String> {
    if QPS_RANGE.contains(&qps) {
        return Ok(());
    }
    let (lo, hi) = QPS_RANGE.into_inner();
    Err(format!(
        "{}: {qps:?} qps is outside the rates the clock can run, {lo} to {hi}",
        key()
    ))
}

/// A piecewise-constant request-rate schedule (QPS over time).
///
/// # Examples
///
/// ```
/// use uqsim_core::client::RateSchedule;
/// use uqsim_core::time::SimTime;
///
/// let sched = RateSchedule::diurnal(1_000.0, 10_000.0, 60.0, 6);
/// assert!(sched.rate_at(SimTime::ZERO) >= 1_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSchedule {
    /// `(start_time_seconds, rate_qps)` segments, ascending by time. The
    /// first segment must start at 0; the last lasts forever.
    pub segments: Vec<(f64, f64)>,
}

impl RateSchedule {
    /// A constant rate.
    pub fn constant(qps: f64) -> Self {
        RateSchedule {
            segments: vec![(0.0, qps)],
        }
    }

    /// A sinusoid-sampled diurnal pattern between `min_qps` and `max_qps`:
    /// one full period lasts `period_s` seconds, discretized into `steps`
    /// piecewise-constant segments per period (repeating indefinitely is
    /// represented by two full periods; extend as needed).
    pub fn diurnal(min_qps: f64, max_qps: f64, period_s: f64, steps: usize) -> Self {
        assert!(steps >= 2, "diurnal needs at least 2 steps");
        let mut segments = Vec::new();
        // Two periods so minute-scale power experiments see the full swing
        // more than once.
        for k in 0..(2 * steps) {
            let t = k as f64 * period_s / steps as f64;
            let phase = 2.0 * std::f64::consts::PI * (k as f64 % steps as f64) / steps as f64;
            // Start at the trough, rise to the peak mid-period.
            let level = min_qps + (max_qps - min_qps) * 0.5 * (1.0 - phase.cos());
            segments.push((t, level));
        }
        RateSchedule { segments }
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns a message if empty, rates are non-positive, or times are not
    /// ascending starting at 0.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("rate schedule is empty".into());
        }
        if self.segments[0].0 != 0.0 {
            return Err("rate schedule must start at t=0".into());
        }
        let mut prev = -1.0;
        for &(t, r) in &self.segments {
            if !(t.is_finite() && t > prev) {
                return Err(format!("segment times must be ascending, got {t}"));
            }
            if !(r.is_finite() && r > 0.0) {
                return Err(format!("rate must be positive, got {r}"));
            }
            prev = t;
        }
        Ok(())
    }

    /// The rate in effect at `time`.
    pub fn rate_at(&self, time: SimTime) -> f64 {
        let t = time.as_secs_f64();
        let mut rate = self.segments[0].1;
        for &(start, r) in &self.segments {
            if start <= t {
                rate = r;
            } else {
                break;
            }
        }
        rate
    }

    /// The peak rate across all segments.
    pub fn peak(&self) -> f64 {
        self.segments.iter().map(|s| s.1).fold(0.0, f64::max)
    }
}

/// The arrival process of an open-loop client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with mean `1/rate(t)`.
    Poisson {
        /// The (possibly time-varying) rate.
        schedule: RateSchedule,
    },
    /// Deterministic arrivals at exactly `rate(t)` QPS.
    Uniform {
        /// The (possibly time-varying) rate.
        schedule: RateSchedule,
    },
    /// Replay of a recorded arrival trace: absolute timestamps in seconds,
    /// ascending. Generation stops after the last timestamp.
    Trace {
        /// Arrival instants, seconds since simulation start.
        timestamps: Vec<f64>,
        /// Optional per-arrival request-type *names*, parallel to
        /// `timestamps`. When present, arrival `i` issues `types[i]`
        /// (resolved against `graph.json` at build time) instead of a
        /// random draw from the client's mix; plain timestamp traces keep
        /// the mix draw and stay byte-identical to pre-typed goldens.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        types: Vec<Name>,
    },
    /// Markov-modulated Poisson process (MMPP): a continuous-time chain
    /// cycles through `states` (exponential dwell times), and while in
    /// state `i` arrivals are Poisson at `states[i].rate_qps`. The classic
    /// bursty-traffic model — an ON/OFF interrupted Poisson process is the
    /// two-state special case. Stateful: the engine keeps per-client
    /// [`ArrivalRt`] state seeded from the dedicated [`BURST_STREAM`].
    Mmpp {
        /// The modulating chain, visited cyclically starting at state 0.
        states: Vec<MmppState>,
    },
    /// A flash crowd: Poisson arrivals whose rate is `base` multiplied by
    /// a deterministic spike envelope (one factor per [`FlashSpike`],
    /// multiplied together). Sampled exactly by thinning against the peak
    /// rate, so no discretization error.
    FlashCrowd {
        /// The baseline (possibly diurnal) rate.
        base: RateSchedule,
        /// Deterministic spikes layered on top of the baseline.
        spikes: Vec<FlashSpike>,
    },
    /// Correlated per-user sessions: session *starts* are Poisson at
    /// `session_rate_qps`, each session issues a random number of requests
    /// (`requests_per_session`, rounded to an integer ≥ 1) separated by
    /// `think_time` gaps. Sessions are replayed back-to-back on the
    /// client's open-loop clock (the next session's start gap begins when
    /// the previous session's last request has been issued), which keeps
    /// generation single-cursor while preserving intra-session burstiness.
    Sessions {
        /// Mean session starts per second.
        session_rate_qps: f64,
        /// Requests per session; samples are rounded and clamped to ≥ 1.
        requests_per_session: Distribution,
        /// Gap between consecutive requests of one session, seconds.
        think_time: Distribution,
    },
}

/// One state of an MMPP modulating chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmppState {
    /// Poisson arrival rate while in this state, QPS. May be 0 (a silent
    /// OFF state), but at least one state of a chain must be positive.
    pub rate_qps: f64,
    /// Mean of the exponential dwell time in this state, seconds.
    pub mean_dwell_s: f64,
}

/// One deterministic spike of a [`ArrivalProcess::FlashCrowd`] envelope:
/// the rate multiplier ramps linearly 1 → `peak_multiplier` over `ramp_s`,
/// holds for `hold_s`, then decays linearly back to 1 over `decay_s`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashSpike {
    /// Spike onset, seconds since simulation start.
    pub at_s: f64,
    /// Peak rate multiplier (≥ 1; 1 is a no-op).
    pub peak_multiplier: f64,
    /// Linear ramp-up duration, seconds.
    pub ramp_s: f64,
    /// Plateau duration at the peak, seconds.
    pub hold_s: f64,
    /// Linear decay duration, seconds.
    pub decay_s: f64,
}

impl FlashSpike {
    /// The rate multiplier this spike contributes at absolute time `t_s`.
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        let mut rel = t_s - self.at_s;
        if rel < 0.0 {
            return 1.0;
        }
        let peak = self.peak_multiplier;
        if rel < self.ramp_s {
            return 1.0 + (peak - 1.0) * rel / self.ramp_s;
        }
        rel -= self.ramp_s;
        if rel < self.hold_s {
            return peak;
        }
        rel -= self.hold_s;
        if rel < self.decay_s {
            return peak - (peak - 1.0) * rel / self.decay_s;
        }
        1.0
    }
}

impl ArrivalProcess {
    /// Poisson arrivals at a constant rate.
    pub fn poisson(qps: f64) -> Self {
        ArrivalProcess::Poisson {
            schedule: RateSchedule::constant(qps),
        }
    }

    /// An untyped arrival trace.
    pub fn trace(timestamps: Vec<f64>) -> Self {
        ArrivalProcess::Trace {
            timestamps,
            types: Vec::new(),
        }
    }

    /// An MMPP over the given modulating states (visited cyclically).
    pub fn mmpp(states: Vec<MmppState>) -> Self {
        ArrivalProcess::Mmpp { states }
    }

    /// A two-state ON/OFF interrupted Poisson process: bursts at
    /// `on_qps` for a mean of `mean_on_s`, silent for a mean of
    /// `mean_off_s`.
    pub fn on_off(on_qps: f64, mean_on_s: f64, mean_off_s: f64) -> Self {
        ArrivalProcess::Mmpp {
            states: vec![
                MmppState {
                    rate_qps: on_qps,
                    mean_dwell_s: mean_on_s,
                },
                MmppState {
                    rate_qps: 0.0,
                    mean_dwell_s: mean_off_s,
                },
            ],
        }
    }

    /// A flash crowd over a constant baseline.
    pub fn flash_crowd(base_qps: f64, spikes: Vec<FlashSpike>) -> Self {
        ArrivalProcess::FlashCrowd {
            base: RateSchedule::constant(base_qps),
            spikes,
        }
    }

    /// Correlated user sessions (see [`ArrivalProcess::Sessions`]).
    pub fn sessions(
        session_rate_qps: f64,
        requests_per_session: Distribution,
        think_time: Distribution,
    ) -> Self {
        ArrivalProcess::Sessions {
            session_rate_qps,
            requests_per_session,
            think_time,
        }
    }

    /// The long-run mean arrival rate in QPS, where one is defined: the
    /// MMPP stationary rate (dwell-weighted state rates) and the sessions
    /// rate. Under the back-to-back session model a cycle of `k` requests
    /// lasts `1/session_rate + (k-1)·E[think]` on average, so the rate is
    /// `k` over that (using `E[requests]` for `k`, a tight approximation
    /// of the rounded-and-clamped sample mean). `None` for schedule-driven
    /// and trace processes.
    pub fn mean_rate_qps(&self) -> Option<f64> {
        match self {
            ArrivalProcess::Mmpp { states } => {
                let dwell: f64 = states.iter().map(|s| s.mean_dwell_s).sum();
                let weighted: f64 = states.iter().map(|s| s.rate_qps * s.mean_dwell_s).sum();
                Some(weighted / dwell)
            }
            ArrivalProcess::Sessions {
                session_rate_qps,
                requests_per_session,
                think_time,
            } => {
                let k = requests_per_session.mean().max(1.0);
                let cycle = 1.0 / session_rate_qps + (k - 1.0) * think_time.mean();
                Some(k / cycle)
            }
            _ => None,
        }
    }

    /// The underlying schedule, for rate-based processes (a flash crowd
    /// reports its baseline).
    pub fn schedule(&self) -> Option<&RateSchedule> {
        match self {
            ArrivalProcess::Poisson { schedule } | ArrivalProcess::Uniform { schedule } => {
                Some(schedule)
            }
            ArrivalProcess::FlashCrowd { base, .. } => Some(base),
            ArrivalProcess::Trace { .. }
            | ArrivalProcess::Mmpp { .. }
            | ArrivalProcess::Sessions { .. } => None,
        }
    }

    /// Validates the process.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid schedules, non-ascending traces,
    /// malformed MMPP chains, spikes, or session parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { schedule } | ArrivalProcess::Uniform { schedule } => {
                schedule.validate()
            }
            ArrivalProcess::Trace { timestamps, types } => {
                if timestamps.is_empty() {
                    return Err("arrival trace is empty".into());
                }
                let mut prev = -1.0;
                for &t in timestamps {
                    if !(t.is_finite() && t >= 0.0 && t >= prev) {
                        return Err(format!("trace timestamps must be ascending, got {t}"));
                    }
                    prev = t;
                }
                if !types.is_empty() && types.len() != timestamps.len() {
                    return Err(format!(
                        "typed trace has {} types for {} timestamps",
                        types.len(),
                        timestamps.len()
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Mmpp { states } => {
                if states.is_empty() {
                    return Err("mmpp has no states".into());
                }
                for (i, s) in states.iter().enumerate() {
                    if !(s.rate_qps.is_finite() && s.rate_qps >= 0.0) {
                        return Err(format!("mmpp state {i}: bad rate {}", s.rate_qps));
                    }
                    if !(s.mean_dwell_s.is_finite() && s.mean_dwell_s > 0.0) {
                        return Err(format!("mmpp state {i}: bad dwell {}", s.mean_dwell_s));
                    }
                }
                if !states.iter().any(|s| s.rate_qps > 0.0) {
                    return Err("mmpp needs at least one state with positive rate".into());
                }
                Ok(())
            }
            ArrivalProcess::FlashCrowd { base, spikes } => {
                base.validate()?;
                for (i, s) in spikes.iter().enumerate() {
                    if !(s.at_s.is_finite() && s.at_s >= 0.0) {
                        return Err(format!("spike {i}: bad onset {}", s.at_s));
                    }
                    if !(s.peak_multiplier.is_finite() && s.peak_multiplier >= 1.0) {
                        return Err(format!(
                            "spike {i}: peak multiplier must be >= 1, got {}",
                            s.peak_multiplier
                        ));
                    }
                    for (what, v) in [("ramp", s.ramp_s), ("hold", s.hold_s), ("decay", s.decay_s)]
                    {
                        if !(v.is_finite() && v >= 0.0) {
                            return Err(format!("spike {i}: bad {what} {v}"));
                        }
                    }
                }
                Ok(())
            }
            ArrivalProcess::Sessions {
                session_rate_qps,
                requests_per_session,
                think_time,
            } => {
                if !(session_rate_qps.is_finite() && *session_rate_qps > 0.0) {
                    return Err(format!(
                        "session rate must be positive, got {session_rate_qps}"
                    ));
                }
                requests_per_session
                    .validate()
                    .map_err(|e| format!("requests per session: {e}"))?;
                think_time
                    .validate()
                    .map_err(|e| format!("think time: {e}"))
            }
        }
    }

    /// Checks every rate the process can reach against [`QPS_RANGE`]: each
    /// schedule segment, each MMPP state (a silent state, rate 0, is
    /// allowed), a flash crowd's peak base rate times all its spikes' peak
    /// multipliers — the rate it thins against — and a session rate.
    /// Traces carry no rate.
    ///
    /// # Errors
    ///
    /// The first rate out of range, named by its key below the process
    /// (`schedule.segments[1]`, `states[0].rate_qps`, …).
    ///
    /// # Examples
    ///
    /// ```
    /// use uqsim_core::client::ArrivalProcess;
    ///
    /// assert!(ArrivalProcess::poisson(5_000.0).check_rates().is_ok());
    /// let err = ArrivalProcess::poisson(3e9).check_rates().unwrap_err();
    /// assert!(err.starts_with("schedule.segments[0]: 3000000000.0 qps"), "{err}");
    /// ```
    pub fn check_rates(&self) -> Result<(), String> {
        let segments = |field: &str, schedule: &RateSchedule| {
            (schedule.segments.iter().enumerate())
                .try_for_each(|(i, &(_, qps))| check_rate(|| format!("{field}.segments[{i}]"), qps))
        };
        match self {
            ArrivalProcess::Poisson { schedule } | ArrivalProcess::Uniform { schedule } => {
                segments("schedule", schedule)
            }
            ArrivalProcess::Trace { .. } => Ok(()),
            ArrivalProcess::Mmpp { states } => (states.iter().enumerate())
                .filter(|(_, s)| s.rate_qps != 0.0)
                .try_for_each(|(i, s)| check_rate(|| format!("states[{i}].rate_qps"), s.rate_qps)),
            ArrivalProcess::FlashCrowd { base, spikes } => {
                segments("base", base)?;
                check_rate(|| "spikes".into(), flash_peak(base, spikes))
            }
            ArrivalProcess::Sessions {
                session_rate_qps, ..
            } => check_rate(|| "session_rate_qps".into(), *session_rate_qps),
        }
    }

    /// Builds the per-client runtime state for this process. Stateful
    /// processes get their own [`SmallRng`] from the [`BURST_STREAM`]
    /// sub-stream `client_index`; stateless processes carry none and keep
    /// drawing from the engine's shared arrival stream.
    pub fn runtime(&self, factory: &RngFactory, client_index: u64) -> ArrivalRt {
        let kind = match self {
            ArrivalProcess::Mmpp { states } => {
                let mut rng = factory.stream(BURST_STREAM, client_index);
                let dwell = crate::dist::sample_exponential(&mut rng, states[0].mean_dwell_s);
                ArrivalRtKind::Mmpp {
                    rng,
                    state: 0,
                    next_transition: SimTime::ZERO + SimDuration::from_secs_f64(dwell),
                    mark: SimTime::ZERO,
                    time_in_state: vec![0.0; states.len()],
                    arrivals_in_state: vec![0; states.len()],
                }
            }
            ArrivalProcess::FlashCrowd { .. } => ArrivalRtKind::FlashCrowd {
                rng: factory.stream(BURST_STREAM, client_index),
            },
            ArrivalProcess::Sessions { .. } => ArrivalRtKind::Sessions {
                rng: factory.stream(BURST_STREAM, client_index),
                remaining: 0,
            },
            _ => ArrivalRtKind::Stateless,
        };
        ArrivalRt {
            kind,
            trace_types: Vec::new(),
        }
    }

    /// The time of the first arrival (counted from simulation start), or
    /// `None` for an empty trace; bursty processes draw through `rt`.
    pub fn first_arrival_rt<R: Rng + ?Sized>(
        &self,
        rt: &mut ArrivalRt,
        shared: &mut R,
    ) -> Option<SimDuration> {
        match self {
            ArrivalProcess::Trace { timestamps, .. } => {
                timestamps.first().map(|&t| SimDuration::from_secs_f64(t))
            }
            _ => self.gap_rt(rt, 0, SimTime::ZERO, shared),
        }
    }

    /// The gap from arrival number `issued` (0-based, just generated at
    /// `now`) to the next one. Exact for every process: the bursty ones
    /// (MMPP, flash crowd, sessions) mutate and draw from `rt`, the
    /// stateless ones draw from the engine's `shared` arrival stream.
    /// `None` when a replayed trace is exhausted, or when `rt` was not
    /// built by this process's [`runtime`](Self::runtime).
    pub fn gap_rt<R: Rng + ?Sized>(
        &self,
        rt: &mut ArrivalRt,
        issued: u64,
        now: SimTime,
        shared: &mut R,
    ) -> Option<SimDuration> {
        match (self, &mut rt.kind) {
            (ArrivalProcess::Poisson { schedule }, _) => {
                let rate = schedule.rate_at(now);
                Some(SimDuration::from_secs_f64(crate::dist::sample_exponential(
                    shared,
                    1.0 / rate,
                )))
            }
            (ArrivalProcess::Uniform { schedule }, _) => {
                Some(SimDuration::from_secs_f64(1.0 / schedule.rate_at(now)))
            }
            (ArrivalProcess::Trace { timestamps, .. }, _) => {
                let cur = *timestamps.get(issued as usize)?;
                let next = *timestamps.get(issued as usize + 1)?;
                Some(SimDuration::from_secs_f64(next - cur))
            }
            (
                ArrivalProcess::Mmpp { states },
                ArrivalRtKind::Mmpp {
                    rng,
                    state,
                    next_transition,
                    mark,
                    time_in_state,
                    arrivals_in_state,
                },
            ) => Some(mmpp_gap(
                states,
                rng,
                state,
                next_transition,
                mark,
                time_in_state,
                arrivals_in_state,
                now,
            )),
            (ArrivalProcess::FlashCrowd { base, spikes }, ArrivalRtKind::FlashCrowd { rng }) => {
                Some(flash_gap(base, spikes, now, rng))
            }
            (
                ArrivalProcess::Sessions {
                    session_rate_qps,
                    requests_per_session,
                    think_time,
                },
                ArrivalRtKind::Sessions { rng, remaining },
            ) => {
                if *remaining > 0 {
                    *remaining -= 1;
                    Some(SimDuration::from_secs_f64(think_time.sample(rng).max(0.0)))
                } else {
                    let gap = crate::dist::sample_exponential(rng, 1.0 / session_rate_qps);
                    let k = requests_per_session.sample(rng).round().max(1.0) as u64;
                    *remaining = k - 1;
                    Some(SimDuration::from_secs_f64(gap))
                }
            }
            _ => None,
        }
    }
}

/// Per-client runtime state for arrival generation: the mutable side of an
/// [`ArrivalProcess`] (modulating-chain position, session cursor, the
/// dedicated RNG) plus the resolved request types of a typed trace.
#[derive(Debug, Clone)]
pub struct ArrivalRt {
    kind: ArrivalRtKind,
    /// Resolved request-type ids for typed trace replay, parallel to the
    /// trace timestamps; empty for untyped traces and all other processes.
    pub(crate) trace_types: Vec<RequestTypeId>,
}

#[derive(Debug, Clone)]
enum ArrivalRtKind {
    /// Poisson / Uniform / Trace: all state lives in the spec + `issued`.
    Stateless,
    Mmpp {
        rng: SmallRng,
        /// Current modulating-chain state index.
        state: usize,
        /// Absolute time of the next chain transition.
        next_transition: SimTime,
        /// Accounting frontier: the last arrival or transition processed.
        mark: SimTime,
        /// Simulated seconds spent in each state (diagnostics).
        time_in_state: Vec<f64>,
        /// Arrivals generated in each state (diagnostics).
        arrivals_in_state: Vec<u64>,
    },
    FlashCrowd {
        rng: SmallRng,
    },
    Sessions {
        rng: SmallRng,
        /// Requests still to issue in the current session (excluding the
        /// one just issued).
        remaining: u64,
    },
}

impl ArrivalRt {
    /// The resolved request type of trace arrival `issued`, for typed
    /// trace replay; `None` everywhere else (callers fall back to the
    /// client's request mix).
    pub fn trace_type(&self, issued: u64) -> Option<RequestTypeId> {
        self.trace_types.get(issued as usize).copied()
    }

    /// MMPP occupancy diagnostics: `(seconds, arrivals)` per chain state,
    /// accumulated since simulation start. `None` for non-MMPP processes.
    pub fn mmpp_occupancy(&self) -> Option<(&[f64], &[u64])> {
        match &self.kind {
            ArrivalRtKind::Mmpp {
                time_in_state,
                arrivals_in_state,
                ..
            } => Some((time_in_state, arrivals_in_state)),
            _ => None,
        }
    }
}

/// Exact MMPP gap sampling via the memorylessness of both clocks: sample a
/// candidate arrival at the current state's rate; if it lands before the
/// next chain transition it *is* the next arrival, otherwise advance to the
/// transition, switch states, and resample. Silent (rate-0) states skip
/// straight to their transition.
#[allow(clippy::too_many_arguments)]
fn mmpp_gap(
    states: &[MmppState],
    rng: &mut SmallRng,
    state: &mut usize,
    next_transition: &mut SimTime,
    mark: &mut SimTime,
    time_in_state: &mut [f64],
    arrivals_in_state: &mut [u64],
    now: SimTime,
) -> SimDuration {
    loop {
        let s = *state;
        let rate = states[s].rate_qps;
        if rate > 0.0 {
            let gap = crate::dist::sample_exponential(rng, 1.0 / rate);
            let cand = *mark + SimDuration::from_secs_f64(gap);
            if cand <= *next_transition {
                time_in_state[s] += (cand - *mark).as_secs_f64();
                arrivals_in_state[s] += 1;
                *mark = cand;
                return cand - now;
            }
        }
        let tr = *next_transition;
        time_in_state[s] += (tr - *mark).as_secs_f64();
        *mark = tr;
        *state = (s + 1) % states.len();
        let dwell = crate::dist::sample_exponential(rng, states[*state].mean_dwell_s);
        *next_transition = tr + SimDuration::from_secs_f64(dwell);
    }
}

/// The instantaneous flash-crowd rate: baseline × all spike multipliers.
fn flash_rate(base: &RateSchedule, spikes: &[FlashSpike], t_s: f64) -> f64 {
    base.rate_at(SimTime::from_secs_f64(t_s))
        * spikes.iter().map(|s| s.multiplier_at(t_s)).product::<f64>()
}

/// The rate a flash crowd thins against: baseline peak × product of spike
/// peaks, a bound on every rate it reaches.
fn flash_peak(base: &RateSchedule, spikes: &[FlashSpike]) -> f64 {
    base.peak() * spikes.iter().map(|s| s.peak_multiplier).product::<f64>()
}

/// Exact non-homogeneous Poisson sampling by thinning against the peak
/// rate ([`flash_peak`]).
fn flash_gap(
    base: &RateSchedule,
    spikes: &[FlashSpike],
    now: SimTime,
    rng: &mut SmallRng,
) -> SimDuration {
    let lambda_max = flash_peak(base, spikes);
    let start = now.as_secs_f64();
    let mut t = start;
    loop {
        t += crate::dist::sample_exponential(rng, 1.0 / lambda_max);
        let u: f64 = rng.gen();
        if u * lambda_max <= flash_rate(base, spikes, t) {
            return SimDuration::from_secs_f64(t - start);
        }
    }
}

/// A weighted mix of request types issued by a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMix {
    /// `(request_type, probability)` entries; probabilities sum to 1.
    pub entries: Vec<(RequestTypeId, f64)>,
}

impl RequestMix {
    /// A single request type.
    pub fn single(ty: RequestTypeId) -> Self {
        RequestMix {
            entries: vec![(ty, 1.0)],
        }
    }

    /// A weighted mix (weights are normalized).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or total weight is not positive.
    pub fn weighted(entries: Vec<(RequestTypeId, f64)>) -> Self {
        assert!(!entries.is_empty(), "request mix must not be empty");
        let total: f64 = entries.iter().map(|e| e.1).sum();
        assert!(total > 0.0, "request mix weights must be positive");
        RequestMix {
            entries: entries.into_iter().map(|(t, w)| (t, w / total)).collect(),
        }
    }

    /// Draws a request type.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestTypeId {
        let mut u: f64 = rng.gen();
        for &(ty, p) in &self.entries {
            if u < p {
                return ty;
            }
            u -= p;
        }
        self.entries.last().expect("mix is non-empty").0
    }

    /// Validates the mix.
    ///
    /// # Errors
    ///
    /// Returns a message if empty or probabilities do not sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("request mix is empty".into());
        }
        let total: f64 = self.entries.iter().map(|e| e.1).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("request mix probabilities sum to {total}"));
        }
        Ok(())
    }
}

/// Closed-loop operation: a fixed population of users, each issuing its
/// next request one think time after the previous response arrives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoop {
    /// Concurrent users (each keeps at most one request in flight).
    pub users: usize,
    /// Think time between a response and the next request, seconds.
    pub think_time: Distribution,
}

impl ClosedLoop {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message on zero users or an invalid think-time.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 {
            return Err("closed loop needs at least one user".into());
        }
        self.think_time.validate()
    }
}

/// Static description of one workload client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Client name.
    pub name: Name,
    /// Number of connections to the root service (each HTTP/1.1-blocking).
    pub connections: usize,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The request mix.
    pub mix: RequestMix,
    /// Request payload sizes in bytes (the paper's validation uses
    /// exponentially distributed value sizes).
    #[serde(default = "default_request_size")]
    pub request_size: Distribution,
    /// Closed-loop operation; when set, `arrivals` is ignored and `users`
    /// self-clocked requests circulate instead.
    #[serde(default)]
    pub closed_loop: Option<ClosedLoop>,
    /// Client-side timeout, seconds, measured from request generation.
    /// Timed-out requests are counted separately and excluded from the
    /// latency summary (the wrk2 error convention).
    #[serde(default)]
    pub timeout_s: Option<f64>,
}

fn default_request_size() -> Distribution {
    Distribution::constant(512.0)
}

impl ClientSpec {
    /// An open-loop Poisson client, like the paper's modified `wrk2` with
    /// 320 connections.
    pub fn open_loop(
        name: impl Into<Name>,
        qps: f64,
        connections: usize,
        ty: RequestTypeId,
    ) -> Self {
        ClientSpec {
            name: name.into(),
            connections,
            arrivals: ArrivalProcess::poisson(qps),
            mix: RequestMix::single(ty),
            request_size: default_request_size(),
            closed_loop: None,
            timeout_s: None,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the client and the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.connections == 0 {
            return Err(format!("client {}: zero connections", self.name));
        }
        self.arrivals
            .validate()
            .map_err(|e| format!("client {}: {e}", self.name))?;
        self.request_size
            .validate()
            .map_err(|e| format!("client {}: {e}", self.name))?;
        if let Some(cl) = &self.closed_loop {
            cl.validate()
                .map_err(|e| format!("client {}: {e}", self.name))?;
        }
        if let Some(t) = self.timeout_s {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!(
                    "client {}: timeout must be positive, got {t}",
                    self.name
                ));
            }
        }
        self.mix
            .validate()
            .map_err(|e| format!("client {}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    /// Every rate a process can reach is held to `QPS_RANGE`, each named
    /// by its key; a silent MMPP state and a trace carry no rate.
    #[test]
    fn check_rates_names_the_first_rate_out_of_range() {
        let spike = |peak_multiplier| FlashSpike {
            at_s: 1.0,
            peak_multiplier,
            ramp_s: 0.1,
            hold_s: 0.1,
            decay_s: 0.1,
        };
        let sessions = |rate| {
            ArrivalProcess::sessions(
                rate,
                Distribution::constant(3.0),
                Distribution::constant(0.01),
            )
        };
        let ok = [
            ArrivalProcess::poisson(1e9),
            ArrivalProcess::Uniform {
                schedule: RateSchedule::constant(1e-3),
            },
            ArrivalProcess::on_off(5e8, 0.1, 0.1),
            ArrivalProcess::flash_crowd(1e6, vec![spike(10.0), spike(100.0)]),
            sessions(1e9),
            ArrivalProcess::trace(vec![0.0, 0.0, 0.0]),
        ];
        for process in ok {
            assert_eq!(process.check_rates(), Ok(()), "{process:?}");
        }
        let bad = [
            (
                ArrivalProcess::Poisson {
                    schedule: RateSchedule {
                        segments: vec![(0.0, 100.0), (1.0, 3e9)],
                    },
                },
                "schedule.segments[1]: 3000000000.0 qps",
            ),
            (
                ArrivalProcess::Uniform {
                    schedule: RateSchedule::constant(1e-4),
                },
                "schedule.segments[0]: 0.0001 qps",
            ),
            (
                ArrivalProcess::on_off(1e300, 0.1, 0.1),
                "states[0].rate_qps: 1e300 qps",
            ),
            (
                ArrivalProcess::flash_crowd(1e6, vec![spike(100.0), spike(100.0)]),
                "spikes: 10000000000.0 qps",
            ),
            (sessions(2e9), "session_rate_qps: 2000000000.0 qps"),
        ];
        for (process, key) in bad {
            let err = process.check_rates().unwrap_err();
            assert!(
                err.starts_with(key) && err.ends_with("0.001 to 1000000000"),
                "{err}"
            );
        }
    }

    #[test]
    fn constant_schedule() {
        let s = RateSchedule::constant(1000.0);
        assert!(s.validate().is_ok());
        assert_eq!(s.rate_at(SimTime::ZERO), 1000.0);
        assert_eq!(s.rate_at(SimTime::from_secs_f64(1e6)), 1000.0);
        assert_eq!(s.peak(), 1000.0);
    }

    #[test]
    fn piecewise_schedule_lookup() {
        let s = RateSchedule {
            segments: vec![(0.0, 100.0), (10.0, 200.0), (20.0, 50.0)],
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.rate_at(SimTime::from_secs_f64(5.0)), 100.0);
        assert_eq!(s.rate_at(SimTime::from_secs_f64(10.0)), 200.0);
        assert_eq!(s.rate_at(SimTime::from_secs_f64(25.0)), 50.0);
        assert_eq!(s.peak(), 200.0);
    }

    #[test]
    fn schedule_validation() {
        assert!(RateSchedule { segments: vec![] }.validate().is_err());
        assert!(RateSchedule {
            segments: vec![(1.0, 10.0)]
        }
        .validate()
        .is_err());
        assert!(RateSchedule {
            segments: vec![(0.0, 0.0)]
        }
        .validate()
        .is_err());
        assert!(RateSchedule {
            segments: vec![(0.0, 10.0), (0.0, 20.0)]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn diurnal_swings_between_bounds() {
        let s = RateSchedule::diurnal(1000.0, 9000.0, 60.0, 12);
        assert!(s.validate().is_ok());
        let rates: Vec<f64> = s.segments.iter().map(|x| x.1).collect();
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0, f64::max);
        assert!((lo - 1000.0).abs() < 1.0, "trough {lo}");
        assert!((hi - 9000.0).abs() / 9000.0 < 0.05, "peak {hi}");
    }

    #[test]
    fn poisson_gaps_average_to_rate() {
        let p = ArrivalProcess::poisson(10_000.0);
        let factory = RngFactory::new(2);
        let mut rt = p.runtime(&factory, 0);
        let mut rng = factory.stream("client", 0);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|i| {
                p.gap_rt(&mut rt, i, SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum();
        let mean_gap = total / n as f64;
        assert!((mean_gap - 1e-4).abs() / 1e-4 < 0.02, "mean gap {mean_gap}");
    }

    #[test]
    fn uniform_gaps_are_exact() {
        let p = ArrivalProcess::Uniform {
            schedule: RateSchedule::constant(1000.0),
        };
        let factory = RngFactory::new(2);
        let mut rt = p.runtime(&factory, 1);
        let mut rng = factory.stream("client", 1);
        assert_eq!(
            p.gap_rt(&mut rt, 0, SimTime::ZERO, &mut rng),
            Some(SimDuration::from_millis(1))
        );
    }

    #[test]
    fn mix_choose_respects_weights() {
        let mix = RequestMix::weighted(vec![
            (RequestTypeId::from_raw(0), 3.0),
            (RequestTypeId::from_raw(1), 1.0),
        ]);
        assert!(mix.validate().is_ok());
        let mut rng = RngFactory::new(3).stream("mix", 0);
        let n = 100_000;
        let ones = (0..n).filter(|_| mix.choose(&mut rng).raw() == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "type-1 fraction {frac}");
    }

    #[test]
    fn client_spec_validation() {
        let ok = ClientSpec::open_loop("c", 1000.0, 320, RequestTypeId::from_raw(0));
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.connections = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let c = ClientSpec::open_loop("wrk2", 5000.0, 320, RequestTypeId::from_raw(0));
        let json = serde_json::to_string(&c).unwrap();
        let back: ClientSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn untyped_trace_serialization_is_unchanged() {
        // The optional `types` field must not appear for plain timestamp
        // traces (golden configs re-serialize byte-identically) and old
        // JSON without the field must still parse.
        let t = ArrivalProcess::trace(vec![0.0, 0.5, 1.0]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"type":"trace","timestamps":[0.0,0.5,1.0]}"#);
        let back: ArrivalProcess = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn typed_trace_validation() {
        let ok = ArrivalProcess::Trace {
            timestamps: vec![0.0, 1.0],
            types: vec!["get".into(), "post".into()],
        };
        assert!(ok.validate().is_ok());
        let bad = ArrivalProcess::Trace {
            timestamps: vec![0.0, 1.0],
            types: vec!["get".into()],
        };
        assert!(bad.validate().unwrap_err().contains("1 types"));
        let json = serde_json::to_string(&ok).unwrap();
        assert!(json.contains(r#""types":["get","post"]"#));
        assert_eq!(serde_json::from_str::<ArrivalProcess>(&json).unwrap(), ok);
    }

    #[test]
    fn mmpp_validation() {
        assert!(ArrivalProcess::mmpp(vec![]).validate().is_err());
        assert!(ArrivalProcess::on_off(0.0, 1.0, 1.0).validate().is_err());
        assert!(ArrivalProcess::mmpp(vec![MmppState {
            rate_qps: 100.0,
            mean_dwell_s: 0.0,
        }])
        .validate()
        .is_err());
        assert!(ArrivalProcess::on_off(5_000.0, 0.1, 0.4).validate().is_ok());
    }

    /// Drives a stateful process for `n` arrivals, returning arrival times.
    fn drive(p: &ArrivalProcess, seed: u64, n: usize) -> (Vec<f64>, ArrivalRt) {
        let factory = RngFactory::new(seed);
        let mut rt = p.runtime(&factory, 0);
        let mut shared = factory.stream("arrival", 0);
        let mut now = SimTime::ZERO + p.first_arrival_rt(&mut rt, &mut shared).unwrap();
        let mut times = Vec::with_capacity(n);
        times.push(now.as_secs_f64());
        for i in 1..n as u64 {
            now = now + p.gap_rt(&mut rt, i, now, &mut shared).unwrap();
            times.push(now.as_secs_f64());
        }
        (times, rt)
    }

    #[test]
    fn mmpp_per_state_rates_match_configuration() {
        let states = vec![
            MmppState {
                rate_qps: 8_000.0,
                mean_dwell_s: 0.050,
            },
            MmppState {
                rate_qps: 500.0,
                mean_dwell_s: 0.200,
            },
        ];
        let p = ArrivalProcess::mmpp(states.clone());
        // Stationary mean: (8000·0.05 + 500·0.2) / 0.25 = 2000 QPS.
        assert!((p.mean_rate_qps().unwrap() - 2_000.0).abs() < 1e-9);
        let (times, rt) = drive(&p, 7, 200_000);
        let (secs, counts) = rt.mmpp_occupancy().unwrap();
        // The empirical rate inside each state must match its configured
        // rate: conditionally on occupancy the process is plain Poisson,
        // so with >40k arrivals per state 5% is a generous CI bound.
        for (i, st) in states.iter().enumerate() {
            let emp = counts[i] as f64 / secs[i];
            assert!(
                (emp - st.rate_qps).abs() / st.rate_qps < 0.05,
                "state {i}: empirical {emp} vs configured {}",
                st.rate_qps
            );
        }
        // Occupancy fractions follow the dwell ratio (0.05 : 0.20).
        let frac = secs[0] / (secs[0] + secs[1]);
        assert!((frac - 0.2).abs() < 0.02, "state-0 occupancy {frac}");
        // And the whole stream is *bursty*: the index of dispersion of
        // 10 ms window counts far exceeds the Poisson value of 1.
        let horizon = *times.last().unwrap();
        let mut windows = vec![0.0f64; (horizon / 0.010).ceil() as usize + 1];
        for &t in &times {
            windows[(t / 0.010) as usize] += 1.0;
        }
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        let var = windows.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / windows.len() as f64;
        assert!(var / mean > 2.0, "index of dispersion {}", var / mean);
    }

    #[test]
    fn flash_crowd_spike_multiplies_baseline_rate() {
        let p = ArrivalProcess::flash_crowd(
            1_000.0,
            vec![FlashSpike {
                at_s: 5.0,
                peak_multiplier: 8.0,
                ramp_s: 1.0,
                hold_s: 2.0,
                decay_s: 1.0,
            }],
        );
        assert!(p.validate().is_ok());
        let (times, _) = drive(&p, 11, 60_000);
        assert!(*times.last().unwrap() > 10.0, "need to cover the spike");
        let count_in = |lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        // Baseline window [0, 5): 1000 QPS.
        let base = count_in(0.0, 5.0) as f64 / 5.0;
        assert!((base - 1_000.0).abs() / 1_000.0 < 0.05, "baseline {base}");
        // Hold window [6, 8): 8× the baseline.
        let hold = count_in(6.0, 8.0) as f64 / 2.0;
        assert!((hold - 8_000.0).abs() / 8_000.0 < 0.05, "hold {hold}");
        // After the decay the rate returns to baseline.
        let after = count_in(9.5, 14.5) as f64 / 5.0;
        assert!((after - 1_000.0).abs() / 1_000.0 < 0.06, "after {after}");
    }

    #[test]
    fn flash_spike_envelope_shape() {
        let s = FlashSpike {
            at_s: 10.0,
            peak_multiplier: 5.0,
            ramp_s: 2.0,
            hold_s: 4.0,
            decay_s: 2.0,
        };
        assert_eq!(s.multiplier_at(0.0), 1.0);
        assert_eq!(s.multiplier_at(11.0), 3.0); // mid-ramp
        assert_eq!(s.multiplier_at(13.0), 5.0); // hold
        assert_eq!(s.multiplier_at(17.0), 3.0); // mid-decay
        assert_eq!(s.multiplier_at(30.0), 1.0);
    }

    #[test]
    fn sessions_hit_long_run_rate_and_clump() {
        let p = ArrivalProcess::sessions(
            50.0,
            Distribution::constant(20.0),
            Distribution::constant(1e-3),
        );
        assert!(p.validate().is_ok());
        // Cycle: 1/50 s start gap + 19 ms of thinks for 20 requests.
        let expect = 20.0 / (0.02 + 0.019);
        assert!((p.mean_rate_qps().unwrap() - expect).abs() < 1e-9);
        let (times, _) = drive(&p, 3, 100_000);
        let emp = times.len() as f64 / times.last().unwrap();
        assert!(
            (emp - expect).abs() / expect < 0.02,
            "rate {emp} vs {expect}"
        );
        // Intra-session gaps are the constant think time: 19 of every 20
        // consecutive gaps must be exactly 1 ms.
        let thinks = times
            .windows(2)
            .filter(|w| (w[1] - w[0] - 1e-3).abs() < 1e-9)
            .count();
        let frac = thinks as f64 / (times.len() - 1) as f64;
        assert!((frac - 0.95).abs() < 0.01, "think-gap fraction {frac}");
    }

    #[test]
    fn bursty_processes_are_deterministic_per_seed() {
        let p = ArrivalProcess::on_off(5_000.0, 0.05, 0.1);
        let (a, _) = drive(&p, 42, 10_000);
        let (b, _) = drive(&p, 42, 10_000);
        assert_eq!(a, b);
        let (c, _) = drive(&p, 43, 10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn stateless_processes_ignore_runtime_state() {
        // A Poisson gap is one exponential draw from the shared stream and
        // nothing else — the byte-identity contract that keeps pre-burst
        // goldens unchanged.
        let p = ArrivalProcess::poisson(2_000.0);
        let factory = RngFactory::new(5);
        let mut rt = p.runtime(&factory, 0);
        let mut a = factory.stream("arrival", 0);
        let mut b = factory.stream("arrival", 0);
        for i in 0..1_000 {
            let direct = crate::dist::sample_exponential(&mut b, 1.0 / 2_000.0);
            assert_eq!(
                p.gap_rt(&mut rt, i, SimTime::ZERO, &mut a),
                Some(SimDuration::from_secs_f64(direct))
            );
        }
    }

    #[test]
    fn offered_qps_rescaling_preserves_burst_structure() {
        use crate::config::ScenarioConfig;
        let mut cfg: ScenarioConfig =
            ScenarioConfig::from_json(crate::run::EXAMPLE_SCENARIO).unwrap();
        cfg.clients[0].arrivals = ArrivalProcess::on_off(4_000.0, 0.1, 0.3);
        let scaled = cfg.with_offered_qps(500.0);
        let got = scaled.clients[0].arrivals.mean_rate_qps().unwrap();
        assert!((got - 500.0).abs() < 1e-9, "mmpp mean {got}");
        // Burstiness (rate ratio between states) is preserved.
        if let ArrivalProcess::Mmpp { states } = &scaled.clients[0].arrivals {
            assert_eq!(states[1].rate_qps, 0.0);
            assert!(states[0].rate_qps > 500.0);
        } else {
            panic!("variant changed");
        }
        // Sessions: 5-request sessions with 2 ms thinks cap out at
        // 5/(4·2e-3) = 625 QPS; target a feasible 300 and hit it exactly.
        cfg.clients[0].arrivals = ArrivalProcess::sessions(
            10.0,
            Distribution::constant(5.0),
            Distribution::constant(2e-3),
        );
        let scaled = cfg.with_offered_qps(300.0);
        let got = scaled.clients[0].arrivals.mean_rate_qps().unwrap();
        assert!((got - 300.0).abs() < 1e-6, "sessions mean {got}");
    }
}
