//! Execution stages: the basic element of a microservice's application logic.
//!
//! A *stage* is a queue–consumer pair (§III-B). Each stage declares a queue
//! discipline (plain FIFO, per-connection socket queues, or epoll-style
//! event harvesting with batching) and a *service-time model* describing how
//! long one invocation takes, possibly as a function of batch size and of
//! the core's DVFS frequency.

use crate::config::Name;
use crate::dist::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a stage's queue admits and releases jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum QueueDiscipline {
    /// One FIFO; each invocation serves exactly one job.
    Single,
    /// Per-connection subqueues; one invocation drains up to `batch` jobs
    /// from a *single* ready connection (models `socket_read`).
    Socket {
        /// Maximum jobs taken from the chosen connection.
        batch: usize,
    },
    /// Per-connection subqueues; one invocation harvests up to
    /// `batch_per_conn` jobs from *every* active connection (models `epoll`).
    Epoll {
        /// Maximum jobs returned per active connection.
        batch_per_conn: usize,
    },
}

/// Service-time model of one stage invocation.
///
/// The invocation cost is `base + Σ per_job` over the jobs in the batch —
/// this captures the paper's observation that `epoll`'s execution time grows
/// linearly with the number of returned events and `socket_read`'s with the
/// bytes read, while the fixed part is amortized over the whole batch
/// (the mechanism behind Fig. 13's µqSim-vs-BigHouse gap).
///
/// Frequency dependence: either an explicit per-frequency table (the paper's
/// per-DVFS-setting histograms) or analytic scaling
/// `t(f) = t(f_ref) · (f_ref / f)^alpha`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceTimeModel {
    /// Fixed cost per invocation (amortized over the batch), seconds.
    pub base: Distribution,
    /// Additional cost per job in the batch, seconds.
    pub per_job: Distribution,
    /// Additional cost per byte carried by the batch's jobs, seconds/byte.
    /// Models the paper's observation that `socket_read`'s processing time
    /// is proportional to the bytes read from the socket.
    #[serde(default)]
    pub per_byte: f64,
    /// Reference frequency in GHz at which `base`/`per_job` were profiled.
    pub ref_freq_ghz: f64,
    /// Exponent for analytic frequency scaling; 1.0 = fully core-bound,
    /// 0.0 = frequency-insensitive (e.g. purely memory/IO-bound).
    pub freq_alpha: f64,
    /// Optional explicit per-frequency overrides: `(freq_ghz, base, per_job)`.
    /// When the current frequency matches an entry (±1 MHz), the entry's
    /// distributions are used instead of analytic scaling (the per-byte
    /// component still applies).
    #[serde(default)]
    pub freq_table: Vec<(f64, Distribution, Distribution)>,
}

impl ServiceTimeModel {
    /// A fixed-cost-per-job stage (no batching amortization), profiled at
    /// `ref_freq_ghz` and fully core-bound.
    pub fn per_job(dist: Distribution, ref_freq_ghz: f64) -> Self {
        ServiceTimeModel {
            base: Distribution::constant(0.0),
            per_job: dist,
            per_byte: 0.0,
            ref_freq_ghz,
            freq_alpha: 1.0,
            freq_table: Vec::new(),
        }
    }

    /// A stage with a fixed invocation cost plus a per-job increment.
    pub fn batched(base: Distribution, per_job: Distribution, ref_freq_ghz: f64) -> Self {
        ServiceTimeModel {
            base,
            per_job,
            per_byte: 0.0,
            ref_freq_ghz,
            freq_alpha: 1.0,
            freq_table: Vec::new(),
        }
    }

    /// Sets the per-byte cost (seconds/byte at the reference frequency).
    pub fn with_per_byte(mut self, per_byte: f64) -> Self {
        self.per_byte = per_byte;
        self
    }

    /// Sets the frequency-scaling exponent.
    pub fn with_freq_alpha(mut self, alpha: f64) -> Self {
        self.freq_alpha = alpha;
        self
    }

    /// Adds an explicit per-frequency override.
    pub fn with_freq_entry(
        mut self,
        freq_ghz: f64,
        base: Distribution,
        per_job: Distribution,
    ) -> Self {
        self.freq_table.push((freq_ghz, base, per_job));
        self
    }

    /// Validates all contained distributions.
    ///
    /// # Errors
    ///
    /// Returns the first invalid parameter description.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        self.per_job.validate()?;
        if !(self.ref_freq_ghz.is_finite() && self.ref_freq_ghz > 0.0) {
            return Err(format!(
                "ref_freq_ghz must be positive, got {}",
                self.ref_freq_ghz
            ));
        }
        if !(self.freq_alpha.is_finite() && self.freq_alpha >= 0.0) {
            return Err(format!(
                "freq_alpha must be non-negative, got {}",
                self.freq_alpha
            ));
        }
        if !(self.per_byte.is_finite() && self.per_byte >= 0.0) {
            return Err(format!(
                "per_byte must be non-negative, got {}",
                self.per_byte
            ));
        }
        for (f, b, p) in &self.freq_table {
            if !(f.is_finite() && *f > 0.0) {
                return Err(format!("freq_table frequency {f} invalid"));
            }
            b.validate()?;
            p.validate()?;
        }
        Ok(())
    }

    /// Samples the duration (seconds) of one invocation serving
    /// `batch_size` jobs carrying `batch_bytes` payload bytes in total, on
    /// a core running at `freq_ghz`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `batch_size > 0`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        batch_size: usize,
        batch_bytes: f64,
        freq_ghz: f64,
    ) -> f64 {
        self.sample_at(rng, batch_size, batch_bytes, self.at_freq(freq_ghz))
    }

    /// What a sample at `freq_ghz` takes from the frequency alone: the
    /// analytic scale and the `freq_table` entry, if one overrides it.
    pub(crate) fn at_freq(&self, freq_ghz: f64) -> AtFreq {
        // `powf` is a libm call; the two common exponents have exact
        // closed forms (IEEE pow(x, 1.0) == x).
        let scale = if self.freq_alpha == 0.0 {
            1.0
        } else if self.freq_alpha == 1.0 {
            self.ref_freq_ghz / freq_ghz
        } else {
            (self.ref_freq_ghz / freq_ghz).powf(self.freq_alpha)
        };
        let entry = self
            .freq_table
            .iter()
            .position(|(f, _, _)| (f - freq_ghz).abs() < 1e-3);
        AtFreq {
            freq_ghz,
            scale,
            entry,
        }
    }

    /// [`sample`](Self::sample) with the frequency's share precomputed by
    /// [`at_freq`](Self::at_freq).
    pub(crate) fn sample_at<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        batch_size: usize,
        batch_bytes: f64,
        at: AtFreq,
    ) -> f64 {
        debug_assert!(batch_size > 0, "empty batch");
        let byte_cost = self.per_byte * batch_bytes;
        if let Some(entry) = at.entry {
            let (_, base, per_job) = &self.freq_table[entry];
            let mut t = base.sample(rng);
            for _ in 0..batch_size {
                t += per_job.sample(rng);
            }
            return t + byte_cost * at.scale;
        }
        let mut t = self.base.sample(rng);
        for _ in 0..batch_size {
            t += self.per_job.sample(rng);
        }
        (t + byte_cost) * at.scale
    }

    /// Expected duration of an invocation with `batch_size` jobs (zero
    /// payload bytes) at the reference frequency.
    pub fn mean(&self, batch_size: usize) -> f64 {
        self.base.mean() + self.per_job.mean() * batch_size as f64
    }
}

/// A [`ServiceTimeModel`] at one core frequency: the analytic scale
/// `(ref_freq / f)^alpha` and the index of the `freq_table` entry that
/// overrides the model at `f`, if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtFreq {
    freq_ghz: f64,
    scale: f64,
    entry: Option<usize>,
}

/// Each stage's [`AtFreq`] per core frequency it has run at, filled the
/// first time a stage sees a frequency: a dispatch pays `powf` and the
/// `freq_table` scan once per (stage, frequency), not once per batch.
/// Starts empty, so building a simulator does none of this work.
#[derive(Debug, Clone, Default)]
pub(crate) struct AtFreqMemo {
    /// Per service, per stage.
    stages: Vec<Vec<StageAtFreq>>,
}

/// One stage's memo: the frequency it last ran at inline — at a fixed
/// frequency the only one, found with one compare and no allocation — and
/// every other frequency it has run at behind it.
#[derive(Debug, Clone)]
struct StageAtFreq {
    last: AtFreq,
    others: Vec<AtFreq>,
}

impl AtFreqMemo {
    /// Stage `stage` of service `service` (`model`) at `freq_ghz`.
    pub(crate) fn get(
        &mut self,
        service: usize,
        stage: usize,
        model: &ServiceTimeModel,
        freq_ghz: f64,
    ) -> AtFreq {
        if self.stages.len() <= service {
            self.stages.resize_with(service + 1, Vec::new);
        }
        let stages = &mut self.stages[service];
        if stages.len() <= stage {
            stages.resize_with(stage + 1, || StageAtFreq {
                // No core runs at NaN GHz: the first lookup misses.
                last: AtFreq {
                    freq_ghz: f64::NAN,
                    scale: 1.0,
                    entry: None,
                },
                others: Vec::new(),
            });
        }
        let memo = &mut stages[stage];
        if memo.last.freq_ghz == freq_ghz {
            return memo.last;
        }
        let at = match memo.others.iter().position(|at| at.freq_ghz == freq_ghz) {
            Some(k) => memo.others.swap_remove(k),
            None => model.at_freq(freq_ghz),
        };
        if !memo.last.freq_ghz.is_nan() {
            memo.others.push(memo.last);
        }
        memo.last = at;
        at
    }
}

/// Static description of one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Human-readable name (e.g. `"epoll"`, `"memcached_processing"`).
    pub name: Name,
    /// Queue discipline.
    pub queue: QueueDiscipline,
    /// Service-time model.
    pub service: ServiceTimeModel,
}

impl StageSpec {
    /// Creates a stage.
    pub fn new(name: impl Into<Name>, queue: QueueDiscipline, service: ServiceTimeModel) -> Self {
        StageSpec {
            name: name.into(),
            queue,
            service,
        }
    }

    /// The stage name sanitized for use as a metric label value: ASCII
    /// alphanumerics lowercased, everything else mapped to `_`. Keeps the
    /// Prometheus/CSV exports free of quoting surprises.
    pub fn metric_label(&self) -> String {
        self.name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// Validates the stage.
    ///
    /// # Errors
    ///
    /// Returns a message naming the stage and the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("stage name is empty".into());
        }
        match self.queue {
            QueueDiscipline::Socket { batch: 0 } => {
                return Err(format!("stage {}: socket batch must be > 0", self.name));
            }
            QueueDiscipline::Epoll { batch_per_conn: 0 } => {
                return Err(format!(
                    "stage {}: epoll batch_per_conn must be > 0",
                    self.name
                ));
            }
            _ => {}
        }
        self.service
            .validate()
            .map_err(|e| format!("stage {}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> rand::rngs::SmallRng {
        RngFactory::new(10).stream("stage", 0)
    }

    #[test]
    fn batch_time_is_linear_in_batch_size() {
        let m = ServiceTimeModel::batched(
            Distribution::constant(10e-6),
            Distribution::constant(1e-6),
            2.6,
        );
        let mut r = rng();
        assert!((m.sample(&mut r, 1, 0.0, 2.6) - 11e-6).abs() < 1e-12);
        assert!((m.sample(&mut r, 8, 0.0, 2.6) - 18e-6).abs() < 1e-12);
        assert!((m.mean(8) - 18e-6).abs() < 1e-12);
    }

    #[test]
    fn per_batch_cost_amortizes() {
        // The per-request share of a batched invocation shrinks with batch
        // size — the key epoll effect (Fig. 13).
        let m = ServiceTimeModel::batched(
            Distribution::constant(10e-6),
            Distribution::constant(1e-6),
            2.6,
        );
        let per_req_1 = m.mean(1) / 1.0;
        let per_req_16 = m.mean(16) / 16.0;
        assert!(per_req_16 < per_req_1 / 4.0);
    }

    #[test]
    fn analytic_freq_scaling() {
        let m = ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6);
        let mut r = rng();
        let fast = m.sample(&mut r, 1, 0.0, 2.6);
        let slow = m.sample(&mut r, 1, 0.0, 1.3);
        assert!((slow / fast - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_disables_scaling() {
        let m = ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6).with_freq_alpha(0.0);
        let mut r = rng();
        assert_eq!(m.sample(&mut r, 1, 0.0, 1.2), m.sample(&mut r, 1, 0.0, 2.6));
    }

    #[test]
    fn freq_table_overrides_scaling() {
        let m = ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6).with_freq_entry(
            1.2,
            Distribution::constant(0.0),
            Distribution::constant(99e-6),
        );
        let mut r = rng();
        assert!((m.sample(&mut r, 1, 0.0, 1.2) - 99e-6).abs() < 1e-12);
        // Other frequencies still use analytic scaling.
        assert!((m.sample(&mut r, 1, 0.0, 2.6) - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn the_frequency_memo_answers_what_at_freq_does() {
        let m = ServiceTimeModel::per_job(Distribution::constant(10e-6), 2.6)
            .with_freq_alpha(0.7)
            .with_freq_entry(
                1.2,
                Distribution::constant(0.0),
                Distribution::constant(99e-6),
            );
        let mut memo = AtFreqMemo::default();
        for f in [2.6, 1.2, 2.6, 1.8, 1.2, 1.8, 2.6] {
            let (got, want) = (memo.get(1, 2, &m, f), m.at_freq(f));
            assert_eq!(
                (got.freq_ghz, got.scale, got.entry),
                (want.freq_ghz, want.scale, want.entry),
                "at {f} GHz"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_stage() {
        let bad_batch = StageSpec::new(
            "epoll",
            QueueDiscipline::Epoll { batch_per_conn: 0 },
            ServiceTimeModel::per_job(Distribution::constant(1e-6), 2.6),
        );
        assert!(bad_batch.validate().is_err());

        let bad_dist = StageSpec::new(
            "x",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::exponential(0.0), 2.6),
        );
        assert!(bad_dist.validate().is_err());

        let ok = StageSpec::new(
            "x",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::exponential(1e-6), 2.6),
        );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn per_byte_cost_adds_and_scales() {
        let m = ServiceTimeModel::batched(
            Distribution::constant(0.0),
            Distribution::constant(10e-6),
            2.6,
        )
        .with_per_byte(2e-9);
        let mut r = rng();
        // 1 job, 1000 bytes: 10us + 2us.
        assert!((m.sample(&mut r, 1, 1000.0, 2.6) - 12e-6).abs() < 1e-12);
        // Half frequency doubles the byte cost too.
        assert!((m.sample(&mut r, 1, 1000.0, 1.3) - 24e-6).abs() < 1e-12);
    }

    #[test]
    fn per_byte_validation() {
        let m = ServiceTimeModel::per_job(Distribution::constant(1e-6), 2.6).with_per_byte(-1.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let s = StageSpec::new(
            "epoll",
            QueueDiscipline::Epoll { batch_per_conn: 8 },
            ServiceTimeModel::batched(
                Distribution::constant(5e-6),
                Distribution::exponential(1e-6),
                2.6,
            ),
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: StageSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
