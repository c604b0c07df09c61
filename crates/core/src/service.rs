//! Microservice models: stages assembled into execution paths.
//!
//! A [`ServiceModel`] is the reusable template described by one
//! `service.json` (Listing 1 of the paper): a set of [`StageSpec`]s plus
//! *execution paths* — named sequences of stage indices a job can follow —
//! and an optional probability distribution over paths (the "state machine"
//! of §III-B, used e.g. for MongoDB cache-hit vs. cache-miss behavior).

use crate::config::Name;
use crate::ids::StageId;
use crate::stage::StageSpec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One intra-microservice execution path: an ordered stage sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecPath {
    /// Human-readable name (e.g. `"memcached_read"`).
    pub name: Name,
    /// Stage indices to traverse, in order.
    pub stages: Vec<StageId>,
}

impl ExecPath {
    /// Creates a path from a name and stage indices.
    pub fn new(name: impl Into<Name>, stages: Vec<StageId>) -> Self {
        ExecPath {
            name: name.into(),
            stages,
        }
    }
}

/// A reusable microservice model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Service name (e.g. `"memcached"`).
    pub name: Name,
    /// The stages.
    pub stages: Vec<StageSpec>,
    /// The execution paths.
    pub paths: Vec<ExecPath>,
    /// Optional probabilities for choosing a path at job entry when the
    /// caller requests probabilistic selection. Must be the same length as
    /// `paths` and sum to 1.
    #[serde(default)]
    pub path_probabilities: Option<Vec<f64>>,
}

impl ServiceModel {
    /// Creates a model; validate with [`ServiceModel::validate`].
    pub fn new(name: impl Into<Name>, stages: Vec<StageSpec>, paths: Vec<ExecPath>) -> Self {
        ServiceModel {
            name: name.into(),
            stages,
            paths,
            path_probabilities: None,
        }
    }

    /// Sets the path-selection probabilities.
    pub fn with_path_probabilities(mut self, probs: Vec<f64>) -> Self {
        self.path_probabilities = Some(probs);
        self
    }

    /// Validates structural integrity.
    ///
    /// # Errors
    ///
    /// Returns a message if the model has no stages/paths, a path references
    /// a missing stage, or probabilities are malformed.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("service name is empty".into());
        }
        if self.stages.is_empty() {
            return Err(format!("service {}: no stages", self.name));
        }
        if self.paths.is_empty() {
            return Err(format!("service {}: no execution paths", self.name));
        }
        for s in &self.stages {
            s.validate()?;
        }
        for p in &self.paths {
            if p.stages.is_empty() {
                return Err(format!("service {}: path {} is empty", self.name, p.name));
            }
            for &sid in &p.stages {
                if sid.index() >= self.stages.len() {
                    return Err(format!(
                        "service {}: path {} references missing stage {}",
                        self.name, p.name, sid
                    ));
                }
            }
        }
        if let Some(probs) = &self.path_probabilities {
            if probs.len() != self.paths.len() {
                return Err(format!(
                    "service {}: {} probabilities for {} paths",
                    self.name,
                    probs.len(),
                    self.paths.len()
                ));
            }
            let total: f64 = probs.iter().sum();
            if probs.iter().any(|p| !p.is_finite() || *p < 0.0) || (total - 1.0).abs() > 1e-6 {
                return Err(format!(
                    "service {}: path probabilities invalid (sum {total})",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Looks up a path index by name.
    pub fn path_index(&self, name: &str) -> Option<usize> {
        self.paths.iter().position(|p| *p.name == *name)
    }

    /// Chooses a path probabilistically (requires `path_probabilities`),
    /// or path 0 if no probabilities are configured.
    pub fn choose_path<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.path_probabilities {
            None => 0,
            Some(probs) => {
                let mut u: f64 = rng.gen();
                for (i, p) in probs.iter().enumerate() {
                    if u < *p {
                        return i;
                    }
                    u -= p;
                }
                probs.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::stage::{QueueDiscipline, ServiceTimeModel};

    fn stage(name: &str) -> StageSpec {
        StageSpec::new(
            name,
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(1e-6), 2.6),
        )
    }

    fn model() -> ServiceModel {
        ServiceModel::new(
            "svc",
            vec![stage("a"), stage("b")],
            vec![
                ExecPath::new("read", vec![StageId::from_raw(0), StageId::from_raw(1)]),
                ExecPath::new("write", vec![StageId::from_raw(0)]),
            ],
        )
    }

    #[test]
    fn valid_model_passes() {
        assert!(model().validate().is_ok());
    }

    #[test]
    fn rejects_missing_stage_reference() {
        let mut m = model();
        m.paths[0].stages.push(StageId::from_raw(9));
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_empty_parts() {
        let mut m = model();
        m.paths.clear();
        assert!(m.validate().is_err());
        let mut m = model();
        m.stages.clear();
        assert!(m.validate().is_err());
        let mut m = model();
        m.paths[0].stages.clear();
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_bad_probabilities() {
        let m = model().with_path_probabilities(vec![0.5]);
        assert!(m.validate().is_err());
        let m = model().with_path_probabilities(vec![0.5, 0.6]);
        assert!(m.validate().is_err());
        let m = model().with_path_probabilities(vec![0.3, 0.7]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn lookup_by_name() {
        let m = model();
        assert_eq!(m.path_index("write"), Some(1));
        assert_eq!(m.path_index("nope"), None);
    }

    #[test]
    fn choose_path_respects_probabilities() {
        let m = model().with_path_probabilities(vec![0.2, 0.8]);
        let mut rng = crate::rng::RngFactory::new(5).stream("svc", 0);
        let n = 100_000;
        let writes = (0..n).filter(|_| m.choose_path(&mut rng) == 1).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn choose_path_defaults_to_first() {
        let m = model();
        let mut rng = crate::rng::RngFactory::new(5).stream("svc", 1);
        assert_eq!(m.choose_path(&mut rng), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = model().with_path_probabilities(vec![0.3, 0.7]);
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: ServiceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
