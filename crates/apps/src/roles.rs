//! Service-role templates for workload synthesis.
//!
//! The topology generator (`uqsim-synth`) builds DeathStarBench-class
//! layered graphs out of the calibrated models in this crate. Each layer
//! of a generated graph has a [`Role`]; a role knows which model template
//! to clone (renamed per generated service) and which execution paths a
//! path node should run when the service *forwards* to children, when it
//! *joins* their replies, and when it is visited as a *leaf*.

use uqsim_core::config::Name;
use uqsim_core::service::ServiceModel;

use crate::{memcached, mongodb, nginx, thrift};

/// The role a generated service plays in its layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Role {
    /// An NGINX-style front end (request parsing, proxying, composition).
    Front,
    /// A Thrift-style logic tier (RPC handler + response composition).
    Logic,
    /// A memcached-style in-memory cache leaf.
    Cache,
    /// A MongoDB-style persistent-store leaf.
    Db,
}

impl Role {
    /// A fresh copy of this role's calibrated model, renamed to `name`
    /// (each generated service is its own logical microservice).
    pub fn service_model(&self, name: impl Into<Name>) -> ServiceModel {
        let name = name.into();
        let mut model = match self {
            Role::Front => nginx::service_model(),
            Role::Logic => thrift::service_model(name.clone(), 30e-6, 12e-6),
            Role::Cache => memcached::service_model(),
            Role::Db => mongodb::service_model(),
        };
        model.name = name;
        model
    }

    /// The execution path a node runs when it forwards to children.
    pub fn entry_path(&self) -> &'static str {
        match self {
            Role::Front => "recv_query",
            Role::Logic => "handle",
            // Leaves never forward; their entry is the leaf path.
            Role::Cache => "memcached_read",
            Role::Db => "query",
        }
    }

    /// The execution path of the join/respond hop that merges child
    /// replies (runs on the same instance as the entry node).
    pub fn reply_path(&self) -> &'static str {
        match self {
            Role::Front => "respond",
            Role::Logic => "compose",
            Role::Cache => "memcached_read",
            Role::Db => "respond",
        }
    }

    /// The execution path of a single-visit leaf node.
    pub fn leaf_path(&self) -> &'static str {
        match self {
            Role::Front => "serve_page",
            Role::Logic => "handle",
            Role::Cache => "memcached_read",
            Role::Db => "query",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_role_paths_exist_in_their_models() {
        for role in [Role::Front, Role::Logic, Role::Cache, Role::Db] {
            let m = role.service_model("svc");
            assert_eq!(&*m.name, "svc");
            assert!(m.validate().is_ok(), "{role:?}");
            for p in [role.entry_path(), role.reply_path(), role.leaf_path()] {
                assert!(
                    m.paths.iter().any(|e| *e.name == *p),
                    "{role:?} missing path {p}"
                );
            }
        }
    }

    #[test]
    fn role_serde_is_snake_case() {
        assert_eq!(serde_json::to_string(&Role::Front).unwrap(), "\"front\"");
        let r: Role = serde_json::from_str("\"db\"").unwrap();
        assert_eq!(r, Role::Db);
    }
}
