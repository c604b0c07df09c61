//! Inter-microservice request paths (`path.json`, §III-C).
//!
//! A *request type* is a DAG of [`PathNodeSpec`]s. Each node names a
//! microservice (and the intra-service execution path to run there) or the
//! client sink. Path nodes serve the paper's three roles:
//!
//! 1. **Traversal order & fan-out** — after a node completes, a copy of the
//!    job is sent to each child.
//! 2. **Synchronization (fan-in)** — a node with multiple parents fires only
//!    once all parents' copies have arrived.
//! 3. **Blocking** — request edges acquire HTTP/1.1 connections (released
//!    when the matching reply edge is delivered), and a node may hold its
//!    worker thread until a downstream reply node arrives (RPC-style
//!    synchronous calls).

use crate::config::Name;
use crate::ids::{InstanceId, PathNodeId, ServiceId};
use serde::{Deserialize, Serialize};

/// How a node picks the concrete instance of its target service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum InstanceSelect {
    /// Always this instance.
    Fixed {
        /// The instance.
        instance: InstanceId,
    },
    /// Round-robin across these instances, advancing once per request
    /// entering the node (the NGINX load-balancer policy of §IV-B).
    RoundRobin {
        /// Candidate instances.
        instances: Vec<InstanceId>,
    },
    /// Reuse the instance that executed another node of the same request
    /// (reply/continuation nodes return to their caller).
    SameAsNode {
        /// The earlier node.
        node: PathNodeId,
    },
}

/// How the intra-service execution path is chosen at node entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum PathSelect {
    /// Always this execution path index.
    Fixed {
        /// Index into [`crate::service::ServiceModel::paths`].
        index: usize,
    },
    /// Draw from the service's `path_probabilities` state machine.
    Probabilistic,
}

/// What kind of edge leads *into* this node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum LinkKind {
    /// A fresh request: acquire a connection from the (sender → target)
    /// pool, or an unbounded ephemeral connection if no pool is configured.
    Request,
    /// A reply traveling back on the connection that carried the request
    /// into node `of`; that connection is released upon delivery.
    Reply {
        /// The node whose entry connection this reply reuses.
        of: PathNodeId,
    },
    /// A reply traveling back on the connection that carried the request
    /// into the *sending parent* node. This is the right choice when the
    /// parent is the service visit being replied to (e.g. the cache tier
    /// replying to the front end).
    ReplyToParent,
    /// A reply whose connection depends on which parent fans out to it:
    /// each `(parent, of)` entry routes the copy from `parent` over the
    /// connection that entered node `of`. Needed by fan-in joins whose
    /// parents are themselves continuation nodes — e.g. a frontend join
    /// collecting replies from two backend services, where the copy from
    /// each backend's compose node must travel on the connection that
    /// entered that backend's *first* node.
    ReplyVia {
        /// `(sending parent node, node whose entry connection to reuse)`.
        entries: Vec<(PathNodeId, PathNodeId)>,
    },
}

/// How a fan-in node decides it has seen enough parent copies to fire.
///
/// Healthy runs behave identically under every policy (all parents arrive
/// eventually); the policies differ under partial failure, where `All`
/// blocks forever on a dead branch while `Quorum`/`BestEffort` let the
/// request degrade gracefully (see [`crate::fault`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum FanInPolicy {
    /// Fire only once every parent's copy has arrived (the default, and the
    /// paper's synchronization semantics).
    #[default]
    All,
    /// Fire as soon as `k` parent copies have arrived; later copies are
    /// absorbed without re-firing.
    Quorum {
        /// Copies required to fire (clamped to the node's fan-in).
        k: u32,
    },
    /// Fire on the first arriving copy (equivalent to `quorum(1)`).
    BestEffort,
}

impl FanInPolicy {
    /// Number of parent copies required to fire for a node with the given
    /// fan-in (always in `1..=fan_in`).
    pub fn required(self, fan_in: usize) -> usize {
        let fan_in = fan_in.max(1);
        match self {
            FanInPolicy::All => fan_in,
            FanInPolicy::Quorum { k } => (k as usize).clamp(1, fan_in),
            FanInPolicy::BestEffort => 1,
        }
    }
}

/// What the node runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum NodeTarget {
    /// Execute on an instance of a microservice.
    Service {
        /// The service model.
        service: ServiceId,
        /// Instance selection policy.
        instance: InstanceSelect,
        /// Execution-path selection policy.
        exec_path: PathSelect,
    },
    /// Terminal: deliver the response to the issuing client. A request
    /// completes when this node fires.
    ClientSink,
}

/// One node of a request-type DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathNodeSpec {
    /// Human-readable name.
    pub name: Name,
    /// What to run.
    pub target: NodeTarget,
    /// Child nodes receiving a copy of the job after this node completes.
    pub children: Vec<PathNodeId>,
    /// Edge semantics for entering this node.
    pub link: LinkKind,
    /// If set, the worker thread executing this node stays blocked (held,
    /// core released) until the given node's job arrives back at this
    /// instance — synchronous RPC semantics (Apache Thrift, §IV-C).
    #[serde(default)]
    pub block_thread_until: Option<PathNodeId>,
    /// If set, this node must execute on the same worker thread that
    /// executed the given node (continuations of blocked threads).
    #[serde(default)]
    pub pin_thread_of: Option<PathNodeId>,
    /// Fan-in firing policy for nodes with multiple parents (ignored for
    /// fan-in 1). Defaults to [`FanInPolicy::All`].
    #[serde(default)]
    pub fan_in_policy: FanInPolicy,
}

impl PathNodeSpec {
    /// A plain request node on a fixed instance running exec path 0.
    pub fn request(name: impl Into<Name>, service: ServiceId, instance: InstanceId) -> Self {
        PathNodeSpec {
            name: name.into(),
            target: NodeTarget::Service {
                service,
                instance: InstanceSelect::Fixed { instance },
                exec_path: PathSelect::Fixed { index: 0 },
            },
            children: Vec::new(),
            link: LinkKind::Request,
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }

    /// A reply node returning to the instance that executed `caller_node`,
    /// on the connection that entered `conn_node`.
    pub fn reply(
        name: impl Into<Name>,
        service: ServiceId,
        caller_node: PathNodeId,
        conn_node: PathNodeId,
    ) -> Self {
        PathNodeSpec {
            name: name.into(),
            target: NodeTarget::Service {
                service,
                instance: InstanceSelect::SameAsNode { node: caller_node },
                exec_path: PathSelect::Fixed { index: 0 },
            },
            children: Vec::new(),
            link: LinkKind::Reply { of: conn_node },
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }

    /// A reply node returning to the instance that executed `caller_node`,
    /// on the connection of whichever parent fans out to it (the usual
    /// choice for joins collecting several replies).
    pub fn reply_to_parent(
        name: impl Into<Name>,
        service: ServiceId,
        caller_node: PathNodeId,
    ) -> Self {
        PathNodeSpec {
            name: name.into(),
            target: NodeTarget::Service {
                service,
                instance: InstanceSelect::SameAsNode { node: caller_node },
                exec_path: PathSelect::Fixed { index: 0 },
            },
            children: Vec::new(),
            link: LinkKind::ReplyToParent,
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }

    /// The terminal client sink, replying on the connection that entered
    /// `root` (the client's own connection).
    pub fn client_sink(root: PathNodeId) -> Self {
        PathNodeSpec {
            name: "client_sink".into(),
            target: NodeTarget::ClientSink,
            children: Vec::new(),
            link: LinkKind::Reply { of: root },
            block_thread_until: None,
            pin_thread_of: None,
            fan_in_policy: FanInPolicy::All,
        }
    }
}

/// A request type: the DAG a request of this kind traverses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestType {
    /// Name, e.g. `"get_post_cache_hit"`.
    pub name: Name,
    /// Nodes, indexed by [`PathNodeId`].
    pub nodes: Vec<PathNodeSpec>,
    /// The root node (entered from the client).
    pub root: PathNodeId,
    /// Fan-in (parent count) per node; computed by [`RequestType::validate`].
    #[serde(default)]
    pub fan_in: Vec<usize>,
}

impl RequestType {
    /// Creates a request type; call [`RequestType::validate`] before use.
    ///
    /// # Examples
    ///
    /// ```
    /// use uqsim_core::ids::{InstanceId, PathNodeId, ServiceId};
    /// use uqsim_core::path::{PathNodeSpec, RequestType};
    ///
    /// # fn main() -> Result<(), String> {
    /// let (svc, inst) = (ServiceId::from_raw(0), InstanceId::from_raw(0));
    /// let mut front = PathNodeSpec::request("front", svc, inst);
    /// front.children = vec![PathNodeId::from_raw(1)];
    /// let sink = PathNodeSpec::client_sink(PathNodeId::from_raw(0));
    /// let mut ty = RequestType::new("get", vec![front, sink], PathNodeId::from_raw(0));
    /// ty.validate()?;
    /// assert_eq!(ty.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(name: impl Into<Name>, nodes: Vec<PathNodeSpec>, root: PathNodeId) -> Self {
        RequestType {
            name: name.into(),
            nodes,
            root,
            fan_in: Vec::new(),
        }
    }

    /// Validates the DAG and computes fan-in counts.
    ///
    /// # Errors
    ///
    /// Returns a message if the graph is empty, has dangling child
    /// references, is cyclic, the root has parents, some node is
    /// unreachable, no client sink exists, or a sink has children.
    pub fn validate(&mut self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(format!("request type {}: no nodes", self.name));
        }
        if self.root.index() >= n {
            return Err(format!("request type {}: root out of range", self.name));
        }
        let mut fan_in = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if c.index() >= n {
                    return Err(format!(
                        "request type {}: node {i} has dangling child {c}",
                        self.name
                    ));
                }
                fan_in[c.index()] += 1;
            }
            if matches!(node.target, NodeTarget::ClientSink) && !node.children.is_empty() {
                return Err(format!(
                    "request type {}: client sink has children",
                    self.name
                ));
            }
            match &node.link {
                LinkKind::Reply { of } => {
                    if of.index() >= n {
                        return Err(format!(
                            "request type {}: node {i} replies on missing node {of}",
                            self.name
                        ));
                    }
                }
                LinkKind::ReplyVia { entries } => {
                    if entries.is_empty() {
                        return Err(format!(
                            "request type {}: node {i} has an empty reply_via map",
                            self.name
                        ));
                    }
                    for (parent, of) in entries {
                        if parent.index() >= n || of.index() >= n {
                            return Err(format!(
                                "request type {}: node {i} reply_via references missing nodes",
                                self.name
                            ));
                        }
                    }
                }
                LinkKind::Request | LinkKind::ReplyToParent => {}
            }
        }
        if fan_in[self.root.index()] != 0 {
            return Err(format!("request type {}: root has parents", self.name));
        }
        // Topological check (Kahn) + reachability from root.
        let mut indeg = fan_in.clone();
        let mut stack = vec![self.root];
        let mut visited = vec![false; n];
        visited[self.root.index()] = true;
        let mut seen = 0;
        while let Some(u) = stack.pop() {
            seen += 1;
            for &c in &self.nodes[u.index()].children {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    if visited[c.index()] {
                        return Err(format!("request type {}: node revisited", self.name));
                    }
                    visited[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        if seen != n {
            return Err(format!(
                "request type {}: cycle or unreachable nodes ({seen}/{n} visited)",
                self.name
            ));
        }
        let sinks = self
            .nodes
            .iter()
            .filter(|nd| matches!(nd.target, NodeTarget::ClientSink))
            .count();
        if sinks != 1 {
            return Err(format!(
                "request type {}: expected exactly 1 client sink, found {sinks}",
                self.name
            ));
        }
        self.fan_in = fan_in;
        Ok(())
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: u32) -> PathNodeId {
        PathNodeId::from_raw(n)
    }
    fn sid(n: u32) -> ServiceId {
        ServiceId::from_raw(n)
    }
    fn iid(n: u32) -> InstanceId {
        InstanceId::from_raw(n)
    }

    /// client → svc0 → svc1 → svc0(reply) → sink
    fn chain() -> RequestType {
        let mut n0 = PathNodeSpec::request("front", sid(0), iid(0));
        n0.children = vec![nid(1)];
        let mut n1 = PathNodeSpec::request("back", sid(1), iid(1));
        n1.children = vec![nid(2)];
        let mut n2 = PathNodeSpec::reply("front_reply", sid(0), nid(0), nid(1));
        n2.children = vec![nid(3)];
        let sink = PathNodeSpec::client_sink(nid(0));
        RequestType::new("chain", vec![n0, n1, n2, sink], nid(0))
    }

    #[test]
    fn valid_chain_passes_and_computes_fan_in() {
        let mut t = chain();
        t.validate().unwrap();
        assert_eq!(t.fan_in, vec![0, 1, 1, 1]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn fanout_fan_in_counts() {
        // root → {a, b} → join → sink
        let mut root = PathNodeSpec::request("root", sid(0), iid(0));
        root.children = vec![nid(1), nid(2)];
        let mut a = PathNodeSpec::request("a", sid(1), iid(1));
        a.children = vec![nid(3)];
        let mut b = PathNodeSpec::request("b", sid(1), iid(2));
        b.children = vec![nid(3)];
        let mut join = PathNodeSpec::reply("join", sid(0), nid(0), nid(0));
        join.children = vec![nid(4)];
        // join's reply conn should reference its own request edges; for the
        // test any valid node id suffices structurally.
        join.link = LinkKind::Reply { of: nid(1) };
        let sink = PathNodeSpec::client_sink(nid(0));
        let mut t = RequestType::new("fanout", vec![root, a, b, join, sink], nid(0));
        t.validate().unwrap();
        assert_eq!(t.fan_in[3], 2, "join has fan-in 2");
    }

    #[test]
    fn rejects_cycle() {
        let mut t = chain();
        t.nodes[2].children = vec![nid(1)]; // back-edge
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_dangling_child() {
        let mut t = chain();
        t.nodes[0].children.push(nid(99));
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_root_with_parents() {
        let mut t = chain();
        t.nodes[1].children.push(nid(0));
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_missing_or_extra_sinks() {
        let mut t = chain();
        t.nodes[3].target = NodeTarget::Service {
            service: sid(0),
            instance: InstanceSelect::Fixed { instance: iid(0) },
            exec_path: PathSelect::Fixed { index: 0 },
        };
        assert!(t.validate().is_err());

        let mut t = chain();
        t.nodes[2].target = NodeTarget::ClientSink;
        t.nodes[2].children.clear();
        // Now node 3 unreachable AND two sinks; either error is fine.
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_unreachable_node() {
        let mut t = chain();
        t.nodes
            .push(PathNodeSpec::request("orphan", sid(0), iid(0)));
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_sink_with_children() {
        let mut t = chain();
        t.nodes[3].children = vec![nid(0)];
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_bad_reply_reference() {
        let mut t = chain();
        t.nodes[2].link = LinkKind::Reply { of: nid(50) };
        assert!(t.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = chain();
        t.validate().unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: RequestType = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn builder_assembles_a_valid_dag() {
        // front → back → reply (to front, holding front's thread) → sink
        let mut front = PathNodeSpec::request("front", sid(0), iid(0));
        front.children = vec![nid(1)];
        front.block_thread_until = Some(nid(2));
        let mut back = PathNodeSpec::request("back", sid(1), iid(1));
        back.children = vec![nid(2)];
        let mut reply = PathNodeSpec::reply_to_parent("reply", sid(0), nid(0));
        reply.children = vec![nid(3)];
        let sink = PathNodeSpec::client_sink(nid(0));
        let mut ty = RequestType::new("built", vec![front, back, reply, sink], nid(0));
        ty.validate().unwrap();
        assert_eq!(ty.len(), 4);
        assert_eq!(ty.fan_in, vec![0, 1, 1, 1]);
        assert_eq!(ty.nodes[0].block_thread_until, Some(nid(2)));
    }

    #[test]
    fn builder_rejects_invalid_graphs() {
        // A dangling node never linked from the root is unreachable.
        let mut front = PathNodeSpec::request("front", sid(0), iid(0));
        front.children = vec![nid(1)];
        let sink = PathNodeSpec::client_sink(nid(0));
        let orphan = PathNodeSpec::request("orphan", sid(0), iid(0));
        let mut ty = RequestType::new("bad", vec![front, sink, orphan], nid(0));
        assert!(ty.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "dangling child")]
    fn builder_link_checks_ids() {
        // Validation rejects an out-of-range child.
        let mut front = PathNodeSpec::request("front", sid(0), iid(0));
        front.children = vec![nid(9)];
        let mut ty = RequestType::new("bad", vec![front], nid(0));
        ty.validate().unwrap();
    }
}
