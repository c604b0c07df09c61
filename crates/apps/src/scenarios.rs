//! Ready-made scenario builders for every topology in the paper's
//! evaluation: 2-/3-tier applications (Figs. 4–6), load balancing (Fig. 7),
//! request fanout (Fig. 9), Thrift hello-world (Fig. 12a), the social
//! network (Fig. 11), single-tier services for the BigHouse comparison
//! (Fig. 13), and the tail-at-scale fanout cluster (Fig. 14).
//!
//! Each builder returns a runnable [`Simulator`]; deployed instances carry
//! stable names (e.g. `"nginx"`, `"memcached"`) resolvable with
//! [`Simulator::instance_by_name`].

use crate::noise::NoiseProfile;
use crate::{memcached, mongodb, nginx, thrift};
use uqsim_core::builder::{ExecSpec, ScenarioBuilder};
use uqsim_core::client::{ArrivalProcess, ClientSpec, RequestMix};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::dist::Distribution;
use uqsim_core::ids::{InstanceId, PathNodeId, ServiceId, StageId};
use uqsim_core::machine::MachineSpec;
use uqsim_core::path::{
    InstanceSelect, LinkKind, NodeTarget, PathNodeSpec, PathSelect, RequestType,
};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;
use uqsim_core::{SimResult, Simulator};

/// Options shared by every scenario.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Master seed.
    pub seed: u64,
    /// Latency warmup.
    pub warmup: SimDuration,
    /// Noise profile standing in for real-system effects, if any.
    pub noise: Option<NoiseProfile>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            seed: 42,
            warmup: SimDuration::from_secs(1),
            noise: None,
        }
    }
}

impl CommonOpts {
    fn builder(&self) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(self.seed);
        b.warmup(self.warmup);
        b
    }

    fn model(&self, m: ServiceModel) -> ServiceModel {
        match &self.noise {
            Some(p) => p.noisy_service(&m),
            None => m,
        }
    }
}

fn nid(i: usize) -> PathNodeId {
    PathNodeId::from_raw(i as u32)
}

fn service_node(
    name: &str,
    service: ServiceId,
    instance: InstanceSelect,
    exec_path: usize,
    link: LinkKind,
    children: Vec<PathNodeId>,
) -> PathNodeSpec {
    PathNodeSpec {
        name: name.into(),
        target: NodeTarget::Service {
            service,
            instance,
            exec_path: PathSelect::Fixed { index: exec_path },
        },
        children,
        link,
        block_thread_until: None,
        pin_thread_of: None,
        fan_in_policy: Default::default(),
    }
}

fn fixed(i: InstanceId) -> InstanceSelect {
    InstanceSelect::Fixed { instance: i }
}

fn same_as(n: usize) -> InstanceSelect {
    InstanceSelect::SameAsNode { node: nid(n) }
}

// ====================================================================
// Two-tier: NGINX → memcached (Figs. 4a, 5; power study §V-B)
// ====================================================================

/// Configuration of the 2-tier NGINX → memcached application.
#[derive(Debug, Clone)]
pub struct TwoTierConfig {
    /// Arrival process (the paper sweeps constant-rate Poisson loads).
    pub arrivals: ArrivalProcess,
    /// NGINX worker processes (the paper evaluates 8 and 4).
    pub nginx_procs: usize,
    /// memcached worker threads (the paper evaluates 4, 2, 1).
    pub memcached_threads: usize,
    /// Client connections (wrk2 uses 320).
    pub connections: usize,
    /// NGINX → memcached connection-pool size.
    pub pool_size: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl TwoTierConfig {
    /// The paper's default configuration at the given constant load.
    pub fn at_qps(qps: f64) -> Self {
        TwoTierConfig {
            arrivals: ArrivalProcess::poisson(qps),
            nginx_procs: 8,
            memcached_threads: 4,
            connections: 320,
            pool_size: 32,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the 2-tier application. Instances: `"nginx"`, `"memcached"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn two_tier(cfg: &TwoTierConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m_front = b.add_machine(MachineSpec::xeon("frontend-host", cfg.nginx_procs + 4));
    let m_cache = b.add_machine(MachineSpec::xeon("cache-host", cfg.memcached_threads + 4));
    let s_nginx = b.add_service(cfg.common.model(nginx::service_model()));
    let s_mc = b.add_service(cfg.common.model(memcached::service_model()));
    let i_nginx = b.add_instance("nginx", s_nginx, m_front, cfg.nginx_procs, ExecSpec::Simple)?;
    let i_mc = b.add_instance(
        "memcached",
        s_mc,
        m_cache,
        cfg.memcached_threads,
        ExecSpec::MultiThreaded {
            threads: cfg.memcached_threads,
            ctx_switch: SimDuration::from_micros(2),
        },
    )?;
    b.add_pool(i_nginx, i_mc, cfg.pool_size)?;

    let nodes = vec![
        service_node(
            "nginx_recv",
            s_nginx,
            fixed(i_nginx),
            nginx::paths::RECV_QUERY,
            LinkKind::Request,
            vec![nid(1)],
        ),
        service_node(
            "mc_get",
            s_mc,
            fixed(i_mc),
            memcached::paths::READ,
            LinkKind::Request,
            vec![nid(2)],
        ),
        service_node(
            "nginx_respond",
            s_nginx,
            same_as(0),
            nginx::paths::RESPOND,
            LinkKind::ReplyToParent,
            vec![nid(3)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty = b.add_request_type(RequestType::new("get", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "wrk2".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::single(ty),
            // The validation uses exponentially distributed value sizes.
            request_size: Distribution::exponential(512.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_nginx],
    );
    b.build()
}

// ====================================================================
// Three-tier: NGINX → memcached → MongoDB (Figs. 4b, 6)
// ====================================================================

/// Configuration of the 3-tier application.
#[derive(Debug, Clone)]
pub struct ThreeTierConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// NGINX worker processes (the paper evaluates 8).
    pub nginx_procs: usize,
    /// memcached worker threads (the paper evaluates 2).
    pub memcached_threads: usize,
    /// mongod CPU cores.
    pub mongod_cores: usize,
    /// Disk I/O channels (queue depth).
    pub disk_channels: usize,
    /// Mean random-read latency, seconds.
    pub disk_read_s: f64,
    /// Probability that a request misses memcached and hits MongoDB.
    pub miss_ratio: f64,
    /// Client connections.
    pub connections: usize,
    /// Pool sizes for NGINX → memcached and NGINX → mongod.
    pub pool_size: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl ThreeTierConfig {
    /// The paper's configuration (8-process NGINX, 2-thread memcached) at
    /// the given constant load.
    pub fn at_qps(qps: f64) -> Self {
        ThreeTierConfig {
            arrivals: ArrivalProcess::poisson(qps),
            nginx_procs: 8,
            memcached_threads: 2,
            mongod_cores: 2,
            disk_channels: 2,
            disk_read_s: 2.5e-3,
            miss_ratio: 0.2,
            connections: 320,
            pool_size: 32,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the 3-tier application. Instances: `"nginx"`, `"memcached"`,
/// `"mongod"`, `"disk"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn three_tier(cfg: &ThreeTierConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m_front = b.add_machine(MachineSpec::xeon("frontend-host", cfg.nginx_procs + 4));
    let m_cache = b.add_machine(MachineSpec::xeon("cache-host", cfg.memcached_threads + 4));
    let m_db = b.add_machine(MachineSpec::xeon(
        "db-host",
        cfg.mongod_cores + cfg.disk_channels + 4,
    ));
    let s_nginx = b.add_service(cfg.common.model(nginx::service_model()));
    let s_mc = b.add_service(cfg.common.model(memcached::service_model()));
    let s_mongo = b.add_service(cfg.common.model(mongodb::service_model()));
    let s_disk = b.add_service(cfg.common.model(mongodb::disk_model(cfg.disk_read_s)));
    let i_nginx = b.add_instance("nginx", s_nginx, m_front, cfg.nginx_procs, ExecSpec::Simple)?;
    let i_mc = b.add_instance(
        "memcached",
        s_mc,
        m_cache,
        cfg.memcached_threads,
        ExecSpec::MultiThreaded {
            threads: cfg.memcached_threads,
            ctx_switch: SimDuration::from_micros(2),
        },
    )?;
    let i_mongo = b.add_instance("mongod", s_mongo, m_db, cfg.mongod_cores, ExecSpec::Simple)?;
    let i_disk = b.add_instance("disk", s_disk, m_db, cfg.disk_channels, ExecSpec::Simple)?;
    b.add_pool(i_nginx, i_mc, cfg.pool_size)?;
    b.add_pool(i_nginx, i_mongo, cfg.pool_size)?;

    // Cache hit: client → nginx → memcached → nginx → client.
    let hit_nodes = vec![
        service_node(
            "nginx_recv",
            s_nginx,
            fixed(i_nginx),
            nginx::paths::RECV_QUERY,
            LinkKind::Request,
            vec![nid(1)],
        ),
        service_node(
            "mc_get",
            s_mc,
            fixed(i_mc),
            memcached::paths::READ,
            LinkKind::Request,
            vec![nid(2)],
        ),
        service_node(
            "nginx_respond",
            s_nginx,
            same_as(0),
            nginx::paths::RESPOND,
            LinkKind::ReplyToParent,
            vec![nid(3)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty_hit = b.add_request_type(RequestType::new("get_hit", hit_nodes, nid(0)))?;

    // Cache miss: nginx queries memcached (miss), then MongoDB (which does
    // a disk read), then write-allocates into memcached, then responds.
    let miss_nodes = vec![
        service_node(
            "nginx_recv",
            s_nginx,
            fixed(i_nginx),
            nginx::paths::RECV_QUERY,
            LinkKind::Request,
            vec![nid(1)],
        ),
        service_node(
            "mc_get_miss",
            s_mc,
            fixed(i_mc),
            memcached::paths::READ,
            LinkKind::Request,
            vec![nid(2)],
        ),
        service_node(
            "nginx_miss",
            s_nginx,
            same_as(0),
            nginx::paths::FORWARD,
            LinkKind::ReplyToParent,
            vec![nid(3)],
        ),
        service_node(
            "mongo_query",
            s_mongo,
            fixed(i_mongo),
            mongodb::paths::QUERY,
            LinkKind::Request,
            vec![nid(4)],
        ),
        service_node(
            "disk_read",
            s_disk,
            fixed(i_disk),
            mongodb::disk_paths::READ,
            LinkKind::Request,
            vec![nid(5)],
        ),
        service_node(
            "mongo_respond",
            s_mongo,
            same_as(3),
            mongodb::paths::RESPOND,
            LinkKind::ReplyToParent,
            vec![nid(6)],
        ),
        service_node(
            "nginx_writeback",
            s_nginx,
            same_as(0),
            nginx::paths::FORWARD,
            LinkKind::Reply { of: nid(3) },
            vec![nid(7)],
        ),
        service_node(
            "mc_set",
            s_mc,
            fixed(i_mc),
            memcached::paths::WRITE,
            LinkKind::Request,
            vec![nid(8)],
        ),
        service_node(
            "nginx_respond",
            s_nginx,
            same_as(0),
            nginx::paths::RESPOND,
            LinkKind::ReplyToParent,
            vec![nid(9)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty_miss = b.add_request_type(RequestType::new("get_miss", miss_nodes, nid(0)))?;

    b.add_client(
        ClientSpec {
            name: "wrk2".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::weighted(vec![
                (ty_hit, 1.0 - cfg.miss_ratio),
                (ty_miss, cfg.miss_ratio),
            ]),
            request_size: Distribution::exponential(512.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_nginx],
    );
    b.build()
}

// ====================================================================
// Load balancing (Figs. 7, 8)
// ====================================================================

/// Configuration of the NGINX load-balancing scenario.
#[derive(Debug, Clone)]
pub struct LoadBalancedConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Scale-out factor: number of single-core web servers (4, 8, 16).
    pub scale_out: usize,
    /// Proxy worker processes.
    pub proxy_procs: usize,
    /// Proxy → web-server pool size (per server).
    pub pool_size: usize,
    /// Client connections.
    pub connections: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl LoadBalancedConfig {
    /// The paper's setup with the given scale-out factor and load.
    pub fn new(scale_out: usize, qps: f64) -> Self {
        LoadBalancedConfig {
            arrivals: ArrivalProcess::poisson(qps),
            scale_out,
            proxy_procs: 8,
            pool_size: 64,
            connections: 320,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the load-balancing scenario. Instances: `"proxy"`, `"ws{i}"`.
///
/// The web servers share one machine whose four irq cores handle all
/// inbound interrupt processing — the soft-irq ceiling responsible for the
/// sub-linear scaling at 16 servers (§IV-B).
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn load_balanced(cfg: &LoadBalancedConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m_proxy = b.add_machine(MachineSpec::xeon("proxy-host", cfg.proxy_procs + 4));
    let m_ws = b.add_machine(MachineSpec::xeon("ws-host", cfg.scale_out + 4));
    let s_nginx = b.add_service(cfg.common.model(nginx::service_model()));
    let i_proxy = b.add_instance("proxy", s_nginx, m_proxy, cfg.proxy_procs, ExecSpec::Simple)?;
    let mut servers = Vec::new();
    for k in 0..cfg.scale_out {
        let i = b.add_instance(format!("ws{k}"), s_nginx, m_ws, 1, ExecSpec::Simple)?;
        b.add_pool(i_proxy, i, cfg.pool_size)?;
        servers.push(i);
    }
    let nodes = vec![
        service_node(
            "proxy_fwd",
            s_nginx,
            fixed(i_proxy),
            nginx::paths::FORWARD,
            LinkKind::Request,
            vec![nid(1)],
        ),
        service_node(
            "serve",
            s_nginx,
            InstanceSelect::RoundRobin { instances: servers },
            nginx::paths::SERVE,
            LinkKind::Request,
            vec![nid(2)],
        ),
        service_node(
            "proxy_respond",
            s_nginx,
            same_as(0),
            nginx::paths::PROXY_RESPOND,
            LinkKind::ReplyToParent,
            vec![nid(3)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty = b.add_request_type(RequestType::new("get_page", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::single(ty),
            // "Each requested webpage is 612 bytes in size" (§IV-B).
            request_size: Distribution::constant(612.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_proxy],
    );
    b.build()
}

// ====================================================================
// Request fanout (Figs. 9, 10)
// ====================================================================

/// Configuration of the NGINX fanout scenario.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Fanout factor: every request visits all leaves (4, 8, 16).
    pub fanout: usize,
    /// Proxy worker processes.
    pub proxy_procs: usize,
    /// Proxy → leaf pool size (per leaf).
    pub pool_size: usize,
    /// Client connections.
    pub connections: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl FanoutConfig {
    /// The paper's setup (1 core / 1 thread per leaf, 4 irq cores).
    pub fn new(fanout: usize, qps: f64) -> Self {
        FanoutConfig {
            arrivals: ArrivalProcess::poisson(qps),
            fanout,
            proxy_procs: 8,
            pool_size: 64,
            connections: 320,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the fanout scenario. Instances: `"proxy"`, `"leaf{i}"`. A request
/// completes only after *all* leaves respond (fan-in at the proxy).
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn fanout(cfg: &FanoutConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m_proxy = b.add_machine(MachineSpec::xeon("proxy-host", cfg.proxy_procs + 4));
    let m_leaf = b.add_machine(MachineSpec::xeon("leaf-host", cfg.fanout + 4));
    let s_nginx = b.add_service(cfg.common.model(nginx::service_model()));
    let i_proxy = b.add_instance("proxy", s_nginx, m_proxy, cfg.proxy_procs, ExecSpec::Simple)?;
    let mut leaves = Vec::new();
    for k in 0..cfg.fanout {
        let i = b.add_instance(format!("leaf{k}"), s_nginx, m_leaf, 1, ExecSpec::Simple)?;
        b.add_pool(i_proxy, i, cfg.pool_size)?;
        leaves.push(i);
    }
    let join = cfg.fanout + 1;
    let sink = cfg.fanout + 2;
    let mut nodes = vec![service_node(
        "proxy_fanout",
        s_nginx,
        fixed(i_proxy),
        nginx::paths::FORWARD,
        LinkKind::Request,
        (1..=cfg.fanout).map(nid).collect(),
    )];
    for (k, &leaf) in leaves.iter().enumerate() {
        nodes.push(service_node(
            &format!("serve{k}"),
            s_nginx,
            fixed(leaf),
            nginx::paths::SERVE,
            LinkKind::Request,
            vec![nid(join)],
        ));
    }
    nodes.push(service_node(
        "proxy_join",
        s_nginx,
        same_as(0),
        nginx::paths::PROXY_RESPOND,
        LinkKind::ReplyToParent,
        vec![nid(sink)],
    ));
    nodes.push(PathNodeSpec::client_sink(nid(0)));
    let ty = b.add_request_type(RequestType::new("fanout_get", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::single(ty),
            request_size: Distribution::constant(612.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_proxy],
    );
    b.build()
}

// ====================================================================
// Thrift hello-world (Fig. 12a)
// ====================================================================

/// Configuration of the Thrift hello-world validation.
#[derive(Debug, Clone)]
pub struct ThriftHelloConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Worker threads (and cores).
    pub workers: usize,
    /// Client connections.
    pub connections: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl ThriftHelloConfig {
    /// The paper's single-worker hello-world server at the given load.
    pub fn at_qps(qps: f64) -> Self {
        ThriftHelloConfig {
            arrivals: ArrivalProcess::poisson(qps),
            workers: 1,
            connections: 320,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the Thrift hello-world scenario. Instance: `"thrift"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn thrift_hello(cfg: &ThriftHelloConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m = b.add_machine(MachineSpec::xeon("thrift-host", cfg.workers + 4));
    let s = b.add_service(cfg.common.model(thrift::hello_world_model()));
    let i = b.add_instance(
        "thrift",
        s,
        m,
        cfg.workers,
        ExecSpec::MultiThreaded {
            threads: cfg.workers,
            ctx_switch: SimDuration::from_micros(2),
        },
    )?;
    let nodes = vec![
        service_node(
            "hello",
            s,
            fixed(i),
            thrift::paths::HANDLE,
            LinkKind::Request,
            vec![nid(1)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty = b.add_request_type(RequestType::new("hello", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "client".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::single(ty),
            // A "Hello World" RPC payload is tiny.
            request_size: Distribution::constant(64.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i],
    );
    b.build()
}

// ====================================================================
// Single-tier services (BigHouse comparison, Fig. 13)
// ====================================================================

/// Builds a single-tier, single-process NGINX web server. Instance:
/// `"nginx"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn single_nginx(qps: f64, common: &CommonOpts) -> SimResult<Simulator> {
    let mut b = common.builder();
    let m = b.add_machine(MachineSpec::xeon("host", 1 + 4));
    let s = b.add_service(common.model(nginx::service_model()));
    let i = b.add_instance("nginx", s, m, 1, ExecSpec::Simple)?;
    let nodes = vec![
        service_node(
            "serve",
            s,
            fixed(i),
            nginx::paths::SERVE,
            LinkKind::Request,
            vec![nid(1)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty = b.add_request_type(RequestType::new("get_page", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: 320,
            arrivals: ArrivalProcess::poisson(qps),
            mix: RequestMix::single(ty),
            request_size: Distribution::constant(612.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i],
    );
    b.build()
}

/// Builds a single-tier memcached with the given thread count. Instance:
/// `"memcached"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn single_memcached(qps: f64, threads: usize, common: &CommonOpts) -> SimResult<Simulator> {
    let mut b = common.builder();
    let m = b.add_machine(MachineSpec::xeon("host", threads + 4));
    let s = b.add_service(common.model(memcached::service_model()));
    let i = b.add_instance(
        "memcached",
        s,
        m,
        threads,
        ExecSpec::MultiThreaded {
            threads,
            ctx_switch: SimDuration::from_micros(2),
        },
    )?;
    let nodes = vec![
        service_node(
            "get",
            s,
            fixed(i),
            memcached::paths::READ,
            LinkKind::Request,
            vec![nid(1)],
        ),
        PathNodeSpec::client_sink(nid(0)),
    ];
    let ty = b.add_request_type(RequestType::new("get", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: 320,
            arrivals: ArrivalProcess::poisson(qps),
            mix: RequestMix::single(ty),
            request_size: Distribution::exponential(512.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i],
    );
    b.build()
}

// ====================================================================
// Social network (Figs. 11, 12b)
// ====================================================================

/// Configuration of the social-network application.
#[derive(Debug, Clone)]
pub struct SocialNetworkConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Frontend worker threads.
    pub frontend_threads: usize,
    /// Frontend cores.
    pub frontend_cores: usize,
    /// Client connections.
    pub connections: usize,
    /// Pool size between tiers.
    pub pool_size: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl SocialNetworkConfig {
    /// Default deployment at the given load.
    pub fn at_qps(qps: f64) -> Self {
        SocialNetworkConfig {
            arrivals: ArrivalProcess::poisson(qps),
            frontend_threads: 16,
            frontend_cores: 4,
            connections: 320,
            pool_size: 32,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the social network's read-post flow (Fig. 11): a Thrift frontend
/// queries the User and Post services in parallel, synchronizes their
/// replies, extracts media via the Media service, and responds. Each
/// backend service fronts its own memcached. Instances: `"frontend"`,
/// `"user"`, `"post"`, `"media"`, `"user_mc"`, `"post_mc"`, `"media_mc"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn social_network(cfg: &SocialNetworkConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let m_front = b.add_machine(MachineSpec::xeon("frontend-host", cfg.frontend_cores + 4));
    let m_back = b.add_machine(MachineSpec::xeon("backend-host", 9 + 4));
    let s_front = b.add_service(
        cfg.common
            .model(thrift::service_model("frontend", 30e-6, 18e-6)),
    );
    let s_user = b.add_service(cfg.common.model(thrift::service_model(
        "user_service",
        20e-6,
        12e-6,
    )));
    let s_post = b.add_service(cfg.common.model(thrift::service_model(
        "post_service",
        22e-6,
        12e-6,
    )));
    let s_media = b.add_service(cfg.common.model(thrift::service_model(
        "media_service",
        24e-6,
        12e-6,
    )));
    let s_mc = b.add_service(cfg.common.model(memcached::service_model()));

    let mt = |threads: usize| ExecSpec::MultiThreaded {
        threads,
        ctx_switch: SimDuration::from_micros(2),
    };
    let i_front = b.add_instance(
        "frontend",
        s_front,
        m_front,
        cfg.frontend_cores,
        mt(cfg.frontend_threads),
    )?;
    let i_user = b.add_instance("user", s_user, m_back, 2, mt(8))?;
    let i_post = b.add_instance("post", s_post, m_back, 2, mt(8))?;
    let i_media = b.add_instance("media", s_media, m_back, 2, mt(8))?;
    let i_user_mc = b.add_instance("user_mc", s_mc, m_back, 1, mt(1))?;
    let i_post_mc = b.add_instance("post_mc", s_mc, m_back, 1, mt(1))?;
    let i_media_mc = b.add_instance("media_mc", s_mc, m_back, 1, mt(1))?;
    b.add_pool(i_front, i_user, cfg.pool_size)?;
    b.add_pool(i_front, i_post, cfg.pool_size)?;
    b.add_pool(i_front, i_media, cfg.pool_size)?;
    b.add_pool(i_user, i_user_mc, cfg.pool_size)?;
    b.add_pool(i_post, i_post_mc, cfg.pool_size)?;
    b.add_pool(i_media, i_media_mc, cfg.pool_size)?;

    // Node ids (see module docs for the flow):
    // 0 F1   frontend handle  (blocks thread until 7)
    // 1 U1   user handle      (blocks thread until 3)
    // 2 UM   user_mc read
    // 3 U2   user compose     (pin 1)
    // 4 P1   post handle      (blocks thread until 6)
    // 5 PM   post_mc read
    // 6 P2   post compose     (pin 4)
    // 7 J1   frontend compose (pin 0; fan-in 2; blocks thread until 11)
    // 8 M1   media handle     (blocks thread until 10)
    // 9 MM   media_mc read
    // 10 M2  media compose    (pin 8)
    // 11 J2  frontend compose (pin 0)
    // 12 sink
    let mut f1 = service_node(
        "F1",
        s_front,
        fixed(i_front),
        thrift::paths::HANDLE,
        LinkKind::Request,
        vec![nid(1), nid(4)],
    );
    f1.block_thread_until = Some(nid(7));
    let mut u1 = service_node(
        "U1",
        s_user,
        fixed(i_user),
        thrift::paths::HANDLE,
        LinkKind::Request,
        vec![nid(2)],
    );
    u1.block_thread_until = Some(nid(3));
    let um = service_node(
        "UM",
        s_mc,
        fixed(i_user_mc),
        memcached::paths::READ,
        LinkKind::Request,
        vec![nid(3)],
    );
    let mut u2 = service_node(
        "U2",
        s_user,
        same_as(1),
        thrift::paths::COMPOSE,
        LinkKind::ReplyToParent,
        vec![nid(7)],
    );
    u2.pin_thread_of = Some(nid(1));
    let mut p1 = service_node(
        "P1",
        s_post,
        fixed(i_post),
        thrift::paths::HANDLE,
        LinkKind::Request,
        vec![nid(5)],
    );
    p1.block_thread_until = Some(nid(6));
    let pm = service_node(
        "PM",
        s_mc,
        fixed(i_post_mc),
        memcached::paths::READ,
        LinkKind::Request,
        vec![nid(6)],
    );
    let mut p2 = service_node(
        "P2",
        s_post,
        same_as(4),
        thrift::paths::COMPOSE,
        LinkKind::ReplyToParent,
        vec![nid(7)],
    );
    p2.pin_thread_of = Some(nid(4));
    // J1 joins the replies of the user (via U2) and post (via P2)
    // subtrees; each copy travels back on the connection that entered that
    // subtree's first node (U1 / P1).
    let mut j1 = service_node(
        "J1",
        s_front,
        same_as(0),
        thrift::paths::COMPOSE,
        LinkKind::ReplyVia {
            entries: vec![(nid(3), nid(1)), (nid(6), nid(4))],
        },
        vec![nid(8)],
    );
    j1.pin_thread_of = Some(nid(0));
    j1.block_thread_until = Some(nid(11));
    let mut m1 = service_node(
        "M1",
        s_media,
        fixed(i_media),
        thrift::paths::HANDLE,
        LinkKind::Request,
        vec![nid(9)],
    );
    m1.block_thread_until = Some(nid(10));
    let mm = service_node(
        "MM",
        s_mc,
        fixed(i_media_mc),
        memcached::paths::READ,
        LinkKind::Request,
        vec![nid(10)],
    );
    let mut m2 = service_node(
        "M2",
        s_media,
        same_as(8),
        thrift::paths::COMPOSE,
        LinkKind::ReplyToParent,
        vec![nid(11)],
    );
    m2.pin_thread_of = Some(nid(8));
    // J2 receives the media subtree's reply on the connection that entered
    // M1 (the frontend → media pool connection).
    let mut j2 = service_node(
        "J2",
        s_front,
        same_as(0),
        thrift::paths::COMPOSE,
        LinkKind::Reply { of: nid(8) },
        vec![nid(12)],
    );
    j2.pin_thread_of = Some(nid(0));
    let sink = PathNodeSpec::client_sink(nid(0));

    let ty = b.add_request_type(RequestType::new(
        "read_post",
        vec![f1, u1, um, u2, p1, pm, p2, j1, m1, mm, m2, j2, sink],
        nid(0),
    ))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::single(ty),
            request_size: Distribution::exponential(256.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_front],
    );
    b.build()
}

// ====================================================================
// Full social network: read / read-miss / compose / browse mix
// ====================================================================

/// Request-mix weights of the full social network (normalized at build).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialMix {
    /// Read a post, all caches hit.
    pub read: f64,
    /// Read a post, the post cache misses → MongoDB → disk.
    pub read_miss: f64,
    /// Compose (write) a post through the post service.
    pub compose: f64,
    /// Browse a user profile (user service only).
    pub browse: f64,
}

impl Default for SocialMix {
    fn default() -> Self {
        SocialMix {
            read: 0.65,
            read_miss: 0.15,
            compose: 0.15,
            browse: 0.05,
        }
    }
}

/// Configuration of the full social network.
#[derive(Debug, Clone)]
pub struct SocialNetworkFullConfig {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Request mix.
    pub mix: SocialMix,
    /// Frontend worker threads.
    pub frontend_threads: usize,
    /// Frontend cores.
    pub frontend_cores: usize,
    /// Mean disk random-read latency, seconds.
    pub disk_read_s: f64,
    /// Client connections.
    pub connections: usize,
    /// Pool size between tiers.
    pub pool_size: usize,
    /// Shared options.
    pub common: CommonOpts,
}

impl SocialNetworkFullConfig {
    /// Default deployment at the given load.
    pub fn at_qps(qps: f64) -> Self {
        SocialNetworkFullConfig {
            arrivals: ArrivalProcess::poisson(qps),
            mix: SocialMix::default(),
            frontend_threads: 16,
            frontend_cores: 4,
            disk_read_s: 2.5e-3,
            connections: 320,
            pool_size: 32,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the social network with the paper's full action set (§IV-D:
/// "users can follow each other, post messages, reply publicly or
/// privately to another user, and browse information about a given
/// user"): four request types share one deployment, with the post service
/// backed by MongoDB + disk for cache misses and writes.
///
/// Instances: those of [`social_network`] plus `"mongod"` and `"disk"`.
/// Request types (resolvable by name): `"read_post"`, `"read_post_miss"`,
/// `"compose_post"`, `"browse_user"`.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn social_network_full(cfg: &SocialNetworkFullConfig) -> SimResult<Simulator> {
    use uqsim_core::path::RequestTypeBuilder;

    let mut b = cfg.common.builder();
    let m_front = b.add_machine(MachineSpec::xeon("frontend-host", cfg.frontend_cores + 4));
    let m_back = b.add_machine(MachineSpec::xeon("backend-host", 13 + 4));
    let s_front = b.add_service(
        cfg.common
            .model(thrift::service_model("frontend", 30e-6, 18e-6)),
    );
    let s_user = b.add_service(cfg.common.model(thrift::service_model(
        "user_service",
        20e-6,
        12e-6,
    )));
    let s_post = b.add_service(cfg.common.model(thrift::service_model(
        "post_service",
        22e-6,
        12e-6,
    )));
    let s_media = b.add_service(cfg.common.model(thrift::service_model(
        "media_service",
        24e-6,
        12e-6,
    )));
    let s_mc = b.add_service(cfg.common.model(memcached::service_model()));
    let s_mongo = b.add_service(cfg.common.model(mongodb::service_model()));
    let s_disk = b.add_service(cfg.common.model(mongodb::disk_model(cfg.disk_read_s)));

    let mt = |threads: usize| ExecSpec::MultiThreaded {
        threads,
        ctx_switch: SimDuration::from_micros(2),
    };
    let i_front = b.add_instance(
        "frontend",
        s_front,
        m_front,
        cfg.frontend_cores,
        mt(cfg.frontend_threads),
    )?;
    let i_user = b.add_instance("user", s_user, m_back, 2, mt(8))?;
    let i_post = b.add_instance("post", s_post, m_back, 2, mt(8))?;
    let i_media = b.add_instance("media", s_media, m_back, 2, mt(8))?;
    let i_user_mc = b.add_instance("user_mc", s_mc, m_back, 1, mt(1))?;
    let i_post_mc = b.add_instance("post_mc", s_mc, m_back, 1, mt(1))?;
    let i_media_mc = b.add_instance("media_mc", s_mc, m_back, 1, mt(1))?;
    let i_mongo = b.add_instance("mongod", s_mongo, m_back, 2, ExecSpec::Simple)?;
    let i_disk = b.add_instance("disk", s_disk, m_back, 2, ExecSpec::Simple)?;
    b.add_pool(i_front, i_user, cfg.pool_size)?;
    b.add_pool(i_front, i_post, cfg.pool_size)?;
    b.add_pool(i_front, i_media, cfg.pool_size)?;
    b.add_pool(i_user, i_user_mc, cfg.pool_size)?;
    b.add_pool(i_post, i_post_mc, cfg.pool_size)?;
    b.add_pool(i_media, i_media_mc, cfg.pool_size)?;
    b.add_pool(i_post, i_mongo, cfg.pool_size)?;

    let handle = thrift::paths::HANDLE;
    let compose = thrift::paths::COMPOSE;
    let svc_node = |name: &str, svc, inst, path| {
        service_node(name, svc, fixed(inst), path, LinkKind::Request, Vec::new())
    };

    // ---- read_post (all caches hit) -----------------------------------
    let ty_read = {
        let mut d = RequestTypeBuilder::new("read_post");
        let f1 = d.add(svc_node("F1", s_front, i_front, handle));
        let u1 = d.add(svc_node("U1", s_user, i_user, handle));
        let um = d.add(svc_node("UM", s_mc, i_user_mc, memcached::paths::READ));
        let u2 = d.add(
            PathNodeSpec::reply_to_parent("U2", s_user, u1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let p1 = d.add(svc_node("P1", s_post, i_post, handle));
        let pm = d.add(svc_node("PM", s_mc, i_post_mc, memcached::paths::READ));
        let p2 = d.add(
            PathNodeSpec::reply_to_parent("P2", s_post, p1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let j1 = d.add(service_node(
            "J1",
            s_front,
            same_as(0),
            compose,
            LinkKind::ReplyVia {
                entries: vec![(u2, u1), (p2, p1)],
            },
            Vec::new(),
        ));
        let m1 = d.add(svc_node("M1", s_media, i_media, handle));
        let mm = d.add(svc_node("MM", s_mc, i_media_mc, memcached::paths::READ));
        let m2 = d.add(
            PathNodeSpec::reply_to_parent("M2", s_media, m1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let j2 = d.add(service_node(
            "J2",
            s_front,
            same_as(0),
            compose,
            LinkKind::Reply { of: m1 },
            Vec::new(),
        ));
        let sink = d.add(PathNodeSpec::client_sink(f1));
        for (a, bb) in [
            (f1, u1),
            (f1, p1),
            (u1, um),
            (um, u2),
            (u2, j1),
            (p1, pm),
            (pm, p2),
            (p2, j1),
            (j1, m1),
            (m1, mm),
            (mm, m2),
            (m2, j2),
            (j2, sink),
        ] {
            d.link(a, bb);
        }
        d.node_mut(f1).block_thread_until = Some(j1);
        d.node_mut(u1).block_thread_until = Some(u2);
        d.node_mut(u2).pin_thread_of = Some(u1);
        d.node_mut(p1).block_thread_until = Some(p2);
        d.node_mut(p2).pin_thread_of = Some(p1);
        d.node_mut(j1).pin_thread_of = Some(f1);
        d.node_mut(j1).block_thread_until = Some(j2);
        d.node_mut(m1).block_thread_until = Some(m2);
        d.node_mut(m2).pin_thread_of = Some(m1);
        d.node_mut(j2).pin_thread_of = Some(f1);
        b.add_request_type(d.finish().map_err(uqsim_core::SimError::InvalidScenario)?)?
    };

    // ---- read_post_miss (post cache misses → MongoDB → disk) ----------
    let ty_miss = {
        let mut d = RequestTypeBuilder::new("read_post_miss");
        let f1 = d.add(svc_node("F1", s_front, i_front, handle));
        let u1 = d.add(svc_node("U1", s_user, i_user, handle));
        let um = d.add(svc_node("UM", s_mc, i_user_mc, memcached::paths::READ));
        let u2 = d.add(
            PathNodeSpec::reply_to_parent("U2", s_user, u1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let p1 = d.add(svc_node("P1", s_post, i_post, handle));
        let pm = d.add(svc_node("PM_miss", s_mc, i_post_mc, memcached::paths::READ));
        // The post worker resumes on the miss reply and queries MongoDB.
        let pm1 = d.add(
            PathNodeSpec::reply_to_parent("Pq", s_post, p1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let g1 = d.add(svc_node("G1", s_mongo, i_mongo, mongodb::paths::QUERY));
        let disk = d.add(svc_node("D", s_disk, i_disk, mongodb::disk_paths::READ));
        let g2 = d.add(
            PathNodeSpec::reply_to_parent("G2", s_mongo, g1).with_exec_path(
                uqsim_core::path::PathSelect::Fixed {
                    index: mongodb::paths::RESPOND,
                },
            ),
        );
        let p2 = d.add(service_node(
            "P2",
            s_post,
            same_as(4),
            compose,
            LinkKind::Reply { of: g1 },
            Vec::new(),
        ));
        let j1 = d.add(service_node(
            "J1",
            s_front,
            same_as(0),
            compose,
            LinkKind::ReplyVia {
                entries: vec![(u2, u1), (p2, p1)],
            },
            Vec::new(),
        ));
        let m1 = d.add(svc_node("M1", s_media, i_media, handle));
        let mm = d.add(svc_node("MM", s_mc, i_media_mc, memcached::paths::READ));
        let m2 = d.add(
            PathNodeSpec::reply_to_parent("M2", s_media, m1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let j2 = d.add(service_node(
            "J2",
            s_front,
            same_as(0),
            compose,
            LinkKind::Reply { of: m1 },
            Vec::new(),
        ));
        let sink = d.add(PathNodeSpec::client_sink(f1));
        for (a, bb) in [
            (f1, u1),
            (f1, p1),
            (u1, um),
            (um, u2),
            (u2, j1),
            (p1, pm),
            (pm, pm1),
            (pm1, g1),
            (g1, disk),
            (disk, g2),
            (g2, p2),
            (p2, j1),
            (j1, m1),
            (m1, mm),
            (mm, m2),
            (m2, j2),
            (j2, sink),
        ] {
            d.link(a, bb);
        }
        d.node_mut(f1).block_thread_until = Some(j1);
        d.node_mut(u1).block_thread_until = Some(u2);
        d.node_mut(u2).pin_thread_of = Some(u1);
        // The post worker blocks twice: for the cache reply, then for the
        // database reply (the thread is held across the disk read, which
        // is exactly what a synchronous Thrift handler does).
        d.node_mut(p1).block_thread_until = Some(pm1);
        d.node_mut(pm1).pin_thread_of = Some(p1);
        d.node_mut(pm1).block_thread_until = Some(p2);
        d.node_mut(p2).pin_thread_of = Some(p1);
        d.node_mut(j1).pin_thread_of = Some(f1);
        d.node_mut(j1).block_thread_until = Some(j2);
        d.node_mut(m1).block_thread_until = Some(m2);
        d.node_mut(m2).pin_thread_of = Some(m1);
        d.node_mut(j2).pin_thread_of = Some(f1);
        b.add_request_type(d.finish().map_err(uqsim_core::SimError::InvalidScenario)?)?
    };

    // ---- compose_post (write through the post service) ----------------
    let ty_compose = {
        let mut d = RequestTypeBuilder::new("compose_post");
        let f1 = d.add(svc_node("F1", s_front, i_front, handle));
        let p1 = d.add(svc_node("P1", s_post, i_post, handle));
        let pw = d.add(svc_node("PW", s_mc, i_post_mc, memcached::paths::WRITE));
        let p2 = d.add(
            PathNodeSpec::reply_to_parent("P2", s_post, p1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let j = d.add(service_node(
            "J",
            s_front,
            same_as(0),
            compose,
            LinkKind::Reply { of: p1 },
            Vec::new(),
        ));
        let sink = d.add(PathNodeSpec::client_sink(f1));
        for (a, bb) in [(f1, p1), (p1, pw), (pw, p2), (p2, j), (j, sink)] {
            d.link(a, bb);
        }
        d.node_mut(f1).block_thread_until = Some(j);
        d.node_mut(p1).block_thread_until = Some(p2);
        d.node_mut(p2).pin_thread_of = Some(p1);
        d.node_mut(j).pin_thread_of = Some(f1);
        b.add_request_type(d.finish().map_err(uqsim_core::SimError::InvalidScenario)?)?
    };

    // ---- browse_user ----------------------------------------------------
    let ty_browse = {
        let mut d = RequestTypeBuilder::new("browse_user");
        let f1 = d.add(svc_node("F1", s_front, i_front, handle));
        let u1 = d.add(svc_node("U1", s_user, i_user, handle));
        let um = d.add(svc_node("UM", s_mc, i_user_mc, memcached::paths::READ));
        let u2 = d.add(
            PathNodeSpec::reply_to_parent("U2", s_user, u1)
                .with_exec_path(uqsim_core::path::PathSelect::Fixed { index: compose }),
        );
        let j = d.add(service_node(
            "J",
            s_front,
            same_as(0),
            compose,
            LinkKind::Reply { of: u1 },
            Vec::new(),
        ));
        let sink = d.add(PathNodeSpec::client_sink(f1));
        for (a, bb) in [(f1, u1), (u1, um), (um, u2), (u2, j), (j, sink)] {
            d.link(a, bb);
        }
        d.node_mut(f1).block_thread_until = Some(j);
        d.node_mut(u1).block_thread_until = Some(u2);
        d.node_mut(u2).pin_thread_of = Some(u1);
        d.node_mut(j).pin_thread_of = Some(f1);
        b.add_request_type(d.finish().map_err(uqsim_core::SimError::InvalidScenario)?)?
    };

    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: cfg.connections,
            arrivals: cfg.arrivals.clone(),
            mix: RequestMix::weighted(vec![
                (ty_read, cfg.mix.read),
                (ty_miss, cfg.mix.read_miss),
                (ty_compose, cfg.mix.compose),
                (ty_browse, cfg.mix.browse),
            ]),
            request_size: Distribution::exponential(256.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_front],
    );
    b.build()
}

// ====================================================================
// Tail at scale (Fig. 14)
// ====================================================================

/// Configuration of the tail-at-scale fanout cluster (§V-A).
#[derive(Debug, Clone)]
pub struct TailAtScaleConfig {
    /// Per-leaf request rate (each request visits *every* leaf).
    pub qps: f64,
    /// Cluster size (the paper sweeps 5 → 1000).
    pub cluster_size: usize,
    /// Fraction of leaves that are slow.
    pub slow_fraction: f64,
    /// Slowdown multiplier of the slow leaves (the paper uses 10×).
    pub slowdown: f64,
    /// Mean leaf service time, seconds (the paper uses 1 ms, exponential).
    pub mean_service_s: f64,
    /// Shared options.
    pub common: CommonOpts,
}

impl TailAtScaleConfig {
    /// The paper's setup for the given cluster size and slow fraction.
    pub fn new(cluster_size: usize, slow_fraction: f64, qps: f64) -> Self {
        TailAtScaleConfig {
            qps,
            cluster_size,
            slow_fraction,
            slowdown: 10.0,
            mean_service_s: 1e-3,
            common: CommonOpts::default(),
        }
    }
}

/// Builds the tail-at-scale cluster: a negligible-cost dispatcher fans each
/// request to every leaf (single-stage, exponential service) and the
/// response returns when the last leaf answers. A `slow_fraction` of leaves
/// runs `slowdown`× slower. Instances: `"dispatcher"`, `"leaf{i}"`.
///
/// Network processing is disabled (passthrough) so the measured effect is
/// purely the fanout tail, as in §V-A's one-stage queueing setup.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn tail_at_scale(cfg: &TailAtScaleConfig) -> SimResult<Simulator> {
    let mut b = cfg.common.builder();
    let n = cfg.cluster_size;
    let mut disp_machine = MachineSpec::xeon("dispatcher-host", 4);
    disp_machine.network = uqsim_core::machine::NetworkSpec::passthrough(20e-6);
    let m_disp = b.add_machine(disp_machine);
    let mut leaf_machine = MachineSpec::xeon("leaf-host", n);
    leaf_machine.network = uqsim_core::machine::NetworkSpec::passthrough(20e-6);
    let m_leaf = b.add_machine(leaf_machine);

    let leaf_model = |name: &str, mean: f64| {
        ServiceModel::new(
            name,
            vec![StageSpec::new(
                "serve",
                QueueDiscipline::Single,
                ServiceTimeModel::per_job(Distribution::exponential(mean), 2.6),
            )],
            vec![ExecPath::new("serve", vec![StageId::from_raw(0)])],
        )
    };
    let dispatcher_model = ServiceModel::new(
        "dispatcher",
        vec![StageSpec::new(
            "dispatch",
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(Distribution::constant(1e-6), 2.6),
        )],
        vec![ExecPath::new("dispatch", vec![StageId::from_raw(0)])],
    );
    let s_disp = b.add_service(cfg.common.model(dispatcher_model));
    let s_fast = b.add_service(cfg.common.model(leaf_model("leaf", cfg.mean_service_s)));
    let s_slow = b.add_service(
        cfg.common
            .model(leaf_model("slow_leaf", cfg.mean_service_s * cfg.slowdown)),
    );
    let i_disp = b.add_instance("dispatcher", s_disp, m_disp, 4, ExecSpec::Simple)?;
    let n_slow = (cfg.slow_fraction * n as f64).round() as usize;
    let mut leaves = Vec::with_capacity(n);
    for k in 0..n {
        let svc = if k < n_slow { s_slow } else { s_fast };
        leaves.push(b.add_instance(format!("leaf{k}"), svc, m_leaf, 1, ExecSpec::Simple)?);
    }

    let join = n + 1;
    let sink = n + 2;
    let mut nodes = vec![service_node(
        "dispatch",
        s_disp,
        fixed(i_disp),
        0,
        LinkKind::Request,
        (1..=n).map(nid).collect(),
    )];
    for (k, &leaf) in leaves.iter().enumerate() {
        let svc = if k < n_slow { s_slow } else { s_fast };
        nodes.push(service_node(
            &format!("leaf{k}"),
            svc,
            fixed(leaf),
            0,
            LinkKind::Request,
            vec![nid(join)],
        ));
    }
    nodes.push(service_node(
        "join",
        s_disp,
        same_as(0),
        0,
        LinkKind::ReplyToParent,
        vec![nid(sink)],
    ));
    nodes.push(PathNodeSpec::client_sink(nid(0)));
    let ty = b.add_request_type(RequestType::new("fanout", nodes, nid(0)))?;
    b.add_client(
        ClientSpec {
            name: "clients".into(),
            connections: 4096,
            arrivals: ArrivalProcess::poisson(cfg.qps),
            mix: RequestMix::single(ty),
            request_size: Distribution::constant(64.0),
            closed_loop: None,
            timeout_s: None,
        },
        vec![i_disp],
    );
    b.build()
}

// ====================================================================
// Pod cluster: N independent 2-tier pods (partitioned-execution fodder)
// ====================================================================

/// A cluster of `pods` independent two-machine pods, as a plain
/// [`ScenarioConfig`] (not a built simulator) so it can feed the
/// partitioned engine
/// ([`uqsim_core::partition::run_partitioned`]) and the `uqsim` CLI's
/// `--shards` flag.
///
/// Each pod owns a frontend machine (a `front` service instance), a
/// backend machine (a `store` service instance), a connection pool between
/// them, a request chain `recv → fetch → respond → sink` (with a
/// `same_as_node` respond hop and reply links), and an open-loop Poisson
/// client at `qps_per_pod`. Pods share service *models* but no machines,
/// instances, pools, request types, or clients — so the must-colocate
/// graph splits the cluster into exactly `pods` request-closed cells, one
/// per pod. With 50+ pods this is the 100+-machine shard-scaling scenario
/// the partition differential tests and benchmarks use.
///
/// # Errors
///
/// Propagates JSON-assembly errors from
/// [`ScenarioConfig::from_json`] (none are expected for valid inputs).
///
/// # Examples
///
/// ```
/// use uqsim_apps::scenarios::pod_cluster;
/// use uqsim_core::partition::split_cells;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = pod_cluster(4, 1500.0)?;
/// assert_eq!(cfg.machines.len(), 8);
/// assert_eq!(split_cells(&cfg)?.len(), 4); // one cell per pod
/// # Ok(())
/// # }
/// ```
pub fn pod_cluster(pods: usize, qps_per_pod: f64) -> SimResult<ScenarioConfig> {
    let machine = |name: &str| {
        format!(
            r#"{{ "name": "{name}", "cores": 2,
      "dvfs": {{ "levels_ghz": [2.6] }},
      "network": {{ "irq_cores": 1,
        "rx_time": {{ "type": "exponential", "mean": 0.0000166 }},
        "wire_latency": {{ "type": "constant", "value": 0.00002 }} }} }}"#
        )
    };
    let service = |name: &str, mean_s: f64| {
        format!(
            r#"{{ "name": "{name}",
      "stages": [
        {{ "name": "handler", "queue": {{ "type": "single" }},
          "service": {{ "base": {{ "type": "constant", "value": 0.0 }},
            "per_job": {{ "type": "exponential", "mean": {mean_s} }},
            "ref_freq_ghz": 2.6, "freq_alpha": 1.0 }} }}
      ],
      "paths": [{{ "name": "default", "stages": [0] }}] }}"#
        )
    };
    let mut machines = Vec::new();
    let mut instances = Vec::new();
    let mut pools = Vec::new();
    let mut request_types = Vec::new();
    let mut clients = Vec::new();
    for i in 0..pods.max(1) {
        machines.push(machine(&format!("p{i}-fe")));
        machines.push(machine(&format!("p{i}-be")));
        instances.push(format!(
            r#"{{ "name": "p{i}-front", "service": "front", "machine": "p{i}-fe",
      "cores": 1, "exec": {{ "type": "simple" }} }}"#
        ));
        instances.push(format!(
            r#"{{ "name": "p{i}-store", "service": "store", "machine": "p{i}-be",
      "cores": 1, "exec": {{ "type": "simple" }} }}"#
        ));
        pools.push(format!(
            r#"{{ "up": "p{i}-front", "down": "p{i}-store", "size": 8 }}"#
        ));
        request_types.push(format!(
            r#"{{ "name": "get{i}",
      "nodes": [
        {{ "name": "recv",
          "target": {{ "type": "service", "service": "front",
            "instance": {{ "type": "fixed", "name": "p{i}-front" }},
            "exec_path": "default" }},
          "children": ["fetch"] }},
        {{ "name": "fetch",
          "target": {{ "type": "service", "service": "store",
            "instance": {{ "type": "fixed", "name": "p{i}-store" }},
            "exec_path": "default" }},
          "children": ["respond"] }},
        {{ "name": "respond",
          "target": {{ "type": "service", "service": "front",
            "instance": {{ "type": "same_as_node", "node": "recv" }},
            "exec_path": "default" }},
          "children": ["sink"], "link": "reply_to_parent" }},
        {{ "name": "sink", "target": {{ "type": "client_sink" }},
          "link": {{ "reply": {{ "of": "recv" }} }} }}
      ] }}"#
        ));
        clients.push(format!(
            r#"{{ "name": "wrk{i}", "connections": 32,
      "arrivals": {{ "type": "poisson",
        "schedule": {{ "segments": [[0.0, {qps_per_pod}]] }} }},
      "mix": [["get{i}", 1.0]], "roots": ["p{i}-front"] }}"#
        ))
    }
    let json = format!(
        r#"{{
  "seed": 42,
  "warmup_s": 0.1,
  "machines": [{}],
  "services": [{}, {}],
  "instances": [{}],
  "pools": [{}],
  "request_types": [{}],
  "clients": [{}]
}}"#,
        machines.join(",\n"),
        service("front", 0.00006),
        service("store", 0.00004),
        instances.join(",\n"),
        pools.join(",\n"),
        request_types.join(",\n"),
        clients.join(",\n"),
    );
    ScenarioConfig::from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsim_core::time::{SimDuration, SimTime};

    fn quick(mut sim: Simulator, secs: u64) -> Simulator {
        sim.run_for(SimDuration::from_secs(secs));
        sim
    }

    #[test]
    fn two_tier_runs_and_completes() {
        let sim = quick(two_tier(&TwoTierConfig::at_qps(10_000.0)).unwrap(), 3);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 10_000.0).abs() / 10_000.0 < 0.05, "tput {tput}");
        let s = sim.latency_summary();
        // Below saturation: sub-millisecond p99, plausible floor.
        assert!(s.mean > 100e-6, "mean {}", s.mean);
        assert!(s.p99 < 5e-3, "p99 {}", s.p99);
    }

    #[test]
    fn two_tier_saturates_near_70k() {
        // 8 NGINX workers at ~114us/request → ~70 kQPS. At 60k the app
        // keeps up; at 90k it visibly cannot.
        let ok = quick(two_tier(&TwoTierConfig::at_qps(60_000.0)).unwrap(), 4);
        let tput_ok = ok.completed() as f64 / ok.now().as_secs_f64();
        assert!(tput_ok > 0.95 * 60_000.0, "tput {tput_ok}");
        let over = quick(two_tier(&TwoTierConfig::at_qps(90_000.0)).unwrap(), 4);
        let tput_over = over.completed() as f64 / over.now().as_secs_f64();
        assert!(tput_over < 80_000.0, "overload tput {tput_over}");
        assert!(
            over.latency_summary().p99 > 10.0 * ok.latency_summary().p99,
            "saturation should blow up the tail"
        );
    }

    #[test]
    fn three_tier_is_disk_bound() {
        let cfg = ThreeTierConfig::at_qps(3_000.0);
        let sim = quick(three_tier(&cfg).unwrap(), 4);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 3_000.0).abs() / 3_000.0 < 0.06, "tput {tput}");
        // Disk utilization dwarfs nginx utilization at this load.
        let disk = sim.instance_by_name("disk").unwrap();
        let ng = sim.instance_by_name("nginx").unwrap();
        let util = |i| sim.instance_utilization_since(i, SimTime::ZERO);
        assert!(util(disk) > 3.0 * util(ng));
    }

    #[test]
    fn load_balanced_scales() {
        let s4 = quick(
            load_balanced(&LoadBalancedConfig::new(4, 30_000.0)).unwrap(),
            3,
        );
        let t4 = s4.completed() as f64 / s4.now().as_secs_f64();
        assert!(t4 > 0.95 * 30_000.0, "4-way at 30k: {t4}");
        let s8 = quick(
            load_balanced(&LoadBalancedConfig::new(8, 60_000.0)).unwrap(),
            3,
        );
        let t8 = s8.completed() as f64 / s8.now().as_secs_f64();
        assert!(t8 > 0.95 * 60_000.0, "8-way at 60k: {t8}");
    }

    #[test]
    fn fanout_waits_for_all_leaves() {
        let sim = quick(fanout(&FanoutConfig::new(8, 3_000.0)).unwrap(), 3);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 3_000.0).abs() / 3_000.0 < 0.06, "tput {tput}");
        // p99 of max-of-8 must exceed the single-leaf p50 substantially.
        let s = sim.latency_summary();
        assert!(s.p99 > 1.5 * s.p50);
    }

    #[test]
    fn thrift_hello_low_load_under_100us() {
        let sim = quick(
            thrift_hello(&ThriftHelloConfig::at_qps(5_000.0)).unwrap(),
            3,
        );
        let s = sim.latency_summary();
        assert!(s.mean < 150e-6, "mean {}us", s.mean * 1e6);
        assert!(s.p50 < 100e-6, "p50 {}us", s.p50 * 1e6);
    }

    #[test]
    fn thrift_hello_saturates_past_50k() {
        let ok = quick(
            thrift_hello(&ThriftHelloConfig::at_qps(45_000.0)).unwrap(),
            3,
        );
        let t = ok.completed() as f64 / ok.now().as_secs_f64();
        assert!(t > 0.95 * 45_000.0, "tput {t}");
        let over = quick(
            thrift_hello(&ThriftHelloConfig::at_qps(70_000.0)).unwrap(),
            3,
        );
        let t_over = over.completed() as f64 / over.now().as_secs_f64();
        assert!(t_over < 60_000.0, "overload tput {t_over}");
    }

    #[test]
    fn social_network_completes_and_blocks_threads() {
        let sim = quick(
            social_network(&SocialNetworkConfig::at_qps(5_000.0)).unwrap(),
            3,
        );
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 5_000.0).abs() / 5_000.0 < 0.06, "tput {tput}");
        // Two sequential synchronous phases: latency well above a single
        // backend round trip.
        assert!(sim.latency_summary().p50 > 200e-6);
    }

    #[test]
    fn three_tier_hit_and_miss_types_diverge() {
        let cfg = ThreeTierConfig::at_qps(2_500.0);
        let mut sim = three_tier(&cfg).unwrap();
        sim.run_for(SimDuration::from_secs(4));
        let hit = sim.request_type_by_name("get_hit").unwrap();
        let miss = sim.request_type_by_name("get_miss").unwrap();
        let hit_s = sim.type_latency_summary(hit);
        let miss_s = sim.type_latency_summary(miss);
        // The mix is 80/20.
        let frac = miss_s.count as f64 / (hit_s.count + miss_s.count) as f64;
        assert!((frac - 0.2).abs() < 0.03, "miss fraction {frac}");
        // Misses pay the disk read; hits stay sub-millisecond at this load.
        assert!(hit_s.p50 < 1e-3, "hit p50 {}", hit_s.p50);
        assert!(
            miss_s.p50 > hit_s.p50 + 1.5e-3,
            "miss {} vs hit {}",
            miss_s.p50,
            hit_s.p50
        );
    }

    #[test]
    fn social_network_full_mix_runs() {
        let cfg = SocialNetworkFullConfig::at_qps(4_000.0);
        let mut sim = social_network_full(&cfg).unwrap();
        sim.run_for(SimDuration::from_secs(4));
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 4_000.0).abs() / 4_000.0 < 0.06, "tput {tput}");
        // Cache misses pay the disk read: their tail dwarfs the hit path's.
        let hit = sim.request_type_by_name("read_post").unwrap();
        let miss = sim.request_type_by_name("read_post_miss").unwrap();
        let hit_s = sim.type_latency_summary(hit);
        let miss_s = sim.type_latency_summary(miss);
        assert!(hit_s.count > 1_000 && miss_s.count > 200);
        assert!(
            miss_s.p50 > hit_s.p50 + 2e-3,
            "miss p50 {} must include a disk read over hit p50 {}",
            miss_s.p50,
            hit_s.p50
        );
        // Browses are the cheapest flow (single backend).
        let browse = sim.request_type_by_name("browse_user").unwrap();
        assert!(sim.type_latency_summary(browse).p50 < hit_s.p50);
        // Conservation still holds with four interleaved DAG shapes.
        assert_eq!(
            sim.generated(),
            sim.completed() + sim.live_requests() as u64
        );
    }

    #[test]
    fn social_network_full_is_deterministic() {
        let run = |seed: u64| {
            let mut cfg = SocialNetworkFullConfig::at_qps(3_000.0);
            cfg.common.seed = seed;
            let mut sim = social_network_full(&cfg).unwrap();
            sim.run_for(SimDuration::from_secs(2));
            (sim.completed(), format!("{:?}", sim.latency_summary()))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn tail_at_scale_slow_leaves_dominate() {
        let clean = quick(
            tail_at_scale(&TailAtScaleConfig::new(50, 0.0, 60.0)).unwrap(),
            8,
        );
        let slow = quick(
            tail_at_scale(&TailAtScaleConfig::new(50, 0.02, 60.0)).unwrap(),
            8,
        );
        // One slow leaf out of 50 drags p99 toward the 10x regime.
        assert!(
            slow.latency_summary().p99 > 2.0 * clean.latency_summary().p99,
            "slow p99 {} vs clean p99 {}",
            slow.latency_summary().p99,
            clean.latency_summary().p99
        );
    }

    #[test]
    fn single_tier_scenarios_run() {
        let n = quick(single_nginx(5_000.0, &CommonOpts::default()).unwrap(), 2);
        assert!(n.completed() > 4_000);
        let m = quick(
            single_memcached(20_000.0, 4, &CommonOpts::default()).unwrap(),
            2,
        );
        assert!(m.completed() > 15_000);
    }

    #[test]
    fn noise_makes_tail_worse() {
        let mut noisy_cfg = TwoTierConfig::at_qps(20_000.0);
        noisy_cfg.common.noise = Some(crate::noise::NoiseProfile::default());
        let clean = quick(two_tier(&TwoTierConfig::at_qps(20_000.0)).unwrap(), 3);
        let noisy = quick(two_tier(&noisy_cfg).unwrap(), 3);
        assert!(noisy.latency_summary().p99 > clean.latency_summary().p99);
    }
}
