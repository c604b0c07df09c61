//! Every topology in the paper's evaluation, as data: 2-/3-tier
//! applications (Figs. 4–6), load balancing (Fig. 7), request fanout
//! (Fig. 9), Thrift hello-world (Fig. 12a), the social network (Fig. 11),
//! single-tier services for the BigHouse comparison (Fig. 13), and the
//! tail-at-scale fanout cluster (Fig. 14).
//!
//! Each function returns a [`ScenarioConfig`] — the simulator's own input
//! (Table I), assembled in the order [`ScenarioConfig::build`] lowers it —
//! so a figure's cell can be built (`cfg.build()`), run through the one
//! pipeline ([`uqsim_core::run::run_one`], `uqsim_runner`), or printed
//! (`cfg.to_json()`) and handed to `uqsim run|why|chaos`. Deployed
//! instances carry stable names (e.g. `"nginx"`, `"memcached"`) resolvable
//! with [`Simulator::instance_by_name`](uqsim_core::Simulator::instance_by_name).

use crate::noise::NoiseProfile;
use crate::{memcached, mongodb, nginx, thrift};
use uqsim_core::client::ArrivalProcess;
use uqsim_core::config::LinkConfig::{ReplyToParent, Request};
use uqsim_core::config::{
    ClientConfig, ExecConfig, InstanceConfig, InstanceSelectConfig, LinkConfig, Name,
    PathNodeConfig, PoolConfig, RequestTypeConfig, ScenarioConfig,
};
use uqsim_core::dist::Distribution;
use uqsim_core::ids::StageId;
use uqsim_core::machine::{DvfsSpec, MachineSpec, NetworkSpec};
use uqsim_core::service::{ExecPath, ServiceModel};
use uqsim_core::stage::{QueueDiscipline, ServiceTimeModel, StageSpec};
use uqsim_core::time::SimDuration;
use uqsim_core::SimResult;

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
    /// Assembles a scenario under these options; the noise profile, if
    /// any, is applied to every service model.
    fn scenario(
        &self,
        machines: Vec<MachineSpec>,
        services: Vec<ServiceModel>,
        instances: Vec<InstanceConfig>,
        pools: Vec<PoolConfig>,
        request_types: Vec<RequestTypeConfig>,
        clients: Vec<ClientConfig>,
    ) -> ScenarioConfig {
        let noisy = |m: ServiceModel| match &self.noise {
            Some(p) => p.noisy_service(&m),
            None => m,
        };
        ScenarioConfig {
            seed: self.seed,
            warmup_s: self.warmup.as_secs_f64(),
            machines,
            services: services.into_iter().map(noisy).collect(),
            instances,
            pools,
            request_types,
            clients,
        }
    }
}

fn fixed(instance: impl AsRef<str>) -> InstanceSelectConfig {
    InstanceSelectConfig::Fixed {
        name: instance.as_ref().into(),
    }
}

fn same_as(node: &str) -> InstanceSelectConfig {
    InstanceSelectConfig::SameAsNode { node: node.into() }
}

/// A path node running execution path number `exec_path` of `svc` (a
/// `paths::*` constant of the model's module).
fn node<C: AsRef<str>>(
    name: &str,
    svc: &ServiceModel,
    instance: InstanceSelectConfig,
    exec_path: usize,
    link: LinkConfig,
    children: impl IntoIterator<Item = C>,
) -> PathNodeConfig {
    PathNodeConfig {
        children: children.into_iter().map(|c| c.as_ref().into()).collect(),
        link,
        ..PathNodeConfig::service(
            name,
            svc.name.clone(),
            instance,
            svc.paths[exec_path].name.clone(),
        )
    }
}

/// `node` holds its worker thread until node `until` arrives back at the
/// instance (a synchronous RPC).
fn blocking(mut node: PathNodeConfig, until: &str) -> PathNodeConfig {
    node.block_thread_until = Some(until.into());
    node
}

/// `node` runs on the worker thread that ran node `of`.
fn pinned(mut node: PathNodeConfig, of: &str) -> PathNodeConfig {
    node.pin_thread_of = Some(of.into());
    node
}

fn request_type(name: &str, nodes: Vec<PathNodeConfig>) -> RequestTypeConfig {
    RequestTypeConfig {
        name: name.into(),
        nodes,
    }
}

fn instance(
    name: impl AsRef<str>,
    svc: &ServiceModel,
    machine: &str,
    cores: usize,
    exec: ExecConfig,
) -> InstanceConfig {
    InstanceConfig {
        name: name.as_ref().into(),
        service: svc.name.clone(),
        machine: machine.into(),
        cores,
        exec,
    }
}

/// Explicit worker threads with the 2 µs context switch every scenario
/// uses.
fn threads(threads: usize) -> ExecConfig {
    ExecConfig::MultiThreaded {
        threads,
        ctx_switch_s: 2e-6,
    }
}

fn pool(up: &str, down: impl AsRef<str>, size: usize) -> PoolConfig {
    PoolConfig {
        up: up.into(),
        down: down.as_ref().into(),
        size,
    }
}

/// The scenario's one client: open loop, connected to `root`.
fn client(
    name: &str,
    connections: usize,
    arrivals: &ArrivalProcess,
    mix: &[(&str, f64)],
    root: &str,
    request_size: Distribution,
) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        connections,
        arrivals: arrivals.clone(),
        mix: mix.iter().map(|&(ty, w)| (ty.into(), w)).collect(),
        roots: vec![root.into()],
        request_size,
        closed_loop: None,
        timeout_s: None,
    }
}

/// One single-stage service: `stage` under `time`, reached by `path`.
fn single_stage(name: &str, stage: &str, path: &str, time: Distribution) -> ServiceModel {
    ServiceModel::new(
        name,
        vec![StageSpec::new(
            stage,
            QueueDiscipline::Single,
            ServiceTimeModel::per_job(time, 2.6),
        )],
        vec![ExecPath::new(path, vec![StageId::from_raw(0)])],
    )
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

/// The cache-hit flow both tiered applications share: client → nginx →
/// memcached → nginx → client.
fn cache_hit_nodes(nginx: &ServiceModel, mc: &ServiceModel) -> Vec<PathNodeConfig> {
    vec![
        node(
            "nginx_recv",
            nginx,
            fixed("nginx"),
            nginx::paths::RECV_QUERY,
            Request,
            ["mc_get"],
        ),
        node(
            "mc_get",
            mc,
            fixed("memcached"),
            memcached::paths::READ,
            Request,
            ["nginx_respond"],
        ),
        node(
            "nginx_respond",
            nginx,
            same_as("nginx_recv"),
            nginx::paths::RESPOND,
            ReplyToParent,
            ["client_sink"],
        ),
        PathNodeConfig::client_sink("nginx_recv"),
    ]
}

/// The 2-tier application. Instances: `"nginx"`, `"memcached"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn two_tier(cfg: &TwoTierConfig) -> SimResult<ScenarioConfig> {
    let (nginx, mc) = (nginx::service_model(), memcached::service_model());
    let get = request_type("get", cache_hit_nodes(&nginx, &mc));
    let instances = vec![
        instance(
            "nginx",
            &nginx,
            "frontend-host",
            cfg.nginx_procs,
            ExecConfig::Simple,
        ),
        instance(
            "memcached",
            &mc,
            "cache-host",
            cfg.memcached_threads,
            threads(cfg.memcached_threads),
        ),
    ];
    Ok(cfg.common.scenario(
        vec![
            MachineSpec::xeon("frontend-host", cfg.nginx_procs + 4),
            MachineSpec::xeon("cache-host", cfg.memcached_threads + 4),
        ],
        vec![nginx, mc],
        instances,
        vec![pool("nginx", "memcached", cfg.pool_size)],
        vec![get],
        vec![client(
            "wrk2",
            cfg.connections,
            &cfg.arrivals,
            &[("get", 1.0)],
            "nginx",
            // The validation uses exponentially distributed value sizes.
            Distribution::exponential(512.0),
        )],
    ))
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

/// The 3-tier application. Instances: `"nginx"`, `"memcached"`,
/// `"mongod"`, `"disk"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn three_tier(cfg: &ThreeTierConfig) -> SimResult<ScenarioConfig> {
    let (nginx, mc) = (nginx::service_model(), memcached::service_model());
    let (mongo, disk) = (
        mongodb::service_model(),
        mongodb::disk_model(cfg.disk_read_s),
    );
    let request = |name: &str, svc: &ServiceModel, inst: &str, path: usize, child: &str| {
        node(name, svc, fixed(inst), path, Request, [child])
    };
    let on_nginx = |name: &str, path: usize, link: LinkConfig, child: &str| {
        node(name, &nginx, same_as("nginx_recv"), path, link, [child])
    };
    // Cache miss: nginx queries memcached (miss), then MongoDB (which does
    // a disk read), then write-allocates into memcached, then responds.
    let miss_nodes = vec![
        request(
            "nginx_recv",
            &nginx,
            "nginx",
            nginx::paths::RECV_QUERY,
            "mc_get_miss",
        ),
        request(
            "mc_get_miss",
            &mc,
            "memcached",
            memcached::paths::READ,
            "nginx_miss",
        ),
        on_nginx(
            "nginx_miss",
            nginx::paths::FORWARD,
            ReplyToParent,
            "mongo_query",
        ),
        request(
            "mongo_query",
            &mongo,
            "mongod",
            mongodb::paths::QUERY,
            "disk_read",
        ),
        request(
            "disk_read",
            &disk,
            "disk",
            mongodb::disk_paths::READ,
            "mongo_respond",
        ),
        node(
            "mongo_respond",
            &mongo,
            same_as("mongo_query"),
            mongodb::paths::RESPOND,
            ReplyToParent,
            ["nginx_writeback"],
        ),
        on_nginx(
            "nginx_writeback",
            nginx::paths::FORWARD,
            LinkConfig::Reply {
                of: "mongo_query".into(),
            },
            "mc_set",
        ),
        request(
            "mc_set",
            &mc,
            "memcached",
            memcached::paths::WRITE,
            "nginx_respond",
        ),
        on_nginx(
            "nginx_respond",
            nginx::paths::RESPOND,
            ReplyToParent,
            "client_sink",
        ),
        PathNodeConfig::client_sink("nginx_recv"),
    ];
    let request_types = vec![
        request_type("get_hit", cache_hit_nodes(&nginx, &mc)),
        request_type("get_miss", miss_nodes),
    ];
    let instances = vec![
        instance(
            "nginx",
            &nginx,
            "frontend-host",
            cfg.nginx_procs,
            ExecConfig::Simple,
        ),
        instance(
            "memcached",
            &mc,
            "cache-host",
            cfg.memcached_threads,
            threads(cfg.memcached_threads),
        ),
        instance(
            "mongod",
            &mongo,
            "db-host",
            cfg.mongod_cores,
            ExecConfig::Simple,
        ),
        instance(
            "disk",
            &disk,
            "db-host",
            cfg.disk_channels,
            ExecConfig::Simple,
        ),
    ];
    Ok(cfg.common.scenario(
        vec![
            MachineSpec::xeon("frontend-host", cfg.nginx_procs + 4),
            MachineSpec::xeon("cache-host", cfg.memcached_threads + 4),
            MachineSpec::xeon("db-host", cfg.mongod_cores + cfg.disk_channels + 4),
        ],
        vec![nginx, mc, mongo, disk],
        instances,
        vec![
            pool("nginx", "memcached", cfg.pool_size),
            pool("nginx", "mongod", cfg.pool_size),
        ],
        request_types,
        vec![client(
            "wrk2",
            cfg.connections,
            &cfg.arrivals,
            &[
                ("get_hit", 1.0 - cfg.miss_ratio),
                ("get_miss", cfg.miss_ratio),
            ],
            "nginx",
            Distribution::exponential(512.0),
        )],
    ))
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

/// An NGINX proxy in front of `backends` single-core NGINX web servers on
/// one shared machine, each behind its own pool: the deployment of the
/// load-balancing and fanout scenarios.
fn proxied_web_servers(
    backends: &[impl AsRef<str>],
    backend_host: &str,
    proxy_procs: usize,
    pool_size: usize,
    nginx: &ServiceModel,
) -> (Vec<MachineSpec>, Vec<InstanceConfig>, Vec<PoolConfig>) {
    let mut instances = vec![instance(
        "proxy",
        nginx,
        "proxy-host",
        proxy_procs,
        ExecConfig::Simple,
    )];
    instances.extend(
        backends
            .iter()
            .map(|b| instance(b, nginx, backend_host, 1, ExecConfig::Simple)),
    );
    (
        vec![
            MachineSpec::xeon("proxy-host", proxy_procs + 4),
            MachineSpec::xeon(backend_host, backends.len() + 4),
        ],
        instances,
        backends
            .iter()
            .map(|b| pool("proxy", b, pool_size))
            .collect(),
    )
}

/// The load-balancing scenario. Instances: `"proxy"`, `"ws{i}"`.
///
/// The web servers share one machine whose four irq cores handle all
/// inbound interrupt processing — the soft-irq ceiling responsible for the
/// sub-linear scaling at 16 servers (§IV-B).
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn load_balanced(cfg: &LoadBalancedConfig) -> SimResult<ScenarioConfig> {
    let nginx = nginx::service_model();
    let servers: Vec<Name> = (0..cfg.scale_out)
        .map(|k| format!("ws{k}").into())
        .collect();
    let (machines, instances, pools) =
        proxied_web_servers(&servers, "ws-host", cfg.proxy_procs, cfg.pool_size, &nginx);
    let nodes = vec![
        node(
            "proxy_fwd",
            &nginx,
            fixed("proxy"),
            nginx::paths::FORWARD,
            Request,
            ["serve"],
        ),
        node(
            "serve",
            &nginx,
            InstanceSelectConfig::RoundRobin { names: servers },
            nginx::paths::SERVE,
            Request,
            ["proxy_respond"],
        ),
        node(
            "proxy_respond",
            &nginx,
            same_as("proxy_fwd"),
            nginx::paths::PROXY_RESPOND,
            ReplyToParent,
            ["client_sink"],
        ),
        PathNodeConfig::client_sink("proxy_fwd"),
    ];
    Ok(cfg.common.scenario(
        machines,
        vec![nginx],
        instances,
        pools,
        vec![request_type("get_page", nodes)],
        vec![client(
            "clients",
            cfg.connections,
            &cfg.arrivals,
            &[("get_page", 1.0)],
            "proxy",
            // "Each requested webpage is 612 bytes in size" (§IV-B).
            Distribution::constant(612.0),
        )],
    ))
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

/// The fanout scenario. Instances: `"proxy"`, `"leaf{i}"`. A request
/// completes only after *all* leaves respond (fan-in at the proxy).
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn fanout(cfg: &FanoutConfig) -> SimResult<ScenarioConfig> {
    let nginx = nginx::service_model();
    let leaves: Vec<String> = (0..cfg.fanout).map(|k| format!("leaf{k}")).collect();
    let (machines, instances, pools) =
        proxied_web_servers(&leaves, "leaf-host", cfg.proxy_procs, cfg.pool_size, &nginx);
    let visits = || (0..cfg.fanout).map(|k| format!("serve{k}"));
    let mut nodes = vec![node(
        "proxy_fanout",
        &nginx,
        fixed("proxy"),
        nginx::paths::FORWARD,
        Request,
        visits(),
    )];
    nodes.extend(visits().zip(&leaves).map(|(name, leaf)| {
        node(
            &name,
            &nginx,
            fixed(leaf),
            nginx::paths::SERVE,
            Request,
            ["proxy_join"],
        )
    }));
    nodes.push(node(
        "proxy_join",
        &nginx,
        same_as("proxy_fanout"),
        nginx::paths::PROXY_RESPOND,
        ReplyToParent,
        ["client_sink"],
    ));
    nodes.push(PathNodeConfig::client_sink("proxy_fanout"));
    Ok(cfg.common.scenario(
        machines,
        vec![nginx],
        instances,
        pools,
        vec![request_type("fanout_get", nodes)],
        vec![client(
            "clients",
            cfg.connections,
            &cfg.arrivals,
            &[("fanout_get", 1.0)],
            "proxy",
            Distribution::constant(612.0),
        )],
    ))
}

// ====================================================================
// Single-tier services: Thrift hello-world (Fig. 12a) and the BigHouse
// comparison (Fig. 13)
// ====================================================================

/// One instance on a machine of its own (its cores plus the four irq
/// cores), visited once per request.
fn single_tier(
    common: &CommonOpts,
    svc: ServiceModel,
    inst: InstanceConfig,
    ty: &str,
    visit: PathNodeConfig,
    client: ClientConfig,
) -> ScenarioConfig {
    let sink = PathNodeConfig::client_sink(visit.name.clone());
    common.scenario(
        vec![MachineSpec::xeon(inst.machine.clone(), inst.cores + 4)],
        vec![svc],
        vec![inst],
        Vec::new(),
        vec![request_type(ty, vec![visit, sink])],
        vec![client],
    )
}

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

/// The Thrift hello-world scenario. Instance: `"thrift"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn thrift_hello(cfg: &ThriftHelloConfig) -> SimResult<ScenarioConfig> {
    let svc = thrift::hello_world_model();
    let inst = instance(
        "thrift",
        &svc,
        "thrift-host",
        cfg.workers,
        threads(cfg.workers),
    );
    let visit = node(
        "hello",
        &svc,
        fixed("thrift"),
        thrift::paths::HANDLE,
        Request,
        ["client_sink"],
    );
    // A "Hello World" RPC payload is tiny.
    let size = Distribution::constant(64.0);
    let client = client(
        "client",
        cfg.connections,
        &cfg.arrivals,
        &[("hello", 1.0)],
        "thrift",
        size,
    );
    Ok(single_tier(&cfg.common, svc, inst, "hello", visit, client))
}

/// A single-tier, single-process NGINX web server. Instance: `"nginx"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn single_nginx(qps: f64, common: &CommonOpts) -> SimResult<ScenarioConfig> {
    let svc = nginx::service_model();
    let inst = instance("nginx", &svc, "host", 1, ExecConfig::Simple);
    let visit = node(
        "serve",
        &svc,
        fixed("nginx"),
        nginx::paths::SERVE,
        Request,
        ["client_sink"],
    );
    let client = ClientConfig {
        request_size: Distribution::constant(612.0),
        ..ClientConfig::open_loop("clients", qps, 320, "get_page", "nginx")
    };
    Ok(single_tier(common, svc, inst, "get_page", visit, client))
}

/// A single-tier memcached with the given thread count. Instance:
/// `"memcached"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn single_memcached(
    qps: f64,
    worker_threads: usize,
    common: &CommonOpts,
) -> SimResult<ScenarioConfig> {
    let svc = memcached::service_model();
    let inst = instance(
        "memcached",
        &svc,
        "host",
        worker_threads,
        threads(worker_threads),
    );
    let visit = node(
        "get",
        &svc,
        fixed("memcached"),
        memcached::paths::READ,
        Request,
        ["client_sink"],
    );
    let client = ClientConfig {
        request_size: Distribution::exponential(512.0),
        ..ClientConfig::open_loop("clients", qps, 320, "get", "memcached")
    };
    Ok(single_tier(common, svc, inst, "get", visit, client))
}

// ====================================================================
// Social network (Figs. 11, 12b) and its full action mix
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

/// The social network's read-post flow (Fig. 11): a Thrift frontend
/// queries the User and Post services in parallel, synchronizes their
/// replies, extracts media via the Media service, and responds. Each
/// backend service fronts its own memcached. Instances: `"frontend"`,
/// `"user"`, `"post"`, `"media"`, `"user_mc"`, `"post_mc"`, `"media_mc"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn social_network(cfg: &SocialNetworkConfig) -> SimResult<ScenarioConfig> {
    Ok(social(cfg, None))
}

/// The social network with the paper's full action set (§IV-D: "users can
/// follow each other, post messages, reply publicly or privately to
/// another user, and browse information about a given user"): four request
/// types share one deployment, with the post service backed by MongoDB +
/// disk for cache misses and writes.
///
/// Instances: those of [`social_network`] plus `"mongod"` and `"disk"`.
/// Request types (resolvable by name): `"read_post"`, `"read_post_miss"`,
/// `"compose_post"`, `"browse_user"`.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn social_network_full(cfg: &SocialNetworkFullConfig) -> SimResult<ScenarioConfig> {
    let base = SocialNetworkConfig {
        arrivals: cfg.arrivals.clone(),
        frontend_threads: cfg.frontend_threads,
        frontend_cores: cfg.frontend_cores,
        connections: cfg.connections,
        pool_size: cfg.pool_size,
        common: cfg.common.clone(),
    };
    Ok(social(&base, Some((cfg.mix, cfg.disk_read_s))))
}

/// Both social networks: the read-post deployment and, with `full` (the
/// mix and the mean disk read, seconds), the database tier and the three
/// further request types.
///
/// Every call is a synchronous Thrift RPC: the calling node holds its
/// worker thread (`block_thread_until`) until its continuation node, pinned
/// to that thread, has the reply.
fn social(cfg: &SocialNetworkConfig, full: Option<(SocialMix, f64)>) -> ScenarioConfig {
    let front = thrift::service_model("frontend", 30e-6, 18e-6);
    let user = thrift::service_model("user_service", 20e-6, 12e-6);
    let post = thrift::service_model("post_service", 22e-6, 12e-6);
    let media = thrift::service_model("media_service", 24e-6, 12e-6);
    let mc = memcached::service_model();
    let (handle, compose) = (thrift::paths::HANDLE, thrift::paths::COMPOSE);
    let (mc_read, mc_write) = (memcached::paths::READ, memcached::paths::WRITE);
    let reply_of = |n: &str| LinkConfig::Reply { of: n.into() };

    // `F1`: the frontend receives the request, issues `calls` in parallel
    // and waits for node `until`.
    let f1 = |calls: &[&str], until: &str| {
        let (inst, calls) = (fixed("frontend"), calls.iter().copied());
        blocking(node("F1", &front, inst, handle, Request, calls), until)
    };
    // A frontend continuation on `F1`'s thread.
    let resume = |name: &str, link: LinkConfig, next: &str| {
        pinned(
            node(name, &front, same_as("F1"), compose, link, [next]),
            "F1",
        )
    };
    // A call into backend tier `p`, which fronts its own memcached:
    // handler `{p}1`, cache access `cache`, continuation `{p}2` replying
    // to `join`.
    let cached = |p: &str, svc: &ServiceModel, inst: &str, cache: &str, op: usize, join: &str| {
        let (h, c) = (format!("{p}1"), format!("{p}2"));
        [
            blocking(node(&h, svc, fixed(inst), handle, Request, [cache]), &c),
            node(
                cache,
                &mc,
                fixed(format!("{inst}_mc")),
                op,
                Request,
                [c.as_str()],
            ),
            pinned(
                node(&c, svc, same_as(&h), compose, ReplyToParent, [join]),
                &h,
            ),
        ]
    };
    // How both read flows end. `J1` joins the replies of the user (via
    // `U2`) and post (via `P2`) subtrees — each copy travels back on the
    // connection that entered that subtree's first node — then calls the
    // media tier; `J2` receives its reply on the connection that entered
    // `M1` and responds.
    let join_media_respond = || {
        let via = |from: &str, entry: &str| (Name::from(from), Name::from(entry));
        let entries = vec![via("U2", "U1"), via("P2", "P1")];
        let j1 = resume("J1", LinkConfig::ReplyVia { entries }, "M1");
        let mut nodes = vec![blocking(j1, "J2")];
        nodes.extend(cached("M", &media, "media", "MM", mc_read, "J2"));
        nodes.push(resume("J2", reply_of("M1"), "client_sink"));
        nodes.push(PathNodeConfig::client_sink("F1"));
        nodes
    };
    // A flow of one backend call, after which `J` responds.
    let one_call = |call: [PathNodeConfig; 3]| {
        let callee = call[0].name.clone();
        let mut nodes = vec![f1(&[&callee], "J")];
        nodes.extend(call);
        nodes.push(resume("J", reply_of(&callee), "client_sink"));
        nodes.push(PathNodeConfig::client_sink("F1"));
        nodes
    };

    let mut read = vec![f1(&["U1", "P1"], "J1")];
    read.extend(cached("U", &user, "user", "UM", mc_read, "J1"));
    read.extend(cached("P", &post, "post", "PM", mc_read, "J1"));
    read.extend(join_media_respond());
    let mut request_types = vec![request_type("read_post", read)];
    let mut mix = vec![("read_post", 1.0)];

    let mut instances = vec![instance(
        "frontend",
        &front,
        "frontend-host",
        cfg.frontend_cores,
        threads(cfg.frontend_threads),
    )];
    let backends = [("user", &user), ("post", &post), ("media", &media)];
    for (name, svc) in backends {
        instances.push(instance(name, svc, "backend-host", 2, threads(8)));
    }
    for (name, _) in backends {
        let cache = format!("{name}_mc");
        instances.push(instance(cache, &mc, "backend-host", 1, threads(1)));
    }
    let mut pools: Vec<PoolConfig> = backends
        .iter()
        .map(|(name, _)| pool("frontend", *name, cfg.pool_size))
        .collect();
    for (name, _) in backends {
        pools.push(pool(name, format!("{name}_mc"), cfg.pool_size));
    }
    let mut backend_cores = 9;
    let mut db_tier = Vec::new();

    if let Some((weights, disk_read_s)) = full {
        let (mongo, disk) = (mongodb::service_model(), mongodb::disk_model(disk_read_s));
        let request = |name: &str, svc: &ServiceModel, inst: &str, path: usize, next: &str| {
            node(name, svc, fixed(inst), path, Request, [next])
        };
        let on_p1 = |name: &str, link: LinkConfig, next: &str| {
            pinned(
                node(name, &post, same_as("P1"), compose, link, [next]),
                "P1",
            )
        };
        // Post cache miss: the post worker resumes on the miss reply
        // (`Pq`) and queries MongoDB, which reads the disk. The worker
        // blocks twice — for the cache reply, then for the database reply
        // (the thread is held across the disk read, exactly what a
        // synchronous Thrift handler does).
        let mut miss = vec![f1(&["U1", "P1"], "J1")];
        miss.extend(cached("U", &user, "user", "UM", mc_read, "J1"));
        miss.extend([
            blocking(request("P1", &post, "post", handle, "PM_miss"), "Pq"),
            request("PM_miss", &mc, "post_mc", mc_read, "Pq"),
            blocking(on_p1("Pq", ReplyToParent, "G1"), "P2"),
            request("G1", &mongo, "mongod", mongodb::paths::QUERY, "D"),
            request("D", &disk, "disk", mongodb::disk_paths::READ, "G2"),
            node(
                "G2",
                &mongo,
                same_as("G1"),
                mongodb::paths::RESPOND,
                ReplyToParent,
                ["P2"],
            ),
            on_p1("P2", reply_of("G1"), "J1"),
        ]);
        miss.extend(join_media_respond());
        let write = one_call(cached("P", &post, "post", "PW", mc_write, "J"));
        let browse = one_call(cached("U", &user, "user", "UM", mc_read, "J"));
        request_types.extend([
            request_type("read_post_miss", miss),
            request_type("compose_post", write),
            request_type("browse_user", browse),
        ]);
        mix = vec![
            ("read_post", weights.read),
            ("read_post_miss", weights.read_miss),
            ("compose_post", weights.compose),
            ("browse_user", weights.browse),
        ];
        instances.extend([
            instance("mongod", &mongo, "backend-host", 2, ExecConfig::Simple),
            instance("disk", &disk, "backend-host", 2, ExecConfig::Simple),
        ]);
        pools.push(pool("post", "mongod", cfg.pool_size));
        backend_cores = 13;
        db_tier = vec![mongo, disk];
    }
    let mut services = vec![front, user, post, media, mc];
    services.extend(db_tier);
    cfg.common.scenario(
        vec![
            MachineSpec::xeon("frontend-host", cfg.frontend_cores + 4),
            MachineSpec::xeon("backend-host", backend_cores + 4),
        ],
        services,
        instances,
        pools,
        request_types,
        vec![client(
            "clients",
            cfg.connections,
            &cfg.arrivals,
            &mix,
            "frontend",
            Distribution::exponential(256.0),
        )],
    )
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

/// The tail-at-scale cluster: a negligible-cost dispatcher fans each
/// request to every leaf (single-stage, exponential service) and the
/// response returns when the last leaf answers. A `slow_fraction` of leaves
/// runs `slowdown`× slower. Instances: `"dispatcher"`, `"leaf{i}"`.
///
/// Network processing is disabled (passthrough) so the measured effect is
/// purely the fanout tail, as in §V-A's one-stage queueing setup.
///
/// # Errors
///
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
pub fn tail_at_scale(cfg: &TailAtScaleConfig) -> SimResult<ScenarioConfig> {
    let n = cfg.cluster_size;
    let machine = |name: &str, cores: usize| MachineSpec {
        network: NetworkSpec::passthrough(20e-6),
        ..MachineSpec::xeon(name, cores)
    };
    let dispatcher = single_stage(
        "dispatcher",
        "dispatch",
        "dispatch",
        Distribution::constant(1e-6),
    );
    let leaf_model = |name: &str, mean: f64| {
        single_stage(name, "serve", "serve", Distribution::exponential(mean))
    };
    let fast = leaf_model("leaf", cfg.mean_service_s);
    let slow = leaf_model("slow_leaf", cfg.mean_service_s * cfg.slowdown);
    let n_slow = (cfg.slow_fraction * n as f64).round() as usize;
    let leaves: Vec<(String, &ServiceModel)> = (0..n)
        .map(|k| (format!("leaf{k}"), if k < n_slow { &slow } else { &fast }))
        .collect();

    let mut instances = vec![instance(
        "dispatcher",
        &dispatcher,
        "dispatcher-host",
        4,
        ExecConfig::Simple,
    )];
    let mut nodes = vec![node(
        "dispatch",
        &dispatcher,
        fixed("dispatcher"),
        0,
        Request,
        leaves.iter().map(|(leaf, _)| leaf),
    )];
    for (leaf, svc) in &leaves {
        instances.push(instance(leaf, svc, "leaf-host", 1, ExecConfig::Simple));
        nodes.push(node(leaf, svc, fixed(leaf), 0, Request, ["join"]));
    }
    nodes.push(node(
        "join",
        &dispatcher,
        same_as("dispatch"),
        0,
        ReplyToParent,
        ["client_sink"],
    ));
    nodes.push(PathNodeConfig::client_sink("dispatch"));
    drop(leaves);
    Ok(cfg.common.scenario(
        vec![machine("dispatcher-host", 4), machine("leaf-host", n)],
        vec![dispatcher, fast, slow],
        instances,
        Vec::new(),
        vec![request_type("fanout", nodes)],
        vec![ClientConfig {
            request_size: Distribution::constant(64.0),
            ..ClientConfig::open_loop("clients", cfg.qps, 4096, "fanout", "dispatcher")
        }],
    ))
}

// ====================================================================
// Pod cluster: N independent 2-tier pods (partitioned-execution fodder)
// ====================================================================

/// A cluster of `pods` independent two-machine pods, the scenario behind
/// the partitioned engine's tests
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
/// None at present: dangling names and invalid sizes are reported by
/// [`ScenarioConfig::build`].
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
    let machine = |name: String| MachineSpec {
        name: name.into(),
        cores: 2,
        dvfs: DvfsSpec::fixed(2.6),
        network: NetworkSpec {
            irq_cores: 1,
            rx_time: Distribution::exponential(16.6e-6),
            ..NetworkSpec::passthrough(20e-6)
        },
        power: Default::default(),
    };
    let service = |name: &str, mean_s: f64| {
        single_stage(
            name,
            "handler",
            "default",
            Distribution::exponential(mean_s),
        )
    };
    let (front, store) = (service("front", 60e-6), service("store", 40e-6));
    let (mut machines, mut instances, mut pools) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request_types, mut clients) = (Vec::new(), Vec::new());
    for i in 0..pods.max(1) {
        let (fe, be) = (format!("p{i}-front"), format!("p{i}-store"));
        machines.extend([machine(format!("p{i}-fe")), machine(format!("p{i}-be"))]);
        instances.extend([
            instance(&fe, &front, &format!("p{i}-fe"), 1, ExecConfig::Simple),
            instance(&be, &store, &format!("p{i}-be"), 1, ExecConfig::Simple),
        ]);
        pools.push(pool(&fe, &be, 8));
        let nodes = vec![
            node("recv", &front, fixed(&fe), 0, Request, ["fetch"]),
            node("fetch", &store, fixed(&be), 0, Request, ["respond"]),
            node(
                "respond",
                &front,
                same_as("recv"),
                0,
                ReplyToParent,
                ["sink"],
            ),
            PathNodeConfig {
                name: "sink".into(),
                ..PathNodeConfig::client_sink("recv")
            },
        ];
        let ty = format!("get{i}");
        request_types.push(request_type(&ty, nodes));
        clients.push(ClientConfig::open_loop(
            format!("wrk{i}"),
            qps_per_pod,
            32,
            ty,
            fe,
        ));
    }
    let common = CommonOpts {
        seed: 42,
        warmup: SimDuration::from_millis(100),
        noise: None,
    };
    Ok(common.scenario(
        machines,
        vec![front, store],
        instances,
        pools,
        request_types,
        clients,
    ))
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use uqsim_core::metrics::LatencySummary;
    use uqsim_core::time::SimDuration;
    use uqsim_core::trace::TraceEvent;
    use uqsim_core::Simulator;

    fn quick(cfg: SimResult<ScenarioConfig>, secs: u64) -> Simulator {
        let mut sim = cfg.unwrap().build().unwrap();
        sim.run_for(SimDuration::from_secs(secs));
        sim
    }

    /// [`quick`] with the span log on, and the measured end-to-end latency
    /// of each request type read off it, by type name.
    fn quick_by_type(
        cfg: SimResult<ScenarioConfig>,
        secs: u64,
    ) -> (Simulator, HashMap<Name, LatencySummary>) {
        let mut sim = cfg.unwrap().build().unwrap();
        sim.enable_span_tracing(4_000_000);
        sim.run_for(SimDuration::from_secs(secs));
        let log = sim.span_log().unwrap();
        assert_eq!(log.dropped(), 0, "the span log holds the whole run");
        let meta = sim.trace_meta();
        let mut emitted = HashMap::new();
        let mut samples = vec![Vec::new(); meta.request_types.len()];
        for ev in log.events() {
            match *ev {
                TraceEvent::RequestEmitted { request, t, .. } => {
                    emitted.insert(request, t);
                }
                TraceEvent::RequestCompleted {
                    request,
                    request_type,
                    measured,
                    t,
                    ..
                } => {
                    let submitted = emitted.remove(&request).expect("emitted first");
                    if measured {
                        samples[request_type.index()].push((t - submitted).as_secs_f64());
                    }
                }
                _ => {}
            }
        }
        let by_type = meta
            .request_types
            .iter()
            .zip(&samples)
            .map(|(ty, s)| (ty.name.clone(), LatencySummary::from_samples(s)))
            .collect();
        (sim, by_type)
    }

    #[test]
    fn two_tier_runs_and_completes() {
        let sim = quick(two_tier(&TwoTierConfig::at_qps(10_000.0)), 3);
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
        let ok = quick(two_tier(&TwoTierConfig::at_qps(60_000.0)), 4);
        let tput_ok = ok.completed() as f64 / ok.now().as_secs_f64();
        assert!(tput_ok > 0.95 * 60_000.0, "tput {tput_ok}");
        let over = quick(two_tier(&TwoTierConfig::at_qps(90_000.0)), 4);
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
        let sim = quick(three_tier(&cfg), 4);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 3_000.0).abs() / 3_000.0 < 0.06, "tput {tput}");
        // Disk utilization dwarfs nginx utilization at this load.
        let disk = sim.instance_by_name("disk").unwrap();
        let ng = sim.instance_by_name("nginx").unwrap();
        let util = |i| sim.instance_utilization(i);
        assert!(util(disk) > 3.0 * util(ng));
    }

    #[test]
    fn load_balanced_scales() {
        let s4 = quick(load_balanced(&LoadBalancedConfig::new(4, 30_000.0)), 3);
        let t4 = s4.completed() as f64 / s4.now().as_secs_f64();
        assert!(t4 > 0.95 * 30_000.0, "4-way at 30k: {t4}");
        let s8 = quick(load_balanced(&LoadBalancedConfig::new(8, 60_000.0)), 3);
        let t8 = s8.completed() as f64 / s8.now().as_secs_f64();
        assert!(t8 > 0.95 * 60_000.0, "8-way at 60k: {t8}");
    }

    #[test]
    fn fanout_waits_for_all_leaves() {
        let sim = quick(fanout(&FanoutConfig::new(8, 3_000.0)), 3);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 3_000.0).abs() / 3_000.0 < 0.06, "tput {tput}");
        // p99 of max-of-8 must exceed the single-leaf p50 substantially.
        let s = sim.latency_summary();
        assert!(s.p99 > 1.5 * s.p50);
    }

    #[test]
    fn thrift_hello_low_load_under_100us() {
        let sim = quick(thrift_hello(&ThriftHelloConfig::at_qps(5_000.0)), 3);
        let s = sim.latency_summary();
        assert!(s.mean < 150e-6, "mean {}us", s.mean * 1e6);
        assert!(s.p50 < 100e-6, "p50 {}us", s.p50 * 1e6);
    }

    #[test]
    fn thrift_hello_saturates_past_50k() {
        let ok = quick(thrift_hello(&ThriftHelloConfig::at_qps(45_000.0)), 3);
        let t = ok.completed() as f64 / ok.now().as_secs_f64();
        assert!(t > 0.95 * 45_000.0, "tput {t}");
        let over = quick(thrift_hello(&ThriftHelloConfig::at_qps(70_000.0)), 3);
        let t_over = over.completed() as f64 / over.now().as_secs_f64();
        assert!(t_over < 60_000.0, "overload tput {t_over}");
    }

    #[test]
    fn social_network_completes_and_blocks_threads() {
        let sim = quick(social_network(&SocialNetworkConfig::at_qps(5_000.0)), 3);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 5_000.0).abs() / 5_000.0 < 0.06, "tput {tput}");
        // Two sequential synchronous phases: latency well above a single
        // backend round trip.
        assert!(sim.latency_summary().p50 > 200e-6);
    }

    #[test]
    fn three_tier_hit_and_miss_types_diverge() {
        let cfg = ThreeTierConfig::at_qps(2_500.0);
        let (_, by_type) = quick_by_type(three_tier(&cfg), 4);
        let (hit_s, miss_s) = (&by_type["get_hit"], &by_type["get_miss"]);
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
        let (sim, by_type) = quick_by_type(social_network_full(&cfg), 4);
        let tput = sim.completed() as f64 / sim.now().as_secs_f64();
        assert!((tput - 4_000.0).abs() / 4_000.0 < 0.06, "tput {tput}");
        // Cache misses pay the disk read: their tail dwarfs the hit path's.
        let (hit_s, miss_s) = (&by_type["read_post"], &by_type["read_post_miss"]);
        assert!(hit_s.count > 1_000 && miss_s.count > 200);
        assert!(
            miss_s.p50 > hit_s.p50 + 2e-3,
            "miss p50 {} must include a disk read over hit p50 {}",
            miss_s.p50,
            hit_s.p50
        );
        // Browses are the cheapest flow (single backend).
        assert!(by_type["browse_user"].p50 < hit_s.p50);
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
            let sim = quick(social_network_full(&cfg), 2);
            (sim.completed(), format!("{:?}", sim.latency_summary()))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn tail_at_scale_slow_leaves_dominate() {
        let clean = quick(tail_at_scale(&TailAtScaleConfig::new(50, 0.0, 60.0)), 8);
        let slow = quick(tail_at_scale(&TailAtScaleConfig::new(50, 0.02, 60.0)), 8);
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
        let n = quick(single_nginx(5_000.0, &CommonOpts::default()), 2);
        assert!(n.completed() > 4_000);
        let m = quick(single_memcached(20_000.0, 4, &CommonOpts::default()), 2);
        assert!(m.completed() > 15_000);
    }

    #[test]
    fn noise_makes_tail_worse() {
        let mut noisy_cfg = TwoTierConfig::at_qps(20_000.0);
        noisy_cfg.common.noise = Some(crate::noise::NoiseProfile::default());
        let clean = quick(two_tier(&TwoTierConfig::at_qps(20_000.0)), 3);
        let noisy = quick(two_tier(&noisy_cfg), 3);
        assert!(noisy.latency_summary().p99 > clean.latency_summary().p99);
    }
}
