//! An in-process loopback cluster: `n` real TCP nodes, one thread each.
//!
//! This is the harness the integration tests and the differential gate
//! drive. It is *not* a simulator — every byte goes through the kernel's
//! loopback TCP stack, with real reader/writer threads, real handshakes,
//! and the full MAC/replay machinery. Port assignment is race-free: all
//! `n` listeners are bound on ephemeral ports **before** any node
//! starts, so the full address vector is known up front (the
//! multi-process `treeaa cluster` launcher replays the same idea over
//! stdin/stdout).

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use aa_trace::{merge_traces, Trace};
use sim_net::{FaultPlan, Outcome};
use tree_model::VertexId;

use crate::chaos::{spawn_chaos_proxy, ChaosConfig};
use crate::gate::GateCase;
use crate::node::{
    run_node_durable, Durability, NetStats, NodeConfig, NodeReport, ReconnectPolicy,
};

/// What a loopback cluster run produced.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Per-party outcomes.
    pub outcomes: Vec<Outcome<VertexId>>,
    /// All nodes' traces merged into one canonical trace (see
    /// [`aa_trace::merge_traces`]).
    pub merged_trace: Trace,
    /// Per-node transport counters.
    pub stats: Vec<NetStats>,
    /// Per-node final virtual times.
    pub vtimes: Vec<f64>,
}

/// Builds the `NodeConfig` for party `me` of `case` — shared between
/// the thread cluster here and the `treeaa serve` process entry point.
#[must_use]
pub fn node_config(case: &GateCase, me: usize, peers: Vec<SocketAddr>, secret: u64) -> NodeConfig {
    let mut cfg = NodeConfig::new(
        me,
        case.n(),
        case.t,
        peers,
        secret,
        case.config_fp(),
        case.seed,
    );
    cfg.min_delay = case.min_delay;
    cfg.label = case.label.clone();
    cfg
}

/// Chaos injection for a loopback cluster run: one [`crate::chaos`]
/// proxy is spawned in front of every node's listener, all driven by
/// the same plan.
#[derive(Clone, Debug)]
pub struct ClusterChaos {
    /// The fault script (use an eventually-connected plan when the run
    /// is expected to terminate).
    pub plan: FaultPlan,
    /// Wall-clock milliseconds per plan round.
    pub round_ms: u64,
}

/// The settings of [`run_local_cluster`].
#[derive(Clone, Debug)]
pub struct ClusterOpts {
    /// Shared cluster secret.
    pub secret: u64,
    /// Reconnect policy override (defaults to the transport default;
    /// chaos and recovery runs want [`ReconnectPolicy::patient`]).
    pub reconnect: Option<ReconnectPolicy>,
    /// Wall-clock cap override.
    pub wall_timeout: Option<Duration>,
    /// Attach a WAL per node (`node{i}.wal` inside this directory).
    pub wal_dir: Option<PathBuf>,
    /// Parties that replay their existing WAL instead of starting
    /// fresh (only meaningful with `wal_dir`).
    pub recover: Vec<usize>,
    /// Front every node with a fault-injecting relay.
    pub chaos: Option<ClusterChaos>,
}

impl ClusterOpts {
    /// Plain options: just the secret, everything else default.
    #[must_use]
    pub fn new(secret: u64) -> Self {
        ClusterOpts {
            secret,
            reconnect: None,
            wall_timeout: None,
            wal_dir: None,
            recover: Vec::new(),
            chaos: None,
        }
    }
}

/// Runs `case` as `n` threads over real loopback sockets and merges the
/// results, with the durability, recovery and chaos settings of `opts`
/// (`ClusterOpts::new(secret)` for a plain run).
///
/// # Errors
///
/// The first node failure (handshake, timeout, stall, recovery) or
/// trace-merge inconsistency, as text.
///
/// # Panics
///
/// Panics if a chaos proxy cannot be bound on loopback.
pub fn run_local_cluster(case: &GateCase, opts: &ClusterOpts) -> Result<ClusterReport, String> {
    let n = case.n();
    case.protocol_config()?;
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let real_addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    // With chaos on, peers dial each node through its personal relay.
    let mut proxies = Vec::new();
    let peers: Vec<SocketAddr> = if let Some(chaos) = &opts.chaos {
        let mut dial = Vec::with_capacity(n);
        for (i, &addr) in real_addrs.iter().enumerate() {
            let proxy = spawn_chaos_proxy(
                addr,
                ChaosConfig {
                    plan: chaos.plan.clone(),
                    node: i,
                    round_ms: chaos.round_ms,
                },
            )
            .expect("bind chaos proxy");
            dial.push(proxy.addr);
            proxies.push(proxy);
        }
        dial
    } else {
        real_addrs
    };

    let mut handles = Vec::with_capacity(n);
    for (me, listener) in listeners.into_iter().enumerate() {
        let mut cfg = node_config(case, me, peers.clone(), opts.secret);
        if let Some(policy) = opts.reconnect {
            cfg.reconnect = policy;
        }
        if let Some(cap) = opts.wall_timeout {
            cfg.wall_timeout = cap;
        }
        let durability = opts.wal_dir.as_ref().map(|dir| Durability {
            wal_path: dir.join(format!("node{me}.wal")),
            recover: opts.recover.contains(&me),
        });
        let party = case.party(me);
        handles.push(thread::spawn(move || {
            run_node_durable(
                &cfg,
                listener,
                party,
                durability.as_ref(),
                |p| p.state_fingerprint(),
                || {},
            )
        }));
    }

    let mut reports: Vec<NodeReport<Outcome<VertexId>>> = Vec::with_capacity(n);
    let mut errors = Vec::new();
    for (me, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => errors.push(format!("node {me}: {e}")),
            Err(_) => errors.push(format!("node {me}: panicked")),
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    let outcomes = reports
        .iter()
        .enumerate()
        .map(|(me, r)| r.output.clone().ok_or(me))
        .collect::<Result<Vec<_>, usize>>()
        .map_err(|me| format!("node {me} terminated without an output"))?;
    let traces: Vec<Trace> = reports.iter().map(|r| r.trace.clone()).collect();
    let merged_trace = merge_traces(&traces)?;
    Ok(ClusterReport {
        outcomes,
        merged_trace,
        stats: reports.iter().map(|r| r.stats).collect(),
        vtimes: reports.iter().map(|r| r.vtime).collect(),
    })
}
