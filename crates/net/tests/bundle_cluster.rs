//! `Reliable<BundledAaParty>` over real loopback TCP: the bundled
//! many-instance AA party runs unchanged behind the async party traits,
//! and every node's per-instance outputs match the in-process
//! synchronous engine exactly.

use std::net::TcpListener;
use std::thread;

use async_net::Reliable;
use net::{run_node_durable, NodeConfig};
use real_aa::{BundledAaParty, RealAaConfig};
use sim_net::{run_simulation, PartyId, Passive, SimConfig};

const N: usize = 4;
const T: usize = 1;
const K: usize = 3;

fn inputs_for(me: usize) -> Vec<f64> {
    // Distinct geometry per instance so agreement is non-trivial.
    (0..K)
        .map(|j| (me as f64) * 2.0 + (j as f64) * 0.71)
        .collect()
}

fn aa_config() -> RealAaConfig {
    RealAaConfig::new(N, T, 0.5, 8.0).expect("valid config")
}

fn sync_reference() -> Vec<Vec<f64>> {
    let cfg = aa_config();
    let report = run_simulation(
        SimConfig {
            n: N,
            t: T,
            max_rounds: 500,
        },
        |id, _n| BundledAaParty::new(id, cfg, inputs_for(id.index())).expect("k >= 1"),
        Passive,
    )
    .expect("reference simulation");
    report.honest_outputs()
}

#[test]
fn bundled_party_runs_over_real_sockets() {
    let cfg = aa_config();
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let peers: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();

    let mut handles = Vec::with_capacity(N);
    for (me, listener) in listeners.into_iter().enumerate() {
        let mut node_cfg = NodeConfig::new(me, N, T, peers.clone(), 0xb0bb_1e00, 0x5eed, 7);
        node_cfg.label = "bundle-loopback".into();
        let party = Reliable::new(
            BundledAaParty::new(PartyId(me), cfg, inputs_for(me)).expect("k >= 1"),
            N,
        );
        handles.push(thread::spawn(move || {
            run_node_durable(&node_cfg, listener, party, None, |_| 0, || {})
        }));
    }

    let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(N);
    for (me, h) in handles.into_iter().enumerate() {
        let report = h
            .join()
            .unwrap_or_else(|_| panic!("node {me} panicked"))
            .unwrap_or_else(|e| panic!("node {me} failed: {e}"));
        assert_eq!(report.stats.rejected_malformed, 0, "node {me}");
        assert_eq!(report.stats.rejected_mac, 0, "node {me}");
        outputs.push(
            report
                .output
                .unwrap_or_else(|| panic!("node {me} had no output")),
        );
    }

    // Per-instance ε-agreement and validity over real sockets.
    for j in 0..K {
        let vals: Vec<f64> = outputs.iter().map(|o| o[j]).collect();
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(hi - lo <= 0.5, "instance {j}: spread {} too wide", hi - lo);
        let in_lo = (0..N).map(|m| inputs_for(m)[j]).fold(f64::MAX, f64::min);
        let in_hi = (0..N).map(|m| inputs_for(m)[j]).fold(f64::MIN, f64::max);
        assert!(
            vals.iter().all(|v| (in_lo..=in_hi).contains(v)),
            "instance {j}: output left the input hull"
        );
    }

    // The networked run is not just correct — it is the same run: the
    // codec, framing, and virtual-time loop reproduce the in-process
    // synchronous engine's outputs bit for bit.
    assert_eq!(outputs, sync_reference());
}
