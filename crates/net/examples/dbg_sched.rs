//! Debug harness: runs one loopback cluster and dumps stats.
use net::{run_local_cluster, ClusterOpts, GateCase};

const SPIDER9: &str =
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\nvertex 7\nvertex 8\n\
edge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 0 6\nedge 6 7\nedge 7 8\n";

fn main() {
    let seed: u64 = std::env::args().nth(1).unwrap().parse().unwrap();
    let secret: u64 = std::env::args().nth(2).unwrap().parse().unwrap();
    let picks = [
        (seed % 9) as usize,
        (seed * 3 + 1) as usize % 9,
        (seed * 5 + 4) as usize % 9,
        (seed * 7 + 2) as usize % 9,
    ];
    let case = GateCase::from_text(SPIDER9, &picks, 1, seed).expect("valid case");
    let r = run_local_cluster(&case, &ClusterOpts::new(secret)).expect("cluster");
    println!("vtimes {:?}", r.vtimes);
    println!("outcomes {:?}", r.outcomes);
    for (i, s) in r.stats.iter().enumerate() {
        println!(
            "node {i}: retx={} rej_mac={} rej_replay={} rej_malformed={} reconnects={} send_drops={} dead={}",
            s.retransmissions, s.rejected_mac, s.rejected_replay, s.rejected_malformed,
            s.reconnects, s.send_drops, s.dead_peers
        );
    }
}
