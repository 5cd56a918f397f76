//! The in-process workload, the paper's `TreeAA` on the `sim-net` engine,
//! and the in-process reference that the TCP workloads' bundled RealAA
//! outputs are checked against.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::Rng;
use real_aa::{RealAaBatchParty, RealAaConfig};
use sim_net::{run_simulation, PartyId, Passive, RunReport, SimConfig};
use tree_aa::{check_tree_aa, EngineKind, InnerAa, TreeAaConfig, TreeAaParty};
use tree_model::{
    generate, list_construction, EulerList, ProjectionTable, Tree, TreePath, VertexId,
};

use crate::report::Partition;
use crate::shim::{Probe, Slot, Stepped};
use crate::{rng, Digest, Layers, Run, Workload};

/// `treeaa-sim`: n = 31, t = 10, a random Prüfer tree on 512 vertices,
/// fresh input vertices for every agreement.
pub struct TreeAaSim {
    seed: u64,
    tree: Arc<Tree>,
    vertices: Vec<VertexId>,
    list: EulerList,
    cfg: TreeAaConfig,
    tamper: bool,
}

const TREE_N: usize = 31;
const TREE_T: usize = 10;
const TREE_VERTICES: usize = 512;

impl TreeAaSim {
    pub fn new(seed: u64) -> Result<Self, String> {
        let tree = generate::random_prufer(TREE_VERTICES, &mut rng(seed, 0, 0));
        let cfg = TreeAaConfig::new(TREE_N, TREE_T, EngineKind::Gradecast, &tree)?;
        Ok(TreeAaSim {
            seed,
            vertices: tree.vertices().collect(),
            list: list_construction(&tree),
            tree: Arc::new(tree),
            cfg,
            tamper: false,
        })
    }

    fn inputs(&self, i: u64) -> Vec<VertexId> {
        let mut r = rng(self.seed, 1, i);
        (0..TREE_N)
            .map(|_| self.vertices[r.gen_range(0..self.vertices.len())])
            .collect()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            n: TREE_N,
            t: TREE_T,
            max_rounds: self.cfg.total_rounds() + 4,
        }
    }

    /// Re-times the local work of every party's phase boundary on the path
    /// it found: the path from the root and its projection table.
    fn replay_projection(&self, paths: &[TreePath]) -> f64 {
        let start = Instant::now();
        for path in paths {
            let (root, end) = path.endpoints();
            let p = self.tree.path(root, end);
            std::hint::black_box(ProjectionTable::new(&self.tree, std::hint::black_box(&p)));
        }
        start.elapsed().as_secs_f64()
    }

    /// Re-times the RealAA engine constructor inside `TreeAaParty::new`.
    fn replay_engine_new(&self, inputs: &[VertexId]) -> f64 {
        let start = Instant::now();
        for (me, &v) in inputs.iter().enumerate() {
            std::hint::black_box(InnerAa::new(
                self.cfg.engine,
                PartyId(me),
                self.cfg.n,
                self.cfg.t,
                1.0,
                (self.cfg.list_len - 1) as f64,
                self.list.first_occurrence(v) as f64,
            ));
        }
        start.elapsed().as_secs_f64()
    }

    fn finish(&self, inputs: &[VertexId], report: RunReport<VertexId>, wall_s: f64) -> Run {
        let mut outputs = report.honest_outputs();
        let mut digest = Digest::new();
        for v in &outputs {
            digest.add(v.index() as u64);
        }
        let msgs = report.metrics.total_messages() as u64;
        let bytes = report.metrics.total_bytes() as u64;
        let rounds = u64::from(report.communication_rounds());
        digest.add(msgs);
        digest.add(bytes);
        digest.add(rounds);
        if self.tamper {
            // Move one output two edges away from another one.
            let far = self
                .vertices
                .iter()
                .copied()
                .find(|&v| self.tree.distance(v, outputs[1]) > 1)
                .expect("a 512-vertex tree has a vertex two edges away");
            outputs[0] = far;
        }
        let ok = outputs.len() == TREE_N && check_tree_aa(&self.tree, inputs, &outputs).is_ok();
        Run {
            wall_s,
            agreements: 1,
            ok,
            rounds,
            msgs,
            bytes,
            digest: digest.finish(),
        }
    }
}

impl Workload for TreeAaSim {
    fn run(&mut self, i: u64, layers: Option<&mut Layers>) -> Result<Run, String> {
        let inputs = self.inputs(i);
        let sim = self.sim_config();
        let Some(layers) = layers else {
            let start = Instant::now();
            let report = run_simulation(
                sim,
                |id, _| {
                    TreeAaParty::new(id, self.cfg.clone(), self.tree.clone(), inputs[id.index()])
                },
                Passive,
            )
            .map_err(|e| format!("treeaa run {i}: {e}"))?;
            let wall = start.elapsed().as_secs_f64();
            return Ok(self.finish(&inputs, report, wall));
        };

        let probe = Probe::new();
        let paths = Arc::new(Mutex::new(Vec::new()));
        let boundary = self.cfg.phase1_rounds() + 1;
        let start = Instant::now();
        let report = run_simulation(
            sim,
            |id, _| {
                let made = Instant::now();
                let party =
                    TreeAaParty::new(id, self.cfg.clone(), self.tree.clone(), inputs[id.index()]);
                probe.add(&[Slot::PartyNew], made);
                let paths = paths.clone();
                Stepped::new(
                    party,
                    probe.clone(),
                    self.cfg.phase1_rounds(),
                    move |p: &TreeAaParty, round| {
                        if round == boundary {
                            if let Some(path) = p.found_path() {
                                paths
                                    .lock()
                                    .expect("no party step panicked")
                                    .push(path.clone());
                            }
                        }
                    },
                )
            },
            Passive,
        )
        .map_err(|e| format!("treeaa run {i}: {e}"))?;
        let wall = start.elapsed().as_secs_f64();
        let run = self.finish(&inputs, report, wall);

        let paths = paths.lock().expect("no party step panicked").clone();
        if paths.len() != TREE_N {
            return Err(format!(
                "treeaa run {i}: {} of {TREE_N} parties found a path",
                paths.len()
            ));
        }
        // The engine's own time (routing, delivery, metrics) is what the
        // party shims do not see: the wall time minus party construction
        // and party steps.
        let factory = probe.secs(Slot::PartyNew);
        let steps = probe.secs(Slot::Update) + probe.secs(Slot::Echo) + probe.secs(Slot::Vote);
        let dispatch = run.wall_s - factory - steps;
        layers.add("bench.wall_s", run.wall_s);
        layers.add("bench.residual_s", dispatch);
        layers.add("sim-net.dispatch_s", dispatch);
        layers.add("sim-net.msgs", run.msgs as f64);
        layers.add("sim-net.bytes", run.bytes as f64);
        layers.add("gradecast.echo_s", probe.secs(Slot::Echo));
        layers.add("gradecast.vote_s", probe.secs(Slot::Vote));
        layers.add("real-aa.update_s", probe.secs(Slot::Update));
        layers.add("tree-aa.party_new_s", factory);
        layers.add("real-aa.party_new_s", self.replay_engine_new(&inputs));
        layers.add("tree-aa.phase1_s", probe.secs(Slot::Phase1));
        layers.add("tree-aa.phase2_s", probe.secs(Slot::Phase2));
        layers.add("tree-model.project_s", self.replay_projection(&paths));
        Ok(run)
    }

    fn set_tamper(&mut self, on: bool) {
        self.tamper = on;
    }

    fn partitions(&self) -> Vec<Partition> {
        vec![Partition {
            whole: "bench.wall_s",
            parts: &SIM_PARTS_TREE,
            lo: 0.0,
            hi: 1.0,
        }]
    }
}

/// Wall time = party construction + party steps by sub-round + the
/// engine's dispatch, the declared residual (never negative: the shims'
/// intervals nest inside the run).
const SIM_PARTS_TREE: [&str; 5] = [
    "tree-aa.party_new_s",
    "real-aa.update_s",
    "gradecast.echo_s",
    "gradecast.vote_s",
    "sim-net.dispatch_s",
];

/// RealAA parameters of every bundle workload: n = 4, t = 1, ε = 0.5,
/// inputs in [0, 8).
pub const BUNDLE_N: usize = 4;
pub const BUNDLE_T: usize = 1;
pub const BUNDLE_D: f64 = 8.0;

pub fn bundle_config() -> RealAaConfig {
    RealAaConfig::new(BUNDLE_N, BUNDLE_T, 0.5, BUNDLE_D).expect("n > 3t, ε > 0")
}

/// One bundle's inputs (`[party][instance]`) and the outputs the
/// in-process reference computed for them.
pub struct Bundle {
    pub inputs: Vec<Vec<f64>>,
    pub expected: Vec<Vec<f64>>,
}

/// `count` seeded bundles of `k` instances each, with their references:
/// every instance run alone on the single-instance batched wire, which the
/// bundled party must reproduce bit for bit.
pub fn bundle_pool(seed: u64, k: usize, count: u64) -> Result<Vec<Bundle>, String> {
    let cfg = bundle_config();
    let sim = SimConfig {
        n: BUNDLE_N,
        t: BUNDLE_T,
        max_rounds: cfg.rounds() + 4,
    };
    (0..count)
        .map(|b| {
            let mut r = rng(seed, 2, b);
            let inputs: Vec<Vec<f64>> = (0..BUNDLE_N)
                .map(|_| (0..k).map(|_| r.gen_range(0.0..BUNDLE_D)).collect())
                .collect();
            let mut expected = vec![Vec::new(); BUNDLE_N];
            // `j` indexes the instance in every party's inputs.
            #[allow(clippy::needless_range_loop)]
            for j in 0..k {
                let solo = run_simulation(
                    sim,
                    |id, _| RealAaBatchParty::new(id, cfg, inputs[id.index()][j]),
                    Passive,
                )
                .map_err(|e| format!("reference run {b}/{j}: {e}"))?;
                for (p, v) in solo.honest_outputs().into_iter().enumerate() {
                    expected[p].push(v);
                }
            }
            Ok(Bundle { inputs, expected })
        })
        .collect()
}

/// Bit identity of every party's every instance against the reference.
pub fn bundle_matches(outputs: &[Vec<f64>], expected: &[Vec<f64>]) -> bool {
    outputs.len() == expected.len()
        && outputs.iter().zip(expected).all(|(o, e)| {
            o.len() == e.len() && o.iter().zip(e).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Flips the lowest mantissa bit of one output: the smallest tamper the
/// bit-identity check must still catch.
pub fn tamper_bundle(outputs: &mut [Vec<f64>]) {
    outputs[0][0] = f64::from_bits(outputs[0][0].to_bits() ^ 1);
}

pub fn bundle_digest(outputs: &[Vec<f64>]) -> Digest {
    let mut digest = Digest::new();
    for v in outputs.iter().flatten() {
        digest.add(v.to_bits());
    }
    digest
}

pub const BUNDLE_K: usize = 1024;
