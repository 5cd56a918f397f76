//! The bounded-DFS driver: stateless exploration by re-execution.
//!
//! Each execution is a **pure function** of `(instance, assignment,
//! script, depth)`: the protocol, adversary, and scheduler are all
//! deterministic, so replaying a script reproduces its run bit for bit —
//! which is what makes counterexamples replayable and reruns
//! fingerprint-identical. The driver walks the schedule tree in
//! depth-first order without keeping it in memory: each run records the
//! branching factor and choice taken at every decision, and the next
//! script is the deepest incrementable prefix (standard stateless
//! backtracking).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async_with, AsyncConfig, AsyncReport, AsyncSimError, DelayModel};
use sim_net::{FaultPlan, Outcome};
use tree_model::{Tree, VertexId};

use crate::lattice::{LatticeAdversary, LatticeAssignment};
use crate::sched::{EnumeratingScheduler, VisitedMap};
use crate::sym::{self, SymmetryGroup};

/// One small instance to check exhaustively.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Number of parties (corrupted parties are the last `t`).
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
    /// The tree the parties agree on.
    pub tree: Arc<Tree>,
    /// Per-party inputs (entries for corrupted parties are ignored —
    /// their behaviour comes from the lattice assignment).
    pub inputs: Vec<VertexId>,
    /// Event budget per execution (guards livelocks).
    pub max_events: usize,
}

impl Instance {
    /// The async protocol configuration for this instance.
    ///
    /// # Panics
    ///
    /// Panics if `n ≤ 3t` (rejected earlier by [`crate::check`]).
    pub fn async_cfg(&self) -> AsyncTreeAaConfig {
        AsyncTreeAaConfig::new(self.n, self.t, &self.tree)
            .expect("instance validated before exploration")
    }
}

/// The outcome of executing one choice script.
pub struct Execution {
    /// The run's report, or why it ended early.
    pub result: Result<AsyncReport<Outcome<VertexId>>, AsyncSimError>,
    /// Awake choices available at each decision point.
    pub branching: Vec<usize>,
    /// Choice taken at each decision point.
    pub taken: Vec<usize>,
    /// The branch was cut because every pending message was asleep.
    pub pruned_by_sleep: bool,
    /// The branch was cut on a state visited at shallower depth.
    pub pruned_by_visited: bool,
    /// Deliveries in order: `(from, to, payload bytes)`.
    pub deliveries: Vec<(usize, usize, usize)>,
}

impl Execution {
    /// Whether this run was cut short by a pruning rule (as opposed to
    /// completing or genuinely deadlocking).
    pub fn pruned(&self) -> bool {
        self.pruned_by_sleep || self.pruned_by_visited
    }
}

/// Executes one script against `instance` under `assignment`.
///
/// `visited` carries state digests across the executions of one
/// exploration; pass a fresh map to replay a script in isolation (e.g.
/// when minimizing or replaying a counterexample).
pub fn execute(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    depth: usize,
    visited: &mut HashMap<u64, (usize, u64)>,
) -> Execution {
    execute_with(instance, assignment, script, depth, visited, None)
}

/// [`execute`] with an explicit visited-map implementation and optional
/// symmetry group: when `sym` is given, visited keys are canonicalized
/// over the group (see [`crate::sched::SymMode`]).
pub fn execute_with(
    instance: &Instance,
    assignment: &LatticeAssignment,
    script: &[usize],
    depth: usize,
    visited: &mut dyn VisitedMap,
    sym: Option<&SymmetryGroup>,
) -> Execution {
    let cfg = AsyncConfig {
        n: instance.n,
        t: instance.t,
        seed: 0,
        delay: DelayModel::Lockstep,
        max_events: instance.max_events,
        faults: FaultPlan::none(),
        record: false,
    };
    let aa_cfg = instance.async_cfg();
    let tree = instance.tree.clone();
    let inputs = instance.inputs.clone();
    let mut sched = EnumeratingScheduler::new(depth, script, visited);
    if let Some(group) = sym {
        sched.sym = Some(group.sym_mode(instance.n));
    }
    let result = run_async_with(
        &cfg,
        |me, _n| AsyncTreeAaParty::new(aa_cfg.clone(), tree.clone(), inputs[me.index()]),
        LatticeAdversary::new(instance.n, assignment.clone()),
        &mut sched,
    );
    Execution {
        result,
        branching: sched.branching,
        taken: sched.taken,
        pruned_by_sleep: sched.pruned_by_sleep,
        pruned_by_visited: sched.pruned_by_visited,
        deliveries: sched.deliveries,
    }
}

/// Counters from one exhaustive exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Scripts executed (including pruned ones).
    pub executions: usize,
    /// Executions that ran to completion and were property-checked.
    pub completed: usize,
    /// Branches cut by the sleep-set rule.
    pub pruned_sleep: usize,
    /// Branches cut by the visited-state rule.
    pub pruned_visited: usize,
    /// The exploration stopped at the execution budget before
    /// exhausting the schedule tree.
    pub truncated: bool,
}

/// The result of exploring one lattice assignment.
pub struct ExploreResult {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First violation found: the failing script and the description.
    pub failure: Option<(Vec<usize>, String)>,
}

/// Explores every delivery schedule of `instance` under `assignment` up
/// to `depth` enumerated decisions, calling `classify` on every
/// completed (non-pruned) execution. `classify` returns a violation
/// description to stop the exploration with a failure.
///
/// `max_runs` bounds the number of executions; hitting it sets
/// [`ExploreStats::truncated`] rather than erroring, so callers can
/// report partial coverage honestly.
pub fn explore<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    mut classify: F,
) -> ExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    let mut stats = ExploreStats::default();
    let mut visited: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut script: Vec<usize> = Vec::new();
    loop {
        stats.executions += 1;
        let exec = execute(instance, assignment, &script, depth, &mut visited);
        if exec.pruned_by_sleep {
            stats.pruned_sleep += 1;
        } else if exec.pruned_by_visited {
            stats.pruned_visited += 1;
        } else {
            stats.completed += 1;
            if let Some(violation) = classify(&exec, &script) {
                return ExploreResult {
                    stats,
                    failure: Some((script, violation)),
                };
            }
        }
        // Deepest incrementable decision → next script (DFS backtrack).
        let next = (0..exec.taken.len())
            .rev()
            .find(|&k| exec.taken[k] + 1 < exec.branching[k]);
        match next {
            Some(k) => {
                script = exec.taken[..k].to_vec();
                script.push(exec.taken[k] + 1);
            }
            None => break,
        }
        if stats.executions >= max_runs {
            stats.truncated = true;
            break;
        }
    }
    ExploreResult {
        stats,
        failure: None,
    }
}

/// The result of a symmetry-reduced exploration.
pub struct SymExploreResult {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First violation found: the failing script and the description.
    pub failure: Option<(Vec<usize>, String)>,
    /// Canonical terminal states of every completed execution.
    pub terminals: BTreeSet<String>,
    /// Visited-pruned branches re-executed by the audit.
    pub audited: usize,
    /// Audit re-runs whose canonical terminal was *not* in `terminals`:
    /// each is a pruned script plus the missing terminal — evidence that
    /// the symmetry merge was unsound for this instance.
    pub audit_failures: Vec<(Vec<usize>, String)>,
}

/// [`explore`] with visited keys canonicalized over `group`, plus the
/// soundness cross-check the reduction is gated on: up to `audit_sample`
/// of the visited-pruned scripts are re-executed in isolation (fresh
/// visited map, no symmetry) and their canonical terminal states must
/// already be in the explored set.
///
/// With the identity group this degenerates to an unsymmetrized
/// exploration whose keys hash event histories instead of engine
/// digests; the lattice soundness gate asserts it explores exactly the
/// same executions as [`explore`] on trees with trivial automorphisms.
pub fn explore_sym<F>(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    max_runs: usize,
    group: &SymmetryGroup,
    audit_sample: usize,
    mut classify: F,
) -> SymExploreResult
where
    F: FnMut(&Execution, &[usize]) -> Option<String>,
{
    let mut stats = ExploreStats::default();
    let mut visited: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut script: Vec<usize> = Vec::new();
    let mut terminals = BTreeSet::new();
    let mut audit_scripts: Vec<Vec<usize>> = Vec::new();
    let mut failure = None;
    loop {
        stats.executions += 1;
        let exec = execute_with(
            instance,
            assignment,
            &script,
            depth,
            &mut visited,
            Some(group),
        );
        if exec.pruned_by_sleep {
            stats.pruned_sleep += 1;
        } else if exec.pruned_by_visited {
            stats.pruned_visited += 1;
            if audit_scripts.len() < audit_sample {
                audit_scripts.push(script.clone());
            }
        } else {
            stats.completed += 1;
            if let Some(t) = sym::canonical_terminal(group, &exec) {
                terminals.insert(t);
            }
            if let Some(violation) = classify(&exec, &script) {
                failure = Some((script, violation));
                break;
            }
        }
        let next = (0..exec.taken.len())
            .rev()
            .find(|&k| exec.taken[k] + 1 < exec.branching[k]);
        match next {
            Some(k) => {
                script = exec.taken[..k].to_vec();
                script.push(exec.taken[k] + 1);
            }
            None => break,
        }
        if stats.executions >= max_runs {
            stats.truncated = true;
            break;
        }
    }
    let (audited, audit_failures) = if failure.is_none() {
        audit_pruned_scripts(
            instance,
            assignment,
            depth,
            group,
            &audit_scripts,
            &terminals,
        )
    } else {
        (0, Vec::new())
    };
    SymExploreResult {
        stats,
        failure,
        terminals,
        audited,
        audit_failures,
    }
}

/// Re-executes pruned scripts in isolation and reports those whose
/// canonical terminal is missing from `terminals`. Shared by the
/// sequential and portfolio symmetry explorers.
pub(crate) fn audit_pruned_scripts(
    instance: &Instance,
    assignment: &LatticeAssignment,
    depth: usize,
    group: &SymmetryGroup,
    scripts: &[Vec<usize>],
    terminals: &BTreeSet<String>,
) -> (usize, Vec<(Vec<usize>, String)>) {
    let mut failures = Vec::new();
    for script in scripts {
        let mut fresh: HashMap<u64, (usize, u64)> = HashMap::new();
        let exec = execute_with(instance, assignment, script, depth, &mut fresh, None);
        // A sleep-pruned or aborted continuation has no terminal of its
        // own (its interleavings are owned by other branches) — skip.
        if let Some(t) = sym::canonical_terminal(group, &exec) {
            if !terminals.contains(&t) {
                failures.push((script.clone(), t));
            }
        }
    }
    (scripts.len(), failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::enumerate_assignments;
    use tree_model::generate;

    fn tiny_instance(n: usize, t: usize, vertices: usize) -> Instance {
        let tree = Arc::new(generate::path(vertices));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let inputs = (0..n).map(|i| vs[i % vs.len()]).collect();
        Instance {
            n,
            t,
            tree,
            inputs,
            max_events: 200_000,
        }
    }

    #[test]
    fn honest_path3_explores_and_completes() {
        // path3 has diameter 2 → a real multi-iteration protocol run
        // (path2 would terminate at time 0 with no messages at all).
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let result = explore(&instance, assignment, 3, 10_000, |exec, _| {
            match &exec.result {
                Ok(_) => None,
                Err(e) => Some(format!("unexpected error: {e:?}")),
            }
        });
        assert!(result.failure.is_none(), "{:?}", result.failure);
        assert!(!result.stats.truncated);
        assert!(result.stats.completed >= 1);
        // The schedule tree branches: more than one execution happened.
        assert!(result.stats.executions > 1);
    }

    #[test]
    fn exploration_is_deterministic() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let run = || {
            let mut sig = Vec::new();
            let r = explore(&instance, assignment, 3, 10_000, |exec, script| {
                sig.push((script.to_vec(), exec.deliveries.clone()));
                None
            });
            (r.stats, sig)
        };
        let (s1, sig1) = run();
        let (s2, sig2) = run();
        assert_eq!(s1, s2);
        assert_eq!(sig1, sig2);
    }

    #[test]
    fn symmetry_prunes_star5_and_preserves_canonical_terminals() {
        // star(5) with inputs v0, v3, v4, v0: the leaf swap v3↔v4 (with
        // parties 1↔2) is a nontrivial symmetry, so the reduced
        // exploration must complete strictly fewer runs while reaching
        // exactly the same canonical terminal-state set, and every
        // audited pruned branch must land on an already-found terminal.
        let tree = Arc::new(generate::star(5));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[0], vs[3], vs[4], vs[0]],
            max_events: 200_000,
        };
        let assignment = &enumerate_assignments(0, 5)[0];
        let group = SymmetryGroup::for_instance(&instance, assignment);
        assert!(group.order() >= 2, "order {}", group.order());

        let mut base_terminals = BTreeSet::new();
        let base = explore(&instance, assignment, 3, 1_000_000, |exec, _| {
            if let Some(t) = sym::canonical_terminal(&group, exec) {
                base_terminals.insert(t);
            }
            None
        });
        assert!(base.failure.is_none());
        assert!(!base.stats.truncated);

        let reduced = explore_sym(
            &instance,
            assignment,
            3,
            1_000_000,
            &group,
            usize::MAX,
            |_, _| None,
        );
        assert!(reduced.failure.is_none());
        assert!(!reduced.stats.truncated);
        assert!(
            reduced.stats.completed < base.stats.completed,
            "no symmetry pruning: {} vs {}",
            reduced.stats.completed,
            base.stats.completed
        );
        assert!(reduced.stats.pruned_visited > 0);
        assert_eq!(reduced.terminals, base_terminals);
        assert!(
            reduced.audit_failures.is_empty(),
            "audit failures: {:?}",
            reduced.audit_failures
        );
        assert!(reduced.audited > 0, "audit sampled nothing");
    }

    #[test]
    fn identity_group_explores_exactly_like_the_unsymmetrized_checker() {
        // path5 with all-distinct inputs has a trivial symmetry group;
        // the reduced explorer must walk exactly the same script
        // sequence as the plain one (soundness gate for the
        // history-based canonical keys).
        let tree = Arc::new(generate::path(5));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[0], vs[1], vs[2], vs[3]],
            max_events: 200_000,
        };
        let assignment = &enumerate_assignments(0, 5)[0];
        let group = SymmetryGroup::for_instance(&instance, assignment);
        assert_eq!(group.order(), 1);

        let mut base_scripts = Vec::new();
        let base = explore(&instance, assignment, 3, 1_000_000, |exec, script| {
            base_scripts.push((script.to_vec(), exec.deliveries.clone()));
            None
        });
        let mut sym_scripts = Vec::new();
        let reduced = explore_sym(
            &instance,
            assignment,
            3,
            1_000_000,
            &group,
            usize::MAX,
            |exec, script| {
                sym_scripts.push((script.to_vec(), exec.deliveries.clone()));
                None
            },
        );
        assert_eq!(base.stats, reduced.stats);
        assert_eq!(base_scripts, sym_scripts);
        assert!(reduced.audit_failures.is_empty());
    }

    #[test]
    fn classify_failure_stops_with_the_script() {
        let instance = tiny_instance(4, 0, 3);
        let assignment = &enumerate_assignments(0, 3)[0];
        let mut count = 0;
        let result = explore(&instance, assignment, 2, 10_000, |_, _| {
            count += 1;
            (count == 2).then(|| "synthetic violation".to_string())
        });
        let (script, violation) = result.failure.expect("second completed run fails");
        assert_eq!(violation, "synthetic violation");
        // The failing script replays to the same deliveries.
        let mut fresh = HashMap::new();
        let replay = execute(&instance, assignment, &script, 2, &mut fresh);
        assert!(replay.result.is_ok());
    }
}
