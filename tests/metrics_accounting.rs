//! Metrics accounting: the engine's [`sim_net::Metrics`] and the flight
//! recorder are two independent observers of the same run, so their
//! totals must agree *exactly* — honest messages, total messages and
//! bytes recomputed from the traced `broadcast`/`unicast`/`inject`
//! events equal the `RunReport` counters, in both step modes, across a
//! seeded stream of generated fuzz cases.

use aa_fuzz::{gen_case, run_case, Mutation};
use aa_trace::recomputed_totals;

const CASES: u64 = 50;
const SEED: u64 = 0xACC0;

#[test]
fn metrics_equal_trace_totals_over_seeded_cases() {
    for index in 0..CASES {
        let case = gen_case(SEED, index);
        // A traced `run_case` runs the case under Sequential *and*
        // Parallel stepping and requires the two traces byte-identical,
        // so one recomputation covers both modes; the per-mode metrics
        // are still compared against it separately below.
        let traced = run_case(&case, Mutation::None, true)
            .unwrap_or_else(|e| panic!("case {index} ({}): {e}", case.protocol.name()));
        let totals = recomputed_totals(traced.trace.as_ref().expect("traced runs record"));
        for (mode, metrics) in [
            ("sequential", &traced.seq_metrics),
            ("parallel", &traced.par_metrics),
        ] {
            assert_eq!(
                totals.honest_messages,
                metrics.honest_messages(),
                "case {index} {mode}: honest message totals diverge"
            );
            assert_eq!(
                totals.messages(),
                metrics.total_messages(),
                "case {index} {mode}: total message counts diverge"
            );
            assert_eq!(
                totals.bytes,
                metrics.total_bytes(),
                "case {index} {mode}: byte totals diverge"
            );
        }
        // The traced run must report the same outcome as the plain one.
        assert_eq!(
            traced.stats,
            run_case(&case, Mutation::None, false).unwrap().stats,
            "case {index}: traced and untraced stats diverge"
        );
    }
}
