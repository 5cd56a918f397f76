//! Phase-level timing of the bundled data plane, bypassing the engine:
//! `cargo run --release -p real-aa --example bundle_profile -- <k>`

use std::sync::Arc;
use std::time::Instant;

use gradecast::{BundleGradecast, GcBundleMsg, GcSlots};
use real_aa::R64;
use sim_net::PartyId;

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let (n, t, iters) = (4usize, 1usize, 5u32);
    let active = vec![true; k];
    let muted = vec![vec![false; n]; k];

    let mut gcs: Vec<BundleGradecast<R64>> = (0..n)
        .map(|i| BundleGradecast::new(PartyId(i), n, t, k).unwrap())
        .collect();

    let mut t_reset = 0.0;
    let mut t_lead = 0.0;
    let mut t_echo = 0.0;
    let mut t_vote = 0.0;
    let mut t_grade = 0.0;
    let total = Instant::now();
    for _ in 0..iters {
        let s = Instant::now();
        for gc in &mut gcs {
            gc.reset_with_muted(muted.iter().map(Vec::as_slice));
        }
        t_reset += s.elapsed().as_secs_f64();

        let s = Instant::now();
        let leads: Vec<(PartyId, GcBundleMsg<R64>)> = (0..n)
            .map(|p| {
                let vals = (0..k)
                    .map(|j| Some(R64::new((p * 7 + j) as f64 % 97.0)))
                    .collect();
                (
                    PartyId(p),
                    GcBundleMsg::Leads(Arc::new(GcSlots::from_options(vals))),
                )
            })
            .collect();
        t_lead += s.elapsed().as_secs_f64();

        let s = Instant::now();
        let echoes: Vec<(PartyId, GcBundleMsg<R64>)> = gcs
            .iter_mut()
            .enumerate()
            .map(|(p, gc)| {
                (
                    PartyId(p),
                    gc.on_leads(leads.iter().map(|(q, m)| (*q, m)), &active),
                )
            })
            .collect();
        t_echo += s.elapsed().as_secs_f64();

        let s = Instant::now();
        let votes: Vec<(PartyId, GcBundleMsg<R64>)> = gcs
            .iter_mut()
            .enumerate()
            .map(|(p, gc)| {
                (
                    PartyId(p),
                    gc.on_echoes(echoes.iter().map(|(q, m)| (*q, m)), &active),
                )
            })
            .collect();
        t_vote += s.elapsed().as_secs_f64();

        let s = Instant::now();
        let mut graded = 0usize;
        for gc in &mut gcs {
            let out = gc.on_votes(votes.iter().map(|(q, m)| (*q, m)), &active);
            graded += out.iter().filter(|o| o.is_some()).count();
        }
        t_grade += s.elapsed().as_secs_f64();
        assert_eq!(graded, n * k);
    }
    let wall = total.elapsed().as_secs_f64();
    println!(
        "k={k} n={n} iters={iters} wall {wall:.3}s  ({:.2} us/instance)",
        wall / k as f64 * 1e6
    );
    println!("  reset {t_reset:.3}s  lead-build {t_lead:.3}s  on_leads {t_echo:.3}s  on_echoes {t_vote:.3}s  on_votes+grade {t_grade:.3}s");
}
