//! The repository's benchmark: closed-loop agreements on two workloads,
//! timed end to end with tracing off, or layer by layer with timing shims
//! on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload treeaa-sim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones; `BENCHMARK.json` at
//! the repository root names and explains both sets. The lines before it
//! hold the provenance (host, seed, repeat counts, min/median/max of every
//! metric) and, for traced runs, the layer table with its reconciliation.

mod report;
mod shim;
mod sim;
mod tcp;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use report::{Partition, Report};

/// One closed-loop agreement run. A bundle run counts `agreements`
/// agreements that share one latency.
#[derive(Clone, Debug)]
pub struct Run {
    pub wall_s: f64,
    pub agreements: u64,
    /// Every output passed the workload's check.
    pub ok: bool,
    pub rounds: u64,
    /// Messages delivered in process; frames sent over TCP.
    pub msgs: u64,
    pub bytes: u64,
    /// Fingerprint of the outputs (and, in-process, of the message
    /// counts), taken before any tampering.
    pub digest: u64,
}

/// Layer totals of one traced run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn merge(&mut self, other: &Layers) {
        for (&name, &value) in &other.0 {
            self.add(name, value);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A workload after set-up: it runs agreement `i` on inputs derived from
/// the seed and `i` alone, checks the outputs, and with `layers` given
/// also runs its timing shims and replays.
pub trait Workload {
    fn run(&mut self, i: u64, layers: Option<&mut Layers>) -> Result<Run, String>;

    /// When on, one output is corrupted after the run and before the
    /// check, which must then count the agreement as failed.
    fn set_tamper(&mut self, on: bool);

    /// The layer tables a traced run prints and reconciles.
    fn partitions(&self) -> Vec<Partition>;
}

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.add_byte(b);
        }
    }

    pub fn add_byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The generator for stream `stream`, item `i` of a seed: inputs depend on
/// (seed, i) only, so a traced pass can re-run the untraced pass exactly.
pub fn rng(seed: u64, stream: u64, i: u64) -> ChaCha8Rng {
    let mut d = Digest::new();
    d.add(seed);
    d.add(stream);
    d.add(i);
    ChaCha8Rng::seed_from_u64(d.finish())
}

const WORKLOADS: [&str; 2] = ["treeaa-sim", "tcp-bundle-wal"];

/// `setup_s` is the median of one sample per window of the untraced
/// pass, taken as the window opens. A shared host's speed drifts over
/// seconds to minutes; set-ups made only before the run would time the
/// host at one moment, where samples spread over the run see the same mix
/// of its states as the other metrics. A sample times set-ups back to back
/// until they have taken this long, and is their mean.
const SETUP_BATCH_S: f64 = 0.3;

/// An untraced measurement is cut into this many windows of equal
/// length. Throughput and CPU per agreement are whole-run ratios; the
/// windows give their min/median/max in the provenance.
const WINDOWS: usize = 10;

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "treeaa-sim" => Box::new(sim::TreeAaSim::new(seed)?),
        "tcp-bundle-wal" => Box::new(tcp::Tcp::new(seed)?),
        other => return Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    })
}

/// One `setup_s` sample: the mean time of whole set-ups (with their
/// self-tests), run back to back for at least [`SETUP_BATCH_S`].
fn setup_sample(name: &str, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let mut made = 0;
    while made == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
        let mut w = setup(name, seed)?;
        self_test(w.as_mut())?;
        made += 1;
    }
    Ok(start.elapsed().as_secs_f64() / f64::from(made))
}

/// Set-up's own checks, run on every set-up so that every result rests on
/// them: the first agreement runs twice with identical outputs and counts
/// (determinism), and the second time one output is tampered with, which
/// the check must count as a failure.
fn self_test(w: &mut dyn Workload) -> Result<(), String> {
    let clean = w.run(0, None)?;
    if !clean.ok {
        return Err("set-up: the first agreement failed its check".into());
    }
    w.set_tamper(true);
    let tampered = w.run(0, None);
    w.set_tamper(false);
    let tampered = tampered?;
    if tampered.ok {
        return Err("self-test: a tampered output passed the check".into());
    }
    if clean.digest != tampered.digest {
        return Err("determinism: the same inputs gave different outputs or counts".into());
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let seconds = seconds.ok_or(usage)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: match trace.ok_or(usage)? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// The runs of one closed-loop pass, and per window its CPU seconds and
/// set-up sample.
struct Pass {
    runs: Vec<Run>,
    window_of: Vec<usize>,
    window_cpu: Vec<f64>,
    busy_s: f64,
    setup_s: Vec<f64>,
}

/// Runs agreements 0, 1, … one after another until `seconds` have passed
/// (or `count` agreements, when given). With `setup` naming the workload
/// and seed, each window opens with a set-up sample, whose CPU time is
/// left out of the window's.
fn closed_loop(
    w: &mut dyn Workload,
    seconds: f64,
    count: Option<usize>,
    mut layers: Option<&mut Vec<Layers>>,
    setup: Option<(&str, u64)>,
) -> Result<Pass, String> {
    let mut pass = Pass {
        runs: Vec::new(),
        window_of: Vec::new(),
        window_cpu: vec![0.0; WINDOWS],
        busy_s: 0.0,
        setup_s: Vec::new(),
    };
    let window_len = seconds / WINDOWS as f64;
    let start = Instant::now();
    let mut window = 0;
    let mut cpu_mark = report::cpu_seconds()?;
    loop {
        let done = match count {
            Some(c) => pass.runs.len() >= c,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        if let Some((name, seed)) = setup.filter(|_| pass.setup_s.len() == window) {
            let before = report::cpu_seconds()?;
            pass.setup_s.push(setup_sample(name, seed)?);
            cpu_mark += report::cpu_seconds()? - before;
        }
        let i = pass.runs.len() as u64;
        let run = match layers.as_deref_mut() {
            Some(all) => {
                let mut l = Layers::default();
                let run = w.run(i, Some(&mut l))?;
                all.push(l);
                run
            }
            None => w.run(i, None)?,
        };
        pass.busy_s += run.wall_s;
        pass.runs.push(run);
        pass.window_of.push(window);
        let elapsed = start.elapsed().as_secs_f64();
        if count.is_none() && window + 1 < WINDOWS && elapsed >= (window + 1) as f64 * window_len {
            let now = report::cpu_seconds()?;
            pass.window_cpu[window] = now - cpu_mark;
            cpu_mark = now;
            window += 1;
        }
    }
    pass.window_cpu[window] = report::cpu_seconds()? - cpu_mark;
    pass.window_cpu.truncate(window + 1);
    Ok(pass)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and returns the final result line.
fn bench(args: &Args) -> Result<String, String> {
    let mut w = setup(&args.workload, args.seed)?;
    self_test(w.as_mut())?;
    let mut rep = Report::new(args);

    if !args.trace {
        let sampling = Some((args.workload.as_str(), args.seed));
        let pass = closed_loop(w.as_mut(), args.seconds, None, None, sampling)?;
        rep.end_to_end(&pass)?;
        return rep.finish(&pass);
    }

    // Traced: an untraced pass for half the time, then the same
    // agreements again with the shims on. Outputs must match bit for bit.
    let plain = closed_loop(w.as_mut(), args.seconds / 2.0, None, None, None)?;
    let mut layers = Vec::with_capacity(plain.runs.len());
    let traced = closed_loop(
        w.as_mut(),
        0.0,
        Some(plain.runs.len()),
        Some(&mut layers),
        None,
    )?;
    for (i, (a, b)) in plain.runs.iter().zip(&traced.runs).enumerate() {
        if a.digest != b.digest {
            return Err(format!(
                "agreement {i}: traced outputs or counts differ from untraced"
            ));
        }
    }
    rep.layers(&traced, &layers, plain.busy_s, &w.partitions())?;
    rep.finish(&traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_counts_a_tampered_output_as_failed() {
        for name in WORKLOADS {
            let mut w = setup(name, 3).expect("set-up");
            self_test(w.as_mut()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn inputs_depend_on_seed_and_index_only() {
        use rand::Rng;
        let draw = |seed, i| rng(seed, 1, i).gen_range(0..u64::MAX);
        assert_eq!(draw(5, 7), draw(5, 7));
        assert_ne!(draw(5, 7), draw(5, 8));
        assert_ne!(draw(5, 7), draw(6, 7));
    }
}
