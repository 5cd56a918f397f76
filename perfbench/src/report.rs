//! Metric computation, the printed layer table, provenance, and the
//! final result line.

use std::fmt::Write as _;

use crate::{Args, Layers, Pass, Run, WINDOWS};

/// How a per-layer total is normalised.
#[derive(Clone, Copy)]
enum Per {
    /// Divided by agreements (k per bundle).
    Agreement,
    /// Divided by agreement runs: a latency component of one bundle or
    /// deployment.
    Run,
}

/// Every per-layer metric: name, unit, normalisation, and the factor from
/// the seconds (or counts) the layers accumulate to the printed unit.
/// Layers off a workload's path read 0 there.
const LAYER_METRICS: &[(&str, &str, Per, f64)] = &[
    ("bench.wall_s", "s", Per::Agreement, 1.0),
    ("bench.residual_s", "s", Per::Agreement, 1.0),
    ("bench.trace_overhead", "ratio", Per::Run, 1.0),
    ("sim-net.dispatch_s", "s", Per::Agreement, 1.0),
    ("sim-net.msgs", "count", Per::Agreement, 1.0),
    ("sim-net.bytes", "B", Per::Agreement, 1.0),
    ("gradecast.echo_s", "s", Per::Agreement, 1.0),
    ("gradecast.vote_s", "s", Per::Agreement, 1.0),
    ("real-aa.update_s", "s", Per::Agreement, 1.0),
    ("real-aa.party_new_s", "s", Per::Agreement, 1.0),
    ("real-aa.handler_s", "s", Per::Agreement, 1.0),
    ("tree-aa.party_new_s", "s", Per::Agreement, 1.0),
    ("tree-aa.phase1_s", "s", Per::Agreement, 1.0),
    ("tree-aa.phase2_s", "s", Per::Agreement, 1.0),
    ("tree-model.project_s", "s", Per::Agreement, 1.0),
    ("async-net.reliable_s", "s", Per::Agreement, 1.0),
    ("net.handshake_ms", "ms", Per::Run, 1e3),
    ("net.drive_ms", "ms", Per::Run, 1e3),
    ("net.codec_encode_s", "s", Per::Agreement, 1.0),
    ("net.codec_decode_s", "s", Per::Agreement, 1.0),
    ("net.mac_s", "s", Per::Agreement, 1.0),
    ("net.frame_s", "s", Per::Agreement, 1.0),
    ("net.wal_append_s", "s", Per::Agreement, 1.0),
    ("net.wal_bytes", "B", Per::Agreement, 1.0),
    ("net.wal_records", "count", Per::Agreement, 1.0),
    ("net.io_wait_s", "s", Per::Agreement, 1.0),
    ("net.frames_sent", "count", Per::Agreement, 1.0),
    ("net.nulls_sent", "count", Per::Agreement, 1.0),
    ("net.retransmissions", "count", Per::Agreement, 1.0),
    ("net.rejected", "count", Per::Agreement, 1.0),
    ("net.send_drops", "count", Per::Agreement, 1.0),
    ("net.dup_frames", "count", Per::Agreement, 1.0),
    ("net.reconnects", "count", Per::Agreement, 1.0),
    ("net.vtime", "vtime", Per::Run, 1.0),
];

/// A layer table: `parts` sum to `whole`. The last part is the declared
/// residual — the time no shim or replay sees — and must stay within
/// `[lo, hi]` times the whole, or the traced run fails.
pub struct Partition {
    pub whole: &'static str,
    pub parts: &'static [&'static str],
    pub lo: f64,
    pub hi: f64,
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated quantile of the samples (`q` in [0, 1]).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Latency percentiles are taken over blocks of at least this many
/// consecutive agreement runs, so that a block's p90 has 10 samples
/// beyond it.
const LATENCY_BLOCK: usize = 100;

/// Quantile `q` of each block of consecutive samples: the samples split
/// evenly into as many blocks of at least [`LATENCY_BLOCK`] as they fill
/// (one block when they fill fewer than two). The metric is the mean over
/// blocks. A shared host alternates between a fast and a slow state for
/// seconds at a time (the same TreeAA agreement takes about 26 or about
/// 41 ms on the 2-core host), so a block's median sits in either state; a
/// median over blocks would be a vote between the two that flips from run
/// to run, where the mean follows the share of time in each.
fn block_quantiles(samples: &[f64], q: f64) -> Vec<f64> {
    let blocks = (samples.len() / LATENCY_BLOCK).max(1);
    (0..blocks)
        .map(|b| {
            let block = &samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks];
            quantile(block, q)
        })
        .collect()
}

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("cpu time: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks.
    let rest = stat
        .rsplit_once(')')
        .ok_or("cpu time: bad /proc/self/stat")?
        .1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or("cpu time: bad field")
    };
    // USER_HZ, which Linux fixes at 100 for this interface.
    const TICKS_PER_S: f64 = 100.0;
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak rss: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak rss: no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        id.to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("non-finite metric value {x}"))
    }
}

pub struct Report {
    header: String,
    /// (name, unit, value) in print order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// (name, unit, samples) for the min/median/max block.
    spreads: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let header = format!(
            "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{nproc},\"rustc\":{},\"commit\":{}}},\"windows\":{WINDOWS}",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            json_str(&rustc_version()),
            json_str(&commit()),
        );
        Report {
            header,
            metrics: Vec::new(),
            spreads: Vec::new(),
        }
    }

    pub fn spread(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.spreads.push((name, unit, samples.to_vec()));
    }

    /// The end-to-end metrics of an untraced pass.
    pub fn end_to_end(&mut self, pass: &Pass) -> Result<(), String> {
        let ok: Vec<&Run> = pass.runs.iter().filter(|r| r.ok).collect();
        if ok.is_empty() {
            return Err(format!(
                "none of {} agreement runs passed its check",
                pass.runs.len()
            ));
        }
        let latencies_ms: Vec<f64> = ok.iter().map(|r| r.wall_s * 1e3).collect();
        let mut rate = Vec::new();
        let mut cpu = Vec::new();
        for (w, &cpu_s) in pass.window_cpu.iter().enumerate() {
            let runs = || {
                pass.runs
                    .iter()
                    .zip(&pass.window_of)
                    .filter(move |(_, &x)| x == w)
            };
            let busy: f64 = runs().map(|(r, _)| r.wall_s).sum();
            let done: u64 = runs()
                .filter(|(r, _)| r.ok)
                .map(|(r, _)| r.agreements)
                .sum();
            let tried: u64 = runs().map(|(r, _)| r.agreements).sum();
            if tried > 0 {
                rate.push(done as f64 / busy);
                cpu.push(cpu_s / tried as f64);
            }
        }
        let done: u64 = ok.iter().map(|r| r.agreements).sum();
        let tried: u64 = pass.runs.iter().map(|r| r.agreements).sum();
        let cpu_s: f64 = pass.window_cpu.iter().sum();
        let rounds = ok.iter().map(|r| r.rounds as f64).sum::<f64>() / ok.len() as f64;
        let bytes = ok.iter().map(|r| r.bytes as f64).sum::<f64>() / done as f64;
        let p50 = block_quantiles(&latencies_ms, 0.5);
        let p90 = block_quantiles(&latencies_ms, 0.9);
        self.spread("setup_s", "s", &pass.setup_s);
        self.spread("agreements_per_s", "1/s", &rate);
        self.spread("cpu_s_per_agreement", "s", &cpu);
        self.spread("latency_ms", "ms", &latencies_ms);
        self.spread("latency_p50_ms", "ms", &p50);
        self.spread("latency_p90_ms", "ms", &p90);
        // Whole-run ratios, for the reason given at `block_quantiles`; the
        // windows give their spread.
        self.metrics = vec![
            ("agreements_per_s", "1/s", done as f64 / pass.busy_s),
            ("latency_p50_ms", "ms", mean(&p50)),
            ("latency_p90_ms", "ms", mean(&p90)),
            ("setup_s", "s", median(&pass.setup_s)),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
            ("cpu_s_per_agreement", "s", cpu_s / tried as f64),
            ("success_rate", "ratio", done as f64 / tried as f64),
            ("rounds_per_agreement", "count", rounds),
            ("bytes_per_agreement", "B", bytes),
        ];
        Ok(())
    }

    /// The per-layer metrics of a traced pass, its layer tables and their
    /// reconciliation.
    pub fn layers(
        &mut self,
        traced: &Pass,
        layers: &[Layers],
        untraced_busy_s: f64,
        partitions: &[Partition],
    ) -> Result<(), String> {
        let mut total = Layers::default();
        for l in layers {
            total.merge(l);
        }
        let agreements: u64 = traced.runs.iter().map(|r| r.agreements).sum();
        let runs = traced.runs.len() as f64;
        let overhead = traced.busy_s / untraced_busy_s;
        for &(name, unit, per, scale) in LAYER_METRICS {
            let value = if name == "bench.trace_overhead" {
                overhead
            } else {
                let base = match per {
                    Per::Agreement => agreements as f64,
                    Per::Run => runs,
                };
                total.get(name) / base * scale
            };
            self.metrics.push((name, unit, value));
            let samples: Vec<f64> = layers
                .iter()
                .zip(&traced.runs)
                .map(|(l, r)| {
                    let base = match per {
                        Per::Agreement => r.agreements as f64,
                        Per::Run => 1.0,
                    };
                    l.get(name) / base * scale
                })
                .collect();
            if name != "bench.trace_overhead" {
                self.spread(name, unit, &samples);
            }
        }

        println!(
            "layer table ({} traced runs, {agreements} agreements; tracing overhead {:.3}x)",
            traced.runs.len(),
            overhead
        );
        let mut failures = Vec::new();
        for p in partitions {
            let whole = total.get(p.whole);
            println!(
                "  {:<24} {:>14.6e} s  100.0%",
                p.whole,
                whole / agreements as f64
            );
            for (i, part) in p.parts.iter().enumerate() {
                let v = total.get(part);
                let tag = if i + 1 == p.parts.len() {
                    "  (residual)"
                } else {
                    ""
                };
                println!(
                    "    {:<22} {:>14.6e} s {:>6.1}%{tag}",
                    part,
                    v / agreements as f64,
                    100.0 * v / whole
                );
            }
            let residual = total.get(p.parts[p.parts.len() - 1]);
            let share = residual / whole;
            let sum: f64 = p.parts.iter().map(|n| total.get(n)).sum();
            println!(
                "  reconciliation: parts sum to {:.6e} s of {:.6e} s; residual {:+.2}% (bound [{:+.0}%, {:+.0}%])",
                sum,
                whole,
                100.0 * share,
                100.0 * p.lo,
                100.0 * p.hi
            );
            if !(p.lo..=p.hi).contains(&share) || (sum - whole).abs() > 1e-9 * whole.abs().max(1.0)
            {
                failures.push(format!(
                    "{}: residual {} is {:+.2}% of the whole, outside [{:+.0}%, {:+.0}%]",
                    p.whole,
                    p.parts[p.parts.len() - 1],
                    100.0 * share,
                    100.0 * p.lo,
                    100.0 * p.hi
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "layer table does not reconcile: {}",
                failures.join("; ")
            ))
        }
    }

    /// Prints the provenance line and returns the result line.
    pub fn finish(&self, pass: &Pass) -> Result<String, String> {
        let attempted: u64 = pass.runs.iter().map(|r| r.agreements).sum();
        let failed: u64 = pass
            .runs
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.agreements)
            .sum();
        let mut spread = String::new();
        for (i, (name, unit, xs)) in self.spreads.iter().enumerate() {
            let (lo, mid, hi) = if xs.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                (quantile(xs, 0.0), median(xs), quantile(xs, 1.0))
            };
            let _ = write!(
                spread,
                "{}{}:{{\"unit\":{},\"n\":{},\"min\":{},\"median\":{},\"max\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(name),
                json_str(unit),
                xs.len(),
                json_num(lo)?,
                json_num(mid)?,
                json_num(hi)?
            );
        }
        println!(
            "{{\"provenance\":{{{},\"runs\":{},\"attempted\":{attempted},\"failed\":{failed},\"self_test\":\"tampered output counted as failed\"}},\"spread\":{{{spread}}}}}",
            self.header,
            pass.runs.len()
        );
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i == 0 { "" } else { ", " },
                json_str(name),
                json_num(*value)?,
                json_str(unit)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            failed == 0
        ))
    }
}
