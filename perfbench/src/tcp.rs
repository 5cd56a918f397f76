//! The loopback TCP workload `tcp-bundle-wal`: n = 4 node threads in this
//! process, each running `net::run_node_durable` with a fresh WAL around
//! `Reliable<BundledAaParty>` with k = 1024 instances, one deployment after
//! another. The node threads are part of the system under test; the load
//! is this single client.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aa_codec::Json;
use async_net::{round_of, AsyncProtocol, RelMsg, Reliable};
use net::{
    frame, pair_key, run_node_durable, Durability, FrameBuffer, FrameKind, NetError, NodeConfig,
    NodeReport, WalRecord, WalWriter, WireCodec, WrapperMsg,
};
use real_aa::{BundledAaMsg, BundledAaParty};
use sim_net::{Envelope, PartyId};

use crate::report::Partition;
use crate::shim::{InnerTimed, OuterTimed, Probe, Slot};
use crate::sim::{
    bundle_config, bundle_digest, bundle_matches, bundle_pool, tamper_bundle, Bundle, BUNDLE_K,
    BUNDLE_N, BUNDLE_T,
};
use crate::{Layers, Run, Workload};

const SECRET: u64 = 0x7065_7266_6265_6e63;
const CONFIG_FP: u64 = 0xb1;

/// Deployments cycle through this many seeded k = 1024 bundles.
const BUNDLE_WAL_POOL: u64 = 2;

/// Where the nodes keep their logs, under the working directory.
const WORK_DIR: &str = ".perfbench-work";

type Msg = RelMsg<BundledAaMsg>;
type Received = Arc<Mutex<Vec<Envelope<Msg>>>>;

pub struct Tcp {
    pool: Vec<Bundle>,
    delay_seed: u64,
    /// One fresh WAL per node per deployment, in this directory.
    wal_dir: PathBuf,
    tamper: bool,
}

/// What one node thread returned, and when.
struct Node<O> {
    result: Result<NodeReport<O>, NetError>,
    ready: Option<Instant>,
    done: Instant,
}

struct Deployment<O> {
    start: Instant,
    end: Instant,
    nodes: Vec<Node<O>>,
}

impl Tcp {
    pub fn new(seed: u64) -> Result<Self, String> {
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let setup = SETUPS.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(WORK_DIR).join(format!("wal-{}-{setup}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Tcp {
            pool: bundle_pool(seed, BUNDLE_K, BUNDLE_WAL_POOL)?,
            delay_seed: seed,
            wal_dir: dir,
            tamper: false,
        })
    }

    fn wal_path(&self, me: usize) -> PathBuf {
        self.wal_dir.join(format!("node-{me}.wal"))
    }

    /// One deployment: bind n loopback listeners, start n node threads,
    /// and wait for all of them. `make` builds node `me`'s protocol.
    fn deploy<P>(
        &self,
        make: impl Fn(usize) -> P,
        probe: fn(&P) -> u64,
    ) -> Result<Deployment<P::Output>, String>
    where
        P: AsyncProtocol + Send,
        P::Msg: WireCodec,
        P::Output: Send,
    {
        let start = Instant::now();
        let listeners: Vec<TcpListener> = (0..BUNDLE_N)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bind: {e}"))?;
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("local address: {e}"))?;
        let nodes = std::thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(me, listener)| {
                    let mut cfg = NodeConfig::new(
                        me,
                        BUNDLE_N,
                        BUNDLE_T,
                        peers.clone(),
                        SECRET,
                        CONFIG_FP,
                        self.delay_seed,
                    );
                    cfg.label = "perfbench".into();
                    let durability = Durability {
                        wal_path: self.wal_path(me),
                        recover: false,
                    };
                    let party = make(me);
                    s.spawn(move || {
                        let mut ready = None;
                        let result = run_node_durable(
                            &cfg,
                            listener,
                            party,
                            Some(&durability),
                            probe,
                            || ready = Some(Instant::now()),
                        );
                        Node {
                            result,
                            ready,
                            done: Instant::now(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a node thread panicked".to_string()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Deployment {
            start,
            end: Instant::now(),
            nodes,
        })
    }

    /// Checks a deployment against its bundle's reference. A node error, a
    /// missing output, or a MAC or malformed rejection fails it.
    fn finish(&self, bundle: &Bundle, d: &Deployment<Vec<f64>>) -> Run {
        let mut outputs = Vec::with_capacity(BUNDLE_N);
        let mut clean = true;
        let mut vtime: f64 = 0.0;
        let mut bytes = 0;
        let mut frames = 0;
        for node in &d.nodes {
            match &node.result {
                Ok(r) => {
                    clean &= r.stats.rejected_mac == 0 && r.stats.rejected_malformed == 0;
                    vtime = vtime.max(r.vtime);
                    bytes += r.stats.bytes_sent;
                    frames += r.stats.frames_sent;
                    match &r.output {
                        Some(o) => outputs.push(o.clone()),
                        None => clean = false,
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: node error: {e}");
                    clean = false;
                }
            }
        }
        let digest = bundle_digest(&outputs).finish();
        if self.tamper && !outputs.is_empty() {
            tamper_bundle(&mut outputs);
        }
        Run {
            wall_s: (d.end - d.start).as_secs_f64(),
            agreements: BUNDLE_K as u64,
            ok: clean && bundle_matches(&outputs, &bundle.expected),
            rounds: u64::from(round_of(vtime)),
            msgs: frames,
            bytes,
            digest,
        }
    }

    fn remove_wals(&self) {
        for me in 0..BUNDLE_N {
            let _ = std::fs::remove_file(self.wal_path(me));
        }
    }

    fn run_traced(&self, bundle: &Bundle, layers: &mut Layers) -> Result<Run, String> {
        let cfg = bundle_config();
        let probe = Probe::new();
        let received: Vec<Received> = (0..BUNDLE_N).map(|_| Received::default()).collect();
        let d = self.deploy(
            |me| {
                let made = Instant::now();
                let party = BundledAaParty::new(PartyId(me), cfg, bundle.inputs[me].clone())
                    .expect("k >= 1");
                probe.add(&[Slot::PartyNew], made);
                let inner = InnerTimed::new(party, probe.clone());
                OuterTimed::new(
                    Reliable::new(inner, BUNDLE_N),
                    probe.clone(),
                    received[me].clone(),
                )
            },
            |p| p.inner.state_fingerprint(),
        )?;
        let run = self.finish(bundle, &d);

        let ready = d.nodes.iter().filter_map(|n| n.ready).max();
        let last_done = d.nodes.iter().map(|n| n.done).max().unwrap_or(d.end);
        let ready = ready.unwrap_or(last_done);
        let handshake = (ready - d.start).as_secs_f64();
        let drive = last_done.saturating_duration_since(ready).as_secs_f64();
        let drive_node: f64 = d
            .nodes
            .iter()
            .map(|n| n.ready.map_or(0.0, |r| (n.done - r).as_secs_f64()))
            .sum();
        layers.add("bench.wall_s", run.wall_s);
        layers.add("net.handshake_ms", handshake);
        layers.add("net.drive_ms", drive);
        layers.add("bench.residual_s", run.wall_s - handshake - drive);
        layers.add("net.drive_node_s", drive_node);

        let handler = probe.secs(Slot::Handler);
        let reliable = probe.secs(Slot::Outer) - handler;
        layers.add("real-aa.party_new_s", probe.secs(Slot::PartyNew));
        layers.add("real-aa.handler_s", handler);
        layers.add("async-net.reliable_s", reliable);
        layers.add("real-aa.update_s", probe.secs(Slot::Update));
        layers.add("gradecast.echo_s", probe.secs(Slot::Echo));
        layers.add("gradecast.vote_s", probe.secs(Slot::Vote));

        let mut wire = Wire::default();
        let mut vtime: f64 = 0.0;
        for (node, got) in d.nodes.iter().zip(&received) {
            let got = got.lock().expect("node threads are joined");
            wire.replay_data(&got)?;
            if let Ok(r) = &node.result {
                let s = &r.stats;
                wire.replay_nulls(s.nulls_sent)?;
                layers.add("net.frames_sent", s.frames_sent as f64);
                layers.add("net.nulls_sent", s.nulls_sent as f64);
                layers.add("net.retransmissions", s.retransmissions as f64);
                layers.add(
                    "net.rejected",
                    (s.rejected_mac + s.rejected_replay + s.rejected_malformed) as f64,
                );
                layers.add("net.send_drops", s.send_drops as f64);
                layers.add("net.dup_frames", s.dup_frames as f64);
                layers.add("net.reconnects", s.reconnects as f64);
                vtime = vtime.max(r.vtime);
            }
        }
        layers.add("net.vtime", vtime);
        layers.add("net.codec_encode_s", wire.encode_s);
        layers.add("net.codec_decode_s", wire.decode_s);
        layers.add("net.mac_s", wire.mac_s);
        layers.add("net.frame_s", wire.frame_s);
        let wal_s = self.replay_wals(layers)?;
        let attributed =
            handler + reliable + wire.encode_s + wire.decode_s + wire.mac_s + wire.frame_s + wal_s;
        layers.add("net.io_wait_s", drive_node - attributed);
        Ok(run)
    }

    /// Replays every node's log through a fresh `WalWriter`, timing the
    /// appends; returns the time.
    fn replay_wals(&self, layers: &mut Layers) -> Result<f64, String> {
        let scratch = self.wal_dir.join("replay.wal");
        let mut total = 0.0;
        for me in 0..BUNDLE_N {
            let path = self.wal_path(me);
            let bytes = std::fs::read(&path).map_err(|e| format!("wal: {e}"))?;
            let records = decode_wal(&bytes)?;
            let Some((WalRecord::Header(header), rest)) = records.split_first() else {
                return Err("wal: first record is not a header".into());
            };
            let start = Instant::now();
            let mut w = WalWriter::create(&scratch, header).map_err(|e| format!("wal: {e}"))?;
            for rec in rest {
                w.append(rec).map_err(|e| format!("wal: {e}"))?;
            }
            total += start.elapsed().as_secs_f64();
            layers.add("net.wal_bytes", bytes.len() as f64);
            layers.add("net.wal_records", records.len() as f64);
        }
        let _ = std::fs::remove_file(&scratch);
        layers.add("net.wal_append_s", total);
        Ok(total)
    }
}

/// A log's records: `net::read_wal`'s framing (length prefix, JSON,
/// FNV-1a checksum) and `WalRecord::from_json`, with a linear reader for
/// the flat JSON objects the log holds. `read_wal` itself goes through
/// `aa_codec::Json::parse`, whose string scan re-validates the rest of the
/// record for every character — quadratic in a message body's length,
/// seconds per k = 1024 log.
fn decode_wal(bytes: &[u8]) -> Result<Vec<WalRecord>, String> {
    let mut records = Vec::new();
    let mut rest = bytes;
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let len = u32::from_be_bytes(*len) as usize;
        if tail.len() < len + 8 {
            break; // a torn tail, as read_wal treats it
        }
        let (payload, tail) = tail.split_at(len);
        let (sum, tail) = tail.split_at(8);
        let mut digest = crate::Digest::new();
        for &b in payload {
            digest.add_byte(b);
        }
        if digest.finish().to_le_bytes() != sum {
            return Err("wal: checksum mismatch".into());
        }
        let text = std::str::from_utf8(payload).map_err(|e| format!("wal: {e}"))?;
        let json = match flat_object(text) {
            Some(json) => json,
            None => Json::parse(text).map_err(|e| format!("wal: {e}"))?,
        };
        records.push(WalRecord::from_json(&json).map_err(|e| format!("wal: {e}"))?);
        rest = tail;
    }
    Ok(records)
}

/// `{"key": "string" | integer, …}` with no escapes, or `None`.
fn flat_object(text: &str) -> Option<Json> {
    let mut rest = text.strip_prefix('{')?.strip_suffix('}')?.trim_start();
    let mut fields = Vec::new();
    while !rest.is_empty() {
        let (key, tail) = rest.strip_prefix('"')?.split_once('"')?;
        let tail = tail.trim_start().strip_prefix(':')?.trim_start();
        let (value, tail) = match tail.strip_prefix('"') {
            Some(s) => {
                let (v, tail) = s.split_once('"')?;
                (Json::Str(v.to_string()), tail)
            }
            None => {
                let end = tail
                    .find(|c: char| c == ',' || c.is_whitespace())
                    .unwrap_or(tail.len());
                (Json::Num(tail[..end].parse().ok()?), &tail[end..])
            }
        };
        if key.contains('\\') || matches!(&value, Json::Str(v) if v.contains('\\')) {
            return None;
        }
        fields.push((key.to_string(), value));
        let tail = tail.trim_start();
        rest = match tail.strip_prefix(',') {
            Some(t) => t.trim_start(),
            None if tail.is_empty() => tail,
            None => return None,
        };
    }
    Some(Json::Obj(fields))
}

/// Replays a deployment's traffic through the wire layers a frame
/// crosses: message codec, envelope MAC (sign and verify), and length
/// framing with envelope encoding, both ways.
#[derive(Default)]
struct Wire {
    encode_s: f64,
    decode_s: f64,
    mac_s: f64,
    frame_s: f64,
    frames: FrameBuffer,
}

impl Wire {
    fn replay_data(&mut self, received: &[Envelope<Msg>]) -> Result<(), String> {
        for (seq, env) in received.iter().enumerate() {
            let start = Instant::now();
            let body = env.payload.to_bytes();
            self.encode_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let back = Msg::from_bytes(&body).map_err(|e| format!("codec replay: {e}"))?;
            self.decode_s += start.elapsed().as_secs_f64();
            std::hint::black_box(back);
            let (from, to) = (env.from.index(), env.to.index());
            self.envelope(FrameKind::Data, from, to, seq as u64, body)?;
        }
        Ok(())
    }

    fn replay_nulls(&mut self, count: u64) -> Result<(), String> {
        for seq in 0..count {
            self.envelope(FrameKind::Null, 0, 1, seq, Vec::new())?;
        }
        Ok(())
    }

    fn envelope(
        &mut self,
        kind: FrameKind,
        from: usize,
        to: usize,
        seq: u64,
        body: Vec<u8>,
    ) -> Result<(), String> {
        let key = pair_key(SECRET, from, to);
        let msg = WrapperMsg {
            kind,
            from: from as u32,
            to: to as u32,
            wire_seq: seq,
            lseq: seq,
            vsend: seq as f64,
            vdeliver: seq as f64 + 1.0,
            body,
            mac: 0,
        };
        let start = Instant::now();
        let msg = msg.signed(key);
        let verified = msg.verify(key);
        self.mac_s += start.elapsed().as_secs_f64();
        if !verified {
            return Err("MAC replay: a signed envelope did not verify".into());
        }
        let start = Instant::now();
        self.frames.push(&frame(&msg.encode()));
        let got = self
            .frames
            .next_frame()
            .map_err(|e| format!("frame replay: {e}"))?
            .ok_or("frame replay: a whole frame did not come back")?;
        let back = WrapperMsg::decode(&got).map_err(|e| format!("frame replay: {e}"))?;
        self.frame_s += start.elapsed().as_secs_f64();
        std::hint::black_box(back);
        Ok(())
    }
}

impl Workload for Tcp {
    fn run(&mut self, i: u64, layers: Option<&mut Layers>) -> Result<Run, String> {
        let bundle = &self.pool[(i % self.pool.len() as u64) as usize];
        let run = match layers {
            Some(layers) => self.run_traced(bundle, layers),
            None => {
                let cfg = bundle_config();
                self.deploy(
                    |me| {
                        let party =
                            BundledAaParty::new(PartyId(me), cfg, bundle.inputs[me].clone())
                                .expect("k >= 1");
                        Reliable::new(party, BUNDLE_N)
                    },
                    Reliable::state_fingerprint,
                )
                .map(|d| self.finish(bundle, &d))
            }
        };
        self.remove_wals();
        run
    }

    fn set_tamper(&mut self, on: bool) {
        self.tamper = on;
    }

    fn partitions(&self) -> Vec<Partition> {
        vec![
            // Deployment wall = start → last node ready → last node
            // returned; the residual is joining the node threads.
            Partition {
                whole: "bench.wall_s",
                parts: &["net.handshake_ms", "net.drive_ms", "bench.residual_s"],
                lo: -0.05,
                hi: 0.05,
            },
            // Node thread time from its own ready to its return, summed
            // over nodes: callbacks as timed by the shims, wire and WAL
            // work as replayed, and the declared residual, waiting on
            // sockets, polls and virtual time.
            Partition {
                whole: "net.drive_node_s",
                parts: &[
                    "real-aa.handler_s",
                    "async-net.reliable_s",
                    "net.codec_encode_s",
                    "net.codec_decode_s",
                    "net.mac_s",
                    "net.frame_s",
                    "net.wal_append_s",
                    "net.io_wait_s",
                ],
                lo: -0.05,
                hi: 1.0,
            },
        ]
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
        // Remove the shared parent too once no other run uses it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net::wal::{WalEvent, WalMark, WalRemote};
    use net::WalHeader;

    #[test]
    fn decode_wal_reads_the_records_the_writer_encodes() {
        let records = vec![
            WalRecord::Header(WalHeader {
                config_fp: 0xfeed,
                me: 2,
                n: 4,
                t: 1,
                seed: 9,
                min_delay_bits: 0.5f64.to_bits(),
                wire_version: 2,
                label: "perfbench".into(),
            }),
            WalRecord::Reserve { peer: 1, upto: 64 },
            WalRecord::Event(WalEvent {
                time_bits: 1.25f64.to_bits(),
                class: 0,
                a: 1,
                b: 2,
                c: 3,
                remote: Some(WalRemote {
                    from: 1,
                    lseq: 3,
                    vsend_bits: 0.75f64.to_bits(),
                    body: vec![0, 1, 0xab, 0xff],
                }),
            }),
            WalRecord::Event(WalEvent {
                time_bits: 1.5f64.to_bits(),
                class: 1,
                a: 2,
                b: 0,
                c: 7,
                remote: None,
            }),
            WalRecord::Mark(WalMark {
                time_bits: 2.0f64.to_bits(),
                events: 12,
                probe: u64::MAX,
            }),
        ];
        let bytes: Vec<u8> = records.iter().flat_map(WalRecord::encode).collect();
        assert_eq!(decode_wal(&bytes).expect("decodes"), records);
        // A torn tail is left out, as `read_wal` leaves it out.
        let torn = decode_wal(&bytes[..bytes.len() - 3]).expect("decodes");
        assert_eq!(torn, records[..records.len() - 1]);
        // A flipped byte fails the checksum.
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(decode_wal(&bad).is_err());
    }
}
