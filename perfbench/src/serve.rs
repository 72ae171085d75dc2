//! The `serve-decide` workload: one closed-loop client sends 16-query
//! `DECIDE` batches to an in-process server over loopback, swapping
//! between two frozen snapshots every [`SWAP_EVERY`].

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use cohmeleon_core::frozen::mask_modes;
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, FrozenSnapshot, State};
use cohmeleon_serve::{
    run_server, Query, ServeClient, ServeOptions, ServerStat, ToClient, ToServer,
};

use crate::trace::{Tracer, ROOT};

/// Queries per `DECIDE` batch.
pub const BATCH: usize = 16;

/// Time between two `SWAP`s. A clock rather than a batch count keeps the
/// swaps per run, and so the server's memory (its swap cell keeps every
/// replaced table until it drops), independent of how fast batches run.
pub const SWAP_EVERY: Duration = Duration::from_millis(50);

/// Accelerator instances and kinds the generated queries name.
const INSTANCES: u64 = 16;
const KINDS: u64 = 8;

/// A splitmix64 step: the benchmark's own seeded generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A full-coverage bare Q-table (every state, four modes) from `seed`.
fn qtable_text(seed: u64) -> String {
    let mut rng = seed;
    let mut text = String::from("# cohmeleon q-table v1\n");
    for s in 0..State::COUNT {
        let _ = write!(text, "{s}");
        for _ in 0..CoherenceMode::COUNT {
            let v = (next(&mut rng) % 20_001) as f64 / 1000.0 - 10.0;
            let _ = write!(text, "\t{v}");
        }
        text.push('\n');
    }
    text
}

/// The served inputs: two snapshots, their files, and the bound listener.
pub struct Setup {
    /// Snapshot A (version 1, 3, 5, ...) and B (2, 4, ...).
    pub snapshots: [FrozenSnapshot; 2],
    /// Server-side paths of the two snapshot files.
    pub paths: [String; 2],
    /// The loopback listener the server will accept on.
    pub listener: TcpListener,
}

/// Generates and writes both snapshots under `dir`, parses them back as
/// the server will, and binds a loopback port.
pub fn setup(seed: u64, dir: &Path) -> io::Result<Setup> {
    let [text_a, text_b] = tables(seed);
    let write_and_load = |tag: &str, text: String| -> io::Result<(FrozenSnapshot, String)> {
        let path = dir.join(format!("serve-{tag}.tsv"));
        fs::write(&path, text)?;
        let text = fs::read_to_string(&path)?;
        let snapshot = FrozenSnapshot::parse(&text, State::COUNT).map_err(io::Error::other)?;
        let path = path
            .to_str()
            .ok_or_else(|| io::Error::other("non-UTF-8 path"))?;
        Ok((snapshot, path.to_owned()))
    };
    let (a, path_a) = write_and_load("a", text_a)?;
    let (b, path_b) = write_and_load("b", text_b)?;
    Ok(Setup {
        snapshots: [a, b],
        paths: [path_a, path_b],
        listener: TcpListener::bind("127.0.0.1:0")?,
    })
}

/// The texts of snapshots A and B for `seed`.
pub fn tables(seed: u64) -> [String; 2] {
    [0, 1].map(|i| qtable_text(seed.wrapping_mul(2).wrapping_add(i)))
}

/// One batch of seeded queries.
fn queries(rng: &mut u64) -> Vec<Query> {
    (0..BATCH)
        .map(|_| {
            let r = next(rng);
            Query {
                instance: (r % INSTANCES) as u16,
                kind: (!(r >> 8).is_multiple_of(4)).then_some(((r >> 16) % KINDS) as u16),
                state: ((r >> 24) % State::COUNT as u64) as u32,
                mask: 1 + ((r >> 40) % 15) as u8,
            }
        })
        .collect()
}

/// Round trips below this many ns are counted per exact ns value.
const DENSE_NS: usize = 250_000;

/// Every batch's round trip in whole ns, kept exactly in memory that
/// does not depend on how many batches or how fast they run: a count
/// per ns value below 250 µs (a table written through once, so all of it
/// is resident from the start), and a list of the rare slower ones.
#[derive(Debug)]
pub struct Rtts {
    dense: Vec<u32>,
    slow: Vec<u64>,
    len: u64,
    sum_ns: u128,
}

impl Default for Rtts {
    fn default() -> Self {
        // Filled element by element rather than `vec![0; n]`, whose
        // zeroed pages would become resident only as round trips land,
        // making the peak RSS depend on how the round trips spread.
        #[allow(clippy::slow_vector_initialization)]
        let dense = {
            let mut dense = Vec::with_capacity(DENSE_NS);
            dense.resize(DENSE_NS, 0);
            dense
        };
        Rtts {
            dense,
            slow: Vec::new(),
            len: 0,
            sum_ns: 0,
        }
    }
}

impl Rtts {
    /// Records one round trip.
    pub fn record(&mut self, ns: u64) {
        match usize::try_from(ns).ok().filter(|&i| i < DENSE_NS) {
            Some(i) => self.dense[i] += 1,
            None => self.slow.push(ns),
        }
        self.len += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Round trips recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether none were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean round trip, µs.
    pub fn mean_us(&self) -> f64 {
        self.sum_ns as f64 / self.len.max(1) as f64 / 1e3
    }

    /// The nearest-rank `p`-th percentile, µs (0 for none).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.len as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ns, &count) in self.dense.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as f64 / 1e3;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

/// What one pass of the closed loop measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Round trip of every answered batch.
    pub rtts: Rtts,
    /// Batches sent (answered or not).
    pub batches: u64,
    /// Swaps sent.
    pub swaps: u64,
    /// Batches answered wrongly or not at all, and failed swaps.
    pub failed: u64,
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Time in `FrozenSnapshot::decide` while verifying, ns (traced).
    pub frozen_ns: u64,
    /// Time encoding and parsing each batch's request and reply, ns
    /// (traced).
    pub codec_ns: u64,
}

/// Which snapshot answered `version` (A is version 1; every successful
/// swap installs the other one).
fn snapshot_of(snapshots: &[FrozenSnapshot; 2], version: u64) -> &FrozenSnapshot {
    &snapshots[(version.saturating_sub(1) % 2) as usize]
}

/// The closed loop: batches, and a swap every [`SWAP_EVERY`], until
/// `budget` has passed. Every reply is checked against
/// `FrozenSnapshot::decide` for the version the server returned. With a
/// tracer, the check and the request/reply codec are timed in spans.
fn drive(
    client: &mut ServeClient,
    snapshots: &[FrozenSnapshot; 2],
    paths: &[String; 2],
    rng: &mut u64,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut next_swap = started + SWAP_EVERY;
    while started.elapsed() < budget {
        if Instant::now() >= next_swap {
            next_swap = Instant::now() + SWAP_EVERY;
            pass.swaps += 1;
            // Version v serves snapshot (v - 1) % 2; install the other.
            let incoming = (client.version() % 2) as usize;
            if let Err(e) = client.swap(&paths[incoming]) {
                eprintln!("perfbench: swap failed: {e}");
                pass.failed += 1;
            }
        }
        let batch = queries(rng);
        pass.batches += 1;
        let t0 = Instant::now();
        let reply = client.decide_batch(&batch);
        let t1 = Instant::now();
        let (version, modes) = match reply {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: DECIDE failed: {e}");
                pass.failed += 1;
                if e.kind() == io::ErrorKind::InvalidData {
                    continue;
                }
                break;
            }
        };
        pass.rtts.record((t1 - t0).as_nanos() as u64);
        let snapshot = snapshot_of(snapshots, version);
        let check = || {
            batch.iter().zip(&modes).all(|(q, &got)| {
                snapshot.decide(
                    AccelInstanceId(q.instance),
                    q.kind.map(AccelKindId),
                    q.state as usize,
                    mask_modes(q.mask),
                ) == Some(got)
            })
        };
        let ok = match tracer.as_deref_mut() {
            None => check(),
            Some(tracer) => {
                tracer.op = pass.batches as u32;
                tracer.push("serve.batch", tracer.ns_at(t0), tracer.ns_at(t1), ROOT);
                let t = Instant::now();
                let ok = check();
                let decided = Instant::now();
                let codec_ok = codec_roundtrip(&batch, version, &modes);
                let coded = Instant::now();
                tracer.push(
                    "core.frozen_decide",
                    tracer.ns_at(t),
                    tracer.ns_at(decided),
                    ROOT,
                );
                tracer.push(
                    "serve.codec",
                    tracer.ns_at(decided),
                    tracer.ns_at(coded),
                    ROOT,
                );
                pass.frozen_ns += (decided - t).as_nanos() as u64;
                pass.codec_ns += (coded - decided).as_nanos() as u64;
                ok && codec_ok
            }
        };
        if !ok {
            eprintln!(
                "perfbench: batch {} answered by version {version} is wrong",
                pass.batches
            );
            pass.failed += 1;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Encodes and parses this batch's request and reply lines, as client
/// and server do; true if both round-trip.
fn codec_roundtrip(queries: &[Query], version: u64, modes: &[CoherenceMode]) -> bool {
    let request = ToServer::Decide {
        queries: queries.to_vec(),
    };
    let reply = ToClient::Modes {
        version,
        modes: modes.iter().map(|m| m.index() as u8).collect(),
    };
    ToServer::parse(&request.to_line()).as_ref() == Ok(&request)
        && ToClient::parse(&reply.to_line()).as_ref() == Ok(&reply)
}

/// Both passes and the server's final counters.
pub struct Run {
    /// The untraced pass.
    pub untraced: Pass,
    /// The traced pass, when asked for.
    pub traced: Option<Pass>,
    /// `STAT` after the last pass.
    pub stat: ServerStat,
    /// Peak RSS (MiB) right after the untraced pass.
    pub untraced_rss_mb: f64,
}

/// Serves `setup` on its listener, runs the untraced pass (and the traced
/// one when `tracer` is given) over one connection, then shuts the
/// server down and joins it.
pub fn run(
    setup: Setup,
    seed: u64,
    budget: Duration,
    tracer: Option<&mut Tracer>,
) -> io::Result<Run> {
    let addr = setup.listener.local_addr()?.to_string();
    let Setup {
        snapshots,
        paths,
        listener,
    } = setup;
    let initial = snapshots[0].clone();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| run_server(listener, initial, &ServeOptions::default()));
        let result = (|| -> io::Result<Run> {
            let mut client = ServeClient::connect(&addr, "perfbench")?;
            let mut rng = seed ^ 0x5e7e_de01;
            let untraced = drive(&mut client, &snapshots, &paths, &mut rng, budget, None);
            let untraced_rss_mb = crate::procfs::peak_rss_mb().unwrap_or(0.0);
            let traced =
                tracer.map(|t| drive(&mut client, &snapshots, &paths, &mut rng, budget, Some(t)));
            let stat = client.stat()?;
            Ok(Run {
                untraced,
                traced,
                stat,
                untraced_rss_mb,
            })
        })();
        // Shut down over a fresh connection, so a broken client cannot
        // leave the server (and this scope) running.
        let shutdown =
            ServeClient::connect(&addr, "perfbench-admin").and_then(ServeClient::shutdown);
        let report = server.join().expect("server thread");
        let run = result?;
        shutdown?;
        report?;
        Ok(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_percentiles_are_exact() {
        let mut rtts = Rtts::default();
        let samples = [5_000u64, 1_000, 3_000, 2_000_000, 4_000, 2_000];
        for ns in samples {
            rtts.record(ns);
        }
        assert_eq!(rtts.len(), 6);
        assert_eq!(rtts.percentile_us(50.0), 3.0);
        assert_eq!(rtts.percentile_us(80.0), 5.0);
        assert_eq!(rtts.percentile_us(99.0), 2000.0);
        assert_eq!(rtts.percentile_us(0.0), 1.0);
        assert!((rtts.mean_us() - 2_015_000.0 / 6.0 / 1e3).abs() < 1e-9);
    }
}
