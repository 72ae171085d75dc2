//! The `fleet-sweep` workload: many tiny cells through an in-process
//! queen and one loopback worker, with the fsync-per-record checkpoint.

use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use cohmeleon_exp::{
    canonical_jsonl, validate_record, CellRecord, CellResult, CheckpointWriter, Experiment,
    JsonlSink, PolicyKind, ResultSink, Serial, SweepGrid,
};
use cohmeleon_fleet::{run_queen, run_worker, QueenOptions, WorkerOptions};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::sizes::SizeClass;

use crate::metrics::median;
use crate::sim::MIN_ROUNDS;
use crate::trace::{Tracer, ROOT};

/// Grid seeds, and so cells, per round. A round ends on a step of the
/// queen's 10 ms accept poll and the worker's 20 ms heartbeat-ticker
/// slice; 32 cells keep a round's work well inside one step even on a
/// contended CPU, where 64 to 256 cells made round walls jump a step as
/// the host's speed changed.
const SEEDS: u64 = 32;

/// A one-phase app of one or two single-accelerator threads on small
/// inputs: the smallest the generator makes.
fn tiny() -> GeneratorParams {
    GeneratorParams {
        phases: 1,
        threads: (1, 2),
        chain_len: (1, 1),
        loops: (1, 1),
        size_mix: vec![SizeClass::Small],
        check_per_mille: 0,
    }
}

/// A tiny soc1 app (seed 5005) under `fixed-non-coh-dma`, the cheapest
/// mode (the cache hierarchy is bypassed and there is no profiling
/// sweep), over [`SEEDS`] grid seeds from `seed`, evaluated without
/// training: cells small enough that the fleet and the sweep's records
/// and checkpoint carry most of a round's time.
pub fn grid(seed: u64) -> SweepGrid {
    let config = soc1();
    let app = generate_app(&config, &tiny(), 5005);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh])
        .seeds((0..SEEDS).map(|k| seed.wrapping_mul(SEEDS).wrapping_add(k)))
        .build()
        .expect("fleet-sweep grid is non-empty")
}

/// One fleet round: what the queen and worker reported.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time from spawning the queen to both joining, in seconds.
    pub wall_s: f64,
    /// The finished checkpoint's bytes.
    pub bytes: String,
    /// Leases the worker completed.
    pub leases: usize,
    /// Fresh cells the queen persisted.
    pub ran: usize,
    /// Duplicate completions the queen reconciled.
    pub duplicates: usize,
    /// Speculative leases granted.
    pub speculative: usize,
}

/// Runs `grid` once through a fresh queen (checkpoint at `path`) and one
/// loopback worker thread.
pub fn round(grid: &SweepGrid, path: &Path) -> io::Result<Round> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let options = QueenOptions::new("perfbench", false);
    let start = Instant::now();
    let (queen, worker) = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(grid, listener, path, &options));
        let worker = run_worker(&addr, |_, _| Ok(grid.clone()), &WorkerOptions::new("local"));
        (queen.join().expect("queen thread"), worker)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (queen, worker) = (queen?, worker?);
    if !queen.complete {
        return Err(io::Error::other("fleet round did not complete the grid"));
    }
    Ok(Round {
        wall_s,
        bytes: fs::read_to_string(path)?,
        leases: worker.leases,
        ran: queen.ran,
        duplicates: queen.duplicates,
        speculative: queen.speculative,
    })
}

/// What the untraced fleet pass measured.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Wall time of each completed round, in seconds, in order.
    pub walls: Vec<f64>,
    /// Checkpoint lines of the completed rounds that differed from the
    /// canonical stream.
    pub differing: u64,
    /// Rounds that failed with an error (each counts its cells failed).
    pub errors: Vec<String>,
}

/// Fleet rounds until another would overrun `budget` (at least
/// [`MIN_ROUNDS`]), calling `between` before each round, outside the
/// round's timing. Each round's checkpoint is compared with `canonical`
/// as it completes.
pub fn untraced(
    grid: &SweepGrid,
    budget: Duration,
    path: &Path,
    canonical: &str,
    mut between: impl FnMut(),
) -> Untraced {
    let mut out = Untraced::default();
    let started = Instant::now();
    loop {
        between();
        let t = Instant::now();
        match round(grid, path) {
            Ok(r) => {
                out.walls.push(r.wall_s);
                out.differing += differing_lines(&r.bytes, canonical);
            }
            Err(e) => out.errors.push(e.to_string()),
        }
        let attempts = out.walls.len() + out.errors.len();
        if attempts >= MIN_ROUNDS && started.elapsed() + t.elapsed() > budget {
            return out;
        }
    }
}

/// Lines of `got` that differ from, or are missing against, `want`.
pub fn differing_lines(got: &str, want: &str) -> u64 {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let same = g.iter().zip(&w).filter(|(a, b)| a == b).count();
    (g.len().max(w.len()) - same) as u64
}

/// A `ResultSink` that times the sink it wraps.
struct TimedSink<'a, S: ResultSink> {
    inner: S,
    tracer: &'a mut Tracer,
    parent: u32,
}

impl<S: ResultSink> ResultSink for TimedSink<'_, S> {
    fn on_cell(&mut self, result: CellResult) {
        let id = self.tracer.open("exp.sink", self.parent);
        self.inner.on_cell(result);
        self.tracer.close(id);
    }
}

/// What the traced fleet pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Serial round walls, in seconds.
    pub serial_s: Vec<f64>,
    /// Fleet rounds interleaved with them.
    pub rounds: Vec<Round>,
    /// Rounds whose output differed from Serial's, or errored.
    pub failed_rounds: u64,
}

/// Alternates a Serial round (sink, record codec and checkpoint append
/// timed in spans) with a fleet round until another pair would overrun
/// `budget` (at least [`MIN_ROUNDS`] pairs). `canonical` is the Serial
/// stream both must reproduce.
pub fn traced(
    grid: &SweepGrid,
    budget: Duration,
    dir: &Path,
    canonical: &str,
    tracer: &mut Tracer,
) -> io::Result<Traced> {
    let mut out = Traced::default();
    let started = Instant::now();
    let checkpoint = dir.join("fleet-append.jsonl");
    let fleet_path = dir.join("fleet-traced.jsonl");
    loop {
        let t = Instant::now();
        let serial = tracer.open("exp.serial", ROOT);
        let mut sink = TimedSink {
            inner: JsonlSink::new(Vec::new()),
            tracer: &mut *tracer,
            parent: serial,
        };
        grid.execute(&Serial, &mut sink);
        let bytes = sink.inner.into_inner();
        tracer.close(serial);
        let span = tracer.spans()[serial as usize];
        out.serial_s.push(span.duration() as f64 / 1e9);
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let records: Vec<CellRecord> = tracer
            .span("exp.record_decode", serial, || {
                text.lines()
                    .map(|l| {
                        CellRecord::from_json(l).and_then(|r| validate_record(&r, grid).map(|()| r))
                    })
                    .collect::<Result<_, _>>()
            })
            .map_err(io::Error::other)?;
        let encoded: Vec<String> = tracer.span("exp.record_encode", serial, || {
            records.iter().map(CellRecord::to_json).collect()
        });
        let _ = fs::remove_file(&checkpoint);
        let mut writer = CheckpointWriter::open(&checkpoint, 0)?;
        for record in &records {
            tracer.span("exp.checkpoint_append", serial, || writer.append(record))?;
        }
        let serial_ok = canonical_jsonl(&records) == canonical
            && encoded.iter().zip(text.lines()).all(|(a, b)| a == b);

        let fleet = tracer.open("fleet.round", ROOT);
        let r = round(grid, &fleet_path);
        tracer.close(fleet);
        match r {
            Ok(r) => {
                if !serial_ok || r.bytes != canonical {
                    out.failed_rounds += 1;
                }
                out.rounds.push(r);
            }
            Err(e) => {
                eprintln!("perfbench: fleet round failed: {e}");
                out.failed_rounds += 1;
            }
        }
        if out.serial_s.len() >= MIN_ROUNDS && started.elapsed() + t.elapsed() > budget {
            fs::remove_file(&checkpoint)?;
            return Ok(out);
        }
    }
}

/// Median fleet overhead per cell in ms: median fleet round wall minus
/// median Serial round wall, over the grid's cells.
pub fn overhead_ms_per_cell(t: &Traced, cells: usize) -> f64 {
    let fleet: Vec<f64> = t.rounds.iter().map(|r| r.wall_s).collect();
    (median(&fleet) - median(&t.serial_s)) / cells as f64 * 1e3
}
