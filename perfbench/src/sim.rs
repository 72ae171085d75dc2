//! The simulation workloads: grid builders, the untraced Serial pass,
//! and the traced pass that drives every cell through public calls.

use std::time::{Duration, Instant};

use cohmeleon_cache::TagStats;
use cohmeleon_core::policy::PolicyComplexity;
use cohmeleon_core::{CoherenceMode, Policy};
use cohmeleon_exp::{
    build_policy, CellId, CellResult, Experiment, PolicyKind, Protocol, Scenario, Serial, SweepGrid,
};
use cohmeleon_sim::stats::geometric_mean;
use cohmeleon_soc::config::{soc0_irregular, soc0_streaming, soc1, soc2, soc3, soc4, soc5, soc6};
use cohmeleon_soc::{run_app_with_options, AppResult, AppSpec, EngineOptions, Soc, SocConfig};
use cohmeleon_workloads::case_studies::{soc4_app, soc5_app, soc6_app};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::summarize;

use crate::metrics::median;
use crate::timed::TimedPolicy;
use crate::trace::{Tracer, ROOT};

/// Every untraced and traced pass runs at least this many whole rounds,
/// so that repeats of each cell can be compared and each cell's time
/// is a median of at least three.
pub const MIN_ROUNDS: usize = 3;

/// The seed at which `paper-grid` rebuilds fig9's own inputs.
pub const DEFAULT_SEED: u64 = 0;

/// Cohmeleon's training iterations on `paper-grid` (fig9 at fast scale).
const PAPER_TRAIN_ITERATIONS: usize = 2;

/// Grid seeds per round on `dma-stream`.
const DMA_SEEDS: u64 = 1;

/// The five traffic-generator SoCs of fig9.
fn traffic_socs() -> [SocConfig; 5] {
    [soc0_streaming(), soc0_irregular(), soc1(), soc2(), soc3()]
}

/// fig9's 8 scenarios × 8 policies at fast scale, on fig9's own apps
/// (quick traffic-generator apps 5000+2i / 5001+2i, case-study training
/// apps 5100..=5102, case-study apps of seed 2). The seed moves the grid
/// seed, `7 + seed`, which drives every random draw of a cell: burst
/// schedules, the random policy, Cohmeleon's exploration and the
/// heterogeneous profiling sweep. [`DEFAULT_SEED`] is fig9 itself.
pub fn paper_grid(seed: u64) -> SweepGrid {
    let params = GeneratorParams::quick();
    let mut experiments: Vec<(SocConfig, AppSpec, AppSpec)> = Vec::new();
    for (i, config) in traffic_socs().into_iter().enumerate() {
        let train = generate_app(&config, &params, 5000 + i as u64 * 2);
        let test = generate_app(&config, &params, 5001 + i as u64 * 2);
        experiments.push((config, train, test));
    }
    type CaseApp = fn(&SocConfig, u64) -> AppSpec;
    let cases: [(SocConfig, CaseApp); 3] =
        [(soc4(), soc4_app), (soc5(), soc5_app), (soc6(), soc6_app)];
    for (j, (config, app)) in cases.into_iter().enumerate() {
        let train = generate_app(&config, &params, 5100 + j as u64);
        let test = app(&config, 2);
        experiments.push((config, train, test));
    }
    let scenarios = experiments
        .into_iter()
        .enumerate()
        .map(|(i, (config, train, test))| Scenario::new(config, train, test).seed_offset(i as u64));
    Experiment::new()
        .scenarios(scenarios)
        .policy_kinds(PolicyKind::ALL)
        .seed(seed.wrapping_add(7))
        .train_iterations(PAPER_TRAIN_ITERATIONS)
        .build()
        .expect("paper grid is non-empty")
}

/// fig9's full-scale test apps (`GeneratorParams::default()`, seeds
/// 5001+2i) on the traffic-generator SoCs under `fixed-non-coh-dma`,
/// evaluated without training, over [`DMA_SEEDS`] grid seeds from `seed`.
/// SoC0-irregular is left out: its cell alone takes ~2 s, three quarters
/// of a round, too long to be repeated often enough in a run for its
/// fastest repeat to settle (see `Untraced::cell_times_us`).
pub fn dma_stream_grid(seed: u64) -> SweepGrid {
    let params = GeneratorParams::default();
    let scenarios = traffic_socs()
        .into_iter()
        .enumerate()
        .filter(|(_, config)| config.name != soc0_irregular().name)
        .map(|(i, config)| {
            let app = generate_app(&config, &params, 5001 + i as u64 * 2);
            Scenario::evaluate(config, app)
        });
    Experiment::new()
        .scenarios(scenarios)
        .protocol(Protocol::EvaluateOnly)
        .policy_kinds([PolicyKind::FixedNonCoh])
        .seeds((0..DMA_SEEDS).map(|k| seed.wrapping_mul(DMA_SEEDS).wrapping_add(k)))
        .build()
        .expect("dma-stream grid is non-empty")
}

/// Threads that run the untraced pass, each its own `Serial` rounds of
/// the whole grid: one per CPU of a two-CPU host.
pub const THREADS: usize = 2;

/// What the untraced Serial pass measured.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Whole rounds of the grid completed, over all threads.
    pub rounds: usize,
    /// Wall time of the untraced pass, in seconds.
    pub wall_s: f64,
    /// Host time of each cell in each round, µs, by dense cell index
    /// (Serial delivers each cell as it finishes, so the gap between
    /// deliveries is the cell's time).
    pub cell_us: Vec<Vec<f64>>,
    /// Structural hash of each cell of the first round, in dense order.
    pub hashes: Vec<u64>,
    /// Cells whose hash differed from the first round's, on any thread.
    pub mismatches: u64,
    /// The first round's results, in dense order (kept on request).
    pub results: Vec<AppResult>,
}

impl Untraced {
    /// Cells executed.
    pub fn cells(&self) -> u64 {
        (self.rounds * self.hashes.len()) as u64
    }

    /// A round's host time as the sum of the cells' times, in seconds.
    pub fn round_s(&self) -> f64 {
        self.cell_times_us().iter().sum::<f64>() / 1e6
    }

    /// Each cell's host time, µs, in dense order: the fastest of its
    /// repeats on every thread. Other tenants of a shared host slow each
    /// CPU by up to ~1.6x for seconds at a time, independently of the
    /// other CPU; the fastest repeat is the cell's time on an
    /// uncontended core, which is what a code change moves.
    pub fn cell_times_us(&self) -> Vec<f64> {
        self.cell_us
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// Runs whole rounds of `grid` on the `Serial` executor, on [`THREADS`]
/// threads at once, each until another round would overrun `budget` (at
/// least [`MIN_ROUNDS`] each). The calling thread calls `between` before
/// each of its rounds, outside the round's timing. Every round of every
/// thread is hash-checked against the calling thread's first.
pub fn untraced(
    grid: &SweepGrid,
    budget: Duration,
    keep_results: bool,
    between: impl FnMut(),
) -> Untraced {
    let started = Instant::now();
    let (mut out, others) = std::thread::scope(|scope| {
        let others: Vec<_> = (1..THREADS)
            .map(|_| scope.spawn(|| rounds(grid, budget, started, false, || {})))
            .collect();
        let mine = rounds(grid, budget, started, keep_results, between);
        let others: Vec<Untraced> = others
            .into_iter()
            .map(|h| h.join().expect("round thread"))
            .collect();
        (mine, others)
    });
    for other in others {
        out.rounds += other.rounds;
        out.mismatches += other.mismatches
            + out
                .hashes
                .iter()
                .zip(&other.hashes)
                .filter(|(a, b)| a != b)
                .count() as u64;
        for (mine, theirs) in out.cell_us.iter_mut().zip(other.cell_us) {
            mine.extend(theirs);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// One thread's rounds of [`untraced`].
fn rounds(
    grid: &SweepGrid,
    budget: Duration,
    started: Instant,
    keep_results: bool,
    mut between: impl FnMut(),
) -> Untraced {
    let n = grid.num_cells();
    let mut out = Untraced {
        cell_us: vec![Vec::new(); n],
        ..Untraced::default()
    };
    loop {
        between();
        let round_start = Instant::now();
        let mut last = round_start;
        let mut hashes = vec![0u64; n];
        let mut results: Vec<Option<AppResult>> = Vec::new();
        if keep_results && out.rounds == 0 {
            results.resize(n, None);
        }
        grid.execute(&Serial, &mut |r: CellResult| {
            let now = Instant::now();
            let i = grid.cell_index(r.cell);
            out.cell_us[i].push((now - last).as_secs_f64() * 1e6);
            last = now;
            hashes[i] = r.result.structural_hash();
            if let Some(slot) = results.get_mut(i) {
                *slot = Some(r.result);
            }
        });
        let round = round_start.elapsed();
        if out.rounds == 0 {
            out.hashes = hashes;
            out.results = results
                .into_iter()
                .map(|r| r.expect("Serial delivers every cell"))
                .collect();
        } else {
            out.mismatches += out
                .hashes
                .iter()
                .zip(&hashes)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        out.rounds += 1;
        if out.rounds >= MIN_ROUNDS && started.elapsed() + round > budget {
            return out;
        }
    }
}

/// Modeled totals of one round, summed over every engine run (training
/// and evaluation).
#[derive(Debug, Default)]
pub struct Counts {
    /// Simulation events.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Off-chip accesses.
    pub offchip: u64,
    /// Tag-walk counters.
    pub tags: TagStats,
    /// Policy decisions per mode, over cohmeleon cells only.
    pub cohmeleon_modes: [u64; CoherenceMode::COUNT],
}

impl Counts {
    fn add(&mut self, r: &AppResult) {
        self.events += r.total_events();
        self.cycles += r.total_duration();
        self.offchip += r.total_offchip();
        self.tags.merge(&r.tag_walk);
    }
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Whole rounds completed.
    pub rounds: usize,
    /// Wall time of each traced round, in seconds.
    pub round_s: Vec<f64>,
    /// Wall time of the untraced `Serial` round run before each traced
    /// one, in seconds.
    pub serial_round_s: Vec<f64>,
    /// Modeled totals of the first round.
    pub counts: Counts,
    /// Cells traced.
    pub cells: u64,
    /// Cells whose hash differed from the untraced pass.
    pub mismatches: u64,
}

impl Traced {
    /// Percent by which a traced round's median time exceeds the median
    /// of the untraced rounds interleaved with them.
    pub fn overhead_pct(&self) -> f64 {
        (median(&self.round_s) / median(&self.serial_round_s) - 1.0) * 100.0
    }
}

/// Drives every cell of `grid` itself, round after round until another
/// round would overrun `budget` (at least [`MIN_ROUNDS`]), recording
/// spans into `tracer`; every cell's structural hash must equal
/// `reference` (the untraced pass's, in dense order). Before each traced
/// round an untraced `Serial` round of the same grid is timed, so the
/// tracing overhead compares rounds that saw the same host.
pub fn traced(
    grid: &SweepGrid,
    budget: Duration,
    reference: &[u64],
    tracer: &mut Tracer,
) -> Traced {
    let mut out = Traced::default();
    let started = Instant::now();
    loop {
        let serial_start = Instant::now();
        grid.execute(&Serial, &mut |_: CellResult| {});
        out.serial_round_s
            .push(serial_start.elapsed().as_secs_f64());
        let round_start = Instant::now();
        let (counts, mismatches) = traced_round(grid, reference, tracer);
        out.round_s.push(round_start.elapsed().as_secs_f64());
        let pair = serial_start.elapsed();
        out.cells += grid.num_cells() as u64;
        out.mismatches += mismatches;
        if out.rounds == 0 {
            out.counts = counts;
        }
        out.rounds += 1;
        if out.rounds >= MIN_ROUNDS && started.elapsed() + pair > budget {
            return out;
        }
    }
}

/// One traced round of `grid`: its modeled totals and the number of
/// cells whose hash differs from `reference`.
pub fn traced_round(grid: &SweepGrid, reference: &[u64], tracer: &mut Tracer) -> (Counts, u64) {
    let mut counts = Counts::default();
    let mut mismatches = 0;
    for (i, cell) in grid.cells().enumerate() {
        tracer.op = i as u32;
        let span = tracer.open("exp.cell", ROOT);
        let result = traced_cell(grid, cell, tracer, span, &mut counts);
        tracer.close(span);
        if result.structural_hash() != reference[i] {
            mismatches += 1;
        }
    }
    (counts, mismatches)
}

/// One cell through public calls, as `SweepGrid::run_cell` runs it:
/// `build_policy`, then for a learned policy under `TrainTest` one
/// `begin_iteration` + `Soc::new` + `run_app_with_options` per training
/// iteration and `freeze`, then the evaluation run.
fn traced_cell(
    grid: &SweepGrid,
    cell: CellId,
    tracer: &mut Tracer,
    parent: u32,
    counts: &mut Counts,
) -> AppResult {
    let scenario = &grid.scenarios()[cell.scenario];
    let kind = grid.policies()[cell.policy]
        .as_kind()
        .expect("benchmark grids hold PolicyKind policies");
    let seed = grid.cell_seed(cell);
    let iterations = grid.train_iterations();
    let inner = tracer.span("exp.build_policy", parent, || {
        build_policy(kind, &scenario.config, iterations, seed)
    });
    let mut policy = TimedPolicy::new(inner, tracer.epoch());
    let eval_seed = match grid.protocol() {
        Protocol::TrainTest => {
            if policy.complexity() == PolicyComplexity::Learned {
                for i in 0..iterations {
                    policy.begin_iteration(i);
                    let train_seed = seed.wrapping_add(i as u64 * 7919);
                    let r = run_traced(
                        tracer,
                        parent,
                        &scenario.config,
                        &scenario.train,
                        &mut policy,
                        train_seed,
                    );
                    counts.add(&r);
                }
                tracer.span("core.freeze", parent, || policy.freeze());
            }
            seed ^ 0x5eed_7e57
        }
        Protocol::EvaluateOnly => seed,
    };
    let result = run_traced(
        tracer,
        parent,
        &scenario.config,
        &scenario.test,
        &mut policy,
        eval_seed,
    );
    counts.add(&result);
    if kind == PolicyKind::Cohmeleon {
        for (total, n) in counts.cohmeleon_modes.iter_mut().zip(policy.modes) {
            *total += n;
        }
    }
    result
}

fn run_traced(
    tracer: &mut Tracer,
    parent: u32,
    config: &SocConfig,
    app: &AppSpec,
    policy: &mut TimedPolicy,
    seed: u64,
) -> AppResult {
    let mut soc = tracer.span("soc.new", parent, || Soc::new(config.clone()));
    let run = tracer.open("soc.run", parent);
    let result = run_app_with_options(&mut soc, app, policy, seed, EngineOptions::default());
    tracer.close(run);
    policy.drain_into(tracer, run);
    result
}

/// fig9's headline over one round's results (dense order): Cohmeleon's
/// geo-mean speedup and mean off-chip reduction against the five fixed
/// policies, every policy normalized to `fixed-non-coh-dma` per scenario.
pub fn headline(grid: &SweepGrid, results: &[AppResult]) -> (f64, f64) {
    let policies = grid.policies().len();
    let label = |p: usize| grid.policies()[p].policy_label();
    let coh = (0..policies)
        .find(|&p| label(p) == PolicyKind::Cohmeleon.label())
        .expect("paper grid has cohmeleon");
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for s in 0..grid.scenarios().len() {
        let at = |p: usize| {
            grid.cell_index(CellId {
                scenario: s,
                policy: p,
                seed: 0,
            })
        };
        let base = &results[at(0)];
        let norm = |p: usize| {
            let o = summarize(results[at(p)].clone(), base);
            (o.geo_time, o.geo_mem)
        };
        let (coh_time, coh_mem) = norm(coh);
        for fixed in PolicyKind::FIXED {
            let Some(p) = (0..policies).find(|&p| label(p) == fixed.label()) else {
                continue;
            };
            let (time, mem) = norm(p);
            speedups.push(time / coh_time.max(1e-12));
            if mem > 1e-12 {
                reductions.push(1.0 - (coh_mem / mem).min(1.0));
            }
        }
    }
    let speedup = geometric_mean(speedups.iter().copied()).unwrap_or(1.0);
    let reduction = if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    };
    (speedup, reduction)
}
