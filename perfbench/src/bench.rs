//! The four workloads: set-up, the untraced pass (end-to-end metrics),
//! the traced pass (per-layer metrics) and the correctness gates.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cohmeleon_bench::figures::fig9;
use cohmeleon_bench::Scale;
use cohmeleon_exp::{canonical_jsonl, Serial, SweepGrid};

use crate::metrics::{beyond, median, percentile, Outcome};
use crate::trace::{self_by_name, total_by_name, Span, Tracer};
use crate::{fleet, procfs, serve, sim};

/// Set-up repeats at the start of a run.
const SETUP_REPS: usize = 21;

/// Set-up repeats at each later sample point, one at most every
/// [`SETUP_EVERY`] of the run.
const SETUP_REPS_LATER: usize = 3;
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// The paper's headline (Section 6): 1.38× speedup, 66% fewer off-chip
/// accesses than the fixed policies.
const PAPER_SPEEDUP: f64 = 1.38;
const PAPER_OFFCHIP_REDUCTION_PCT: f64 = 66.0;

/// The benchmark's workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig9's 8 × 8 grid at fast scale: learning cells, modeled headline.
    PaperGrid,
    /// Non-coherent DMA only: the cache hierarchy is bypassed.
    DmaStream,
    /// Tiny cells through an in-process queen and loopback worker.
    FleetSweep,
    /// Batched decisions from an in-process server over loopback.
    ServeDecide,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [(&str, Workload); 4] = [
    ("paper-grid", Workload::PaperGrid),
    ("dma-stream", Workload::DmaStream),
    ("fleet-sweep", Workload::FleetSweep),
    ("serve-decide", Workload::ServeDecide),
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of each pass.
    pub seconds: u64,
    /// Whether to run the traced pass and print per-layer metrics.
    pub trace: bool,
    /// Directory the spans are written to.
    pub out_dir: PathBuf,
    /// Directory for this run's scratch files (snapshots, checkpoints).
    pub dir: PathBuf,
}

/// Set-up times of one run. The set-up is timed [`SETUP_REPS`] times at
/// the start and [`SETUP_REPS_LATER`] times again at most every
/// [`SETUP_EVERY`] while the run measures, so that their median sees the
/// host through the whole run rather than through its first
/// milliseconds.
struct SetupTimes {
    times: Vec<f64>,
    last: Instant,
}

impl SetupTimes {
    /// Times `build` [`SETUP_REPS`] times and returns the last result.
    fn first<T>(build: &mut impl FnMut() -> T) -> (SetupTimes, T) {
        let mut times = SetupTimes {
            times: Vec::new(),
            last: Instant::now(),
        };
        let built = times.time(SETUP_REPS, build);
        (times, built)
    }

    /// Times `build` again if [`SETUP_EVERY`] has passed since the last
    /// sample point.
    fn tick<T>(&mut self, build: &mut impl FnMut() -> T) {
        if self.last.elapsed() >= SETUP_EVERY {
            self.time(SETUP_REPS_LATER, build);
        }
    }

    fn time<T>(&mut self, reps: usize, build: &mut impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            last = Some(build());
            self.times.push(t.elapsed().as_secs_f64());
        }
        self.last = Instant::now();
        last.expect("at least one set-up")
    }

    fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Records `ops_per_s` and `op_p50_us`, and prints the sample count and
/// tail of the op latencies beside them. `pct` gives a percentile of `n`
/// exact samples, µs.
fn op_metrics(
    out: &mut Outcome,
    ops_per_s: f64,
    op_p50_us: f64,
    n: usize,
    pct: impl Fn(f64) -> f64,
) {
    out.values.set("ops_per_s", ops_per_s);
    out.values.set("op_p50_us", op_p50_us);
    let highest = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0);
    eprintln!(
        "perfbench: op latency over {n} exact samples: p50 {:.3} us; highest percentile with \
         >= 10 samples beyond: p{highest} = {:.3} us; p99 {:.3} us",
        pct(50.0),
        pct(highest),
        pct(99.0)
    );
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut out = Outcome::default();
    match args.workload {
        Workload::PaperGrid => run_sim(args, budget, &mut out, sim::paper_grid),
        Workload::DmaStream => run_sim(args, budget, &mut out, sim::dma_stream_grid),
        Workload::FleetSweep => run_fleet(args, budget, &mut out),
        Workload::ServeDecide => run_serve(args, budget, &mut out),
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = procfs::user_cpu_s().unwrap_or(0.0);
    eprintln!("perfbench: process wall {wall:.3} s, user CPU {cpu:.3} s");
    out.values.set("host.wall_s", wall);
    out.values.set("host.user_cpu_s", cpu);
    out
}

fn run_sim(args: &Args, budget: Duration, out: &mut Outcome, build: fn(u64) -> SweepGrid) {
    let mut build = || build(args.seed);
    let (mut setup, grid) = SetupTimes::first(&mut build);
    let paper = args.workload == Workload::PaperGrid;
    let u = sim::untraced(&grid, budget, paper, || setup.tick(&mut build));
    out.values.set("setup_s", setup.median_s());
    out.values.set("workloads.generate_s", setup.median_s());
    out.values
        .set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
    let median_round_s = u.cell_us.iter().map(|t| median(t)).sum::<f64>() / 1e6;
    eprintln!(
        "perfbench: {} cells in {} rounds on {} threads, {:.3} s wall, {:.3} s per round \
         (sum of each cell's fastest repeat; {median_round_s:.3} s with medians)",
        u.cells(),
        u.rounds,
        sim::THREADS,
        u.wall_s,
        u.round_s()
    );
    // An op is a cell, its latency the cell's fastest repeat;
    // throughput is over the sum of the same times.
    let round_s = u.round_s();
    let cell_us = u.cell_times_us();
    op_metrics(
        out,
        grid.num_cells() as f64 / round_s,
        percentile(&cell_us, 50.0),
        cell_us.len(),
        |p| percentile(&cell_us, p),
    );
    out.attempted += u.cells();
    out.failed += u.mismatches;
    if paper {
        model_metrics(args.seed, &grid, &u.results, out);
    }
    if !args.trace {
        return;
    }
    let mut tracer = Tracer::default();
    let t = sim::traced(&grid, budget, &u.hashes, &mut tracer);
    out.attempted += t.cells;
    out.failed += t.mismatches;
    out.check(t.mismatches == 0, || {
        format!(
            "{} traced cells hash differently from the untraced grid",
            t.mismatches
        )
    });
    sim_layers(out, tracer.spans(), &t, 1.0 / round_s);
    out.values.set("trace.overhead_pct", t.overhead_pct());
    write_spans(args, &tracer);
}

/// The modeled headline of the first round, printed beside the paper's;
/// at the default seed it must equal `fig9::run(Scale::Fast)`'s.
fn model_metrics(
    seed: u64,
    grid: &SweepGrid,
    results: &[cohmeleon_soc::AppResult],
    out: &mut Outcome,
) {
    let (speedup, reduction) = sim::headline(grid, results);
    eprintln!(
        "perfbench: modeled headline: cohmeleon vs fixed policies speedup {speedup:.4}x \
         (paper {PAPER_SPEEDUP}x), off-chip reduction {:.2}% (paper {PAPER_OFFCHIP_REDUCTION_PCT}%); \
         the model is unvalidated against hardware",
        reduction * 100.0
    );
    out.values.set("model.speedup_x", speedup);
    out.values
        .set("model.offchip_reduction_pct", reduction * 100.0);
    if seed == sim::DEFAULT_SEED {
        let fig = fig9::run(Scale::Fast);
        out.check(
            fig.headline_speedup == speedup && fig.headline_mem_reduction == reduction,
            || {
                format!(
                    "modeled headline ({speedup}, {reduction}) differs from fig9::run(Fast) ({}, {})",
                    fig.headline_speedup, fig.headline_mem_reduction
                )
            },
        );
    }
}

/// Per-layer metrics of a traced simulation pass.
fn sim_layers(out: &mut Outcome, spans: &[Span], t: &sim::Traced, untraced_rounds_per_s: f64) {
    let own = self_by_name(spans);
    let total = total_by_name(spans);
    let get =
        |m: &std::collections::BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let rounds = t.rounds as f64;
    let c = &t.counts;
    let events = c.events as f64;
    let soc_self = get(&own, "soc.run");
    out.values.set("soc.self_s", soc_self / 1e9 / rounds);
    out.values
        .set("soc.self_ns_per_event", soc_self / (events * rounds));
    out.values
        .set("sim.events_per_s", events * untraced_rounds_per_s);
    out.values.set("sim.events", events);
    out.values.set("sim.cycles", c.cycles as f64);
    out.values.set("mem.offchip_accesses", c.offchip as f64);
    out.values
        .set("mem.offchip_per_event", c.offchip as f64 / events);
    let tags = &c.tags;
    out.values.set("cache.probes", tags.probes as f64);
    out.values.set("cache.scans", tags.scans as f64);
    out.values
        .set("cache.scans_per_event", tags.scans as f64 / events);
    out.values.set(
        "cache.scans_per_probe",
        tags.scans as f64 / (tags.probes as f64).max(1.0),
    );
    out.values.set(
        "cache.hit_ratio",
        tags.hits as f64 / (tags.probes as f64).max(1.0),
    );
    out.values.set("cache.evictions", tags.evictions as f64);
    out.values
        .set("cache.fused_probes", tags.fused_probes as f64);
    out.values.set("cache.hint_hits", tags.hint_hits as f64);
    out.values.set("cache.empty_skips", tags.empty_skips as f64);
    out.values
        .set("cache.stripe_members", tags.stripe_members as f64);
    let (decides, observes) = (count("core.decide"), count("core.observe"));
    let (decide_ns, observe_ns) = (get(&total, "core.decide"), get(&total, "core.observe"));
    out.values
        .set("core.decide_ns", decide_ns / decides.max(1.0));
    out.values
        .set("core.observe_ns", observe_ns / observes.max(1.0));
    out.values.set("core.decisions", decides / rounds);
    out.values.set(
        "core.share_pct",
        (decide_ns + observe_ns) / get(&total, "soc.run").max(1.0) * 100.0,
    );
    let modes = c.cohmeleon_modes;
    let all = modes.iter().sum::<u64>().max(1) as f64;
    for (name, n) in [
        "core.mode_share.non-coh-dma",
        "core.mode_share.llc-coh-dma",
        "core.mode_share.coh-dma",
        "core.mode_share.full-coh",
    ]
    .into_iter()
    .zip(modes)
    {
        out.values.set(name, n as f64 / all * 100.0);
    }
    eprintln!(
        "perfbench: traced {} cells in {} rounds: {:.2} tag scans per event, core {:.2}% of engine time",
        t.cells,
        t.rounds,
        tags.scans as f64 / events,
        out.values.get("core.share_pct").unwrap_or(0.0)
    );
}

fn run_fleet(args: &Args, budget: Duration, out: &mut Outcome) {
    let mut build = || fleet::grid(args.seed);
    let (mut setup, grid) = SetupTimes::first(&mut build);
    let cells = grid.num_cells();
    let path = args.dir.join("fleet.jsonl");
    // The reference, before the measured window: the Serial stream.
    let records = grid.collect_records(&Serial);
    let canonical = canonical_jsonl(&records);
    let u = fleet::untraced(&grid, budget, &path, &canonical, || setup.tick(&mut build));
    out.values.set("setup_s", setup.median_s());
    out.values.set("workloads.generate_s", setup.median_s());
    out.values
        .set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
    let walls = &u.walls;
    let total_s: f64 = walls.iter().sum();
    eprintln!(
        "perfbench: {} fleet rounds of {cells} cells, {total_s:.3} s wall, median round {:.4} s",
        walls.len(),
        median(walls)
    );
    // Cells are not timed one by one inside the fleet. Throughput is
    // every cell over every round's wall; latency samples are each
    // round's wall per cell.
    let per_cell_us: Vec<f64> = walls.iter().map(|w| w / cells as f64 * 1e6).collect();
    op_metrics(
        out,
        (walls.len() * cells) as f64 / total_s,
        percentile(&per_cell_us, 50.0),
        per_cell_us.len(),
        |p| percentile(&per_cell_us, p),
    );
    out.attempted += ((walls.len() + u.errors.len()) * cells) as u64;
    out.failed += (u.errors.len() * cells) as u64 + u.differing;
    for e in &u.errors {
        eprintln!("perfbench: fleet round failed: {e}");
    }
    let _ = fs::remove_file(&path);
    if !args.trace {
        return;
    }

    // The cells themselves, driven through public calls, then the fleet
    // against Serial with the sweep's sink, codec and checkpoint timed.
    let reference: Vec<u64> = records.iter().map(|r| r.structural_hash).collect();
    let mut tracer = Tracer::default();
    let t = sim::traced(&grid, budget / 2, &reference, &mut tracer);
    out.attempted += t.cells;
    out.failed += t.mismatches;
    out.check(t.mismatches == 0, || {
        format!(
            "{} traced cells hash differently from the Serial records",
            t.mismatches
        )
    });
    sim_layers(out, tracer.spans(), &t, 1.0 / median(walls));
    let f = match fleet::traced(&grid, budget / 2, &args.dir, &canonical, &mut tracer) {
        Ok(f) => f,
        Err(e) => {
            out.check(false, || format!("traced fleet pass failed: {e}"));
            return;
        }
    };
    out.attempted += (f.serial_s.len() * cells) as u64;
    out.failed += f.failed_rounds * cells as u64;
    fleet_layers(out, tracer.spans(), &f, cells);
    out.values.set("trace.overhead_pct", t.overhead_pct());
    write_spans(args, &tracer);
}

/// Per-layer metrics of the traced fleet pass.
fn fleet_layers(out: &mut Outcome, spans: &[Span], f: &fleet::Traced, cells: usize) {
    let total = total_by_name(spans);
    let mean_us = |name: &str| {
        let n = spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        total.get(name).copied().unwrap_or(0) as f64 / n / 1e3
    };
    let serial_rounds = f.serial_s.len() as f64;
    out.values.set("exp.sink_us_per_cell", mean_us("exp.sink"));
    out.values.set(
        "exp.record_encode_us",
        total.get("exp.record_encode").copied().unwrap_or(0) as f64
            / (serial_rounds * cells as f64)
            / 1e3,
    );
    out.values.set(
        "exp.record_decode_us",
        total.get("exp.record_decode").copied().unwrap_or(0) as f64
            / (serial_rounds * cells as f64)
            / 1e3,
    );
    out.values
        .set("exp.checkpoint_append_us", mean_us("exp.checkpoint_append"));
    out.values.set("fleet.serial_s", median(&f.serial_s));
    out.values.set(
        "fleet.overhead_ms_per_cell",
        fleet::overhead_ms_per_cell(f, cells),
    );
    let leases: Vec<f64> = f.rounds.iter().map(|r| r.leases as f64).collect();
    let leases = median(&leases);
    out.values.set("fleet.leases", leases);
    out.values
        .set("fleet.cells_per_lease", cells as f64 / leases.max(1.0));
    out.values.set(
        "fleet.speculative",
        f.rounds.iter().map(|r| r.speculative as f64).sum(),
    );
    let ran: usize = f.rounds.iter().map(|r| r.ran).sum();
    let dups: usize = f.rounds.iter().map(|r| r.duplicates).sum();
    out.values.set(
        "fleet.useful_ratio",
        ran as f64 / (ran + dups).max(1) as f64,
    );

    let fleet_walls: Vec<f64> = f.rounds.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "perfbench: fleet {:.3} ms/cell over Serial ({:.4} s per Serial round, {:.4} s per fleet \
         round: fleet and exp {:.0}% of a round), {leases} leases per round",
        fleet::overhead_ms_per_cell(f, cells),
        median(&f.serial_s),
        median(&fleet_walls),
        (1.0 - median(&f.serial_s) / median(&fleet_walls)) * 100.0
    );
}

fn run_serve(args: &Args, budget: Duration, out: &mut Outcome) {
    let mut build = || serve::setup(args.seed, &args.dir);
    let (mut setup_times, setup) = SetupTimes::first(&mut build);
    let (generate, _) = SetupTimes::first(&mut || serve::tables(args.seed));
    out.values.set("workloads.generate_s", generate.median_s());
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("serve set-up failed: {e}"));
            return;
        }
    };
    let mut tracer = Tracer::default();
    let run = serve::run(setup, args.seed, budget, args.trace.then_some(&mut tracer));
    // The closed loop leaves no room to time set-ups while it runs:
    // time them again after it.
    if let Err(e) = setup_times.time(SETUP_REPS, &mut build) {
        out.check(false, || format!("serve set-up failed after the run: {e}"));
    }
    out.values.set("setup_s", setup_times.median_s());
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("serve run failed: {e}"));
            return;
        }
    };
    let u = &run.untraced;
    out.values.set("peak_rss_mb", run.untraced_rss_mb);
    let answered = u.rtts.len() as f64;
    eprintln!(
        "perfbench: {} batches of {} queries and {} swaps in {:.3} s",
        u.batches,
        serve::BATCH,
        u.swaps,
        u.wall_s
    );
    op_metrics(
        out,
        answered / u.wall_s,
        u.rtts.percentile_us(50.0),
        u.rtts.len() as usize,
        |p| u.rtts.percentile_us(p),
    );
    out.attempted += u.batches + u.swaps;
    out.failed += u.failed;
    let Some(t) = &run.traced else {
        return;
    };
    out.attempted += t.batches + t.swaps;
    out.failed += t.failed;
    let traced_answered = (t.rtts.len() as f64).max(1.0);
    let frozen_per_batch_ns = t.frozen_ns as f64 / traced_answered;
    let codec_ns = t.codec_ns as f64 / traced_answered;
    let mean_rtt_us = t.rtts.mean_us();
    out.values.set(
        "core.frozen_decide_ns",
        frozen_per_batch_ns / serve::BATCH as f64,
    );
    out.values.set("serve.rtt_samples", answered);
    out.values
        .set("serve.rtt_p50_us", u.rtts.percentile_us(50.0));
    out.values
        .set("serve.rtt_p99_us", u.rtts.percentile_us(99.0));
    out.values.set("serve.codec_ns_per_batch", codec_ns);
    out.values.set(
        "serve.net_self_us",
        mean_rtt_us - (frozen_per_batch_ns + codec_ns) / 1e3,
    );
    out.values.set("serve.swaps", run.stat.swaps as f64);
    out.values
        .set("serve.server_errors", run.stat.errors as f64);
    out.check(run.stat.errors == 0, || {
        format!("server counted {} errors", run.stat.errors)
    });
    out.values.set(
        "trace.overhead_pct",
        ((t.wall_s / traced_answered) / (u.wall_s / answered) - 1.0) * 100.0,
    );
    write_spans(args, &tracer);
}

/// Writes the spans to `<dir>/<workload>-seed<seed>.spans.tsv`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let name = WORKLOADS
        .iter()
        .find(|(_, w)| *w == args.workload)
        .map(|(n, _)| *n)
        .expect("known workload");
    let path = args
        .out_dir
        .join(format!("{name}-seed{}.spans.tsv", args.seed));
    match fs::write(&path, tracer.to_tsv()) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
