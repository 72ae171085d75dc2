//! The queen: owns one grid and one checkpoint file, leases work out,
//! and persists every record a worker streams back.
//!
//! The queen is the *only* writer. Each `RECORD` line is validated
//! against the grid ([`validate_record`]), reconciled against everything
//! seen so far (identical duplicates from speculative twins collapse;
//! conflicting results abort the run — they mean the determinism
//! invariant broke, which no amount of retrying fixes), and appended
//! durably through the same [`CheckpointWriter`] discipline a local
//! resumable run uses. A killed queen therefore resumes exactly like a
//! killed local sweep: reload the checkpoint, lease out what is missing.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cohmeleon_chaos::{Acceptor, FaultPlan, FaultyTransport, LineReader, Role};
use cohmeleon_exp::checkpoint::sort_canonical;
use cohmeleon_exp::{
    finalize_canonical, validate_record, CellCoord, CellId, CellRecord, Checkpoint,
    CheckpointWriter, SweepGrid,
};

use crate::lease::{Grant, LeaseTable};
use crate::protocol::{ToQueen, ToWorker};

/// Tuning knobs for [`run_queen`].
#[derive(Debug, Clone)]
pub struct QueenOptions {
    /// The registry name workers rebuild the grid from.
    pub grid_name: String,
    /// Whether workers should rebuild at the reduced `COHMELEON_FAST`
    /// scale (the queen's own scale — both sides must agree).
    pub fast: bool,
    /// Cells per lease. `None` picks `ceil(pending / 8)` clamped to
    /// `1..=64`: small enough that a handful of workers all get work,
    /// large enough that the protocol is not one round-trip per cell.
    pub chunk: Option<usize>,
    /// Lease deadline: a lease silent past this is eligible for
    /// speculative re-dispatch to another worker.
    pub ttl: Duration,
    /// Stop after persisting this many fresh cells — the deterministic
    /// stand-in for "the queen got killed part-way" (the networked
    /// sibling of `run_resumable_capped`). Workers asking for work after
    /// the cap are told `DONE` so they exit cleanly.
    pub max_cells: usize,
    /// Emit a status line (progress, per-worker throughput, lease ages,
    /// speculation count) to stderr this often while the run is live.
    /// `None` keeps the queen silent until the final report.
    pub status_every: Option<Duration>,
    /// Seeded network fault injection: when set, every accepted worker
    /// connection is wrapped in a [`FaultyTransport`] playing
    /// [`Role::Queen`]. `None` is the plain direct path.
    pub chaos: Option<FaultPlan>,
}

impl QueenOptions {
    /// Defaults: auto chunk, 10 s lease deadline, no cap, no periodic
    /// status.
    pub fn new(grid_name: impl Into<String>, fast: bool) -> QueenOptions {
        QueenOptions {
            grid_name: grid_name.into(),
            fast,
            chunk: None,
            ttl: Duration::from_secs(10),
            max_cells: usize::MAX,
            status_every: None,
            chaos: None,
        }
    }
}

/// What a queen run did.
#[derive(Debug, Clone)]
pub struct QueenReport {
    /// All persisted records, in canonical dense order (complete exactly
    /// when [`complete`](Self::complete) is true).
    pub records: Vec<CellRecord>,
    /// Cells found in the checkpoint and not re-dispatched.
    pub reused: usize,
    /// Fresh cells persisted this run.
    pub ran: usize,
    /// Duplicate completions reconciled (speculative twins finishing the
    /// same cell).
    pub duplicates: usize,
    /// Speculative (twin) leases granted.
    pub speculative: usize,
    /// Distinct worker names that joined.
    pub workers: usize,
    /// Whether every grid cell now has a record; only then was the file
    /// canonicalised.
    pub complete: bool,
}

/// Exactly-once reconciliation of completed cell records.
///
/// Seeded from the checkpoint, fed every `RECORD` line: a fresh cell is
/// accepted, a byte-identical duplicate is counted and dropped, a
/// *conflicting* result for a coordinate already seen is an error — cells
/// are pure functions of their coordinates, so disagreement means a
/// worker ran a different grid (or the determinism invariant broke).
#[derive(Debug, Default)]
struct RecordLedger {
    records: Vec<CellRecord>,
    by_coord: HashMap<CellCoord, usize>,
    duplicates: usize,
}

enum Ingest {
    Fresh,
    Duplicate,
}

impl RecordLedger {
    fn seed(records: &[CellRecord]) -> RecordLedger {
        let mut ledger = RecordLedger::default();
        for record in records {
            ledger
                .ingest(record.clone())
                .expect("checkpoint already deduplicated");
        }
        ledger
    }

    fn ingest(&mut self, record: CellRecord) -> Result<Ingest, String> {
        match self.by_coord.entry(record.coord()) {
            std::collections::hash_map::Entry::Occupied(existing) => {
                let prior = &self.records[*existing.get()];
                if *prior != record {
                    return Err(format!(
                        "cell {:?} completed twice with different results",
                        record.coord()
                    ));
                }
                self.duplicates += 1;
                Ok(Ingest::Duplicate)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.records.len());
                self.records.push(record);
                Ok(Ingest::Fresh)
            }
        }
    }
}

/// Everything the connection handlers share, under one lock. Cells cost
/// seconds of simulation each; a mutex around bookkeeping is noise.
struct Shared {
    table: LeaseTable,
    ledger: RecordLedger,
    writer: CheckpointWriter,
    ran: usize,
    capped: bool,
    complete: bool,
    error: Option<String>,
    workers: HashSet<String>,
    /// Records delivered per worker name (fresh and duplicate alike —
    /// this measures worker throughput, not ledger novelty).
    delivered: HashMap<String, usize>,
}

impl Shared {
    fn finished(&self) -> bool {
        self.complete || self.capped || self.error.is_some()
    }
}

/// Takes the value out of a lock result on the queen state. A handler
/// that panics holding the lock poisons it; instead of every other handler
/// panicking in turn, the guard is recovered and `error` set, which ends
/// the run with `InvalidData`. `state` finds the queen state inside `T`.
fn unpoison<T>(result: LockResult<T>, state: impl FnOnce(&mut T) -> &mut Shared) -> T {
    result.unwrap_or_else(|poisoned| {
        let mut inner = poisoned.into_inner();
        state(&mut inner)
            .error
            .get_or_insert_with(|| "queen state poisoned by a panicking handler".into());
        inner
    })
}

/// Locks the queen state; see [`unpoison`].
fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    unpoison(shared.lock(), |s| s)
}

/// Runs the queen to completion (or to `max_cells`, or to error) and
/// returns what happened.
///
/// The caller binds the listener (so tests can bind `127.0.0.1:0` and
/// read the ephemeral port back). The checkpoint at `path` is loaded
/// first — a killed queen restarted on the same path resumes, leasing
/// out only the missing cells — and on completion the file is atomically
/// rewritten in canonical order, byte-identical to a clean local
/// [`Serial`](cohmeleon_exp::Serial) run.
///
/// # Errors
///
/// Checkpoint I/O or validation errors; `InvalidData` if a worker
/// streamed a record conflicting with the grid or with a previously
/// completed cell, or if a connection handler panicked.
pub fn run_queen(
    grid: &SweepGrid,
    listener: TcpListener,
    path: impl AsRef<Path>,
    options: &QueenOptions,
) -> io::Result<QueenReport> {
    let path = path.as_ref();
    let checkpoint = Checkpoint::load(path, grid)?;
    let pending = checkpoint.pending(grid);
    let reused = checkpoint.len();

    let chunk = options
        .chunk
        .unwrap_or_else(|| pending.len().div_ceil(8).clamp(1, 64));
    let writer = CheckpointWriter::open(path, checkpoint.valid_len())?;
    let shared = Mutex::new(Shared {
        table: LeaseTable::new(pending.iter().copied(), chunk, options.ttl),
        ledger: RecordLedger::seed(checkpoint.records()),
        writer,
        ran: 0,
        capped: false,
        // A checkpoint that already covers the grid needs no workers.
        complete: pending.is_empty(),
        error: None,
        workers: HashSet::new(),
        delivered: HashMap::new(),
    });

    let acceptor = Acceptor::new(listener)?;
    let changed = Condvar::new();
    std::thread::scope(|scope| {
        if lock(&shared).finished() {
            return;
        }
        if let Some(every) = options.status_every {
            let (shared, changed) = (&shared, &changed);
            scope.spawn(move || print_status(grid, shared, changed, every));
        }
        loop {
            match acceptor.accept() {
                Ok(Some(stream)) => {
                    let (shared, acceptor) = (&shared, &acceptor);
                    scope.spawn(move || {
                        let served = panic::catch_unwind(AssertUnwindSafe(|| {
                            serve_worker(stream, grid, shared, options)
                        }));
                        if served.is_err() {
                            lock(shared)
                                .error
                                .get_or_insert_with(|| "a connection handler panicked".into());
                        }
                        acceptor.leave(|| lock(shared).finished());
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    lock(&shared).error = Some(format!("accept failed: {e}"));
                    break;
                }
            }
        }
        changed.notify_all();
    });

    let shared = unpoison(shared.into_inner(), |s| s);
    if let Some(message) = shared.error {
        return Err(io::Error::new(io::ErrorKind::InvalidData, message));
    }
    drop(shared.writer);
    let mut records = shared.ledger.records;
    sort_canonical(&mut records);
    if shared.complete {
        finalize_canonical(path, &records)?;
    }
    Ok(QueenReport {
        records,
        reused,
        ran: shared.ran,
        duplicates: shared.ledger.duplicates,
        speculative: shared.table.speculative(),
        workers: shared.workers.len(),
        complete: shared.complete,
    })
}

/// One worker connection, handled on its own thread until the worker
/// leaves, violates the protocol, or the run finishes.
///
/// All failure modes converge on the same safe exit: release this
/// connection's leases (returning uncovered cells to the pool) and close
/// the socket. The reads poll with a short timeout so the handler can
/// notice the run finishing even under a silent peer; once finished it
/// lingers one lease-TTL to answer a final `LEASE` with `DONE` (letting
/// well-behaved workers exit cleanly) before giving up on the
/// connection.
fn serve_worker(stream: TcpStream, grid: &SweepGrid, shared: &Mutex<Shared>, options: &QueenOptions) {
    let _ = stream.set_nodelay(true);
    let Ok(stream) = FaultyTransport::from_plan(stream, options.chaos.as_ref(), Role::Queen)
    else {
        return;
    };
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    let mut granted: Vec<u64> = Vec::new();
    let mut worker_name = String::new();
    let grace = options.ttl;
    let mut finish_seen: Option<Instant> = None;

    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if lock(shared).finished() {
                    let since = *finish_seen.get_or_insert_with(Instant::now);
                    if since.elapsed() >= grace {
                        break;
                    }
                }
                continue;
            }
            Err(_) => break,
        };
        let Ok(message) = ToQueen::parse(&line) else {
            break;
        };
        if worker_name.is_empty() {
            let ToQueen::Hello { name } = message else {
                break;
            };
            let hello = ToWorker::Hello {
                grid: options.grid_name.clone(),
                fast: options.fast,
                cells: grid.num_cells(),
                ttl_ms: options.ttl.as_millis() as u64,
            };
            worker_name = name.clone();
            lock(shared).workers.insert(name);
            if write_line(&mut writer, &hello).is_err() {
                break;
            }
            continue;
        }
        match message {
            ToQueen::Hello { .. } => break,
            ToQueen::Lease => {
                let reply = {
                    let mut s = lock(shared);
                    if s.error.is_some() {
                        break;
                    }
                    if s.complete || s.capped {
                        ToWorker::Complete
                    } else {
                        match s.table.grant(&worker_name, Instant::now()) {
                            Grant::Lease { id, start, len } => {
                                granted.push(id);
                                ToWorker::Lease { id, start, len }
                            }
                            Grant::Wait => ToWorker::Wait,
                            Grant::Complete => ToWorker::Complete,
                        }
                    }
                };
                if write_line(&mut writer, &reply).is_err() {
                    break;
                }
            }
            ToQueen::Record { lease, json } => {
                let Ok(record) = CellRecord::from_json(&json) else {
                    break;
                };
                let mut s = lock(shared);
                if s.error.is_some() {
                    break;
                }
                if s.complete || s.capped {
                    // The run is over (or the queen is "dead" past its
                    // cap): late speculative results are dropped, the
                    // checkpoint stays frozen.
                    continue;
                }
                if let Err(e) = validate_record(&record, grid) {
                    s.error = Some(e);
                    break;
                }
                *s.delivered.entry(worker_name.clone()).or_default() += 1;
                let (scenario, policy, seed) = record.coord();
                let dense = grid.cell_index(CellId {
                    scenario,
                    policy,
                    seed,
                });
                let state = &mut *s;
                match state.ledger.ingest(record) {
                    Ok(Ingest::Fresh) => {
                        // Field borrows split: the fresh record lives in
                        // the ledger while the writer appends it.
                        let fresh = state.ledger.records.last().expect("fresh record");
                        if let Err(e) = state.writer.append(fresh) {
                            state.error = Some(format!("checkpoint append failed: {e}"));
                            break;
                        }
                        state.table.complete_cell(dense, lease, Instant::now());
                        state.ran += 1;
                        if state.table.is_complete() {
                            state.complete = true;
                        } else if state.ran >= options.max_cells {
                            state.capped = true;
                        }
                    }
                    Ok(Ingest::Duplicate) => {
                        state.table.complete_cell(dense, lease, Instant::now());
                    }
                    Err(message) => {
                        state.error = Some(message);
                        break;
                    }
                }
            }
            ToQueen::Done { lease } => {
                lock(shared).table.release(lease);
            }
            ToQueen::Heartbeat { lease } => {
                lock(shared).table.heartbeat(lease, Instant::now());
            }
        }
    }

    // Whatever ended the connection: this worker's unfinished claims go
    // back to the pool (unless a speculative twin still covers them).
    let mut s = lock(shared);
    for id in granted {
        s.table.release(id);
    }
}

fn write_line(writer: &mut FaultyTransport, message: &ToWorker) -> io::Result<()> {
    writer.write_all(format!("{}\n", message.to_line()).as_bytes())
}

/// Prints a [`status_line`] to stderr every `every` until the run
/// finishes. It sleeps on `changed`, which the accept loop signals as it
/// ends, so a finished run stops it at once rather than a period later.
fn print_status(grid: &SweepGrid, shared: &Mutex<Shared>, changed: &Condvar, every: Duration) {
    let started = Instant::now();
    let mut due = started + every;
    let mut s = lock(shared);
    while !s.finished() {
        let now = Instant::now();
        if now < due {
            (s, _) = unpoison(changed.wait_timeout(s, due - now), |(s, _)| s);
            continue;
        }
        due = now + every;
        eprintln!(
            "{}",
            status_line(
                s.ledger.records.len(),
                grid.num_cells(),
                started.elapsed(),
                &s.delivered,
                &s.table.lease_stats(now),
                s.table.speculative(),
            )
        );
    }
}

/// Formats one periodic queen status line: overall progress, per-worker
/// delivery throughput (sorted by name), live lease ages, and the
/// speculation count. Pure so the format is unit-testable;
/// [`print_status`] feeds it live state.
fn status_line(
    done: usize,
    total: usize,
    elapsed: Duration,
    delivered: &HashMap<String, usize>,
    leases: &[crate::lease::LeaseStat],
    speculative: usize,
) -> String {
    let secs = elapsed.as_secs_f64();
    let mut line = format!("queen: {done}/{total} cells in {secs:.0}s");
    if !delivered.is_empty() {
        let mut delivered: Vec<_> = delivered.iter().collect();
        delivered.sort();
        let workers: Vec<String> = delivered
            .into_iter()
            .map(|(name, cells)| {
                let rate = if secs > 0.0 { *cells as f64 / secs } else { 0.0 };
                format!("{name} {cells} ({rate:.1}/s)")
            })
            .collect();
        line.push_str(&format!(" | workers: {}", workers.join(", ")));
    }
    if !leases.is_empty() {
        let views: Vec<String> = leases
            .iter()
            .map(|l| {
                format!(
                    "{}#{} {} left, {:.1}s{}",
                    l.worker,
                    l.id,
                    l.outstanding,
                    l.age.as_secs_f64(),
                    if l.expired { " EXPIRED" } else { "" }
                )
            })
            .collect();
        line.push_str(&format!(" | leases: {}", views.join("; ")));
    }
    if speculative > 0 {
        line.push_str(&format!(" | {speculative} speculative"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(coord: CellCoord) -> CellRecord {
        CellRecord {
            scenario_index: coord.0,
            policy_index: coord.1,
            seed_index: coord.2,
            scenario: "soc1".into(),
            policy: format!("p{}", coord.1),
            seed: 7,
            total_cycles: 100,
            total_offchip: 3,
            invocations: 2,
            structural_hash: 0xabc,
            phases: vec![("phase-0".into(), 100, 3)],
        }
    }

    #[test]
    fn ledger_reconciles_duplicates_and_rejects_conflicts() {
        let mut ledger = RecordLedger::default();
        assert!(matches!(ledger.ingest(record((0, 0, 0))), Ok(Ingest::Fresh)));
        assert!(matches!(
            ledger.ingest(record((0, 0, 0))),
            Ok(Ingest::Duplicate)
        ));
        assert_eq!(ledger.duplicates, 1);
        let mut conflicting = record((0, 0, 0));
        conflicting.total_cycles += 1;
        assert!(ledger.ingest(conflicting).is_err());
        assert_eq!(ledger.records.len(), 1);
    }

    #[test]
    fn ledger_seeds_from_checkpoint_records() {
        let seedset = [record((0, 0, 0)), record((0, 1, 0))];
        let ledger = RecordLedger::seed(&seedset);
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.duplicates, 0);
    }

    #[test]
    fn poisoned_state_ends_the_run_with_an_error() {
        let path = std::env::temp_dir().join(format!(
            "cohmeleon-queen-poisoned-{}.jsonl",
            std::process::id()
        ));
        let shared = Mutex::new(Shared {
            table: LeaseTable::new(0..4, 1, Duration::from_secs(1)),
            ledger: RecordLedger::default(),
            writer: CheckpointWriter::open(&path, 0).unwrap(),
            ran: 0,
            capped: false,
            complete: false,
            error: None,
            workers: HashSet::new(),
            delivered: HashMap::new(),
        });
        let handler = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = shared.lock().unwrap();
                    panic!("handler bug while holding the queen state");
                })
                .join()
        });
        assert!(handler.is_err() && shared.is_poisoned());

        let poisoned = Some("queen state poisoned by a panicking handler");
        assert!(lock(&shared).finished());
        assert_eq!(lock(&shared).error.as_deref(), poisoned);
        // The end-of-run unwrap reports it too, so `run_queen` returns it
        // as `InvalidData`.
        assert_eq!(
            unpoison(shared.into_inner(), |s| s).error.as_deref(),
            poisoned
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn status_line_reports_workers_leases_and_speculation() {
        use crate::lease::LeaseStat;

        let delivered = HashMap::from([("beta".to_string(), 4), ("alpha".to_string(), 8)]);
        let leases = vec![
            LeaseStat {
                id: 3,
                worker: "alpha".into(),
                start: 12,
                len: 6,
                outstanding: 4,
                age: Duration::from_millis(200),
                expired: false,
            },
            LeaseStat {
                id: 5,
                worker: "beta".into(),
                start: 18,
                len: 6,
                outstanding: 2,
                age: Duration::from_millis(9800),
                expired: true,
            },
        ];
        let line = status_line(
            12,
            40,
            Duration::from_secs(6),
            &delivered,
            &leases,
            1,
        );
        assert_eq!(
            line,
            "queen: 12/40 cells in 6s | workers: alpha 8 (1.3/s), beta 4 (0.7/s) \
             | leases: alpha#3 4 left, 0.2s; beta#5 2 left, 9.8s EXPIRED | 1 speculative"
        );
    }

    #[test]
    fn status_line_is_minimal_with_no_workers() {
        let line = status_line(0, 40, Duration::from_secs(0), &HashMap::new(), &[], 0);
        assert_eq!(line, "queen: 0/40 cells in 0s");
    }
}
