//! Fleet end-to-end over loopback: queen + worker threads on
//! `127.0.0.1:0` must land the byte-identical canonical JSONL a clean
//! Serial run produces — including with a worker killed mid-lease (on a
//! plain grid and on a grid of scoped, reweighted learner cells), with
//! the queen capped ("killed") and resumed, and with a stalled worker
//! whose lease must expire and be speculatively re-dispatched. Both ends
//! stop on events: a queen on an unspecified address still wakes when its
//! last worker leaves, and a worker's heartbeat ticker stops on the
//! session's end rather than after its period. A worker refuses a lease
//! outside its grid as invalid data.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cohmeleon_exp::{
    canonical_jsonl, AgentScope, Experiment, LearnerSpec, PolicyKind, Serial, SweepGrid,
    WeightPreset,
};
use cohmeleon_fleet::{
    run_queen, run_worker, LineReader, QueenOptions, ToQueen, ToWorker, WorkerOptions,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .seeds([1, 2, 3])
        .build()
        .unwrap()
}

/// Two cheap cells, for the tests that time the fleet's own edges.
fn tiny_grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh])
        .seeds([1, 2])
        .build()
        .unwrap()
}

/// Every agent scope × two reward-weight presets, trained: scoped
/// learner cells must split across workers as cleanly as fixed ones.
fn scoped_grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    Experiment::train_test(config, train, test)
        .learners(LearnerSpec::scope_weight_grid(
            &AgentScope::ALL,
            &[WeightPreset::Paper, WeightPreset::Balanced],
        ))
        .seed(5)
        .train_iterations(1)
        .build()
        .unwrap()
}

fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-fleet-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn resolver(grid: &SweepGrid) -> impl Fn(&str, bool) -> Result<SweepGrid, String> + '_ {
    |name: &str, _fast: bool| {
        assert_eq!(name, "test-grid");
        Ok(grid.clone())
    }
}

fn queen_options(ttl_ms: u64) -> QueenOptions {
    QueenOptions {
        ttl: Duration::from_millis(ttl_ms),
        chunk: Some(2),
        ..QueenOptions::new("test-grid", false)
    }
}

fn worker_options(name: &str) -> WorkerOptions {
    WorkerOptions {
        backoff: Duration::from_millis(20),
        ..WorkerOptions::new(name)
    }
}

#[test]
fn three_workers_one_killed_mid_lease_still_byte_identical() {
    for (name, grid) in [("plain", grid()), ("scoped", scoped_grid())] {
        let clean = canonical_jsonl(&grid.collect_records(&Serial));
        let path = tmp_path(&format!("killed-worker-{name}"));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Short TTL so the killed worker's lease expires within the test.
        let options = queen_options(300);

        let report = std::thread::scope(|scope| {
            let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));

            // The victim goes first so it deterministically holds a
            // lease, then vanishes after one RECORD — mid-lease, no DONE.
            // Its torn connection returns the unfinished cell to the pool.
            let victim_options = WorkerOptions {
                fail_after: Some(1),
                ..worker_options("victim")
            };
            let victim = {
                let addr = addr.clone();
                let grid = &grid;
                scope.spawn(move || run_worker(&addr, resolver(grid), &victim_options).unwrap())
            };
            assert!(victim.join().unwrap().aborted, "{name}");

            let mut workers = Vec::new();
            for worker in ["steady-1", "steady-2"] {
                let addr = addr.clone();
                let grid = &grid;
                workers.push(scope.spawn(move || {
                    run_worker(&addr, resolver(grid), &worker_options(worker)).unwrap()
                }));
            }
            for worker in workers {
                worker.join().unwrap();
            }
            queen.join().unwrap().unwrap()
        });

        assert!(report.complete, "{name}");
        assert_eq!(report.ran + report.reused, grid.num_cells(), "{name}");
        assert!(report.workers >= 3, "{name}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), clean, "{name}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn capped_queen_resumes_to_byte_identical() {
    let grid = grid();
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    let path = tmp_path("capped-queen");

    // First queen "dies" after 2 fresh cells (the networked sibling of
    // run_resumable_capped's kill stand-in).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = QueenOptions {
        max_cells: 2,
        ..queen_options(2_000)
    };
    let first = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));
        let worker = {
            let addr = addr.clone();
            let grid = &grid;
            scope.spawn(move || run_worker(&addr, resolver(grid), &worker_options("w")))
        };
        // The worker may exit cleanly (told DONE) or see the queen close
        // the connection first — both are acceptable deaths here.
        let _ = worker.join().unwrap();
        queen.join().unwrap().unwrap()
    });
    assert!(!first.complete);
    assert_eq!(first.ran, 2);

    // A fresh queen on the same checkpoint finishes the grid.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = queen_options(2_000);
    let second = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));
        let worker = {
            let addr = addr.clone();
            let grid = &grid;
            scope.spawn(move || {
                run_worker(&addr, resolver(grid), &worker_options("w")).unwrap()
            })
        };
        worker.join().unwrap();
        queen.join().unwrap().unwrap()
    });
    assert!(second.complete);
    assert_eq!(second.reused, 2);
    assert_eq!(second.ran, grid.num_cells() - 2);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
    std::fs::remove_file(&path).unwrap();
}

/// Dynamic chunk sizing over the wire: with a configured chunk far larger
/// than the grid, the queen's first grant still carves only a tail-sized
/// piece (the unleased pool spread across `TAIL_PARALLELISM` workers), so
/// the rest of the grid stays available to other workers.
#[test]
fn tail_chunks_shrink_over_loopback() {
    let grid = grid(); // 6 cells
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    let path = tmp_path("tail-chunk");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = QueenOptions {
        chunk: Some(64),
        ..queen_options(2_000)
    };

    let report = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));

        // A raw-socket observer asks for the first lease.
        let mut probe = TcpStream::connect(&addr).unwrap();
        let mut reader = LineReader::new(probe.try_clone().unwrap());
        let hello = ToQueen::Hello {
            name: "probe".into(),
        };
        probe
            .write_all(format!("{}\n{}\n", hello.to_line(), ToQueen::Lease.to_line()).as_bytes())
            .unwrap();
        let hello_line = reader.read_line().unwrap().unwrap();
        assert!(matches!(
            ToWorker::parse(&hello_line).unwrap(),
            ToWorker::Hello { .. }
        ));
        let lease_line = reader.read_line().unwrap().unwrap();
        let len = match ToWorker::parse(&lease_line).unwrap() {
            ToWorker::Lease { len, .. } => len,
            other => panic!("expected a lease, got {other:?}"),
        };
        // 6 unleased cells spread over TAIL_PARALLELISM (4) workers, not
        // the configured 64-cell chunk.
        assert_eq!(len, 2);

        // Dropping the connection returns the cells; a real worker
        // finishes the grid.
        drop(probe);
        let real = {
            let addr = addr.clone();
            let grid = &grid;
            scope.spawn(move || {
                run_worker(&addr, resolver(grid), &worker_options("real")).unwrap()
            })
        };
        real.join().unwrap();
        queen.join().unwrap().unwrap()
    });

    assert!(report.complete);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
    std::fs::remove_file(&path).unwrap();
}

/// A raw-socket worker that takes a lease and goes silent: the lease must
/// expire and be speculatively re-dispatched to a real worker, and the
/// stalled worker's eventual duplicate records must reconcile cleanly.
#[test]
fn stalled_lease_is_speculatively_re_dispatched() {
    let grid = grid();
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    let path = tmp_path("stalled");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Tiny TTL: the staller is overdue almost immediately.
    let options = queen_options(50);

    let report = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));

        // The staller grabs a lease by hand and never works it.
        let mut stall = TcpStream::connect(&addr).unwrap();
        let mut stall_reader = LineReader::new(stall.try_clone().unwrap());
        let hello = ToQueen::Hello {
            name: "staller".into(),
        };
        stall
            .write_all(format!("{}\n{}\n", hello.to_line(), ToQueen::Lease.to_line()).as_bytes())
            .unwrap();
        let hello_line = stall_reader.read_line().unwrap().unwrap();
        assert!(matches!(
            ToWorker::parse(&hello_line).unwrap(),
            ToWorker::Hello { .. }
        ));
        let lease_line = stall_reader.read_line().unwrap().unwrap();
        let (id, start, len) = match ToWorker::parse(&lease_line).unwrap() {
            ToWorker::Lease { id, start, len } => (id, start, len),
            other => panic!("expected a lease, got {other:?}"),
        };
        assert!(len >= 1);

        // Let it expire, then bring up a real worker to finish the grid
        // (including the stalled cells, via speculative re-lease).
        std::thread::sleep(Duration::from_millis(120));
        let real = {
            let addr = addr.clone();
            let grid = &grid;
            scope.spawn(move || {
                run_worker(&addr, resolver(grid), &worker_options("real")).unwrap()
            })
        };
        real.join().unwrap();

        // The staller finally wakes up and streams its (now duplicate)
        // records — the queen must reconcile or drop them, never
        // conflict. (The queen may already have closed the connection
        // after completing; a failed write is fine.)
        for dense in start..start + len {
            let record =
                cohmeleon_exp::CellRecord::from_cell(&grid.run_cell(grid.cell_at(dense)));
            let message = ToQueen::Record {
                lease: id,
                json: record.to_json(),
            };
            let _ = stall.write_all(format!("{}\n", message.to_line()).as_bytes());
        }
        drop(stall);

        queen.join().unwrap().unwrap()
    });

    assert!(report.complete);
    assert!(report.speculative >= 1, "no speculative re-lease happened");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
    std::fs::remove_file(&path).unwrap();
}

/// A queen bound to `0.0.0.0` wakes its accept loop through loopback when
/// its only worker leaves. A missed wake would block the queen in
/// `accept` for good, so it runs on its own thread and the test waits for
/// its report with a deadline instead of joining.
#[test]
fn queen_on_unspecified_address_returns_when_its_worker_leaves() {
    let grid = tiny_grid();
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    let path = tmp_path("unspecified");

    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let (report_tx, report_rx) = mpsc::channel();
    let queen = {
        let (grid, path) = (grid.clone(), path.clone());
        std::thread::spawn(move || {
            let report = run_queen(&grid, listener, &path, &queen_options(2_000));
            let _ = report_tx.send(report);
        })
    };
    run_worker(&addr, resolver(&grid), &worker_options("only")).unwrap();

    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("queen still accepting 30 s after its only worker left")
        .unwrap();
    queen.join().unwrap();
    assert!(report.complete);
    assert_eq!(report.workers, 1);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
    std::fs::remove_file(&path).unwrap();
}

/// A 60 s lease TTL gives the worker a 20 s heartbeat period; the session
/// still ends as soon as the grid does, because the ticker stops on the
/// signal, not on its next tick.
#[test]
fn long_heartbeat_period_does_not_delay_the_worker() {
    let grid = tiny_grid();
    let path = tmp_path("long-ttl");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = queen_options(60_000);
    let (report, elapsed) = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(&grid, listener, &path, &options));
        let start = Instant::now();
        run_worker(&addr, resolver(&grid), &worker_options("w")).unwrap();
        let elapsed = start.elapsed();
        (queen.join().unwrap().unwrap(), elapsed)
    });
    assert!(report.complete);
    assert!(
        elapsed < Duration::from_secs(5),
        "run_worker took {elapsed:?} with a 20 s heartbeat period"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A hand-rolled queen that answers the handshake correctly and then
/// leases cells outside the grid: past its end, and with a `start + len`
/// that overflows. The worker must refuse the lease with `InvalidData`
/// rather than index past the grid or wrap the range.
#[test]
fn out_of_range_lease_is_invalid_data() {
    let grid = grid();
    for lease in [
        ToWorker::Lease {
            id: 1,
            start: 100,
            len: 1,
        },
        ToWorker::Lease {
            id: 1,
            start: 1,
            len: usize::MAX,
        },
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = LineReader::new(stream.try_clone().unwrap());
                let hello = reader.read_line().unwrap().unwrap();
                assert!(matches!(
                    ToQueen::parse(&hello).unwrap(),
                    ToQueen::Hello { .. }
                ));
                let hello = ToWorker::Hello {
                    grid: "test-grid".into(),
                    fast: false,
                    cells: grid.num_cells(),
                    ttl_ms: 2_000,
                };
                stream
                    .write_all(format!("{}\n", hello.to_line()).as_bytes())
                    .unwrap();
                let ask = reader.read_line().unwrap().unwrap();
                assert!(matches!(ToQueen::parse(&ask).unwrap(), ToQueen::Lease));
                stream
                    .write_all(format!("{}\n", lease.to_line()).as_bytes())
                    .unwrap();
                // Hold the connection until the worker hangs up.
                while let Ok(Some(_)) = reader.read_line() {}
            });
            run_worker(&addr, resolver(&grid), &worker_options("w"))
        });
        let err = outcome.expect_err("an out-of-range lease was worked");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
}
