//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints progress and human-readable figures on stderr and, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! Exits 1 when a correctness check failed, 2 on bad arguments, 3 when
//! the run overran its hard deadline.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cohmeleon_perfbench::bench::{self, Args, WORKLOADS};

/// A run that has not finished by then is stopped without a result.
const HARD_DEADLINE: Duration = Duration::from_secs(170);

/// Longest accepted `--seconds`: each pass must fit the hard deadline.
const MAX_SECONDS: u64 = 60;

/// Spans and scratch files live here, under the working directory.
const OUT_DIR: &str = ".perfbench-out";

const USAGE: &str = "usage: perfbench --workload paper-grid|dma-stream|fleet-sweep|serve-decide \
                     --seed N --seconds S --trace 0|1";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|(n, _)| n == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?.1);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds must be in 1..={MAX_SECONDS}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let out_dir = PathBuf::from(OUT_DIR);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_DEADLINE);
        eprintln!(
            "perfbench: run exceeded {} s; stopping without a result",
            HARD_DEADLINE.as_secs()
        );
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.dir.display());
        return ExitCode::from(1);
    }
    let outcome = bench::run(&args);
    if let Err(e) = std::fs::remove_dir_all(&args.dir) {
        eprintln!("perfbench: cannot remove {}: {e}", args.dir.display());
    }
    println!("{}", outcome.to_json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
