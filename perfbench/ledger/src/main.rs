//! `pps-ledger`: the benchmark of the pps compiler and the `pps-serve`
//! daemon.
//!
//! ```text
//! pps-ledger --workload sweep-calls|sweep-loops|serve-mix --seed N
//!            --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]
//! ```
//!
//! Run from the repository root (the golden self-test reads
//! `tests/golden/fig4_scale1.txt`). With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` the per-layer metrics of a traced
//! replica of the same work, and writes its spans to `--out-dir`. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! check passed.

mod cells;
mod serve_mix;
mod stats;
mod sweep;

use std::path::PathBuf;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// The `pps-serve` binary to drive.
    pub serve_bin: PathBuf,
    /// Where spans, counter records and the daemon log go.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: pps-ledger --workload sweep-calls|sweep-loops|serve-mix --seed N \
                     --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("pps-ledger: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("pps-ledger: {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let mut report = match args.workload.as_str() {
        "sweep-calls" => sweep::run(&sweep::CALLS, &args),
        "sweep-loops" => sweep::run(&sweep::LOOPS, &args),
        "serve-mix" => serve_mix::run(&args),
        other => {
            eprintln!("pps-ledger: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Per-layer only: on correct code it is 0, and an end-to-end metric
    // must never be. The result line's `failed` / `attempted` carry it in
    // every run.
    if args.trace {
        report.metric(
            "error_ratio",
            stats::ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        );
    }
    // Sweep counters do not depend on the seed; the serve stream does.
    let key = match args.workload.as_str() {
        "serve-mix" => format!(
            "{}-seed{}-trace{}",
            args.workload, args.seed, args.trace as u8
        ),
        w => format!("{w}-trace{}", args.trace as u8),
    };
    report.check_counters(&args.out_dir, &key);
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("counters {}", counters.join(" "));
    println!("{}", report.result_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
