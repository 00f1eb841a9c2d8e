//! The sweep workloads: every scheme over a slice of the Table 1 suite at
//! scale 4, run in process through the harness's own calls.

use pps_core::pool;
use pps_suite::{all_benchmarks, Benchmark, Scale};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::cells::{self, Cell};
use crate::stats::{geomean, median, peak_rss_mb, quantile, Report};
use crate::Args;

/// Call-heavy, path-rich analogs: many procedures, large path profiles.
pub const CALLS: [&str; 3] = ["gcc", "vortex", "go"];
/// The remaining analogs: 1–3 procedures and long dynamic runs.
pub const LOOPS: [&str; 11] = [
    "alt", "ph", "corr", "wc", "com", "eqn", "esp", "ijpeg", "li", "m88k", "perl",
];

const SCALE: u32 = 4;
/// Least suite builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-up repeats until it has taken this long, for a steady median.
const SETUP_MIN_S: f64 = 1.0;
/// Passes repeat until this many cells have run, so each cell's median
/// wall is taken over several passes.
const MIN_SAMPLES: usize = 110;

/// The named benchmarks at `scale`, built the way the harness selects
/// them (the whole suite, filtered), in suite order.
pub fn build_suite(names: &[&str], scale: u32) -> Vec<Benchmark> {
    all_benchmarks(Scale(scale))
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect()
}

/// Runs a sweep workload over `names`.
pub fn run(names: &[&'static str], args: &Args) -> Report {
    let mut report = Report::default();
    let jobs = pool::default_jobs();

    let mut setup = Vec::new();
    let mut benches = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        benches = build_suite(names, SCALE);
        setup.push(t.elapsed().as_secs_f64());
    }
    let cells = cells::cell_set(benches.len());
    println!(
        "workload {} seed {} cells {} jobs {jobs}",
        args.workload,
        args.seed,
        cells.len()
    );

    if args.trace {
        traced(&mut report, names, &benches, &cells, jobs, args);
        report.metric("suite.build_s", median(&setup), "s");
    } else {
        untraced(&mut report, &benches, &cells, jobs, args);
        report.metric("setup_s", median(&setup), "s");
    }
    report
}

/// Repeated untraced passes for `--seconds`, and until `MIN_SAMPLES`
/// cells have run; end-to-end metrics.
fn untraced(report: &mut Report, benches: &[Benchmark], cells: &[Cell], jobs: usize, args: &Args) {
    let start = Instant::now();
    let mut passes = Vec::new();
    while start.elapsed().as_secs_f64() < args.seconds as f64
        || passes.len() * cells.len() < MIN_SAMPLES
    {
        passes.push(cells::untraced_pass(benches, cells, jobs));
    }
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    println!("passes {} pass_walls_s {}", passes.len(), walls.join(" "));

    let first = &passes[0];
    cells::count_failures(report, benches, cells, first);
    for (n, pass) in passes.iter().enumerate().skip(1) {
        report.attempted += cells.len() as u64;
        for (i, (a, b)) in first.runs.iter().zip(&pass.runs).enumerate() {
            if let (Ok(a), Ok(b)) = (a, b) {
                if cells::fingerprint(a) != cells::fingerprint(b) {
                    report.failed += 1;
                    report.problem(format!(
                        "{}/{}: pass {n} measured {} but pass 0 measured {}",
                        benches[cells[i].bench].name,
                        cells[i].scheme.name(),
                        cells::fingerprint(b),
                        cells::fingerprint(a)
                    ));
                }
            }
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    // Each cell's median wall over the passes, so that a pass the host
    // slowed down moves no cell's latency; the quantiles are over cells.
    let cell_ms: Vec<f64> = (0..cells.len())
        .map(|i| {
            let walls: Vec<f64> = passes.iter().map(|p| p.cell_walls[i] * 1e3).collect();
            median(&walls)
        })
        .collect();
    let ok: Vec<&pps_serve::SchemeRun> =
        first.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    report.metric("sweep_s", median(&walls), "s");
    report.metric("throughput_rps", cells.len() as f64 / median(&walls), "1/s");
    report.metric("req_p50_ms", quantile(&cell_ms, 0.5), "ms");
    report.metric("req_p90_ms", quantile(&cell_ms, 0.9), "ms");
    report.metric(
        "gen_cycles_geomean",
        geomean(ok.iter().map(|r| r.cycles_icache as f64)),
        "cycles",
    );
    report.metric(
        "gen_size_geomean",
        geomean(ok.iter().map(|r| r.static_instrs as f64)),
        "instrs",
    );
    match peak_rss_mb(None) {
        Ok(mb) => report.metric("peak_rss_mb", mb, "MB"),
        Err(e) => report.problem(e),
    }

    let sum = |f: fn(&pps_serve::SchemeRun) -> u64| ok.iter().map(|r| f(r)).sum::<u64>();
    report.counter("cells.ok", ok.len() as u64);
    report.counter("exec.instrs.test", sum(|r| r.counts.instrs));
    report.counter("sim.cycles", sum(|r| r.cycles));
    report.counter("sim.cycles_icache", sum(|r| r.cycles_icache));
    report.counter("sim.icache_accesses", sum(|r| r.accesses));
    report.counter("compact.sched_items", sum(|r| r.static_instrs));
    report.counter("guard.oracle_runs", sum(|r| r.guard.total_procs as u64));
}

/// One untraced pass, the traced replica of it, the golden self-test at
/// scale 1, and a short serve probe over the workload's programs;
/// per-layer metrics.
fn traced(
    report: &mut Report,
    names: &[&'static str],
    benches: &[Benchmark],
    cells: &[Cell],
    jobs: usize,
    args: &Args,
) {
    let untraced = cells::untraced_pass(benches, cells, jobs);
    cells::count_failures(report, benches, cells, &untraced);
    let traced = cells::traced_pass(benches, cells, jobs, &untraced.runs);
    cells::layer_metrics(report, &untraced, &traced, jobs);
    cells::profile_io_metrics(report, &traced);
    report.counter("profile.text_bytes", traced.work.text_bytes);
    let spans = args
        .out_dir
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = cells::write_spans(&spans, &traced.spans) {
        report.problem(format!("{}: {e}", spans.display()));
    }

    // Self-test: scale 1 must reproduce the golden Figure 4 cycle columns
    // for this workload's benchmarks.
    let small = build_suite(names, 1);
    let golden_cells: Vec<Cell> = (0..small.len())
        .flat_map(|bench| {
            cells::GOLDEN_SCHEMES
                .iter()
                .map(move |&scheme| Cell { bench, scheme })
        })
        .collect();
    let pass = cells::untraced_pass(&small, &golden_cells, jobs);
    let mut cycles = BTreeMap::new();
    for (cell, run) in golden_cells.iter().zip(&pass.runs) {
        if let Ok(run) = run {
            cycles.insert(
                (small[cell.bench].name.to_string(), cell.scheme.name()),
                run.cycles,
            );
        }
    }
    cells::check_golden(report, &cycles, names);

    // The serve layer on this workload's programs (gcc left out, as in
    // serve-mix).
    let served: Vec<&str> = names.iter().copied().filter(|n| *n != "gcc").collect();
    crate::serve_mix::probe(report, &served, args);
}
