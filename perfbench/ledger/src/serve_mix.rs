//! The serve workload: `pps-serve` as shipped, driven over TCP as a
//! closed loop by a seeded, skewed stream of scale-1 requests, every reply
//! byte-compared with the reply computed in process during set-up.

use pps_core::{pool, Scheme};
use pps_obs::Obs;
use pps_profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps_profile::{profile_pair_hash, profile_triple_hash};
use pps_serve::frame::{read_frame, write_frame};
use pps_serve::proto::{decode_response, encode_request, encode_response};
use pps_serve::{
    execute, execute_cached, Client, CompileCache, Envelope, HealthSnapshot, ProfileText, Request,
    Response,
};
use pps_suite::{benchmark_by_name, Scale};
use std::collections::BTreeSet;
use std::fs::File;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cells::{self, Cell, SCHEMES};
use crate::stats::{geomean, mean, median, peak_rss_mb, quantile, ratio, Report, Rng};
use crate::Args;

/// The suite without gcc: one gcc request costs about 40× any other and
/// would set the tail on its own.
pub const BENCHES: [&str; 13] = [
    "alt", "ph", "corr", "wc", "com", "eqn", "esp", "go", "ijpeg", "li", "m88k", "perl", "vortex",
];
const SCALE: u32 = 1;
/// Daemon start-ups per run; `setup_s` is their median. The daemon's
/// accept loop sleeps 20 ms while idle, so one start-up varies by that
/// much; many make the median steady.
const SETUP_REPS: usize = 21;
/// Requests per benchmark in one round of the stream.
const PER_ROUND: usize = 4;
/// Rounds in the generated stream (more than any run consumes).
const ROUNDS: usize = 400;
/// A run goes on past `--seconds` until it has this many replies, so the
/// p90 has at least 10 samples beyond it.
const MIN_SAMPLES: usize = 110;
/// Requests the traced run replays in process.
const REPLAY: usize = 100;
/// No run drives the daemon longer than this.
const HARD_CAP_S: f64 = 120.0;
/// The daemon's default reply-cache capacity.
const CACHE_CAP: usize = 128;
/// Closed-loop connections per worker. With one per worker, a worker
/// waits for its client's next request after every reply, and on a
/// 2-vCPU VM those hand-offs made the run-to-run spread of throughput and
/// latency 0.15-0.65; with four, the queue never drains (it holds 8 per
/// worker, so no request is refused) and the workers never wait.
const CONNS_PER_WORKER: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Profile,
    Compile,
    CompileProfiled,
    RunCell,
}

impl Kind {
    /// The request kind as the daemon labels it.
    fn label(self) -> &'static str {
        match self {
            Kind::Profile => "profile",
            Kind::Compile | Kind::CompileProfiled => "compile",
            Kind::RunCell => "runcell",
        }
    }
}

/// A (benchmark, scheme, kind) triple; `Profile` artifacts have no scheme.
#[derive(Debug, Clone, Copy)]
struct Artifact {
    bench: usize,
    scheme: Scheme,
    kind: Kind,
}

/// Every artifact of the workload with its request and expected reply.
struct Universe {
    names: Vec<&'static str>,
    artifacts: Vec<Artifact>,
    requests: Vec<Request>,
    encoded: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    replies: Vec<Response>,
}

/// Builds every artifact's request and computes its reply in process
/// (`execute`, no cache): the bytes every daemon reply must equal.
fn universe(names: &[&'static str], jobs: usize) -> Result<Universe, String> {
    let mut artifacts = Vec::new();
    for bench in 0..names.len() {
        artifacts.push(Artifact {
            bench,
            scheme: Scheme::M4,
            kind: Kind::Profile,
        });
        for scheme in SCHEMES {
            for kind in [Kind::Compile, Kind::CompileProfiled, Kind::RunCell] {
                artifacts.push(Artifact {
                    bench,
                    scheme,
                    kind,
                });
            }
        }
    }
    let obs = Obs::noop();
    let profile_request = |bench: usize| Request::Profile {
        bench: names[bench].into(),
        scale: SCALE,
        depth: 0,
    };
    let profiles = pool::run_indexed(jobs, names.len(), |b| execute(&profile_request(b), &obs));
    let mut texts = Vec::new();
    for (name, reply) in names.iter().zip(&profiles) {
        match reply {
            Response::Profile { edge, path } => texts.push(ProfileText {
                edge: edge.clone(),
                path: path.clone(),
            }),
            other => return Err(format!("{name} Profile: unexpected reply {other:?}")),
        }
    }
    let requests: Vec<Request> = artifacts
        .iter()
        .map(|a| {
            let bench = names[a.bench].to_string();
            let scheme = a.scheme.name();
            match a.kind {
                Kind::Profile => profile_request(a.bench),
                Kind::Compile => Request::Compile {
                    bench,
                    scale: SCALE,
                    scheme,
                    profile: None,
                },
                Kind::CompileProfiled => Request::Compile {
                    bench,
                    scale: SCALE,
                    scheme,
                    profile: Some(texts[a.bench].clone()),
                },
                Kind::RunCell => Request::RunCell {
                    bench,
                    scale: SCALE,
                    scheme,
                    strict: true,
                },
            }
        })
        .collect();
    let replies = pool::run_indexed(jobs, artifacts.len(), |i| match artifacts[i].kind {
        Kind::Profile => profiles[artifacts[i].bench].clone(),
        _ => execute(&requests[i], &obs),
    });
    for (request, reply) in requests.iter().zip(&replies) {
        if let Response::Error { .. } | Response::Busy | Response::ShuttingDown = reply {
            return Err(format!("{request:?}: in-process reply {reply:?}"));
        }
    }
    Ok(Universe {
        names: names.to_vec(),
        encoded: requests
            .iter()
            .map(|r| encode_request(&Envelope::new(r.clone())))
            .collect(),
        expected: replies.iter().map(encode_response).collect(),
        artifacts,
        requests,
        replies,
    })
}

/// The request stream for `seed`, in rounds. In each round every
/// benchmark gets its three hot artifacts — one `Profile`, one `Compile`
/// (server-trained or client-profiled) and one `RunCell`, drawn once per
/// seed — plus the next artifact of a seeded permutation of all its
/// artifacts, and the round is shuffled. Three of every four requests
/// repeat a hot artifact, the fourth walks the whole universe, and every
/// benchmark and kind carries the same share under every seed.
fn stream(uni: &Universe, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let of = |b: usize, kinds: &[Kind]| -> Vec<usize> {
        (0..uni.artifacts.len())
            .filter(|&i| uni.artifacts[i].bench == b && kinds.contains(&uni.artifacts[i].kind))
            .collect()
    };
    let mut hot = Vec::new();
    let mut walk = Vec::new();
    for b in 0..uni.names.len() {
        for kinds in [
            &[Kind::Profile][..],
            &[Kind::Compile, Kind::CompileProfiled],
            &[Kind::RunCell],
        ] {
            let group = of(b, kinds);
            hot.push(group[rng.below(group.len())]);
        }
        let mut all = of(
            b,
            &[
                Kind::Profile,
                Kind::Compile,
                Kind::CompileProfiled,
                Kind::RunCell,
            ],
        );
        rng.shuffle(&mut all);
        walk.push(all);
    }
    let mut out = Vec::with_capacity(ROUNDS * hot.len() * 4 / 3);
    for r in 0..ROUNDS {
        let mut round = hot.clone();
        round.extend(walk.iter().map(|all| all[r % all.len()]));
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// A running `pps-serve` child; killed and reaped on drop if it is still
/// running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon with its shipped defaults on an ephemeral port
    /// and returns it with the seconds from spawn to its first `Pong`.
    fn spawn(bin: &Path, out_dir: &Path) -> Result<(Daemon, f64), String> {
        let port_file = out_dir.join(format!("serve-{}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let log = File::create(out_dir.join("serve.log")).map_err(|e| format!("serve.log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        while daemon.addr.is_empty() {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                daemon.addr = text.trim().to_string();
            } else if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon wrote no port file within 30 s".into());
            } else if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let _ = std::fs::remove_file(&port_file);
        daemon.health()?;
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// One `Ping` on a fresh connection.
    fn health(&self) -> Result<HealthSnapshot, String> {
        let mut client = Client::connect(&self.addr, Some(Duration::from_secs(30)))
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        match client.request(Request::Ping) {
            Ok(Response::Pong { health }) => Ok(health),
            other => Err(format!("Ping: {other:?}")),
        }
    }

    /// In-band `Shutdown`, then waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr, Some(Duration::from_secs(30)))
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        match client.request(Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("Shutdown: {other:?}")),
        }
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() < Duration::from_secs(60) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit within 60 s of Shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One reply of the closed loop.
struct Sample {
    /// Position in the stream.
    idx: usize,
    rtt: f64,
    /// Completion time since the loop started.
    done: f64,
    bytes: usize,
    ok: bool,
}

/// What one closed-loop run saw.
struct Drive {
    samples: Vec<Sample>,
    busy_retries: u64,
    queue_depth_max: u32,
    errors: Vec<String>,
}

impl Drive {
    fn window(&self) -> f64 {
        self.samples.iter().map(|s| s.done).fold(0.0, f64::max)
    }

    fn ok_rtts_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.rtt * 1e3)
            .collect()
    }
}

/// Drives the daemon with `conns` closed-loop connections taking
/// requests from `order` in sequence, until `seconds` have passed and at
/// least `MIN_SAMPLES` replies came back. A monitor connection pings
/// every 200 ms for the queue depth.
fn drive(addr: &str, uni: &Universe, order: &[usize], conns: usize, seconds: f64) -> Drive {
    let next = AtomicUsize::new(0);
    let replies = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut out = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut max = 0;
            if let Ok(mut client) = Client::connect(addr, Some(Duration::from_secs(30))) {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(Response::Pong { health }) = client.request(Request::Ping) {
                        max = max.max(health.queue_depth);
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
            max
        });
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut busy = 0;
                    let mut errors = Vec::new();
                    let connected = TcpStream::connect(addr).and_then(|s| {
                        s.set_nodelay(true)?;
                        s.set_read_timeout(Some(Duration::from_secs(150)))?;
                        Ok(s)
                    });
                    let mut tcp = match connected {
                        Ok(s) => s,
                        Err(e) => {
                            errors.push(format!("connect {addr}: {e}"));
                            return (samples, busy, errors);
                        }
                    };
                    loop {
                        let elapsed = start.elapsed().as_secs_f64();
                        if elapsed > HARD_CAP_S
                            || (elapsed >= seconds && replies.load(Ordering::Relaxed) >= MIN_SAMPLES)
                        {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let art = order[idx % order.len()];
                        let sent = Instant::now();
                        let reply = loop {
                            let payload = write_frame(&mut tcp, &uni.encoded[art])
                                .map_err(|e| e.to_string())
                                .and_then(|()| read_frame(&mut tcp).map_err(|e| e.to_string()));
                            match payload {
                                Ok(p) if p != uni.expected[art]
                                    && matches!(decode_response(&p), Ok(Response::Busy)) =>
                                {
                                    busy += 1;
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                other => break other,
                            }
                        };
                        let rtt = sent.elapsed().as_secs_f64();
                        replies.fetch_add(1, Ordering::Relaxed);
                        let done = start.elapsed().as_secs_f64();
                        match reply {
                            Ok(p) => {
                                let ok = p == uni.expected[art];
                                if !ok {
                                    errors.push(format!(
                                        "request {idx} ({:?}): reply differs from the in-process reply: {:?}",
                                        uni.artifacts[art],
                                        decode_response(&p)
                                    ));
                                }
                                samples.push(Sample { idx, rtt, done, bytes: p.len(), ok });
                            }
                            Err(e) => {
                                errors.push(format!("request {idx}: {e}"));
                                samples.push(Sample { idx, rtt, done, bytes: 0, ok: false });
                                break;
                            }
                        }
                    }
                    (samples, busy, errors)
                })
            })
            .collect();
        let mut out = Drive {
            samples: Vec::new(),
            busy_retries: 0,
            queue_depth_max: 0,
            errors: Vec::new(),
        };
        for w in workers {
            let (samples, busy, errors) = w.join().expect("client thread");
            out.samples.extend(samples);
            out.busy_retries += busy;
            out.errors.extend(errors);
        }
        stop.store(true, Ordering::Relaxed);
        out.queue_depth_max = monitor.join().expect("monitor thread");
        out
    });
    out.samples.sort_by_key(|s| s.idx);
    out
}

/// Prints the sample count and what the daemon's cache saw.
fn describe(drive: &Drive, order: &[usize], h0: &HealthSnapshot, h1: &HealthSnapshot) {
    let distinct: BTreeSet<usize> = drive
        .samples
        .iter()
        .map(|s| order[s.idx % order.len()])
        .collect();
    println!(
        "requests {} distinct_artifacts {} window_s {:.3} cache_hits {} cache_misses {} \
         cache_invalidations {} pgo_recompiles {} pgo_swaps {}",
        drive.samples.len(),
        distinct.len(),
        drive.window(),
        h1.cache_hits - h0.cache_hits,
        h1.cache_misses - h0.cache_misses,
        h1.cache_invalidations - h0.cache_invalidations,
        h1.recompiles - h0.recompiles,
        h1.swaps - h0.swaps
    );
}

/// Counts the replies of a drive into `report`: every request is one
/// attempt; an errored reply or one whose bytes differ is a failure.
fn count_replies(report: &mut Report, drive: &Drive) {
    report.attempted += drive.samples.len() as u64;
    report.failed += drive.samples.iter().filter(|s| !s.ok).count() as u64;
    for e in drive.errors.iter().take(10) {
        report.problem(e.clone());
    }
}

/// Timings of the in-process replay of the stream's first requests.
struct Replay {
    n: usize,
    execute_ms: Vec<f64>,
    suite_s: Vec<f64>,
    train_ms: Vec<f64>,
    codec_s: f64,
    hash_s: f64,
    proto_ms: Vec<f64>,
    text_bytes: u64,
    mismatches: Vec<String>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Replays the first `n` requests of `order` in process through
/// `execute_cached` with a fresh cache, then times the request path's
/// layer calls on the same inputs: `benchmark_by_name`, the training
/// runs, the hashes the cache key needs, the profile codec, and
/// `encode_response` / `decode_response`.
fn replay(uni: &Universe, order: &[usize], n: usize) -> Replay {
    let cache = CompileCache::new(CACHE_CAP);
    let obs = Obs::noop();
    let mut r = Replay {
        n,
        execute_ms: Vec::new(),
        suite_s: Vec::new(),
        train_ms: Vec::new(),
        codec_s: 0.0,
        hash_s: 0.0,
        proto_ms: Vec::new(),
        text_bytes: 0,
        mismatches: Vec::new(),
    };
    for &art in &order[..n] {
        let a = uni.artifacts[art];
        let (reply, t) = timed(|| execute_cached(&uni.requests[art], &obs, None, Some(&cache)));
        r.execute_ms.push(t * 1e3);
        let (bytes, t_enc) = timed(|| encode_response(&reply));
        let (decoded, t_dec) = timed(|| decode_response(&bytes));
        r.proto_ms.push((t_enc + t_dec) * 1e3);
        if bytes != uni.expected[art] || decoded.as_ref() != Ok(&reply) {
            r.mismatches
                .push(format!("in-process replay of {a:?}: reply differs"));
        }

        let (bench, t) = timed(|| benchmark_by_name(uni.names[a.bench], Scale(SCALE)));
        r.suite_s.push(t);
        let Some(bench) = bench else {
            r.mismatches
                .push(format!("no benchmark {}", uni.names[a.bench]));
            continue;
        };
        if let Request::Compile {
            profile: Some(text),
            ..
        } = &uni.requests[art]
        {
            let (parsed, t) = timed(|| (edge_from_text(&text.edge), path_from_text(&text.path)));
            r.codec_s += t;
            r.text_bytes += (text.edge.len() + text.path.len()) as u64;
            if let (Ok(edge), Ok(path)) = parsed {
                let (_, t) = timed(|| {
                    (
                        pps_ir::hash::program_hash(&bench.program),
                        profile_pair_hash(&edge, &path),
                    )
                });
                r.hash_s += t;
            }
            continue;
        }
        let k = if a.kind == Kind::Profile {
            None
        } else {
            a.scheme.kpath_k()
        };
        let (trained, t) = timed(|| cells::train(&bench.program, &bench.train_args, k));
        r.train_ms.push(t * 1e3);
        let Ok(trained) = trained else {
            r.mismatches.push(format!("{a:?}: training run failed"));
            continue;
        };
        if a.kind == Kind::Profile {
            let (len, t) =
                timed(|| edge_to_text(&trained.edge).len() + path_to_text(&trained.path).len());
            r.codec_s += t;
            r.text_bytes += len as u64;
        } else {
            let (_, t) = timed(|| {
                let program = pps_ir::hash::program_hash(&bench.program);
                let profile = match &trained.kpath {
                    Some(kp) => profile_triple_hash(&trained.edge, &trained.path, kp),
                    None => profile_pair_hash(&trained.edge, &trained.path),
                };
                (program, profile)
            });
            r.hash_s += t;
        }
    }
    r
}

/// The serve-layer metrics of a drive (bracketed by two health snapshots)
/// and of its in-process replay.
fn serve_metrics(
    report: &mut Report,
    uni: &Universe,
    order: &[usize],
    drive: &Drive,
    h0: &HealthSnapshot,
    h1: &HealthSnapshot,
    replay: &Replay,
) {
    let first: Vec<&Sample> = drive.samples.iter().filter(|s| s.idx < replay.n).collect();
    for kind in ["profile", "compile", "runcell"] {
        let rtts: Vec<f64> = first
            .iter()
            .filter(|s| uni.artifacts[order[s.idx % order.len()]].kind.label() == kind)
            .map(|s| s.rtt * 1e3)
            .collect();
        report.metric(&format!("serve.rtt_ms.{kind}"), mean(&rtts), "ms");
    }
    let rtt_all: Vec<f64> = first.iter().map(|s| s.rtt * 1e3).collect();
    report.metric("serve.execute_ms", mean(&replay.execute_ms), "ms");
    report.metric(
        "serve.transport_ms",
        mean(&rtt_all) - mean(&replay.execute_ms),
        "ms",
    );
    report.metric("serve.train_ms", mean(&replay.train_ms), "ms");
    report.metric("serve.proto_ms", mean(&replay.proto_ms), "ms");
    let hits = (h1.cache_hits - h0.cache_hits) as f64;
    let misses = (h1.cache_misses - h0.cache_misses) as f64;
    report.metric("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    report.metric(
        "serve.cache.evictions",
        (h1.cache_evictions - h0.cache_evictions) as f64,
        "count",
    );
    let bytes: Vec<f64> = drive.samples.iter().map(|s| s.bytes as f64).collect();
    report.metric("serve.reply_bytes", mean(&bytes), "bytes");
    report.metric(
        "serve.queue_depth_max",
        drive.queue_depth_max as f64,
        "count",
    );
    report.metric("serve.busy_retries", drive.busy_retries as f64, "count");
    report.metric(
        "serve.pgo.profiles_merged",
        (h1.profiles_merged - h0.profiles_merged) as f64,
        "count",
    );
    report.metric(
        "serve.pgo.recompiles",
        (h1.recompiles - h0.recompiles) as f64,
        "count",
    );
    report.failed += replay.mismatches.len() as u64;
    report.attempted += replay.n as u64;
    for m in &replay.mismatches {
        report.problem(m.clone());
    }
}

/// Spawns the daemon, drives it, replays the stream's head in process,
/// and records the serve-layer metrics. Returns the replay for the
/// request-path profile metrics.
fn traced_serve(
    report: &mut Report,
    uni: &Universe,
    order: &[usize],
    seconds: f64,
    args: &Args,
) -> Result<Replay, String> {
    let jobs = pool::default_jobs();
    let (daemon, _) = Daemon::spawn(&args.serve_bin, &args.out_dir)?;
    let h0 = daemon.health()?;
    let drive = drive(&daemon.addr, uni, order, CONNS_PER_WORKER * jobs, seconds);
    let h1 = daemon.health()?;
    daemon.shutdown()?;
    describe(&drive, order, &h0, &h1);
    count_replies(report, &drive);
    let replay = replay(uni, order, REPLAY.min(drive.samples.len()));
    serve_metrics(report, uni, order, &drive, &h0, &h1, &replay);
    Ok(replay)
}

/// The serve layer on a sweep workload's programs: the daemon driven by
/// this workload's kind of stream over `names`, just long enough for
/// `MIN_SAMPLES` replies, plus the in-process replay.
pub fn probe(report: &mut Report, names: &[&'static str], args: &Args) {
    let result = universe(names, pool::default_jobs()).and_then(|uni| {
        let order = stream(&uni, args.seed);
        traced_serve(report, &uni, &order, 0.0, args)
    });
    if let Err(e) = result {
        report.problem(format!("serve probe: {e}"));
    }
}

/// Runs the serve-mix workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let jobs = pool::default_jobs();
    let uni = match universe(&BENCHES, jobs) {
        Ok(uni) => uni,
        Err(e) => {
            report.problem(format!("set-up: {e}"));
            return report;
        }
    };
    let order = stream(&uni, args.seed);
    println!(
        "workload serve-mix seed {} artifacts {} jobs {jobs}",
        args.seed,
        uni.artifacts.len()
    );
    let digest = uni.expected.iter().fold(0u64, |h, bytes| {
        pps_core::hash::fnv1a64(&[h.to_le_bytes().as_slice(), bytes].concat())
    });
    report.counter("expected.digest", digest);
    report.counter(
        "expected.bytes",
        uni.expected.iter().map(|b| b.len() as u64).sum(),
    );

    let result = if args.trace {
        traced(&mut report, &uni, &order, args)
    } else {
        untraced(&mut report, &uni, &order, args)
    };
    if let Err(e) = result {
        report.problem(e);
    }
    report
}

/// The end-to-end run: repeated daemon start-ups, then the closed loop.
fn untraced(
    report: &mut Report,
    uni: &Universe,
    order: &[usize],
    args: &Args,
) -> Result<(), String> {
    let jobs = pool::default_jobs();
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, secs) = Daemon::spawn(&args.serve_bin, &args.out_dir)?;
        setup.push(secs);
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one start-up");
    let h0 = daemon.health()?;
    let drive = drive(
        &daemon.addr,
        uni,
        order,
        CONNS_PER_WORKER * jobs,
        args.seconds as f64,
    );
    let h1 = daemon.health()?;
    let rss = peak_rss_mb(Some(daemon.child.id()));
    daemon.shutdown()?;
    count_replies(report, &drive);

    describe(&drive, order, &h0, &h1);

    // Rounds of the stream: the wall time from one round's last reply to
    // the next's, over rounds whose replies all came back.
    let round = uni.names.len() * PER_ROUND;
    let mut ends = vec![0.0f64; drive.samples.len() / round];
    let mut seen = vec![0usize; ends.len()];
    for s in &drive.samples {
        if let Some(end) = ends.get_mut(s.idx / round) {
            *end = end.max(s.done);
            seen[s.idx / round] += 1;
        }
    }
    let complete = seen.iter().take_while(|&&n| n == round).count();
    let rounds: Vec<f64> = (0..complete)
        .map(|r| ends[r] - if r == 0 { 0.0 } else { ends[r - 1] })
        .collect();

    // Medians over parts of the run, so that a stall of the host during
    // part of it does not move the figures: throughput from the median
    // round, and each percentile per block of `MIN_SAMPLES` consecutive
    // replies (11 beyond the block's p90), then the median over blocks.
    let rtts = drive.ok_rtts_ms();
    let blocks: Vec<&[f64]> = rtts.chunks_exact(MIN_SAMPLES).collect();
    let per_block = |q: f64| median(&blocks.iter().map(|b| quantile(b, q)).collect::<Vec<_>>());
    println!(
        "replies {} blocks {} rounds {} whole-run: p50_ms {:.3} p90_ms {:.3} rps {:.3}",
        rtts.len(),
        blocks.len(),
        rounds.len(),
        quantile(&rtts, 0.5),
        quantile(&rtts, 0.9),
        rtts.len() as f64 / drive.window()
    );
    report.metric("setup_s", median(&setup), "s");
    report.metric("sweep_s", median(&rounds), "s");
    report.metric("throughput_rps", round as f64 / median(&rounds), "1/s");
    report.metric("req_p50_ms", per_block(0.5), "ms");
    report.metric("req_p90_ms", per_block(0.9), "ms");
    report.metric("peak_rss_mb", rss?, "MB");
    let (cycles, size) = runcell_quality(uni)?;
    report.metric("gen_cycles_geomean", cycles, "cycles");
    report.metric("gen_size_geomean", size, "instrs");
    Ok(())
}

/// Geomeans of test-input cycles with the I-cache and of laid-out static
/// instructions over every `RunCell` artifact of the universe, read from
/// the replies every daemon reply is byte-compared with.
fn runcell_quality(uni: &Universe) -> Result<(f64, f64), String> {
    let mut cycles = Vec::new();
    let mut sizes = Vec::new();
    for reply in &uni.replies {
        let Response::RunCell { metrics_json } = reply else {
            continue;
        };
        let doc = pps_obs::json::parse(metrics_json)?;
        let counter = |name: &str, stage: Option<&str>| -> f64 {
            doc.get("counters")
                .and_then(|c| c.as_arr())
                .into_iter()
                .flatten()
                .filter(|c| c.get("name").and_then(|n| n.as_str()) == Some(name))
                .filter(|c| {
                    stage.is_none_or(|st| {
                        c.get("labels")
                            .and_then(|l| l.get("stage"))
                            .and_then(|s| s.as_str())
                            == Some(st)
                    })
                })
                .filter_map(|c| c.get("value").and_then(|v| v.as_num()))
                .sum()
        };
        cycles.push(
            counter("sim.cycles", Some("test"))
                + counter("sim.icache.penalty_cycles", Some("test")),
        );
        sizes.push(counter("compact.static_instrs", None));
    }
    if cycles.iter().chain(&sizes).any(|v| *v <= 0.0) {
        return Err("a RunCell reply lacks sim.cycles or compact.static_instrs".into());
    }
    Ok((geomean(cycles), geomean(sizes)))
}

/// The traced run: the pipeline layers replayed over the universe's
/// RunCell cells, then the daemon and the in-process replay.
fn traced(report: &mut Report, uni: &Universe, order: &[usize], args: &Args) -> Result<(), String> {
    let jobs = pool::default_jobs();
    let benches = crate::sweep::build_suite(&uni.names, SCALE);
    let cells: Vec<Cell> = cells::cell_set(benches.len());
    let untraced = cells::untraced_pass(&benches, &cells, jobs);
    cells::count_failures(report, &benches, &cells, &untraced);
    let traced = cells::traced_pass(&benches, &cells, jobs, &untraced.runs);
    cells::layer_metrics(report, &untraced, &traced, jobs);
    let spans = args
        .out_dir
        .join(format!("spans-serve-mix-seed{}.json", args.seed));
    cells::write_spans(&spans, &traced.spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    let mut cycles = std::collections::BTreeMap::new();
    for (cell, run) in cells.iter().zip(&untraced.runs) {
        if let Ok(run) = run {
            cycles.insert(
                (benches[cell.bench].name.to_string(), cell.scheme.name()),
                run.cycles,
            );
        }
    }
    cells::check_golden(report, &cycles, &uni.names);

    let replay = traced_serve(report, uni, order, args.seconds as f64, args)?;
    report.metric("suite.build_s", mean(&replay.suite_s), "s");
    report.metric("profile.codec_s", replay.codec_s, "s");
    report.metric("profile.hash_s", replay.hash_s, "s");
    report.metric("profile.text_bytes", replay.text_bytes as f64, "bytes");
    report.counter("profile.text_bytes", replay.text_bytes);
    Ok(())
}
