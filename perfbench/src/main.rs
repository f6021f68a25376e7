//! The repository benchmark: serves one workload over loopback HTTP
//! through the real `ctc-server` stack, drives it from this process,
//! checks every answer, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer split from an in-process replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload orkut-lctc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod check;
mod http;
mod inputs;
mod load;
mod replay;
mod stats;
mod trace;

use crate::check::check_answer;
use crate::http::{request_bytes, Client, ServerProcess};
use crate::inputs::{strided_edges, Query, QueryStream, SplitMix64, Workload, Zipf};
use crate::load::{
    digest, warm_up_writes, Bodies, Load, ReadRec, Reads, Source, Window, RSS_AFTER_READS,
};
use crate::replay::Replay;
use crate::stats::{median, percentile, ratio, Pct};
use ctc_core::{CommunityEngine, SearchAlgo};
use ctc_graph::CsrGraph;
use ctc_server::{encode_community, Json};
use ctc_truss::{DeltaLogFile, DeltaOp, DeltaRecord, Snapshot, TrussIndex};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a run keeps its snapshot, logs and spans (inside the checkout).
const WORK_DIR: &str = ".bench_work";
/// The window runs in this many slices. Between two slices the served
/// stack idles while the run starts and stops a second server (a `setup_s`
/// sample) and builds the index for at least `GAP_BUILD_SECONDS` of CPU
/// (`index_build_s` samples). So those samples spread over the run as the
/// reads do: the host's speed drifts over seconds, and one burst of them
/// would read the speed of one moment.
const SLICES: usize = 10;
const GAP_BUILD_SECONDS: f64 = 0.2;
/// Warm-up reads before the window, drawn from the warm-up seed.
const WARMUP_READS: usize = 10;
/// Restore pairs pre-seeded into the log that start-up recovers.
const PRESEED_PAIRS: usize = 50;
/// Distinct edges the write streams cycle over.
const WRITE_EDGES: usize = 1024;

struct Opts {
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = flag("--workload")?;
    let w = inputs::workload(name).ok_or_else(|| {
        let names: Vec<_> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Opts {
        w,
        seed,
        seconds,
        trace,
    })
}

/// Machine facts recorded with every result.
fn machine_facts(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Report a commit only when this directory is itself the top of a git
    // checkout; a copy nested in another repository must not borrow its id.
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = run("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| PathBuf::from(t).canonicalize().ok());
    let commit = (top.is_some() && top == here)
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{rustc}\" commit={commit} seed={seed}"
    )
}

/// All CPU ticks and stolen ticks so far, from the `cpu` line of
/// `/proc/stat`.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user, nice, system, idle, iowait, irq, softirq, steal; the guest
    // fields after them are already counted in user.
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// Milliseconds a fixed loop of the benchmark's own takes: dependent
/// random reads over `table` (16 MiB) with hashing. It shares no code with
/// the program, so it moves only with the host's speed; a run prints its
/// median over the gaps to tell a slow host from a slow program.
fn host_reference_ms(table: &[u64]) -> f64 {
    let t = Instant::now();
    let mut rng = SplitMix64::new(0);
    let mut acc = 0u64;
    for _ in 0..1 << 17 {
        let i = (rng.next_u64() ^ acc) % table.len() as u64;
        acc = acc.wrapping_add(table[i as usize]);
    }
    std::hint::black_box(acc);
    ms_since(t)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and samples beyond, for percentiles.
    evidence: Option<Pct>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        evidence: None,
    }
}

/// A percentile metric. A tail percentile is an error, not a number, when
/// fewer than ten samples lie beyond it.
fn pct_metric(
    name: &'static str,
    samples: &[f64],
    p: f64,
    unit: &'static str,
) -> Result<Metric, String> {
    let pct = percentile(samples, p).ok_or_else(|| format!("{name}: no samples"))?;
    if p > 50.0 {
        pct.require_tail(name)?;
    }
    Ok(Metric {
        name,
        value: pct.value,
        unit,
        evidence: Some(pct),
    })
}

/// A median with its sample count; zero when nothing was sampled (a
/// layer that never runs on this workload).
fn median_metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    Metric {
        evidence: percentile(samples, 50.0),
        ..metric(name, median(samples), unit)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__serve") {
        let log = args.get(2).map(Path::new);
        return match args.get(1).map(|s| http::serve_main(Path::new(s), log)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            let metrics: Vec<(String, Json)> = out
                .metrics
                .iter()
                .map(|m| {
                    let v = Json::Object(vec![
                        ("value".into(), Json::Float(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), v)
                })
                .collect();
            let result = Json::Object(vec![
                ("correct".into(), Json::Bool(out.failures.is_empty())),
                ("attempted".into(), Json::Uint(out.attempted)),
                ("failed".into(), Json::Uint(out.failed)),
                ("metrics".into(), Json::Object(metrics)),
            ]);
            println!("{}", result.encode());
            if out.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                for f in &out.failures {
                    eprintln!("check failed: {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: report lines, metrics, and the outcome of the checks.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Everything the set-up phase leaves behind for the window.
struct Prepared {
    work: PathBuf,
    graph: CsrGraph,
    snapshot: PathBuf,
    pristine_log: Option<PathBuf>,
    live_log: PathBuf,
    index_build_s: Vec<f64>,
    edges: Vec<(u32, u32)>,
}

fn prepare(w: &Workload, seed: u64, work: &Path) -> Result<Prepared, String> {
    let net = ctc_gen::network_by_name(w.preset)
        .ok_or_else(|| format!("no generated preset {:?}", w.preset))?;
    let graph = net.data.graph;
    let mut index_build_s = Vec::new();
    let snap = build_round(&mut index_build_s, 0.0, || Snapshot::build(graph.clone()));
    let snapshot = work.join("graph.ctci");
    snap.save(&snapshot)
        .map_err(|e| format!("saving the snapshot: {e}"))?;
    drop(snap);
    let edges = strided_edges(&graph, seed, WRITE_EDGES);
    let live_log = work.join("graph.ctcd");
    let pristine_log = if w.wal {
        let bytes = std::fs::read(&snapshot).map_err(|e| e.to_string())?;
        let path = work.join("preseeded.ctcd");
        let mut log = DeltaLogFile::create(&path, ctc_graph::io::fnv1a64(&bytes))
            .map_err(|e| format!("creating the log: {e}"))?;
        for &(u, v) in &edges[1..=PRESEED_PAIRS] {
            for op in [DeltaOp::Delete, DeltaOp::Insert] {
                log.append(DeltaRecord::new(op, u, v))
                    .map_err(|e| format!("pre-seeding the log: {e}"))?;
            }
        }
        Some(path)
    } else {
        None
    };
    Ok(Prepared {
        work: work.to_path_buf(),
        graph,
        snapshot,
        pristine_log,
        live_log,
        index_build_s,
        edges,
    })
}

/// `struct timespec` on Linux, where `time_t` and `long` are both C `long`.
#[repr(C)]
struct Timespec {
    sec: std::os::raw::c_long,
    nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// Seconds the calling thread has run on a CPU. With paravirtual steal
/// accounting (as on KVM guests) this leaves out time the host gave the
/// virtual CPU to someone else, which wall time on a shared host does not.
fn thread_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Runs `build` at least once and for at least `seconds` of CPU, pushing
/// the CPU time of each run on this thread into `secs` (`build` must not
/// hand its work to other threads); returns the last result.
fn build_round<T>(secs: &mut Vec<f64>, seconds: f64, build: impl Fn() -> T) -> T {
    let mut spent = 0.0;
    loop {
        let t = thread_cpu_s();
        let out = std::hint::black_box(build());
        let took = thread_cpu_s() - t;
        secs.push(took);
        spent += took;
        if spent >= seconds {
            return out;
        }
    }
}

impl Prepared {
    /// A fresh copy of the pre-seeded log at `to`, as start-up finds it.
    fn fresh_log(&self, to: &Path) -> Result<Option<PathBuf>, String> {
        match &self.pristine_log {
            Some(p) => {
                std::fs::copy(p, to).map_err(|e| format!("copying the log: {e}"))?;
                Ok(Some(to.to_path_buf()))
            }
            None => Ok(None),
        }
    }

    /// A fresh in-process engine over the state the server starts from,
    /// and the log handle recovery returns.
    fn engine(&self, log_copy: &Path) -> Result<(CommunityEngine, Option<DeltaLogFile>), String> {
        let log = self.fresh_log(log_copy)?;
        let (engine, logfile, _) = CommunityEngine::recover(&self.snapshot, log.as_deref())
            .map_err(|e| format!("recovering in-process: {e}"))?;
        Ok((engine, logfile))
    }
}

/// `f` over `items` on two threads (the machine's cores are what the
/// served stack gets during the window); results in input order.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut halves: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    (t..items.len())
                        .step_by(2)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = halves.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Answers `jobs` on `engine`, as encoded bodies.
fn answer_all(engine: &CommunityEngine, jobs: &[Query]) -> Result<Vec<Vec<u8>>, String> {
    on_two_threads(jobs, |q| answer(engine, q))
        .into_iter()
        .collect()
}

fn answer(engine: &CommunityEngine, q: &Query) -> Result<Vec<u8>, String> {
    let ids = engine
        .resolve_labels(&q.labels)
        .map_err(|l| format!("label {l} not in graph"))?;
    let algo: SearchAlgo = q.algo.parse()?;
    let c = engine
        .search(&ids, algo)
        .map_err(|e| format!("reference search of {q:?}: {e}"))?;
    Ok(encode_community(engine, &c))
}

/// Draws the pool of a pooled-read workload, answers and checks it on a
/// fresh engine, and orders it by zipf rank; returns the pool and the
/// digests of its pre-run answers.
fn pooled_reads(
    p: &Prepared,
    w: &Workload,
    seed: u64,
    size: usize,
    seen: &mut HashSet<Vec<u64>>,
    failures: &mut Vec<String>,
) -> Result<(Vec<Query>, Vec<u64>), String> {
    let g = &p.graph;
    let mut stream = QueryStream::measured(g, w, seed);
    let drawn = (0..size)
        .map(|_| stream.next(seen))
        .collect::<Result<Vec<_>, _>>()?;
    let (engine, _) = p.engine(&p.work.join("pre-run.ctcd"))?;
    let answers = answer_all(&engine, &drawn)?;
    let pairs: Vec<_> = drawn.iter().zip(&answers).collect();
    let verdicts = on_two_threads(&pairs, |(q, body)| check_answer(g, &q.labels, body));
    for ((q, _), verdict) in pairs.iter().zip(verdicts) {
        if let Err(e) = verdict {
            failures.push(format!("pre-run answer to {q:?}: {e}"));
        }
    }
    let entries: Vec<(usize, usize)> = drawn
        .iter()
        .zip(&answers)
        .map(|(q, body)| {
            let algo = w.algos.iter().position(|&a| a == q.algo);
            (algo.expect("drawn from the workload"), body.len())
        })
        .collect();
    let ranked = inputs::stratify(&entries, w.algos.len());
    let pool = ranked.iter().map(|&i| drawn[i].clone()).collect();
    let digests = ranked.iter().map(|&i| digest(&answers[i])).collect();
    Ok((pool, digests))
}

/// The set-up layers, timed in-process: snapshot load, recovery (with a
/// log), the index build, and the engine's memory.
fn setup_layers(p: &Prepared) -> Result<Vec<Metric>, String> {
    let mut load_ms = Vec::new();
    let mut recover_ms = Vec::new();
    for _ in 0..SLICES {
        let t = Instant::now();
        drop(Snapshot::load(&p.snapshot).map_err(|e| e.to_string())?);
        load_ms.push(ms_since(t));
        if let Some(log) = p.fresh_log(&p.work.join("recover.ctcd"))? {
            let t = Instant::now();
            drop(ctc_truss::recover(&p.snapshot, Some(&log)).map_err(|e| e.to_string())?);
            recover_ms.push(ms_since(t));
        }
    }
    let mut build_s = Vec::new();
    build_round(&mut build_s, 1.0, || TrussIndex::build(&p.graph));
    let build_ms: Vec<f64> = build_s.iter().map(|s| s * 1e3).collect();
    let (engine, _) = p.engine(&p.work.join("memory.ctcd"))?;
    Ok(vec![
        median_metric("truss.snapshot.load_ms", &load_ms, "ms"),
        median_metric("truss.recover_ms", &recover_ms, "ms"),
        median_metric("truss.decompose.build_ms", &build_ms, "ms"),
        metric(
            "core.engine.memory_mib",
            engine.memory_bytes() as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ])
}

/// Whether each distinct answer passed its checks, keyed like [`Bodies`].
type Verdicts = HashMap<(usize, u64), bool>;

/// Checks every distinct answer: the independent checker, and a
/// byte-identical answer from a fresh in-process engine (pooled reads
/// compare with the pre-run answers instead: writes move the graph between
/// them). Returns each answer's verdict and how many pooled answers differ
/// from the pre-run ones.
fn check_bodies(
    p: &Prepared,
    queries: &[Query],
    bodies: &Bodies,
    pre_run: &[u64],
    failures: &mut Vec<String>,
) -> Result<(Verdicts, usize), String> {
    let (engine, _) = p.engine(&p.work.join("reference.ctcd"))?;
    let checked = on_two_threads(&bodies.iter().collect::<Vec<_>>(), |(k, body)| {
        let q = &queries[k.0];
        let mut problems = Vec::new();
        let same = match pre_run.get(k.0) {
            Some(&before) => before == k.1,
            None => match answer(&engine, q) {
                Ok(fresh) if fresh == **body => true,
                Ok(_) => {
                    problems.push(format!("answer to {q:?} differs from the fresh engine's"));
                    false
                }
                Err(e) => {
                    problems.push(e);
                    false
                }
            },
        };
        // A pooled answer identical to its pre-run one was checked then.
        if pre_run.is_empty() || !same {
            if let Err(e) = check_answer(&p.graph, &q.labels, body) {
                problems.push(format!("answer to {q:?}: {e}"));
            }
        }
        (**k, problems, same)
    });
    let mut verdict = HashMap::new();
    let mut off_reference = 0;
    for (k, problems, same) in checked {
        off_reference += usize::from(!same);
        verdict.insert(k, problems.is_empty());
        failures.extend(problems);
    }
    Ok((verdict, off_reference))
}

fn run(o: &Opts) -> Result<Outcome, String> {
    let w = o.w;
    let work = Path::new(WORK_DIR).join(w.name);
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("clearing {work:?}: {e}"))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {work:?}: {e}"))?;
    let facts = machine_facts(o.seed);
    let mut lines = vec![format!("# machine: {facts}")];
    let mut failures: Vec<String> = Vec::new();

    let clock = Instant::now();
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let phase = |name, phases: &mut Vec<(&str, f64)>| {
        let at = clock.elapsed().as_secs_f64();
        let before: f64 = phases.iter().map(|p| p.1).sum();
        phases.push((name, at - before));
    };
    let p = prepare(w, o.seed, &work)?;
    let g = &p.graph;
    lines.push(format!(
        "# workload {}: preset {} ({} vertices, {} edges), {}s window",
        w.name,
        w.preset,
        g.num_vertices(),
        g.num_edges(),
        o.seconds
    ));

    // Warm-up queries, then the read source (and for pooled reads the
    // answers the pool has before the run), never repeating a warm-up set.
    let mut seen = HashSet::new();
    let mut warm_stream = QueryStream::warmup(g, w, o.seed);
    let warm: Vec<Query> = (0..WARMUP_READS)
        .map(|_| warm_stream.next(&mut seen))
        .collect::<Result<_, _>>()?;
    let (source, queries, pre_run) = match w.zipf_pool {
        Some(size) => {
            let (pool, digests) = pooled_reads(&p, w, o.seed, size, &mut seen, &mut failures)?;
            (Source::Pool(Zipf::new(size, 1.0, o.seed)), pool, digests)
        }
        None => (
            Source::Fresh(QueryStream::measured(g, w, o.seed), seen),
            Vec::new(),
            Vec::new(),
        ),
    };

    // Per-layer set-up costs, measured in-process before any server runs.
    let setup_layers = if o.trace {
        setup_layers(&p)?
    } else {
        Vec::new()
    };

    phase("inputs", &mut phases);
    // Start-up: snapshot (plus log) on disk to /healthz 200; this server
    // serves the window.
    let log = p.fresh_log(&p.live_log)?;
    let (server, secs) = ServerProcess::start(&p.snapshot, log.as_deref())?;
    let mut setup_s = vec![secs];
    let mut index_build_s = p.index_build_s.clone();

    if w.write_rate.is_some() {
        let mut c = Client::connect(server.addr).map_err(|e| e.to_string())?;
        if !warm_up_writes(&mut c, &p.edges[..1]) {
            failures.push("warm-up write failed".into());
        }
    }

    let reads = Mutex::new(Reads { source, queries });
    let warmup = Mutex::new(warm);
    let bodies = Mutex::new(Bodies::new());
    let load = Load {
        w,
        addr: server.addr,
        reads: &reads,
        warmup: &warmup,
        bodies: &bodies,
        edges: &p.edges[1..],
        server: &server,
        answered: AtomicUsize::new(0),
        rss_mib: OnceLock::new(),
    };
    phase("setup", &mut phases);
    let cpu_before = host_cpu_ticks();
    let table: Vec<u64> = (0..1u64 << 21).collect();
    let mut reference_ms = Vec::new();
    let mut window = Window::default();
    for slice in 0..SLICES {
        if slice > 0 {
            reference_ms.push(host_reference_ms(&table));
            let log = p.fresh_log(&p.work.join("setup.ctcd"))?;
            let (spare, secs) = ServerProcess::start(&p.snapshot, log.as_deref())?;
            setup_s.push(secs);
            spare.stop()?;
            build_round(&mut index_build_s, GAP_BUILD_SECONDS, || {
                Snapshot::build(g.clone())
            });
        }
        load.slice(o.seconds / SLICES as f64, &mut window)?;
    }
    if let (Some(a), Some(b)) = (cpu_before, host_cpu_ticks()) {
        lines.push(format!(
            "# host: {:.1}% of CPU time stolen by the hypervisor during the window",
            ratio(
                b.1.saturating_sub(a.1) as f64,
                b.0.saturating_sub(a.0) as f64
            ) * 100.0
        ));
    }
    lines.push(format!(
        "# host: reference loop median {:.3} ms over {} gaps",
        median(&reference_ms),
        reference_ms.len()
    ));
    drop(table);
    let rss_mib = load.rss_mib.into_inner().ok_or(format!(
        "the window answered fewer than {RSS_AFTER_READS} reads, where serve_rss_mib is read"
    ))??;
    // A fresh connection: one left silent over the window would outlast
    // the server's request deadline.
    let mut c = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let stats = c.get_json("/stats")?;
    let Reads { queries, .. } = reads.into_inner().expect("readers joined");
    let bodies = bodies.into_inner().expect("readers joined");

    // Pooled reads: after the window the pool must answer exactly as before.
    let mut post_run_mismatch = 0;
    for (i, q) in queries.iter().enumerate().take(pre_run.len()) {
        let reply = c
            .send(&request_bytes("POST", "/search", &q.body()))
            .map_err(|e| e.to_string())?;
        if reply.status != 200 || digest(c.body()) != pre_run[i] {
            post_run_mismatch += 1;
        }
    }
    if post_run_mismatch > 0 {
        failures.push(format!(
            "{post_run_mismatch} of {} pool answers changed over the run",
            pre_run.len()
        ));
    }
    drop(c);
    server.stop()?;
    phase("serve", &mut phases);

    let (verdict, off_reference) = check_bodies(&p, &queries, &bodies, &pre_run, &mut failures)?;
    let read_ok = |r: &ReadRec| r.ok && verdict.get(&(r.q, r.digest)) == Some(&true);

    // Pooled reads with writes: the state the log holds, replayed through
    // maintenance, equals a cold decomposition of the original graph.
    if w.wal {
        let (snap, _, report) =
            ctc_truss::recover(&p.snapshot, Some(&p.live_log)).map_err(|e| e.to_string())?;
        let cold = TrussIndex::build(g);
        if snap.graph.num_edges() != g.num_edges()
            || snap.index.edge_truss_slice() != cold.edge_truss_slice()
            || (0..g.num_edges()).any(|e| {
                let e = ctc_graph::EdgeId(e as u32);
                snap.graph.edge_endpoints(e) != g.edge_endpoints(e)
            })
        {
            failures.push("maintained trussness differs from a rebuild".into());
        }
        lines.push(format!(
            "# recovered {} logged updates after the run",
            report.replayed
        ));
    }

    phase("checks", &mut phases);
    // Accounting.
    let stat = |a: &str, b: &str| {
        stats
            .get(a)
            .and_then(|o| o.get(b))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/stats lacks {a}.{b}"))
    };
    let (hits, misses) = (stat("cache", "hits")?, stat("cache", "misses")?);
    let sheds = stat("server", "sheds_accept")?
        + stat("server", "sheds_queue")?
        + stat("server", "sheds_429")?;
    if w.zipf_pool.is_none() && hits != 0 {
        failures.push(format!(
            "{hits} cache hits on a workload of distinct queries"
        ));
    }
    let writes = &window.writes;
    let failed_reads = window.reads.iter().filter(|r| !read_ok(r)).count();
    let failed_writes = writes.iter().filter(|r| !r.ok).count();
    let attempted = (window.reads.len() + writes.len()) as u64;
    let failed = (failed_reads + failed_writes) as u64;
    if failed > 0 || window.warm_errors > 0 {
        failures.push(format!(
            "{failed_reads} reads, {failed_writes} writes and {} warm-up reads failed",
            window.warm_errors
        ));
    }
    lines.push(format!(
        "# requests: {failed} of {attempted} failed; cache {hits} hits / {misses} misses; {sheds} sheds; {} distinct answers",
        bodies.len()
    ));
    if !pre_run.is_empty() {
        lines.push(format!(
            "# {off_reference} distinct answers differ from the pre-run ones (computed while an edge was deleted)"
        ));
    }
    for algo in w.algos {
        let ms: Vec<f64> = window
            .reads
            .iter()
            .filter(|r| queries[r.q].algo == *algo)
            .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
            .collect();
        let hits = window
            .reads
            .iter()
            .filter(|r| r.hit && queries[r.q].algo == *algo)
            .count();
        lines.push(format!(
            "# {algo}: {} reads, {hits} cache hits, median {:.3} ms",
            ms.len(),
            median(&ms)
        ));
    }
    if !window.writes.is_empty() {
        let late: Vec<f64> = window
            .writes
            .iter()
            .map(|r| (r.start - r.due).as_secs_f64() * 1e3)
            .collect();
        lines.push(format!(
            "# write generator lateness: median {:.3} ms, max {:.3} ms over {} writes",
            median(&late),
            late.iter().copied().fold(0.0, f64::max),
            late.len()
        ));
    }

    // `shown`: printed with the metrics but left out of the result, since
    // their run-to-run spread on a small shared host exceeds any bound
    // the result may carry (see README).
    let (metrics, shown) = if o.trace {
        let replay = Replay {
            w,
            p: &p,
            queries: &queries,
            window: &window,
        };
        let mut m = replay.run(&mut failures, &mut lines, &facts)?;
        m.push(metric(
            "server.cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ));
        m.push(metric("server.sheds", sheds as f64, "count"));
        m.extend(setup_layers);
        (m, Vec::new())
    } else {
        let search_ms: Vec<f64> = window
            .reads
            .iter()
            .filter(|r| read_ok(r))
            .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
            .collect();
        let update_ms: Vec<f64> = writes
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.end - r.due).as_secs_f64() * 1e3)
            .collect();
        let gated = vec![
            pct_metric("search_p50_ms", &search_ms, 50.0, "ms")?,
            pct_metric("search_p90_ms", &search_ms, 90.0, "ms")?,
            metric("search_qps", search_ms.len() as f64 / window.seconds, "1/s"),
            median_metric("setup_s", &setup_s, "s"),
            median_metric("index_build_s", &index_build_s, "s"),
            metric("serve_rss_mib", rss_mib, "MiB"),
            metric(
                "ok_ratio",
                ratio((attempted - failed) as f64, attempted as f64),
                "ratio",
            ),
        ];
        let mut shown = Vec::new();
        if !writes.is_empty() {
            shown.push(pct_metric("update_p50_ms", &update_ms, 50.0, "ms")?);
            shown.push(pct_metric("update_p90_ms", &update_ms, 90.0, "ms")?);
        }
        shown.push(metric(
            "fail_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ));
        (gated, shown)
    };
    if o.trace {
        phase("replay", &mut phases);
    }
    let phases: Vec<String> = phases.iter().map(|(n, t)| format!("{n} {t:.1}s")).collect();
    lines.push(format!("# run phases: {}", phases.join(", ")));
    for m in metrics.iter().chain(&shown) {
        let evidence = m.evidence.map_or(String::new(), |e| {
            format!(" (n={}, beyond={})", e.n, e.beyond)
        });
        lines.push(format!("{} {:.6} {}{evidence}", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        lines,
        metrics,
        attempted,
        failed,
        failures,
    })
}
