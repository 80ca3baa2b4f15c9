//! The sweep-service probe of every traced run: a sweep daemon with two
//! worker processes (this binary re-executed in worker mode) and one
//! client in a closed loop. Each round submits a cold sweep of many
//! short specs, under a seed no earlier round used, then resubmits the
//! same sweep warm, so every warm spec is served from the result cache
//! with no simulation. A round's wall time is that pair: one cold sweep
//! and one warm resubmit. Further warm resubmits, timed apart from it,
//! give the warm latency samples.
//!
//! The simulator grids never reach the `svc` and `report` layers, and
//! on a shared host the daemon's timings swing too far to bound (see
//! README.md), so they are per-layer metrics, measured on the same
//! sweep by both workloads' traced runs.
//!
//! Every spec is one operation. It fails when its cold line is not a
//! result, when any warm line differs from the cold one, or when the
//! cold line differs from `svc::run_local`'s in-process line.

use crate::simcells::workload_seed;
use crate::stats::{best, median, percentile, secs, tail_percentile, Outcome};
use sim::config::CONFIG_KEYS;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use svc::{DaemonConfig, DaemonHandle, ResultCache, StreamLine, SweepRequest, WorkerBackend};
use workloads::registry::WORKLOAD_NAMES;
use workloads::Scale;

/// Worker processes: the benchmark uses at most two of load.
const WORKERS: usize = 2;
/// Warm resubmits after each cold sweep: the first is part of the
/// round's wall time, the rest only add latency samples.
const WARM_PER_ROUND: usize = 50;
/// Warm samples the probe collects, so the 99th percentile has ten
/// samples beyond it.
const MIN_WARM: usize = 1000;
/// Repetitions of each per-layer replay in the traced run.
const LAYER_ROUNDS: usize = 50;

/// Round `k`'s sweep: every registered config on every workload, Tiny
/// scale, short budgets, so per-spec dispatch and caching weigh.
fn request(seed: u64, round: u64) -> SweepRequest {
    SweepRequest {
        configs: CONFIG_KEYS.iter().map(|s| s.to_string()).collect(),
        workloads: WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect(),
        scale: Scale::Tiny,
        warmup: 1_000,
        instructions: 10_000,
        seed: workload_seed(seed).wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        sampling: None,
    }
}

/// A running daemon, shut down (its workers reaped) on drop.
struct Daemon(Option<DaemonHandle>);

impl Daemon {
    /// Starts a daemon and waits until it answers `status`.
    fn start(dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let cfg = DaemonConfig { workers: WORKERS, ..DaemonConfig::new(dir, WorkerBackend::Process(exe)) };
        let handle = svc::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
        let daemon = Self(Some(handle));
        let deadline = Instant::now() + Duration::from_secs(30);
        while let Err(e) = svc::status(dir) {
            if Instant::now() > deadline {
                return Err(format!("daemon never answered status: {e}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// The run's scratch directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_work").join(format!("svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Submits `req` and collects its per-spec lines with their arrival
/// gaps in milliseconds.
fn submit(dir: &Path, req: &SweepRequest) -> Result<(Vec<String>, Vec<f64>, svc::SweepSummary), String> {
    let stream = svc::connect(dir).map_err(|e| e.to_string())?;
    let (mut lines, mut gaps) = (Vec::new(), Vec::new());
    let mut last = Instant::now();
    let summary = svc::submit(stream, req, |line, _| {
        gaps.push(secs(last) * 1e3);
        last = Instant::now();
        lines.push(line.to_owned());
    })?;
    Ok((lines, gaps, summary))
}

/// One round's sweep and what its cold lines must match: their
/// digests, whether each is a result, and whether every warm line
/// repeated it. Digests rather than lines, so that what the client keeps
/// does not grow the resident set with the number of rounds.
struct Round {
    req: SweepRequest,
    cold: Vec<u64>,
    is_result: Vec<bool>,
    warm_same: Vec<bool>,
}

/// What one probe measured.
#[derive(Default)]
struct Session {
    cold_s: Vec<f64>,
    cold_gaps: Vec<f64>,
    warm_ms: Vec<f64>,
    walls: Vec<f64>,
    /// The last round's cold lines.
    last_cold: Vec<String>,
    /// Layer metrics timed on the live daemon.
    layers: Vec<(&'static str, f64, &'static str)>,
}

/// Starts the sweep daemon and runs rounds until at least `MIN_WARM`
/// warm samples exist, times the layers on the live daemon, stops it,
/// and only then checks every round against `svc::run_local`.
fn session(seed: u64, out: &mut Outcome) -> Result<Session, String> {
    let work = WorkDir::new()?;
    let dir = work.0.join("daemon");
    let mut s = Session::default();
    let daemon = Daemon::start(&dir)?;
    let mut rounds = Vec::new();
    while s.warm_ms.len() < MIN_WARM {
        let req = request(seed, rounds.len() as u64);
        let t = Instant::now();
        let (cold, gaps, summary) = submit(&dir, &req)?;
        let cold_s = secs(t);
        if summary.cached != 0 {
            return Err(format!("round {} was not cold: {} cached specs", rounds.len(), summary.cached));
        }
        let mut warm_same = vec![true; cold.len()];
        for k in 0..WARM_PER_ROUND {
            let t = Instant::now();
            let (warm, _, summary) = submit(&dir, &req)?;
            let warm_s = secs(t);
            if k == 0 {
                s.walls.push(cold_s + warm_s);
            }
            s.warm_ms.push(warm_s * 1e3);
            if summary.cached != cold.len() as u64 || warm.len() != cold.len() {
                return Err(format!(
                    "warm resubmit served {} of {} specs from cache",
                    summary.cached,
                    cold.len()
                ));
            }
            for (same, (w, c)) in warm_same.iter_mut().zip(warm.iter().zip(&cold)) {
                *same &= w == c;
            }
        }
        s.cold_s.push(cold_s);
        s.cold_gaps.extend(gaps);
        rounds.push(Round {
            req,
            cold: cold.iter().map(|c| svc::fnv1a64(c.as_bytes())).collect(),
            is_result: cold
                .iter()
                .map(|c| matches!(svc::parse_stream_line(c), Ok(StreamLine::Result { .. })))
                .collect(),
            warm_same,
        });
        s.last_cold = cold;
    }
    eprintln!("perfbench: {} sweep round(s) of {} specs", rounds.len(), s.last_cold.len());
    s.layers = time_layers(&dir, &s.last_cold, out)?;
    drop(daemon);
    for (r, round) in rounds.iter().enumerate() {
        let mut local = Vec::new();
        svc::run_local(&round.req, |line| local.push(svc::fnv1a64(line.as_bytes())))?;
        for (i, &c) in round.cold.iter().enumerate() {
            match (round.is_result[i], round.warm_same[i], local.get(i) == Some(&c)) {
                (true, true, true) => out.op(true),
                (false, ..) => out.fail(format!("spec {i} of round {r}: cold line is not a result")),
                (_, false, _) => out.fail(format!("spec {i} of round {r}: warm line differs from cold")),
                (.., false) => out.fail(format!("spec {i} of round {r}: differs from run_local")),
            }
        }
    }
    Ok(s)
}

/// Median microseconds per item of `f` over `items`, across
/// `LAYER_ROUNDS` rounds.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..LAYER_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            items.iter().for_each(&mut f);
            secs(t) * 1e6 / items.len() as f64
        })
        .collect();
    median(&rounds)
}

/// Times the cache and the result parser from outside over the last
/// sweep's entries, and reads the daemon's retry and timeout counters.
fn time_layers(
    dir: &Path,
    cold: &[String],
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| format!("open cache: {e}"))?;
    let entries: Vec<(String, &String)> = cold
        .iter()
        .map(|line| match svc::parse_stream_line(line) {
            Ok(StreamLine::Result { fingerprint, .. }) => Ok((fingerprint, line)),
            other => Err(format!("cold line is not a result: {other:?}")),
        })
        .collect::<Result<_, String>>()?;
    let mut hits = 0usize;
    let lookup_us = per_item_us(&entries, |(fp, line)| {
        hits += usize::from(cache.lookup(fp).as_deref() == Some(line.as_str()));
    });
    if hits != entries.len() * LAYER_ROUNDS {
        out.fail(format!(
            "cache lookups returned the streamed line {hits} of {} times",
            entries.len() * LAYER_ROUNDS
        ));
    }
    let parse_us = per_item_us(cold, |line| {
        black_box(svc::parse_stream_line(black_box(line)).is_ok());
    });
    let status = svc::status(dir)?;
    Ok(vec![
        ("svc.cache_lookup_us", lookup_us, "us"),
        ("report.result_parse_us", parse_us, "us"),
        ("svc.specs_retried", status.specs_retried as f64, "count"),
        ("svc.specs_timed_out", status.specs_timed_out as f64, "count"),
    ])
}

/// The probe: a full session with the layers timed on its daemon, plus
/// the sweep's timings. Cold throughput and round wall time are the
/// best round; the warm median and tail pool every warm sample.
pub fn probe(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let s = session(seed, out)?;
    out.metric("svc.cold_specs_per_s", s.last_cold.len() as f64 / best(&s.cold_s), "1/s");
    out.metric("svc.warm_submit_p50_ms", median(&s.warm_ms), "ms");
    out.metric("svc.round_wall_s", best(&s.walls), "s");
    for &(name, value, unit) in &s.layers {
        out.metric(name, value, unit);
    }
    out.metric("svc.cold_spec_ms_p50", median(&s.cold_gaps), "ms");
    let p = tail_percentile(s.warm_ms.len()).expect("at least MIN_WARM samples");
    assert_eq!(p, 99, "MIN_WARM samples leave ten beyond the 99th percentile");
    out.metric("svc.warm_submit_p99_ms", percentile(&s.warm_ms, p), "ms");
    out.metric("svc.warm_submit_samples", s.warm_ms.len() as f64, "count");
    Ok(())
}
