//! The simulator grids behind both workloads, `tiny-native` and
//! `tiny-translate`: (workload, config) cells, each built with
//! `System::new` and run at Tiny scale's default budget in full detail on
//! one thread.
//!
//! The untraced run repeats the whole grid until the time is up and
//! reports the best of N per cell. The traced run records every cell's
//! reference stream with `System::set_record_hook` and replays it
//! through each layer's public entry point, one layer at a time.

use crate::pins;
use crate::stats::{best, digest, gmean, peak_rss_mb, secs, Outcome};
use mem_sim::{Hierarchy, MemClass, Policy, ReplacementCtx};
use page_table::{AddressSpace, FrameAllocator};
use sim::{ObsMode, RunScratch, RunSpec, SimEngine, SimStats, System, SystemConfig, TranslationMechanism};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use vm_types::{Asid, MemRef, PhysAddr};
use workloads::registry::{self, WORKLOAD_NAMES};
use workloads::{Scale, WorkloadStream};

/// Footprint scale of every cell: the smallest, where host time is
/// steadiest on a shared host.
const SCALE: Scale = Scale::Tiny;

/// One (workload, config) simulation.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload abbreviation.
    pub workload: &'static str,
    /// Config key, as in the pins and `baseline_of`.
    pub config: &'static str,
    /// The configuration (its seed is replaced by the run's seed).
    pub cfg: SystemConfig,
}

/// A grid of cells, in run order.
pub type Grid = Vec<Cell>;

fn config(key: &'static str) -> SystemConfig {
    match key {
        "radix" => SystemConfig::radix(),
        "victima" => SystemConfig::victima(),
        "victima_virt" => SystemConfig::victima_virt(),
        "nested_paging" => SystemConfig::nested_paging(),
        _ => unreachable!("unknown config key {key}"),
    }
}

fn grid(workloads: &[&'static str], configs: &[&'static str]) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|&w| configs.iter().map(move |&c| Cell { workload: w, config: c, cfg: config(c) }))
        .collect()
}

/// `tiny-native`: the whole suite on radix and Victima at Tiny scale,
/// where the data hierarchy dominates host time.
pub fn tiny_native() -> Grid {
    grid(&WORKLOAD_NAMES, &["radix", "victima"])
}

/// `tiny-translate`: translation-heavy workloads on native and nested
/// paging, where translation takes a quarter to a third of the host
/// time. Tiny scale, like `tiny-native`: at Small scale the same grid's
/// host time swung by ±25 % from run to run on a shared host, at Tiny by
/// about half that.
pub fn tiny_translate() -> Grid {
    grid(&["BC", "RND", "XS", "GEN"], &["radix", "victima", "victima_virt", "nested_paging"])
}

/// The config a Victima config is measured against: radix for native
/// Victima, nested paging for Victima under virtualization. `None` for
/// a baseline config.
fn baseline_of(config: &str) -> Option<&'static str> {
    match config {
        "victima" => Some("radix"),
        "victima_virt" => Some("nested_paging"),
        _ => None,
    }
}

/// The workload seed the benchmark's `--seed` selects: `0` is the
/// repository's default seed, for which cell digests are pinned.
pub fn workload_seed(seed: u64) -> u64 {
    vm_types::DEFAULT_SEED ^ seed
}

/// Builds a cell's system exactly as `SimEngine::run_one` does.
pub fn build(cell: &Cell, seed: u64) -> System {
    let mut cfg = cell.cfg.clone();
    cfg.seed = seed;
    let workload = registry::by_name_seeded(cell.workload, SCALE, seed).expect("registered workload");
    System::new(cfg, workload)
}

/// Runs a built system through the scale's default budget.
pub fn simulate(sys: &mut System) {
    let (warmup, measured) = SCALE.default_budget();
    sys.run_with_warmup(warmup, measured);
    sys.finalize_stats();
}

/// Instructions a finished cell simulated: the warm-up budget plus the
/// measured window.
fn simulated_instructions(stats: &SimStats) -> u64 {
    SCALE.default_budget().0 + stats.instructions
}

/// Gmean over the grid's Victima cells of their IPC over the IPC of the
/// same workload on the cell's baseline config.
fn speedup(g: &Grid, stats: &[SimStats]) -> f64 {
    let ratios: Vec<f64> = g
        .iter()
        .zip(stats)
        .filter_map(|(c, s)| {
            let den = baseline_of(c.config)?;
            let (_, base) = g
                .iter()
                .zip(stats)
                .find(|(b, _)| b.workload == c.workload && b.config == den)
                .expect("grid pairs every Victima config with its baseline");
            Some(s.ipc() / base.ipc())
        })
        .collect();
    gmean(&ratios)
}

/// Checks a cell's digest against the pin for the default seed.
fn pin_ok(cell: &Cell, seed: u64, d: u64) -> Result<(), String> {
    if seed != 0 {
        return Ok(());
    }
    match pins::digest_for(cell.workload, cell.config) {
        Some(p) if p == d => Ok(()),
        Some(p) => Err(format!("{}/{} digest {d:016x} != pinned {p:016x}", cell.workload, cell.config)),
        None => Err(format!("{}/{} has no pinned digest", cell.workload, cell.config)),
    }
}

/// The untraced run: whole-grid passes until `seconds` have elapsed.
/// Each cell's simulation and set-up times are its best over the
/// passes; the grid's are the sums over cells.
pub fn run(g: &Grid, seed: u64, seconds: f64) -> Outcome {
    let wseed = workload_seed(seed);
    let mut out = Outcome::default();
    let n = g.len();
    let (mut setup_s, mut sim_s) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut first: Vec<SimStats> = Vec::new();
    let start = Instant::now();
    while first.is_empty() || secs(start) < seconds {
        for (i, cell) in g.iter().enumerate() {
            let t0 = Instant::now();
            let mut sys = build(cell, wseed);
            let t1 = Instant::now();
            simulate(&mut sys);
            sim_s[i].push(secs(t1));
            setup_s[i].push(t1.duration_since(t0).as_secs_f64());
            let d = digest(&sys.stats);
            let ok = match first.get(i) {
                // Determinism: every pass repeats the first exactly.
                Some(prev) if digest(prev) == d => Ok(()),
                Some(_) => Err(format!("{}/{} digest changed between passes", cell.workload, cell.config)),
                None => pin_ok(cell, seed, d),
            };
            match ok {
                Ok(()) => out.op(true),
                Err(e) => out.fail(e),
            }
            if first.len() == i {
                first.push(sys.stats.clone());
            }
        }
    }
    let passes = sim_s[0].len();
    eprintln!("perfbench: {passes} pass(es) of {n} cells");
    let instrs: u64 = first.iter().map(simulated_instructions).sum();
    let sim: f64 = sim_s.iter().map(|t| best(t)).sum();
    let wall: f64 =
        (0..n).map(|i| best(&setup_s[i].iter().zip(&sim_s[i]).map(|(a, b)| a + b).collect::<Vec<_>>())).sum();
    let setup: f64 = setup_s.iter().map(|t| best(t)).sum();
    out.metric("minstr_per_s", instrs as f64 / sim / 1e6, "Minstr/s");
    out.metric("wall_s", wall, "s");
    out.metric("setup_s", setup, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("victima_speedup_gmean", speedup(g, &first), "ratio");
    out
}

/// Host time (seconds) each layer spent on one cell, plus the counts
/// the per-layer metrics are made of.
#[derive(Clone, Debug, Default)]
struct CellTrace {
    refs: u64,
    sim_s: f64,
    hooked_s: f64,
    gen_s: f64,
    translate_s: f64,
    mem_s: f64,
    obs_s: [f64; 3],
    l1d: (u64, u64),
    l2: (u64, u64),
    stats: SimStats,
}

/// A workload stream bound to the same virtual layout `System::new`
/// gives the cell. Region bases depend only on region sizes, so the
/// regions are mapped with 2MB pages to keep this cheap; the replay
/// check against the recorded stream proves the layout matches.
fn fresh_stream(cell: &Cell, seed: u64) -> WorkloadStream {
    let mut workload = registry::by_name_seeded(cell.workload, SCALE, seed).expect("registered workload");
    let mut alloc = FrameAllocator::new(cell.cfg.phys_mem_bytes, seed);
    let mut aspace = AddressSpace::new(Asid::new(1), &mut alloc, seed);
    aspace.map_small_region(256 << 10, &mut alloc);
    let bases: Vec<_> =
        workload.region_specs().iter().map(|s| aspace.map_region(s.bytes, 1.0, &mut alloc).base).collect();
    workload.init(&bases);
    WorkloadStream::new(workload)
}

/// The L2 replacement policy `System` pairs with the cell's mechanism.
fn l2_policy(cfg: &SystemConfig) -> Policy {
    match cfg.mechanism {
        TranslationMechanism::Victima(_)
        | TranslationMechanism::PomTlb(_)
        | TranslationMechanism::VictimaPom(..) => Policy::tlb_aware_srrip(),
        _ => Policy::srrip(),
    }
}

/// Traces one cell: the untraced and hooked runs, the three layer
/// replays and the three observability modes.
fn trace_cell(cell: &Cell, seed: u64, out: &mut Outcome) -> CellTrace {
    let mut ct = CellTrace::default();
    let name = format!("{}/{}", cell.workload, cell.config);

    let mut sys = build(cell, seed);
    let t = Instant::now();
    simulate(&mut sys);
    ct.sim_s = secs(t);
    ct.stats = sys.stats.clone();
    drop(sys);

    let mut sys = build(cell, seed);
    let recorded = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&recorded);
    sys.set_record_hook(Box::new(move |r| sink.borrow_mut().push(r)));
    let t = Instant::now();
    simulate(&mut sys);
    ct.hooked_s = secs(t);
    drop(sys.take_record_hook());
    let consumed = sys.refs_consumed();
    let hooked_digest = digest(&sys.stats);
    drop(sys);
    let refs: Vec<MemRef> = Rc::try_unwrap(recorded).expect("hook released").into_inner();
    ct.refs = refs.len() as u64;
    let mut ok = true;
    let mut check = |cond: bool, what: &str| {
        if !cond {
            eprintln!("perfbench: {name}: {what}");
            ok = false;
        }
    };
    check(hooked_digest == digest(&ct.stats), "traced stats differ from untraced stats");
    // Every replay below walks this recorded stream once, so this check
    // is what makes each replay consume exactly `refs_consumed()` refs.
    check(ct.refs == consumed, "hook saw a different count than refs_consumed()");

    // Generator: regenerate the stream the system consumed.
    let mut stream = fresh_stream(cell, seed);
    let mut regenerated = Vec::with_capacity(refs.len());
    let t = Instant::now();
    for _ in 0..refs.len() {
        regenerated.push(stream.next_ref());
    }
    ct.gen_s = secs(t);
    check(regenerated == refs, "regenerated stream differs from the recorded one");
    drop(regenerated);

    // Translation: every data reference through a fresh system's full
    // translation path.
    let mut sys = build(cell, seed);
    let mut pas: Vec<PhysAddr> = Vec::with_capacity(refs.len());
    let t = Instant::now();
    for r in &refs {
        pas.push(sys.translate_once(r.vaddr));
    }
    ct.translate_s = secs(t);
    let truth: Vec<Option<PhysAddr>> = refs.iter().map(|r| sys.ground_truth(r.vaddr)).collect();
    check(
        pas.iter().zip(&truth).all(|(pa, gt)| Some(*pa) == *gt),
        "translate_once disagrees with ground_truth",
    );
    drop(sys);

    // Data hierarchy: the same physical stream into a bare hierarchy.
    let mut hier = Hierarchy::with_l2_policy(cell.cfg.hierarchy.clone(), l2_policy(&cell.cfg));
    let ctx = ReplacementCtx::default();
    let t = Instant::now();
    for (r, pa) in refs.iter().zip(&truth) {
        let pa = pa.expect("mapped address");
        black_box(hier.access_pc(pa, r.kind.is_write(), MemClass::Data, r.pc, &ctx));
    }
    ct.mem_s = secs(t);
    let (l1d, l2) = (&hier.l1d().stats, &hier.l2().stats);
    ct.l1d = (l1d.misses, l1d.hits + l1d.misses);
    ct.l2 = (l2.misses, l2.hits + l2.misses);

    // Observability modes on the same cell, through the engine.
    let (warmup, measured) = SCALE.default_budget();
    let spec = RunSpec::new(cell.workload, cell.cfg.clone(), SCALE, warmup, measured).with_seed(seed);
    let mut scratch = RunScratch::default();
    for (i, mode) in [ObsMode::Off, ObsMode::Metrics, ObsMode::Full].into_iter().enumerate() {
        let r = SimEngine::run_one_observed(0, &spec, &mut scratch, mode);
        ct.obs_s[i] = r.wall.as_secs_f64();
        check(digest(&r.stats) == digest(&ct.stats), "observability changed the stats");
    }
    out.op(ok);
    ct
}

/// Host-time metrics, nanoseconds per reference for each layer, over a
/// set of cell traces.
fn host_time_metrics(out: &mut Outcome, traces: &[&CellTrace], suffix: &str) {
    let refs: u64 = traces.iter().map(|t| t.refs).sum();
    let ns = |f: fn(&CellTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() * 1e9 / refs as f64;
    let (gen, tr, mem, sim) = (ns(|t| t.gen_s), ns(|t| t.translate_s), ns(|t| t.mem_s), ns(|t| t.sim_s));
    out.metric(format!("workloads.ns_per_ref{suffix}"), gen, "ns");
    out.metric(format!("translate.ns_per_ref{suffix}"), tr, "ns");
    out.metric(format!("mem.ns_per_ref{suffix}"), mem, "ns");
    out.metric(format!("sim.ns_per_ref{suffix}"), sim, "ns");
    out.metric(format!("sim.residual_ns_per_ref{suffix}"), sim - gen - tr - mem, "ns");
}

/// Simulated counts over every cell, and the replay hierarchy's miss
/// ratios.
fn count_metrics(out: &mut Outcome, traces: &[CellTrace], g: &Grid) {
    let sum = |f: fn(&SimStats) -> u64| traces.iter().map(|t| f(&t.stats)).sum::<u64>() as f64;
    let kinstr = sum(|s| s.instructions) / 1000.0;
    out.metric("tlb.l1_miss_pki", sum(|s| s.l1_tlb_misses) / kinstr, "1/kinstr");
    out.metric("tlb.l2_mpki", sum(|s| s.l2_tlb_misses) / kinstr, "1/kinstr");
    out.metric("pt.ptw_pki", sum(|s| s.ptws) / kinstr, "1/kinstr");
    out.metric("pt.host_ptw_pki", sum(|s| s.host_ptws) / kinstr, "1/kinstr");
    let walks = sum(|s| s.ptws);
    let walk_cycles: f64 = traces.iter().map(|t| t.stats.ptw_latency_mean * t.stats.ptws as f64).sum();
    out.metric("pt.ptw_latency_mean_cycles", walk_cycles / walks, "cycles");
    let victima: Vec<&SimStats> =
        traces.iter().zip(g).filter(|(_, c)| c.cfg.mechanism.is_victima()).map(|(t, _)| &t.stats).collect();
    let v_misses: u64 = victima.iter().map(|s| s.l2_tlb_misses).sum();
    let v_hits: u64 = victima.iter().map(|s| s.victima_hits).sum();
    out.metric("core.victima_hit_ratio", v_hits as f64 / v_misses as f64, "ratio");
    out.metric("core.victima_inserts_pki", sum(|s| s.victima_inserts) / kinstr, "1/kinstr");

    let ratio = |f: fn(&CellTrace) -> (u64, u64)| {
        let (m, a) = traces.iter().map(f).fold((0, 0), |(m, a), (x, y)| (m + x, a + y));
        m as f64 / a as f64
    };
    out.metric("mem.l1d_miss_ratio", ratio(|t| t.l1d), "ratio");
    out.metric("mem.l2_miss_ratio", ratio(|t| t.l2), "ratio");
}

/// The suffix of each role's host-time metrics, and whether its cells
/// run Victima (native or virtualized) rather than baseline translation
/// (radix, nested paging). Every grid has cells of both roles.
const ROLES: [(&str, bool); 2] = [(".baseline", false), (".victima", true)];

/// The traced run: traced passes over the grid until `seconds` have
/// elapsed (at least one).
pub fn run_traced(g: &Grid, seed: u64, seconds: f64, out: &mut Outcome) {
    let wseed = workload_seed(seed);
    let mut passes: Vec<Vec<CellTrace>> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || secs(start) < seconds {
        passes.push(g.iter().map(|c| trace_cell(c, wseed, out)).collect());
    }
    eprintln!("perfbench: {} traced pass(es) of {} cells", passes.len(), g.len());
    // Each host-time field is the cell's best over passes, as in the
    // untraced run; counts repeat exactly, so any pass serves.
    let traces: Vec<CellTrace> = (0..g.len())
        .map(|i| {
            let mut t = passes[0][i].clone();
            let best_of =
                |f: fn(&CellTrace) -> f64| best(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>());
            t.sim_s = best_of(|t| t.sim_s);
            t.hooked_s = best_of(|t| t.hooked_s);
            t.gen_s = best_of(|t| t.gen_s);
            t.translate_s = best_of(|t| t.translate_s);
            t.mem_s = best_of(|t| t.mem_s);
            t.obs_s = [best_of(|t| t.obs_s[0]), best_of(|t| t.obs_s[1]), best_of(|t| t.obs_s[2])];
            t
        })
        .collect();
    host_time_metrics(out, &traces.iter().collect::<Vec<_>>(), "");
    for (suffix, victima) in ROLES {
        let ts: Vec<&CellTrace> = traces
            .iter()
            .zip(g)
            .filter(|(_, c)| baseline_of(c.config).is_some() == victima)
            .map(|(t, _)| t)
            .collect();
        host_time_metrics(out, &ts, suffix);
    }
    count_metrics(out, &traces, g);
    let total = |f: fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let pct = |x: f64, base: f64| (x - base) / base * 100.0;
    out.metric("trace.hook_overhead_pct", pct(total(|t| t.hooked_s), total(|t| t.sim_s)), "%");
    let off = total(|t| t.obs_s[0]);
    out.metric("obs.metrics_overhead_pct", pct(total(|t| t.obs_s[1]), off), "%");
    out.metric("obs.full_overhead_pct", pct(total(|t| t.obs_s[2]), off), "%");
}

/// Prints every cell's digest for the default seed, in `pins.rs` form,
/// each (workload, config) once.
pub fn print_pins(grids: &[Grid]) {
    let seed = workload_seed(0);
    let mut seen = std::collections::HashSet::new();
    for cell in grids.iter().flatten() {
        if !seen.insert((cell.workload, cell.config)) {
            continue;
        }
        let mut sys = build(cell, seed);
        simulate(&mut sys);
        println!("    ({:?}, {:?}, 0x{:016x}),", cell.workload, cell.config, digest(&sys.stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &'static str, key: &'static str) -> Cell {
        Cell { workload, config: key, cfg: config(key) }
    }

    fn cell_digest(c: &Cell) -> u64 {
        let mut sys = build(c, workload_seed(0));
        simulate(&mut sys);
        digest(&sys.stats)
    }

    #[test]
    fn digest_is_stable_and_tells_configs_apart() {
        let radix = cell("RND", "radix");
        assert_eq!(cell_digest(&radix), cell_digest(&radix));
        assert_ne!(cell_digest(&radix), cell_digest(&cell("RND", "victima")));
    }

    #[test]
    fn manual_build_matches_the_engine() {
        let c = cell("XS", "victima");
        let (warmup, measured) = SCALE.default_budget();
        let spec =
            RunSpec::new(c.workload, c.cfg.clone(), SCALE, warmup, measured).with_seed(workload_seed(0));
        assert_eq!(digest(&SimEngine::run_one(0, &spec).stats), cell_digest(&c));
    }

    #[test]
    fn default_seed_matches_the_pins() {
        for c in [cell("BC", "radix"), cell("TC", "victima")] {
            assert_eq!(Some(cell_digest(&c)), pins::digest_for(c.workload, c.config));
        }
    }
}
