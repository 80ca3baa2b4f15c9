//! Simulator-side observability: the engine's enablement knob and the
//! `sim.*` metric set.
//!
//! The simulator keeps no metric state of its own. [`metrics_of`]
//! projects a finished [`System`] onto the `sim.*` names: each counter
//! and histogram is a [`SimStats`] field — TLB/PWC/Victima/POM counts
//! and walk depths recorded on the miss path, per-level cache and
//! prefetcher counts copied from the components by
//! [`System::finalize_stats`] — so a metric cannot disagree with the
//! statistic it names. Only the frame-pool gauges are read elsewhere
//! (the allocator's levels at projection time).
//!
//! Metrics therefore cover exactly the windows `SimStats` covers: the
//! measured run, or the sum of a sampled run's detailed windows —
//! never warm-up. They are diagnostics, not results: `SimStats`
//! remains the sole source of `--check` truth, and nothing here feeds
//! a fingerprint or a baseline artifact.
//!
//! # Metric naming
//!
//! Dotted lowercase paths, `sim.`-rooted: `sim.<component>.<event>`
//! (counters), with histograms named after the observed quantity
//! (`sim.ptw.depth` observes per-walk memory accesses). The daemon's
//! registry uses the `svc.` root; see DESIGN.md "Observability".

use crate::stats::SimStats;
use crate::system::System;
use obs::MetricValue;

/// Whether (and how much of) the observability layer a run enables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No metrics, no tracing.
    #[default]
    Off,
    /// The `sim.*` metric set only (the throughput-bench configuration).
    Metrics,
    /// Metrics plus phase-span tracing.
    Full,
}

impl ObsMode {
    /// Reads the `VICTIMA_OBS` environment knob: unset, empty, `0` or
    /// `off` → [`ObsMode::Off`]; `metrics` → [`ObsMode::Metrics`];
    /// anything else (`1`, `full`, `trace`) → [`ObsMode::Full`].
    pub fn from_env() -> Self {
        match std::env::var("VICTIMA_OBS").as_deref() {
            Err(_) | Ok("") | Ok("0") | Ok("off") => ObsMode::Off,
            Ok("metrics") => ObsMode::Metrics,
            Ok(_) => ObsMode::Full,
        }
    }

    /// Whether the `sim.*` metric set is collected.
    pub fn metrics_enabled(self) -> bool {
        self != ObsMode::Off
    }

    /// Whether phase spans are collected.
    pub fn tracing_enabled(self) -> bool {
        self == ObsMode::Full
    }
}

/// Cache levels in metric-name order — the index order of
/// [`SimStats::cache_hits`] and its siblings.
const CACHE_LEVELS: [&str; 3] = ["l1d", "l2", "l3"];

/// The `sim.*` metric set of a finished run: every counter and
/// histogram read off `sys.stats` (finalized, or a sampled aggregate),
/// plus the frame-pool gauges read off the allocator. The order is
/// fixed, so merged snapshots list names the same way on every run.
pub fn metrics_of(sys: &System) -> Vec<(String, MetricValue)> {
    let s: &SimStats = &sys.stats;
    let counters = [
        ("sim.tlb.l1.hit", s.l1_tlb_hits),
        ("sim.tlb.l1.miss", s.l1_tlb_misses),
        ("sim.tlb.l2.hit", s.l2_tlb_hits),
        ("sim.tlb.l2.miss", s.l2_tlb_misses),
        ("sim.tlb.itlb.miss", s.itlb_misses),
        ("sim.tlb.l3.hit", s.l3_tlb_hits),
        ("sim.victima.hit", s.victima_hits),
        ("sim.victima.insert", s.victima_inserts),
        ("sim.victima.bg_walk", s.victima_background_walks),
        ("sim.pom.hit", s.pom_hits),
        ("sim.pom.miss", s.pom_misses),
        ("sim.ptw.walks", s.ptws),
        ("sim.pwc.hit", s.pwc_walk_hits),
        ("sim.pwc.miss", s.ptws - s.pwc_walk_hits),
    ];
    let mut m: Vec<(String, MetricValue)> =
        counters.into_iter().map(|(name, n)| (name.to_owned(), MetricValue::Counter(n))).collect();
    m.push(("sim.ptw.depth".to_owned(), MetricValue::Histogram(s.ptw_depth.clone())));
    m.push(("sim.tlb.l2_miss_latency".to_owned(), MetricValue::Histogram(s.l2_miss_latency_hist.clone())));
    let per_level = [
        ("cache", "hit", &s.cache_hits),
        ("cache", "miss", &s.cache_misses),
        ("prefetch", "fill", &s.prefetch_fills),
    ];
    for (group, event, counts) in per_level {
        for (level, &n) in CACHE_LEVELS.iter().zip(counts) {
            m.push((format!("sim.{group}.{level}.{event}"), MetricValue::Counter(n)));
        }
    }
    let (used, free) = sys.frame_usage();
    m.push(("sim.frames.used".to_owned(), MetricValue::Gauge(used)));
    m.push(("sim.frames.free".to_owned(), MetricValue::Gauge(free)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use workloads::{registry, Scale};

    #[test]
    fn projection_reads_the_component_counters() {
        // Finalizing copies the components' window counters into
        // SimStats; the projection must read back exactly those.
        let cfg = SystemConfig::victima();
        let w = registry::by_name_seeded("RND", Scale::Tiny, cfg.seed).expect("known workload");
        let mut sys = System::new(cfg, w);
        sys.run_with_warmup(5_000, 50_000);
        sys.finalize_stats();
        let m = metrics_of(&sys);
        assert_eq!(m[0].0, "sim.tlb.l1.hit");
        assert!(m.iter().all(|(n, _)| n.starts_with("sim.")));
        let counter = |name: &str| match m.iter().find(|(n, _)| n == name) {
            Some((_, MetricValue::Counter(v))) => *v,
            other => panic!("{name}: expected a counter, got {other:?}"),
        };
        assert_eq!(counter("sim.tlb.itlb.miss"), sys.itlb.stats.misses);
        assert_eq!(counter("sim.ptw.walks"), sys.walker.stats.walks);
        let l3 = sys.hier.l3();
        for (level, c) in CACHE_LEVELS.iter().zip([sys.hier.l1d(), sys.hier.l2(), &*l3]) {
            assert_eq!(counter(&format!("sim.cache.{level}.hit")), c.stats.hits, "{level}");
            assert_eq!(counter(&format!("sim.cache.{level}.miss")), c.stats.misses, "{level}");
            assert_eq!(counter(&format!("sim.prefetch.{level}.fill")), c.stats.prefetch_fills, "{level}");
        }
        assert!(counter("sim.cache.l1d.hit") > 0 && counter("sim.ptw.walks") > 0);
    }

    #[test]
    fn obs_mode_gates_metrics_and_tracing() {
        assert!(!ObsMode::Off.metrics_enabled());
        assert!(ObsMode::Metrics.metrics_enabled());
        assert!(!ObsMode::Metrics.tracing_enabled());
        assert!(ObsMode::Full.metrics_enabled());
        assert!(ObsMode::Full.tracing_enabled());
    }
}
