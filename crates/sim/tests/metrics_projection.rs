//! The `sim.*` metric set is a projection of `SimStats`, never a second
//! count: on every registered config — native and virtualised — and on
//! a sampled run, each projected counter equals its statistic, the
//! histograms agree with the counters they distribute, and turning
//! observability on leaves the statistics bit-identical.

use obs::MetricValue;
use sim::config::CONFIG_KEYS;
use sim::{ObsMode, RunResult, RunSpec, SamplingConfig, SimEngine, SimStats, SystemConfig};
use workloads::Scale;

const WARMUP: u64 = 20_000;
const MEASURED: u64 = 200_000;

fn run(spec: &RunSpec, obs: ObsMode) -> RunResult {
    SimEngine::run_one_observed(0, spec, &mut Default::default(), obs)
}

/// Runs `spec` with observability off and fully on, checks the two
/// agree on every statistic and that every metric equals its twin, and
/// returns the metric set.
fn checked_metrics(label: &str, spec: &RunSpec) -> Vec<(String, MetricValue)> {
    let off = run(spec, ObsMode::Off);
    let full = run(spec, ObsMode::Full);
    assert_eq!(off.stats, full.stats, "{label}: observability must be invisible to SimStats");
    assert!(off.spans.is_empty() && off.metrics.is_none(), "{label}: Off collects nothing");
    assert!(!full.spans.is_empty(), "{label}: Full collects phase spans");
    let metrics = full.metrics.unwrap_or_else(|| panic!("{label}: Full collects metrics"));
    assert_metrics_equal_stats(label, &metrics, &full.stats);
    metrics
}

fn assert_metrics_equal_stats(label: &str, metrics: &[(String, MetricValue)], s: &SimStats) {
    let mut twins: Vec<(String, u64)> = [
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
    ]
    .into_iter()
    .map(|(n, v)| (n.to_owned(), v))
    .collect();
    for (i, level) in ["l1d", "l2", "l3"].into_iter().enumerate() {
        twins.push((format!("sim.cache.{level}.hit"), s.cache_hits[i]));
        twins.push((format!("sim.cache.{level}.miss"), s.cache_misses[i]));
        twins.push((format!("sim.prefetch.{level}.fill"), s.prefetch_fills[i]));
    }

    let mut counters = 0;
    for (name, value) in metrics {
        match value {
            MetricValue::Counter(n) => {
                counters += 1;
                let twin = twins.iter().find(|(t, _)| t == name);
                let (_, want) =
                    twin.unwrap_or_else(|| panic!("{label}: counter {name} has no SimStats twin"));
                assert_eq!(n, want, "{label}: {name}");
            }
            MetricValue::Histogram(h) => match name.as_str() {
                "sim.ptw.depth" => {
                    assert_eq!(h, &s.ptw_depth, "{label}: {name}");
                    assert_eq!(h.count, s.ptws, "{label}: one depth observation per walk");
                }
                "sim.tlb.l2_miss_latency" => {
                    assert_eq!(h, &s.l2_miss_latency_hist, "{label}: {name}");
                    assert_eq!(h.count, s.l2_tlb_misses, "{label}: one observation per L2 TLB miss");
                    assert_eq!(h.sum, s.l2_miss_latency_sum, "{label}: latencies sum to the total");
                }
                _ => panic!("{label}: histogram {name} has no SimStats twin"),
            },
            MetricValue::Gauge(_) => {
                assert!(name.starts_with("sim.frames."), "{label}: unexpected gauge {name}")
            }
        }
    }
    assert_eq!(counters, twins.len(), "{label}: every twin is projected");
}

fn counter(metrics: &[(String, MetricValue)], name: &str) -> u64 {
    match metrics.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(n))) => *n,
        other => panic!("{name}: expected a counter, got {other:?}"),
    }
}

#[test]
fn metrics_equal_stats_on_every_config() {
    for key in CONFIG_KEYS {
        let cfg = SystemConfig::by_name(key).expect("registered key");
        let victima = cfg.mechanism.is_victima();
        let metrics = checked_metrics(key, &RunSpec::new("RND", cfg, Scale::Tiny, WARMUP, MEASURED));
        assert!(counter(&metrics, "sim.ptw.walks") > 0, "{key}: RND must walk");
        if victima {
            assert!(counter(&metrics, "sim.victima.hit") > 0, "{key}: Victima must hit on RND");
        }
    }

    let sampling = SamplingConfig { fast: 20_000, detailed: 10_000, warm: 5_000 };
    let spec =
        RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, WARMUP, MEASURED).with_sampling(sampling);
    let metrics = checked_metrics("sampled victima", &spec);
    assert!(counter(&metrics, "sim.victima.hit") > 0, "sampled windows aggregate Victima hits");
}
