//! Order statistics, the geometric mean, stats digests, the metric-name
//! grammar and the result line: the helpers every workload shares.

use sim::SimStats;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as a whole percent (99 needs 1000 samples, 95
/// needs 200, 90 needs 100), or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 95, 90].into_iter().find(|&p| n * (100 - p as usize) >= 1000)
}

/// Nearest-rank value at percentile `p` (0..=100) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// Best of N: the fastest of repeated timings of the same work.
/// Interference from other tenants of a shared host (mostly contention
/// for its last-level cache) only ever slows a repetition down, and
/// comes in bursts of seconds that can halve the simulator's speed, so
/// the fastest repetition tracks the code's own cost far more steadily
/// than the median does.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn best(times: &[f64]) -> f64 {
    percentile(times, 0)
}

/// Geometric mean of strictly positive ratios.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive ratio.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of no ratios");
    assert!(xs.iter().all(|&x| x > 0.0), "gmean needs positive ratios: {xs:?}");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a 64 over the counters a cell's result is made of. The fields
/// are listed explicitly, so adding a field to [`SimStats`] leaves every
/// pinned digest valid.
pub fn digest(s: &SimStats) -> u64 {
    let words = [
        s.instructions,
        s.mem_refs,
        s.cycles(),
        s.ipc().to_bits(),
        s.translation_cycles,
        s.data_cycles,
        s.l1_tlb_hits,
        s.l1_tlb_misses,
        s.l2_tlb_hits,
        s.l2_tlb_misses,
        s.l3_tlb_hits,
        s.ptws,
        s.host_ptws,
        s.host_translations,
        s.nested_tlb_hits,
        s.nested_block_hits,
        s.l2_miss_latency_sum,
        s.l2_miss_pom_component,
        s.l2_miss_cache_component,
        s.l2_miss_walk_component,
        s.l2_miss_host_component,
        s.pom_hits,
        s.pom_misses,
        s.victima_hits,
        s.victima_background_walks,
        s.victima_inserts,
        s.ptw_latency_mean.to_bits(),
        s.ptw_dram_fraction.to_bits(),
        s.reach_mean_bytes.to_bits(),
        s.reach_max_bytes,
    ];
    svc::fnv1a64(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One run's outcome: operation counts plus named metrics in emission
/// order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (cells, sweep specs, probes) attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one operation and whether its output was correct.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check with its reason on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("perfbench: FAILED {what}");
        self.op(false);
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit Rust's
    /// shortest round-trip formatting gives. Names and units are checked
    /// against `BENCHMARK.json` before this is printed.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which JSON cannot carry — a bug in
    /// the benchmark, not in the program.
    pub fn to_line(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in [100, 150, 200, 640, 1000, 5000] {
            let p = tail_percentile(n).expect("enough samples");
            let beyond = n - (p as usize * n).div_ceil(100);
            assert!(beyond >= 10, "n={n} p{p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), 990.0);
        assert_eq!(percentile(&xs, 50), 500.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let beyond = xs.iter().filter(|&&x| x > percentile(&xs, 99)).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn best_is_the_fastest() {
        assert_eq!(best(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(&[0.5]), 0.5);
    }

    #[test]
    fn gmean_of_ratios() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((gmean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    fn name_and_unit_grammar() {
        assert!(valid_name("translate.ns_per_ref.victima_virt"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("Minstr/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.op(true);
        o.metric("wall_s", 1.25, "s");
        assert_eq!(
            o.to_line(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        o.fail("x");
        assert!(o.to_line().starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
    }
}
