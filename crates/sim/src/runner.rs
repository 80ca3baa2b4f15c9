//! Convenience layer for building and running systems on the paper's
//! workload suite. A [`Runner`] is a thin wrapper over the parallel
//! batch engine ([`SimEngine`]): it pins a scale and default budgets and
//! turns (workload, config) pairs into [`crate::RunSpec`]s.

use crate::config::SystemConfig;
use crate::engine::{suite_specs, RunSpec, SimEngine};
use crate::stats::SimStats;
use crate::system::System;
use workloads::{registry, Scale};

/// Builds systems bound to registry workloads and runs them with a
/// warm-up.
///
/// Default instruction budgets come from the `VICTIMA_INSTR` /
/// `VICTIMA_WARMUP` environment variables (see DESIGN.md, "Scale knobs").
#[derive(Clone, Debug)]
pub struct Runner {
    /// Workload footprint scale.
    pub scale: Scale,
    /// Measured instructions per run.
    pub instructions: u64,
    /// Warm-up instructions (statistics discarded).
    pub warmup: u64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl Runner {
    /// Creates a runner with environment-configurable budgets.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            instructions: env_u64("VICTIMA_INSTR", 2_000_000),
            warmup: env_u64("VICTIMA_WARMUP", 200_000),
        }
    }

    /// Creates a runner with explicit budgets.
    pub fn with_budget(scale: Scale, warmup: u64, instructions: u64) -> Self {
        Self { scale, instructions, warmup }
    }

    /// Builds a system for one registry workload.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not one of the paper's 11 names.
    pub fn build(&self, workload: &str, cfg: &SystemConfig) -> System {
        let w =
            registry::by_name(workload, self.scale).unwrap_or_else(|| panic!("unknown workload {workload}"));
        System::new(cfg.clone(), w)
    }

    /// Turns one (workload, config) pair into a batch spec with the
    /// runner's scale and default budgets.
    pub fn spec(&self, workload: &str, cfg: &SystemConfig) -> RunSpec {
        RunSpec::new(workload, cfg.clone(), self.scale, self.warmup, self.instructions)
    }

    /// Builds, warms, runs and finalises one (workload, system) pair with
    /// explicit budgets.
    pub fn run(&self, workload: &str, cfg: &SystemConfig, warmup: u64, instructions: u64) -> SimStats {
        let spec = RunSpec::new(workload, cfg.clone(), self.scale, warmup, instructions);
        SimEngine::run_one(0, &spec).stats
    }

    /// Runs with the runner's default budgets.
    pub fn run_default(&self, workload: &str, cfg: &SystemConfig) -> SimStats {
        self.run(workload, cfg, self.warmup, self.instructions)
    }

    /// Runs the full 11-workload suite through the parallel engine
    /// (`VICTIMA_JOBS` workers), returning `(name, stats)` pairs in
    /// figure order.
    pub fn run_suite(&self, cfg: &SystemConfig) -> Vec<(&'static str, SimStats)> {
        let engine = SimEngine::new();
        let results = engine.run_batch(suite_specs(cfg, self.scale, self.warmup, self.instructions));
        registry::WORKLOAD_NAMES.iter().zip(results).map(|(&name, r)| (name, r.stats)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn tiny_radix_run_produces_activity() {
        let r = Runner::with_budget(Scale::Tiny, 5_000, 50_000);
        let s = r.run("RND", &SystemConfig::radix(), r.warmup, r.instructions);
        assert!(s.instructions >= 50_000);
        assert!(s.cycles() > s.instructions / 4, "at least base CPI");
        assert!(s.l2_tlb_misses > 0, "RND must thrash the TLB");
        assert!(s.ptws > 0);
        assert!(s.ptw_latency_mean > 20.0);
    }

    #[test]
    fn victima_reduces_walks_on_rnd() {
        let r = Runner::with_budget(Scale::Tiny, 20_000, 150_000);
        let base = r.run("RND", &SystemConfig::radix(), r.warmup, r.instructions);
        let vic = r.run("RND", &SystemConfig::victima(), r.warmup, r.instructions);
        assert!(vic.victima_hits > 0, "Victima should serve some misses from the L2 cache");
        assert!(
            vic.ptw_reduction_vs(&base) > 0.05,
            "expected a PTW reduction, got {:.3}",
            vic.ptw_reduction_vs(&base)
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let r = Runner::with_budget(Scale::Tiny, 10, 10);
        r.build("NOPE", &SystemConfig::radix());
    }
}
