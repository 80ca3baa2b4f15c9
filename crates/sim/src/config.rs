//! System configurations: the paper's Table 3 baseline plus every
//! evaluated variant.

use mem_sim::HierarchyConfig;
use tlb_sim::{MmuConfig, PomTlbConfig};
use vm_types::Cycles;

/// Which mechanism backs the L2 TLB on a miss.
#[derive(Clone, Debug)]
pub enum TranslationMechanism {
    /// Conventional four-level radix PTW (the `Radix` baseline; with a
    /// hardware L3 TLB configured in [`MmuConfig::l3_tlb`], this is the
    /// "Opt. L3 TLB" design of Fig. 8).
    Radix,
    /// POM-TLB: a 64K-entry software-managed TLB in DRAM (Ryoo+, ISCA'17).
    PomTlb(PomTlbConfig),
    /// Victima with the TLB-aware SRRIP policy (the paper's design).
    Victima(victima::VictimaConfig),
    /// Victima with TLB-agnostic baseline SRRIP (Fig. 26 ablation).
    VictimaAgnostic(victima::VictimaConfig),
    /// Idealised study of Fig. 10: every L2 TLB miss is served at a fixed
    /// latency (the hit latency of L1/L2/LLC).
    IdealBackstop(Cycles),
    /// Victima combined with a large in-memory software TLB behind it
    /// (the DUCATI-style scheme of Sec. 10, which the paper reports gains
    /// only +0.8% over Victima alone).
    VictimaPom(victima::VictimaConfig, PomTlbConfig),
}

impl TranslationMechanism {
    /// Whether this mechanism runs the Victima engine.
    pub fn is_victima(&self) -> bool {
        matches!(
            self,
            TranslationMechanism::Victima(_)
                | TranslationMechanism::VictimaAgnostic(_)
                | TranslationMechanism::VictimaPom(..)
        )
    }
}

/// Execution environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Native execution, single-level translation.
    Native,
    /// Virtualised execution with nested paging (two-dimensional walks).
    VirtualizedNested,
    /// Virtualised execution with ideal shadow paging (I-SP): one
    /// four-level walk of the shadow table; shadow updates are free.
    VirtualizedShadow,
}

/// Core timing model parameters (see DESIGN.md, "Timing model").
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// Sustained non-memory IPC.
    pub issue_width: f64,
    /// Fraction of translation latency exposed to the critical path.
    pub t_expose: f64,
    /// Fraction of load latency exposed (stores retire via the store
    /// buffer and expose nothing).
    pub d_expose: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self { issue_width: 4.0, t_expose: 0.2, d_expose: 0.18 }
    }
}

/// A complete system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Display name (used in experiment tables).
    pub name: String,
    /// MMU shape (TLB sizes and latencies).
    pub mmu: MmuConfig,
    /// Cache hierarchy shape.
    pub hierarchy: HierarchyConfig,
    /// L2-TLB-miss mechanism.
    pub mechanism: TranslationMechanism,
    /// Native or virtualised.
    pub mode: ExecMode,
    /// Core timing parameters.
    pub timing: TimingConfig,
    /// Simulated physical memory (host side in virtualised mode).
    pub phys_mem_bytes: u64,
    /// Deterministic seed for allocators / page-size mixing.
    pub seed: u64,
}

/// CLI keys accepted by [`SystemConfig::by_name`], in display order:
/// the native configs, then the virtualised ones.
pub const CONFIG_KEYS: [&str; 9] = [
    "radix",
    "victima",
    "victima+stlb",
    "pom",
    "victima-agnostic-srrip",
    "np",
    "pom-virt",
    "i-sp",
    "victima-virt",
];

impl SystemConfig {
    /// Resolves a CLI config key ([`CONFIG_KEYS`]) to its configuration —
    /// the shared registry behind `--config` flags and the sweep
    /// service's job requests, so every surface accepts the same names.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "radix" => Self::radix(),
            "victima" => Self::victima(),
            "victima+stlb" => Self::victima_plus_stlb(),
            "pom" => Self::pom_tlb(),
            "victima-agnostic-srrip" => Self::victima_agnostic_srrip(),
            "np" => Self::nested_paging(),
            "pom-virt" => Self::pom_tlb_virt(),
            "i-sp" => Self::ideal_shadow_paging(),
            "victima-virt" => Self::victima_virt(),
            _ => return None,
        })
    }

    fn base(name: &str, mechanism: TranslationMechanism, mode: ExecMode) -> Self {
        Self {
            name: name.to_owned(),
            mmu: MmuConfig::baseline(),
            hierarchy: HierarchyConfig::default(),
            mechanism,
            mode,
            timing: TimingConfig::default(),
            phys_mem_bytes: 24 << 30,
            seed: vm_types::DEFAULT_SEED,
        }
    }

    /// The `Radix` baseline (Table 3).
    pub fn radix() -> Self {
        Self::base("Radix", TranslationMechanism::Radix, ExecMode::Native)
    }

    /// Baseline with a resized L2 TLB (Figs. 5–7).
    pub fn with_l2_tlb(entries: usize, latency: Cycles) -> Self {
        let mut cfg = Self::radix();
        cfg.name = format!("L2TLB-{}K-{}cyc", entries / 1024, latency);
        cfg.mmu = MmuConfig::with_l2_tlb(entries, latency);
        cfg
    }

    /// Baseline plus a hardware L3 TLB (Fig. 8, "Opt. L3 TLB").
    pub fn with_l3_tlb(entries: usize, latency: Cycles) -> Self {
        let mut cfg = Self::radix();
        cfg.name = format!("L3TLB-{}K-{}cyc", entries / 1024, latency);
        cfg.mmu = MmuConfig::with_l3_tlb(entries, latency);
        cfg
    }

    /// POM-TLB with the TLB-aware SRRIP at the L2 cache (Table 3).
    pub fn pom_tlb() -> Self {
        Self::base("POM-TLB", TranslationMechanism::PomTlb(PomTlbConfig::default()), ExecMode::Native)
    }

    /// Victima (the paper's design point).
    pub fn victima() -> Self {
        Self::base(
            "Victima",
            TranslationMechanism::Victima(victima::VictimaConfig::default()),
            ExecMode::Native,
        )
    }

    /// Victima plus a 64K-entry in-memory STLB behind it (Sec. 10's
    /// DUCATI-style combination).
    pub fn victima_plus_stlb() -> Self {
        Self::base(
            "Victima+STLB",
            TranslationMechanism::VictimaPom(victima::VictimaConfig::default(), PomTlbConfig::default()),
            ExecMode::Native,
        )
    }

    /// Victima with TLB-agnostic SRRIP (Fig. 26 ablation).
    pub fn victima_agnostic_srrip() -> Self {
        Self::base(
            "Victima-agnostic-SRRIP",
            TranslationMechanism::VictimaAgnostic(victima::VictimaConfig::default()),
            ExecMode::Native,
        )
    }

    /// The Fig. 10 idealised backstop at the given hit latency.
    pub fn ideal_backstop(latency: Cycles, name: &str) -> Self {
        Self::base(name, TranslationMechanism::IdealBackstop(latency), ExecMode::Native)
    }

    /// Virtualised baseline: nested paging (Table 3, "Nested Paging").
    pub fn nested_paging() -> Self {
        Self::base("NP", TranslationMechanism::Radix, ExecMode::VirtualizedNested)
    }

    /// Virtualised POM-TLB.
    pub fn pom_tlb_virt() -> Self {
        Self::base(
            "POM-TLB-virt",
            TranslationMechanism::PomTlb(PomTlbConfig::default()),
            ExecMode::VirtualizedNested,
        )
    }

    /// Ideal shadow paging (I-SP).
    pub fn ideal_shadow_paging() -> Self {
        Self::base("I-SP", TranslationMechanism::Radix, ExecMode::VirtualizedShadow)
    }

    /// Virtualised Victima (TLB blocks + nested TLB blocks).
    pub fn victima_virt() -> Self {
        Self::base(
            "Victima-virt",
            TranslationMechanism::Victima(victima::VictimaConfig::default()),
            ExecMode::VirtualizedNested,
        )
    }

    /// Rescales the L2 cache (Fig. 25 sensitivity study).
    pub fn with_l2_cache_bytes(mut self, bytes: u64) -> Self {
        self.hierarchy.l2.size_bytes = bytes;
        self.name = format!("{}-L2-{}MB", self.name, bytes >> 20);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_keys_all_resolve() {
        for key in CONFIG_KEYS {
            let cfg = SystemConfig::by_name(key).unwrap_or_else(|| panic!("{key} must resolve"));
            assert_eq!(key, cfg.name.to_lowercase().replace("pom-tlb", "pom"), "keys spell the display name");
        }
        assert_eq!(SystemConfig::by_name("radix").unwrap().name, "Radix");
        assert_eq!(SystemConfig::by_name("pom").unwrap().name, "POM-TLB");
        assert!(SystemConfig::by_name("Radix").is_none(), "keys are lowercase CLI spellings");
    }

    #[test]
    fn named_configs_have_expected_shapes() {
        assert!(matches!(SystemConfig::radix().mechanism, TranslationMechanism::Radix));
        assert!(SystemConfig::victima().mechanism.is_victima());
        assert!(SystemConfig::victima_agnostic_srrip().mechanism.is_victima());
        assert_eq!(SystemConfig::nested_paging().mode, ExecMode::VirtualizedNested);
        assert_eq!(SystemConfig::ideal_shadow_paging().mode, ExecMode::VirtualizedShadow);
    }

    #[test]
    fn l2_tlb_sweep_points() {
        let cfg = SystemConfig::with_l2_tlb(65536, 39);
        assert_eq!(cfg.mmu.l2_tlb.entries, 65536);
        assert_eq!(cfg.mmu.l2_tlb.latency, 39);
        assert!(cfg.name.contains("64K"));
    }

    #[test]
    fn cache_resize_builder() {
        let cfg = SystemConfig::victima().with_l2_cache_bytes(8 << 20);
        assert_eq!(cfg.hierarchy.l2.size_bytes, 8 << 20);
        assert!(cfg.name.contains("8MB"));
    }

    #[test]
    fn timing_defaults_are_sane() {
        let t = TimingConfig::default();
        assert!(t.issue_width >= 1.0);
        assert!((0.0..=1.0).contains(&t.t_expose));
        assert!((0.0..=1.0).contains(&t.d_expose));
    }
}
