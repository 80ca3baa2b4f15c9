//! Integration tests for virtualised execution: the two-dimensional
//! translation must agree with ground truth under nested paging, shadow
//! paging and virtualised Victima, and the virtualised mechanisms must
//! show the paper's qualitative behaviour.

use victima_repro::sim::{ExecMode, Runner, System, SystemConfig};
use victima_repro::workloads::{registry, Scale};

fn tiny_runner() -> Runner {
    Runner::with_budget(Scale::Tiny, 10_000, 120_000)
}

#[test]
fn nested_paging_translates_correctly() {
    let r = tiny_runner();
    let mut sys = r.build("RND", &SystemConfig::nested_paging());
    sys.run(60_000);
    // Spot-check agreement on addresses the workload actually maps.
    let mut rng = victima_repro::types::SplitMix64::new(11);
    let mut checked = 0;
    while checked < 1_000 {
        let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth, "NP mistranslated {va}");
            checked += 1;
        }
    }
}

#[test]
fn victima_virt_translates_correctly_and_reduces_walks() {
    let r = tiny_runner();
    let np = r.run("RND", &SystemConfig::nested_paging(), r.warmup, r.instructions);
    let vic = r.run("RND", &SystemConfig::victima_virt(), r.warmup, r.instructions);
    assert!(vic.victima_hits > 0, "guest TLB blocks should serve misses");
    assert!(
        vic.host_ptw_reduction_vs(&np) > 0.3,
        "nested blocks + nested TLB should cut host walks, got {:.2}",
        vic.host_ptw_reduction_vs(&np)
    );
    assert!(vic.ptw_reduction_vs(&np) > 0.0, "guest walks should shrink");

    // Correctness under the virtualised Victima flows.
    let mut sys = r.build("RND", &SystemConfig::victima_virt());
    sys.run(60_000);
    let mut rng = victima_repro::types::SplitMix64::new(12);
    let mut checked = 0;
    while checked < 1_000 {
        let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth, "Victima-virt mistranslated {va}");
            checked += 1;
        }
    }
}

#[test]
fn shadow_paging_matches_nested_translation() {
    let r = tiny_runner();
    let mut sys = r.build("XS", &SystemConfig::ideal_shadow_paging());
    sys.run(60_000);
    let mut rng = victima_repro::types::SplitMix64::new(13);
    let mut checked = 0;
    while checked < 1_000 {
        let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth, "I-SP mistranslated {va}");
            checked += 1;
        }
    }
}

/// The Fig. 10 ideal backstop is a native-mode study: asking for it in a
/// guest VM must fail loudly at construction, not silently simulate plain
/// nested paging.
#[test]
#[should_panic(expected = "native-mode study")]
fn ideal_backstop_is_rejected_in_virtualized_mode() {
    let mut cfg = SystemConfig::ideal_backstop(30, "Ideal-30");
    cfg.mode = ExecMode::VirtualizedNested;
    let _ = System::new(cfg, registry::by_name("RND", Scale::Tiny).expect("registry workload"));
}

#[test]
fn nested_walks_cost_more_than_native_walks() {
    let r = tiny_runner();
    let native = r.run("RND", &SystemConfig::radix(), r.warmup, r.instructions);
    let np = r.run("RND", &SystemConfig::nested_paging(), r.warmup, r.instructions);
    assert!(
        np.l2_miss_latency() > native.l2_miss_latency(),
        "2D walks must be costlier: native {:.0} vs NP {:.0}",
        native.l2_miss_latency(),
        np.l2_miss_latency()
    );
    assert!(np.host_ptws > 0, "NP performs host walks");
}

#[test]
fn ideal_shadow_paging_beats_nested_paging() {
    let r = tiny_runner();
    let np = r.run("RND", &SystemConfig::nested_paging(), r.warmup, r.instructions);
    let isp = r.run("RND", &SystemConfig::ideal_shadow_paging(), r.warmup, r.instructions);
    assert!(isp.speedup_over(&np) > 1.0, "I-SP ≥ NP expected, got {:.3}", isp.speedup_over(&np));
    assert_eq!(isp.host_ptws, 0, "shadow paging needs no host walks");
}
