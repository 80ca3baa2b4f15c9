//! Observability determinism gate: enabling the full observability
//! layer (`sim.*` metrics + phase-span tracing) must not move a single
//! byte of any `--check` artifact, at any worker count.
//!
//! The committed baselines are the reference: they were generated with
//! observability off, and `report_pipeline.rs` pins them as canonical
//! (`to_json(parse(text)) == text`). So rendering a fresh obs-enabled
//! run to JSON and byte-comparing against the committed file proves the
//! strongest form of the contract — obs-on output is indistinguishable
//! from obs-off output, not merely within tolerance. The CI `obs-smoke`
//! job runs the same property through the real CLI (`VICTIMA_OBS=1
//! experiments --check` at `--jobs 1` and `--jobs 4`).

use victima_bench::{experiments, ExpCtx};

/// Renders every report an experiment id produces, in order.
fn rendered(ctx: &ExpCtx, id: &str) -> Vec<(String, String)> {
    experiments::by_id(ctx, id)
        .expect("known id")
        .into_iter()
        .map(|r| (r.id.clone(), report::json::to_json(&r)))
        .collect()
}

/// Every checked baseline must be byte-identical to a fresh run with
/// observability fully enabled (metrics + tracing) on four workers —
/// and the run must actually have collected observability data, so the
/// gate cannot silently pass with obs accidentally off.
#[test]
fn check_artifacts_are_byte_identical_with_obs_enabled() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
    let ctx = ExpCtx::check().with_jobs(4).with_obs();
    for id in experiments::checked_ids() {
        for (report_id, fresh) in rendered(&ctx, id) {
            let path = format!("{dir}/{report_id}.json");
            let baseline = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{path}: {e}; run experiments --save-baselines"));
            assert_eq!(fresh, baseline, "{report_id}: artifact bytes moved with observability enabled");
        }
    }
    assert!(!ctx.obs_spans().is_empty(), "gate ran with tracing off — proves nothing");
    assert!(!ctx.obs_metrics().is_empty(), "gate ran with metrics off — proves nothing");
}

/// Worker-count independence with obs enabled: one worker and four
/// produce identical bytes (the full suite runs above; a representative
/// subset keeps this variant cheap).
#[test]
fn obs_enabled_artifacts_are_byte_stable_across_worker_counts() {
    let ctx1 = ExpCtx::check().with_jobs(1).with_obs();
    let ctx4 = ExpCtx::check().with_jobs(4).with_obs();
    for id in ["calibrate", "fig04", "fig11"] {
        assert_eq!(rendered(&ctx1, id), rendered(&ctx4, id), "{id}: bytes depend on worker count");
    }
}

/// The collector side of the contract: an obs-enabled context gathers
/// spans and merged metrics; a default context gathers nothing.
#[test]
fn obs_context_collects_and_default_context_does_not() {
    let on = ExpCtx::check().with_obs();
    experiments::by_id(&on, "calibrate").expect("known id");
    let spans = on.obs_spans();
    assert!(spans.iter().any(|s| s.name == "warmup"), "warmup spans expected");
    assert!(spans.iter().any(|s| s.name == "measured"), "measured spans expected");
    let metrics = on.obs_metrics();
    assert!(
        metrics.iter().any(|(n, _)| n == "sim.ptw.walks"),
        "merged registry missing sim.ptw.walks: {:?}",
        metrics.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    let off = ExpCtx::check();
    experiments::by_id(&off, "calibrate").expect("known id");
    assert!(off.obs_spans().is_empty() && off.obs_metrics().is_empty(), "default ctx must not collect");
}
