//! The MLP probe of every traced run: Table 2's two layers, run on their
//! own through the public functions the `table2` experiment uses — the
//! feature-tracked profiling batch (`victima::features`) and the three
//! MLP trainings (`victima::nn`). The simulator grids never reach them,
//! so both workloads' traced runs measure them on the same input: the
//! check profile's, which pins every seed.
//!
//! The probe is one operation. It fails when the dataset differs in size
//! from the one the committed `table2` baseline was trained on.

use crate::stats::{secs, Outcome};
use sim::{RunSpec, SystemConfig};
use std::path::PathBuf;
use std::time::Instant;
use victima::features::FeatureTracker;
use victima::nn::{split_samples, train_and_evaluate, FeatureSet, TrainConfig};
use victima_bench::ExpCtx;
use workloads::registry::WORKLOAD_NAMES;

/// Engine jobs: the benchmark uses at most two threads of load.
const JOBS: usize = 2;

/// The dataset size the committed `table2` baseline reports.
fn pinned_dataset_pages() -> Result<f64, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/baselines/table2.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let baseline = report::json::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    baseline
        .metric("dataset_pages")
        .map(|m| m.value)
        .ok_or_else(|| format!("{}: no dataset_pages", path.display()))
}

/// Times the profiling batch and the three trainings once each.
pub fn probe(out: &mut Outcome) -> Result<(), String> {
    let runner = ExpCtx::check().runner().clone();
    let (warmup, instructions) = (runner.warmup.min(50_000), runner.instructions.min(600_000));
    let specs: Vec<RunSpec> = WORKLOAD_NAMES
        .iter()
        .map(|&w| RunSpec::new(w, SystemConfig::radix(), runner.scale, warmup, instructions).with_features())
        .collect();
    let ctx = ExpCtx::check().with_jobs(JOBS);
    let t = Instant::now();
    let mut merged = FeatureTracker::new();
    for r in ctx.engine().run_batch(specs) {
        merged.merge(r.features.as_ref().ok_or("profiling run returned no features")?);
    }
    let dataset = merged.dataset(0.3);
    let collect_s = secs(t);

    let (train, test) = split_samples(&dataset, 0.3, 0xda7a);
    let cfg = TrainConfig::default();
    let t = Instant::now();
    for set in [FeatureSet::All10, FeatureSet::Top5, FeatureSet::Two] {
        std::hint::black_box(train_and_evaluate(set, &train, &test, &cfg));
    }
    let train_s = secs(t);
    let pinned = pinned_dataset_pages()?;
    if pinned == dataset.len() as f64 {
        out.op(true);
    } else {
        out.fail(format!("feature dataset has {} pages, the table2 baseline says {pinned}", dataset.len()));
    }

    out.metric("features.collect_s", collect_s, "s");
    out.metric("nn.train_s", train_s, "s");
    out.metric("nn.samples", dataset.len() as f64, "count");
    Ok(())
}
