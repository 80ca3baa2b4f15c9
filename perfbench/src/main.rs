//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-pins
//! ```
//!
//! Workloads: `tiny-native`, `tiny-translate` (see README.md). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Progress and failure
//! reasons go to standard error.

mod nn;
mod pins;
mod simcells;
mod spec;
mod stats;
mod sweep;

use stats::Outcome;

/// Every workload, in the order the README describes them.
pub const WORKLOADS: [&str; 2] = ["tiny-native", "tiny-translate"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The untraced run times the workload's grid. The traced run traces the
/// grid, then probes the layers no grid reaches: the sweep service and
/// Table 2's feature profiling and MLP training.
fn run(a: &Args) -> Result<Outcome, String> {
    let grid = match a.workload.as_str() {
        "tiny-native" => simcells::tiny_native(),
        "tiny-translate" => simcells::tiny_translate(),
        _ => unreachable!("workload validated by parse_args"),
    };
    if !a.trace {
        return Ok(simcells::run(&grid, a.seed, a.seconds));
    }
    // The probes take about 15 s, so the grid gets half the time and the
    // traced run lasts about as long as the untraced one.
    let mut out = Outcome::default();
    simcells::run_traced(&grid, a.seed, a.seconds / 2.0, &mut out);
    sweep::probe(a.seed, &mut out)?;
    nn::probe(&mut out)?;
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The sweep daemon re-executes this binary as its worker process.
    if argv.first().map(String::as_str) == Some(svc::WORKER_ARG) {
        std::process::exit(svc::worker_main());
    }
    if argv.first().map(String::as_str) == Some("--print-pins") {
        simcells::print_pins(&[simcells::tiny_native(), simcells::tiny_translate()]);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args).and_then(|out| spec::conforms(args.trace, &out).map(|()| out)) {
        Ok(outcome) => println!("{}", outcome.to_line()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
