//! The SMACS benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <issue_http|verify_blocks> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `perfbench/README.md`).

mod checks;
mod gen;
mod issue;
mod layers;
mod rig;
mod stats;
mod verify;

use std::path::PathBuf;

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `available_parallelism`: sender threads and the block pool size.
    pub nproc: usize,
    /// Scratch directory for logs, inside the working directory.
    pub tmp: PathBuf,
    pub workload: String,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

#[derive(Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: checks::Checks,
    pub e2e: Vec<Metric>,
    /// End-to-end numbers printed with the others but not bounded in
    /// `BENCHMARK.json`: their run-to-run spread on the reference host is
    /// wider than any bound allows (see `perfbench/README.md`).
    pub printed: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Report {
    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }
}

pub const WORKLOADS: [&str; 2] = ["issue_http", "verify_blocks"];

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = PathBuf::from(".perfbench_tmp").join(format!("{}-{}", workload, std::process::id()));
    Ok(Run {
        seed,
        seconds,
        trace,
        nproc,
        tmp,
        workload,
    })
}

fn json_num(v: f64) -> String {
    format!("{v}")
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", run.tmp.display());
        std::process::exit(2);
    }
    let mut report = match run.workload.as_str() {
        "issue_http" => issue::run(&run),
        _ => verify::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.tmp);
    if let Some(parent) = run.tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    let metrics = if run.trace {
        &report.layers
    } else {
        &report.e2e
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        report
            .checks
            .expect(&format!("metric {} was measured", m.name), false);
        report.failed += 1;
    }
    println!(
        "== perfbench {} seed {} seconds {} trace {} nproc {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc
    );
    for line in &report.lines {
        println!("{line}");
    }
    for note in &report.checks.notes {
        println!("CHECK FAILED: {note}");
    }
    for m in metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !run.trace {
        for m in &report.printed {
            println!("{:<28} {:>14.4} {} (not bounded)", m.name, m.value, m.unit);
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.failed == 0,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}
