//! `rfvperf` — the repository benchmark.
//!
//! ```text
//! bash rfvperf/run.sh --workload sweep|serve_warm|serve_cold --seed N \
//!      --seconds S --trace 0|1
//! bash rfvperf/run.sh --bless
//! ```
//!
//! Runs the repository's programs the way users do — `figures all` in a
//! fresh process, a fresh `rfvd` driven over its wire protocol — checks
//! every output against a reference, and prints the metrics as one JSON
//! line last on stdout (a readable table goes to stderr). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` repeats the workload with
//! spans recorded around the calls into each crate and reports the
//! per-layer metrics. See `rfvperf/README.md`.

mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// End-to-end metrics, every workload, `--trace 0`.
pub const END_TO_END: [&str; 7] = [
    "wall_s",
    "jobs_per_s",
    "rt_p50_ms",
    "rt_p99_ms",
    "ok_frac",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, every workload, `--trace 1`, with their units. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [&str; 37] = [
    "harness.cell_s.ablations",
    "harness.cell_s.fig13",
    "harness.cell_s.fig11b",
    "harness.cell_s.fig11a",
    "harness.cell_s.fig12",
    "harness.cell_s.fig14",
    "harness.cell_s.fig15",
    "harness.cell_s.fig10",
    "harness.cell_s.fig8",
    "harness.cell_s.rest",
    "harness.memo_saved_s",
    "compiler.suite_us",
    "compiler.cold_ms_p50",
    "compiler.cold_share",
    "predecode.us_p50",
    "sim.ns_per_instr.conventional",
    "sim.ns_per_instr.full",
    "sim.ns_per_instr.shrink50",
    "sim.ns_per_instr.hwonly",
    "sim.ns_per_instr.serve_warm",
    "sim.mcycles_per_s",
    "sim.instrs",
    "sim.cycles",
    "sim.bank_conflicts",
    "sim.no_reg_stalls",
    "sim.swap_outs",
    "daemon.service_ms_p50",
    "daemon.overhead_ms_p50",
    "proto.codec_us",
    "spool.journal_us",
    "spool.done_us",
    "render.stats_json_us",
    "cache.hit_frac",
    "cache.evictions",
    "host.steal_frac",
    "host.calib_ms",
    "trace.overhead_frac",
];

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    match name {
        "sim.mcycles_per_s" => "Mcycle/s",
        "cache.evictions" => "count",
        n if n.starts_with("harness.") => "s",
        n if n.starts_with("sim.ns_per_instr.") => "ns",
        n if n.starts_with("sim.") => "count",
        n if n.ends_with("_us") || n.ends_with("us_p50") => "us",
        n if n.ends_with("_ms") || n.ends_with("ms_p50") => "ms",
        _ => "frac",
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Sweep,
    ServeWarm,
    ServeCold,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "sweep" => Workload::Sweep,
            "serve_warm" => Workload::ServeWarm,
            "serve_cold" => Workload::ServeCold,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeCold => "serve_cold",
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where `figures` and `rfvd` were built.
    pub bin_dir: PathBuf,
    /// This run's scratch directory inside the repository.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: rfvperf --bin-dir DIR --workload sweep|serve_warm|serve_cold \
                     --seed N --seconds S --trace 0|1\n       rfvperf --bin-dir DIR --bless";

/// What the command line asks for.
enum Command {
    Run(Options),
    /// Regenerate the sweep goldens with the `figures` in this directory.
    Bless(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let bin_dir = bin_dir.ok_or("--bin-dir is required")?;
    if bless {
        // figures must exist before anything is overwritten
        return if bin_dir.join("figures").is_file() {
            Ok(Command::Bless(bin_dir))
        } else {
            Err(format!("no figures binary in {}", bin_dir.display()))
        };
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: PathBuf::from(".rfvperf-out").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        bin_dir,
    }))
}

fn run(opts: &Options) -> Result<Report, String> {
    // in-process simulations run on one thread, like `figures --jobs 1`
    rfv_bench::pool::set_jobs(1);
    let cpu_before = host::CpuTimes::now();
    let mut calib = vec![host::calib_ms()];

    let mut report = Report::default();
    let started = Instant::now();
    let mut tracer = Tracer::new(started);
    match opts.workload {
        Workload::Sweep => sweep::run(opts, &mut report, &mut tracer)?,
        Workload::ServeWarm => serve::run(opts, serve::Kind::Warm, &mut report, &mut tracer)?,
        Workload::ServeCold => serve::run(opts, serve::Kind::Cold, &mut report, &mut tracer)?,
    }
    calib.push(host::calib_ms());
    calib.push(host::calib_ms());
    let steal = match (cpu_before, host::CpuTimes::now()) {
        (Some(a), Some(b)) => b.steal_frac_since(&a),
        _ => 0.0,
    };
    eprintln!(
        "rfvperf: {} seed {} trace {}: {:.1} s, host steal {:.4}, calib {:.1} ms",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        started.elapsed().as_secs_f64(),
        steal,
        stats::median(&calib)
    );

    if opts.trace {
        layers::measure_isolated(&mut report)?;
        report.add("host.steal_frac", steal, "frac");
        report.add("host.calib_ms", stats::median(&calib), "ms");
        eprintln!("rfvperf: spans per layer (count, total ms, self ms):");
        for (name, (n, total, own)) in tracer.layer_times() {
            eprintln!(
                "  {name:<12} {n:>7} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
        let path = PathBuf::from(".rfvperf-out").join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        std::fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Orders the metrics as declared, fills a layer the workload did not
/// exercise with 0, and rejects anything undeclared.
fn finish(report: &mut Report, trace: bool) -> Result<(), String> {
    let declared: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(m) = report
        .metrics
        .iter()
        .find(|m| !declared.contains(&m.name.as_str()))
    {
        return Err(format!("metric {} is not declared for this mode", m.name));
    }
    let mut ordered = Vec::new();
    for name in declared {
        match report.metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(report.metrics.swap_remove(i)),
            None if trace => ordered.push(report::Metric {
                name: (*name).to_string(),
                value: 0.0,
                unit: layer_unit(name),
                note: "(not exercised)".into(),
            }),
            None => return Err(format!("end-to-end metric {name} missing")),
        }
    }
    for m in &ordered {
        if trace && m.unit != layer_unit(&m.name) {
            return Err(format!("metric {} reported in {}", m.name, m.unit));
        }
    }
    report.metrics = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Bless(bin_dir)) => {
            return match sweep::bless(&bin_dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("rfvperf: bless failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("rfvperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("rfvperf: create {}: {e}", opts.scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&opts).and_then(|mut report| {
        finish(&mut report, opts.trace)?;
        Ok(report)
    });
    let _ = std::fs::remove_dir_all(&opts.scratch);
    match outcome {
        Ok(report) => {
            eprint!("{}", report.summary());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rfvperf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run(o)) = parse_args(&args(
            "--bin-dir b --workload serve_cold --seed 9 --seconds 10 --trace 1",
        )) else {
            panic!("expected a run");
        };
        assert_eq!(o.workload, Workload::ServeCold);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 10, true));
        assert!(parse_args(&args("--bin-dir b --workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn layer_units_follow_names() {
        assert_eq!(layer_unit("harness.cell_s.fig8"), "s");
        assert_eq!(layer_unit("compiler.suite_us"), "us");
        assert_eq!(layer_unit("compiler.cold_ms_p50"), "ms");
        assert_eq!(layer_unit("predecode.us_p50"), "us");
        assert_eq!(layer_unit("sim.ns_per_instr.full"), "ns");
        assert_eq!(layer_unit("sim.swap_outs"), "count");
        assert_eq!(layer_unit("cache.hit_frac"), "frac");
        assert_eq!(layer_unit("host.calib_ms"), "ms");
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            ))
        };
        for name in PER_LAYER {
            assert!(declared(name, layer_unit(name)), "{name}");
        }
        for name in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn finish_orders_and_fills_layers() {
        let mut r = Report::default();
        r.add("sim.cycles", 5.0, "count");
        r.add("compiler.suite_us", 1.0, "us");
        finish(&mut r, true).expect("finish");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER);

        let mut r = Report::default();
        r.add("wall_s", 1.0, "s");
        assert!(finish(&mut r, false).is_err(), "missing end-to-end metrics");
    }
}
