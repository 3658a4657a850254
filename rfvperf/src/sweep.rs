//! The `sweep` workload: `figures all --jobs 1` in a fresh process, the
//! way the paper's figures are regenerated. Each cell's text is checked
//! against committed golden digests; cell times come from when each
//! cell's header arrives on the child's stdout.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::{self, Exit};
use crate::report::{Report, Tally};
use crate::stats::{self, fnv64, median};
use crate::trace::Tracer;
use crate::Options;

/// The cells `figures all` prints, in order.
pub const CELLS: [&str; 15] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablations",
];

/// Cells reported on their own; the rest are summed as `rest`.
pub const TIMED_CELLS: [&str; 9] = [
    "ablations",
    "fig13",
    "fig11b",
    "fig11a",
    "fig12",
    "fig14",
    "fig15",
    "fig10",
    "fig8",
];

/// Where the golden digests live, relative to the repository root.
pub const GOLDEN_PATH: &str = "rfvperf/golden/figures-all.txt";

const CHILD_LIMIT: Duration = Duration::from_secs(120);

/// One `figures` process, observed from outside.
pub struct FiguresRun {
    /// Spawn to the first `===` header line.
    pub first_header: Duration,
    /// Spawn to each cell's header, in print order.
    pub arrivals: Vec<Duration>,
    /// Each cell's text, header line included.
    pub texts: Vec<String>,
    /// Spawn to end of output.
    pub wall: Duration,
    pub exit: Exit,
}

impl FiguresRun {
    /// Time to compute each cell: its arrival minus the previous one
    /// (the first cell from spawn).
    pub fn cell_times(&self) -> Vec<Duration> {
        let mut prev = Duration::ZERO;
        self.arrivals
            .iter()
            .map(|&a| {
                let d = a.saturating_sub(prev);
                prev = a;
                d
            })
            .collect()
    }
}

/// Runs `figures ARGS` and splits its output into cells.
pub fn run_figures(bin_dir: &Path, args: &[&str]) -> Result<FiguresRun, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin_dir.join("figures"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn figures: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut arrivals = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read figures output: {e}"))?;
        if line.starts_with("=== ") {
            arrivals.push(t0.elapsed());
            texts.push(String::new());
        }
        if let Some(text) = texts.last_mut() {
            text.push_str(&line);
            text.push('\n');
        }
    }
    let wall = t0.elapsed();
    let exit = host::reap(child, CHILD_LIMIT);
    Ok(FiguresRun {
        first_header: arrivals.first().copied().unwrap_or(wall),
        arrivals,
        texts,
        wall,
        exit,
    })
}

/// The committed digest of each cell: `cell fnv64-hex bytes` a line.
pub type Golden = BTreeMap<String, (u64, usize)>;

/// A cell's digest and length, ignoring the blank line `figures` prints
/// between cells when it renders more than one.
pub fn digest(text: &str) -> (u64, usize) {
    let body = text.trim_end_matches('\n');
    (fnv64(body.as_bytes()), body.len())
}

pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut golden = Golden::new();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [cell, digest, bytes] = f[..] else {
            return Err(format!("bad golden line {line:?}"));
        };
        let digest = u64::from_str_radix(digest, 16).map_err(|e| format!("{line:?}: {e}"))?;
        let bytes = bytes.parse().map_err(|e| format!("{line:?}: {e}"))?;
        golden.insert(cell.to_string(), (digest, bytes));
    }
    if golden.len() != CELLS.len() {
        return Err(format!(
            "golden has {} cells, expected {}",
            golden.len(),
            CELLS.len()
        ));
    }
    Ok(golden)
}

pub fn render_golden(texts: &[String]) -> String {
    let mut out = String::from(
        "# figures all: cell, FNV-1a 64 digest of the cell's text, bytes (trailing newlines excluded).\n\
         # Regenerate with `bash rfvperf/run.sh --bless` (see rfvperf/README.md).\n",
    );
    for (cell, text) in CELLS.iter().zip(texts) {
        let (hash, len) = digest(text);
        out.push_str(&format!("{cell} {hash:016x} {len}\n"));
    }
    out
}

/// Checks one sweep: every cell present, each matching its digest, and
/// a clean exit. Tallies one outcome per cell.
pub fn verify(run: &FiguresRun, golden: &Golden, tally: &mut Tally) {
    for (i, cell) in CELLS.iter().enumerate() {
        let ok = run.exit.success
            && run.texts.len() == CELLS.len()
            && run
                .texts
                .get(i)
                .is_some_and(|text| golden.get(*cell) == Some(&digest(text)));
        if !ok {
            eprintln!("rfvperf: sweep cell {cell} does not match its golden digest");
        }
        tally.check(ok);
    }
}

fn load_golden() -> Result<Golden, String> {
    let text =
        std::fs::read_to_string(GOLDEN_PATH).map_err(|e| format!("read {GOLDEN_PATH}: {e}"))?;
    parse_golden(&text)
}

/// Regenerates the goldens from `figures all`, after checking that the
/// output is byte-identical at `--jobs 1` and `--jobs 2`.
pub fn bless(bin_dir: &Path) -> Result<(), String> {
    let one = run_figures(bin_dir, &["all", "--jobs", "1"])?;
    let two = run_figures(bin_dir, &["all", "--jobs", "2"])?;
    if !one.exit.success || !two.exit.success || one.texts.len() != CELLS.len() {
        return Err("figures all did not complete cleanly".into());
    }
    if one.texts != two.texts {
        return Err("figures all output differs between --jobs 1 and --jobs 2".into());
    }
    std::fs::write(GOLDEN_PATH, render_golden(&one.texts))
        .map_err(|e| format!("write {GOLDEN_PATH}: {e}"))?;
    eprintln!("rfvperf: wrote {GOLDEN_PATH}");
    Ok(())
}

/// Extra spawns of a one-cell `figures` that time process set-up.
const SETUP_SPAWNS: usize = 40;

pub fn run(opts: &Options, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let golden = load_golden()?;
    let bin = &opts.bin_dir;

    // untimed warm-up at --jobs 2: loads the binary into the page cache
    // and checks the output is identical to the --jobs 1 goldens
    let warm = run_figures(bin, &["all", "--jobs", "2"])?;
    verify(&warm, &golden, &mut report.tally);

    let mut setup: Vec<f64> = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let r = run_figures(bin, &["table1", "--jobs", "1"])?;
        verify_one(&r, "table1", &golden, &mut report.tally);
        setup.push(r.first_header.as_secs_f64());
    }

    let window = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut sweeps: Vec<(FiguresRun, bool)> = Vec::new();
    let mut peak_rss: f64 = 0.0;
    while sweeps.is_empty() || start.elapsed() < window {
        // traced runs alternate traced and untraced sweeps so the
        // difference between the two is the tracing overhead
        let traced = opts.trace && sweeps.len() % 2 == 1;
        let t0 = Instant::now();
        let r = run_figures(bin, &["all", "--jobs", "1"])?;
        verify(&r, &golden, &mut report.tally);
        if traced {
            let parent = tracer.record("sweep", t0, t0 + r.wall, None, sweeps.len() as u64);
            let mut prev = t0;
            for (cell, &at) in CELLS.iter().zip(&r.arrivals) {
                tracer.record(cell, prev, t0 + at, Some(parent), sweeps.len() as u64);
                prev = t0 + at;
            }
        }
        setup.push(r.first_header.as_secs_f64());
        peak_rss = peak_rss.max(r.exit.peak_rss_mb);
        sweeps.push((r, traced));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let walls: Vec<f64> = sweeps.iter().map(|(r, _)| r.wall.as_secs_f64()).collect();
    let cells_done: usize = sweeps.iter().map(|(r, _)| r.arrivals.len()).sum();
    // each cell is one response: the time from spawn until it is printed
    let rt_ms: Vec<f64> = sweeps
        .iter()
        .flat_map(|(r, _)| r.arrivals.iter().map(|a| a.as_secs_f64() * 1e3))
        .collect();
    let n = format!("(n={} sweeps)", walls.len());

    if !opts.trace {
        report.add_noted("wall_s", median(&walls), "s", n);
        report.add_noted(
            "jobs_per_s",
            cells_done as f64 / elapsed,
            "1/s",
            format!("(figure cells, n={cells_done})"),
        );
        report.add_rt(&rt_ms, "(per cell, spawn to printed)", None);
        report.add("ok_frac", report.tally.ok_frac(), "frac");
        report.add_noted(
            "setup_s",
            median(&setup),
            "s",
            format!("(n={})", setup.len()),
        );
        report.add("peak_rss_mb", peak_rss, "MB");
        return Ok(());
    }

    // per-layer: each cell's median time inside the sweep
    let mut in_sweep: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (r, traced) in &sweeps {
        if *traced || sweeps.len() == 1 {
            for (cell, d) in CELLS.iter().zip(r.cell_times()) {
                in_sweep.entry(cell).or_default().push(d.as_secs_f64());
            }
        }
    }
    let cell_s = |cell: &str| median(in_sweep.get(cell).map_or(&[][..], Vec::as_slice));
    for cell in TIMED_CELLS {
        report.add(format!("harness.cell_s.{cell}"), cell_s(cell), "s");
    }
    let rest: f64 = CELLS
        .iter()
        .filter(|c| !TIMED_CELLS.contains(c))
        .map(|c| cell_s(c))
        .sum();
    report.add("harness.cell_s.rest", rest, "s");

    // the harness memo: each cell alone (minus process set-up) against
    // its time inside the sweep, where earlier cells warmed the memo
    let startup = median(&setup);
    let mut alone_sum = 0.0;
    for cell in CELLS {
        let r = run_figures(bin, &[cell, "--jobs", "1"])?;
        verify_one(&r, cell, &golden, &mut report.tally);
        alone_sum += (r.wall.as_secs_f64() - startup).max(0.0);
    }
    let in_sweep_sum: f64 = CELLS.iter().map(|c| cell_s(c)).sum();
    report.add("harness.memo_saved_s", alone_sum - in_sweep_sum, "s");

    let split = |want: bool| -> Vec<f64> {
        sweeps
            .iter()
            .filter(|(_, traced)| *traced == want)
            .map(|(r, _)| r.wall.as_secs_f64())
            .collect()
    };
    report.add(
        "trace.overhead_frac",
        stats::overhead_frac(&split(true), &split(false)),
        "frac",
    );
    Ok(())
}

/// Checks a one-cell run against that cell's golden digest.
fn verify_one(run: &FiguresRun, cell: &str, golden: &Golden, tally: &mut Tally) {
    let ok = run.exit.success
        && run.texts.len() == 1
        && golden.get(cell) == Some(&digest(&run.texts[0]));
    if !ok {
        eprintln!("rfvperf: figures {cell} does not match its golden digest");
    }
    tally.check(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(texts: &[&str]) -> FiguresRun {
        FiguresRun {
            first_header: Duration::ZERO,
            arrivals: vec![Duration::ZERO; texts.len()],
            texts: texts.iter().map(|t| t.to_string()).collect(),
            wall: Duration::ZERO,
            exit: Exit {
                success: true,
                peak_rss_mb: 1.0,
            },
        }
    }

    fn cell_texts() -> Vec<String> {
        CELLS
            .iter()
            .map(|c| format!("=== {c} ===\nrow\n\n"))
            .collect()
    }

    #[test]
    fn golden_round_trips() {
        let texts = cell_texts();
        let golden = parse_golden(&render_golden(&texts)).expect("parse");
        let run = fake_run(&texts.iter().map(String::as_str).collect::<Vec<_>>());
        let mut tally = Tally::default();
        verify(&run, &golden, &mut tally);
        assert_eq!(tally.attempted, CELLS.len() as u64);
        assert_eq!(tally.ok_frac(), 1.0);
    }

    #[test]
    fn golden_mismatch_lowers_ok_frac() {
        let texts = cell_texts();
        let golden = parse_golden(&render_golden(&texts)).expect("parse");
        let mut changed = texts.clone();
        changed[9] = changed[9].replace("row", "r0w");
        let run = fake_run(&changed.iter().map(String::as_str).collect::<Vec<_>>());
        let mut tally = Tally::default();
        verify(&run, &golden, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(tally.ok_frac() < 1.0);

        // a missing cell or a failed exit fails every cell of the sweep
        let short = fake_run(&texts[..3].iter().map(String::as_str).collect::<Vec<_>>());
        let mut tally = Tally::default();
        verify(&short, &golden, &mut tally);
        assert_eq!(tally.ok_frac(), 0.0);
    }

    #[test]
    fn committed_golden_parses() {
        let text = include_str!("../golden/figures-all.txt");
        assert_eq!(parse_golden(text).expect("parse").len(), CELLS.len());
    }

    #[test]
    fn cell_times_are_arrival_differences() {
        let mut run = fake_run(&["a", "b", "c"]);
        run.arrivals = vec![
            Duration::from_millis(2),
            Duration::from_millis(5),
            Duration::from_millis(15),
        ];
        let t: Vec<u128> = run.cell_times().iter().map(Duration::as_millis).collect();
        assert_eq!(t, vec![2, 3, 10]);
    }
}
