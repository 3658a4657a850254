//! The `serve_warm` and `serve_cold` workloads: a fresh `rfvd --jobs 1`
//! driven closed-loop over two connections, each waiting for its reply
//! before submitting again. Every reply is checked, after the timed
//! window, against a direct in-process run of the same job.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rfvd::client::Client;
use rfvd::proto::{JobResult, Response, ServerStats};

use crate::host::{self, Exit};
use crate::layers::{self, Direct, Job};
use crate::report::{Report, Tally};
use crate::stats::{self, median, Rng};
use crate::trace::Tracer;
use crate::Options;

/// Client connections; the box has two cores.
const CONNECTIONS: usize = 2;
/// Set-up (spawn to ready, plus priming) is repeated this many times
/// and reported as the median; the last daemon serves the timed window.
const SETUP_ROUNDS: usize = 15;
/// Distinct specs the cold daemon primes with before its timed window.
const COLD_PRIMING: usize = 16;
/// Compile-cache bound of the cold daemon: far below the stream length,
/// so every lookup misses and the cache keeps evicting.
const COLD_CACHE_ENTRIES: usize = 8;
/// Jobs the traced run sends over one connection after the window.
const PROBE_JOBS: usize = 48;
const REPLY_LIMIT: Duration = Duration::from_secs(60);
/// Jobs per window of the windowed p99: enough for ten beyond p99.
const P99_WINDOW: usize = 1000;

/// The four machines of the paper's evaluation, by `rfvd` name.
const MACHINES: [&str; 4] = ["conventional", "full", "shrink50", "hwonly"];

/// Suite workloads whose one-SM runs take under about 5 ms; MatrixMul,
/// BackProp, MUM and ScalarProd run longer and would open a gap between
/// service-time modes.
const SHORT_SUITE: [&str; 12] = [
    "BlackScholes",
    "DCT8x8",
    "Reduction",
    "VectorAdd",
    "BFS",
    "Heartwall",
    "HotSpot",
    "LUD",
    "Gaussian",
    "LIB",
    "LPS",
    "NN",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Warm,
    Cold,
}

/// serve_warm's job set: the twelve short suite workloads under each of
/// the four machines, plus 24 synthetic kernels. The synthetic kernels'
/// trip count and grid size are stratified and `regs x rep` is held at
/// 96; the seed picks each one's `rep` and shuffles which machine runs it
/// (each machine gets six). Every seed thus spans the same service times,
/// and the slowest jobs, which set the tail, are the same suite jobs.
pub fn warm_set(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x7761_726d);
    let mut jobs: Vec<Job> = SHORT_SUITE
        .iter()
        .flat_map(|name| {
            MACHINES.iter().map(move |&machine| Job {
                spec: (*name).to_string(),
                machine,
            })
        })
        .collect();
    let mut machines: Vec<&'static str> = MACHINES.iter().cycle().take(24).copied().collect();
    rng.shuffle(&mut machines);
    for (stratum, machine) in (0..24u64).zip(machines) {
        let trips = (stratum % 6) * 2;
        let ctas = 1 + stratum / 6;
        let rep = rng.range(2, 6);
        let spec = format!(
            "synth:regs={},trips={trips},diamond={},ctas={ctas},tpc=64,conc=2,rep={rep}",
            96 / rep,
            stratum % 2,
        );
        jobs.push(Job { spec, machine });
    }
    jobs
}

/// serve_cold's job stream: every `synth:regs=16..63,rep=24..96,
/// diamond=0/1,ctas=1,tpc=32` spec once. The first [`COLD_PRIMING`] are a
/// fixed grid over `regs` and `rep`, so set-up does the same work for
/// every seed; the rest follow in a seeded order.
pub fn cold_stream(seed: u64) -> Vec<Job> {
    let spec = |regs: u64, rep: u64, diamond: u64| Job {
        spec: format!("synth:regs={regs},rep={rep},diamond={diamond},ctas=1,tpc=32"),
        machine: "full",
    };
    let priming: Vec<Job> = (0..COLD_PRIMING as u64)
        .map(|k| spec(16 + 12 * (k % 4), 30 + 20 * (k / 4), 0))
        .collect();
    let mut rest = Vec::new();
    for regs in 16..=63 {
        for rep in 24..=96 {
            for diamond in 0..=1 {
                let job = spec(regs, rep, diamond);
                if !priming.contains(&job) {
                    rest.push(job);
                }
            }
        }
    }
    Rng::new(seed ^ 0x636f_6c64).shuffle(&mut rest);
    priming.into_iter().chain(rest).collect()
}

/// Job nonces minted from the run's seed: distinct within a run, since
/// SplitMix64 maps distinct states to distinct outputs.
struct Nonces {
    base: u64,
    next: AtomicU64,
}

impl Nonces {
    fn new(seed: u64) -> Nonces {
        Nonces {
            base: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            next: AtomicU64::new(0),
        }
    }

    fn mint(&self) -> u64 {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        Rng::new(self.base.wrapping_add(k)).next_u64().max(1)
    }
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    // kept open so the daemon never writes into a closed pipe
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `rfvd` on an ephemeral port and waits for its ready line.
    fn start(bin_dir: &Path, kind: Kind) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin_dir.join("rfvd"));
        cmd.args(["--port", "0", "--jobs", "1", "--queue-depth", "64"]);
        if kind == Kind::Cold {
            cmd.args(["--cache-entries", &COLD_CACHE_ENTRIES.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn rfvd: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("rfvd listening on ") else {
            host::terminate(child, Duration::from_secs(10));
            return Err(format!("rfvd did not become ready: {read:?} {line:?}"));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    fn stats(&self) -> Result<ServerStats, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.stats().map_err(|e| format!("stats: {e}"))
    }

    /// SIGTERM, which drains the daemon, then reap it.
    fn stop(self) -> Exit {
        host::terminate(self.child, Duration::from_secs(30))
    }
}

/// One reply, timed from submit to its arrival.
struct Reply {
    job: usize,
    /// Arrival, from the window's start.
    done: Duration,
    rt: Duration,
    traced: bool,
    outcome: Result<JobResult, String>,
}

/// Runs `connections` closed-loop clients until `deadline` (or until
/// `next` runs dry). `next(conn, k)` names connection `conn`'s `k`th job.
/// With a tracer, alternate blocks of 50 jobs per connection record a
/// `request` span, so traced and untraced jobs can be compared.
fn drive(
    addr: &str,
    connections: usize,
    jobs: &[Job],
    next: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    nonces: &Nonces,
    deadline: Duration,
    tracer: Option<&mut Tracer>,
) -> Vec<Reply> {
    let start = Instant::now();
    let replies = Mutex::new(Vec::new());
    let tracing = tracer.is_some();
    let origin = tracer.as_deref().map(Tracer::origin);
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let replies = &replies;
                s.spawn(move || {
                    let mut tr = Tracer::new(origin.unwrap_or(start));
                    let mut mine = Vec::new();
                    let mut client = Client::connect(addr).and_then(|mut c| {
                        c.set_timeout(Some(REPLY_LIMIT))?;
                        Ok(c)
                    });
                    for k in 0.. {
                        if start.elapsed() >= deadline {
                            break;
                        }
                        let Some(job) = next(conn, k) else { break };
                        let nonce = nonces.mint();
                        let request = jobs[job].request(nonce);
                        let t0 = Instant::now();
                        let outcome = match client.as_mut() {
                            Err(e) => Err(format!("connect: {e}")),
                            Ok(c) => match c.submit(&request) {
                                Ok(Response::Result(r)) => Ok(r),
                                Ok(other) => Err(format!("unexpected reply {other:?}")),
                                Err(e) => Err(e.to_string()),
                            },
                        };
                        let arrived = Instant::now();
                        let traced = tracing && (k / 50) % 2 == 1;
                        if traced {
                            tr.record("request", t0, arrived, None, nonce);
                        }
                        let failed = outcome.is_err();
                        mine.push(Reply {
                            job,
                            done: arrived - start,
                            rt: arrived - t0,
                            traced,
                            outcome,
                        });
                        if failed {
                            break;
                        }
                    }
                    replies.lock().expect("reply log lock").extend(mine);
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(tracer) = tracer {
        for tr in tracers {
            tracer.absorb(tr);
        }
    }
    let mut replies = replies.into_inner().expect("reply log lock");
    replies.sort_by_key(|r| r.done);
    replies
}

/// Direct runs of each distinct job in `ids`. A traced run uses one
/// thread, so each stage is timed on an otherwise idle core; an
/// untraced run only needs the results and uses both cores.
fn direct_runs(
    jobs: &[Job],
    ids: &[usize],
    tracer: Option<&mut Tracer>,
) -> Result<HashMap<usize, Direct>, String> {
    let origin = tracer.as_deref().map_or_else(Instant::now, Tracer::origin);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<Direct, String>)>> = Mutex::new(Vec::new());
    let traced = tracer.is_some();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let threads = if traced { 1 } else { 2 };
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new(origin);
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = ids.get(i) else { break };
                        let t = traced.then_some(&mut tr);
                        mine.push((id, layers::direct_run(&jobs[id], t, id as u64)));
                    }
                    results.lock().expect("direct results lock").extend(mine);
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("direct-run thread panicked"))
            .collect()
    });
    if let Some(tracer) = tracer {
        for tr in tracers {
            tracer.absorb(tr);
        }
    }
    let mut out = HashMap::new();
    for (id, r) in results.into_inner().expect("direct results lock") {
        out.insert(
            id,
            r.map_err(|e| format!("direct run of {:?}: {e}", jobs[id]))?,
        );
    }
    Ok(out)
}

fn distinct(replies: &[Reply]) -> Vec<usize> {
    let mut ids: Vec<usize> = replies.iter().map(|r| r.job).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn verify(replies: &[Reply], direct: &HashMap<usize, Direct>, jobs: &[Job], tally: &mut Tally) {
    for r in replies {
        let ok = match &r.outcome {
            Ok(result) => direct.get(&r.job).is_some_and(|d| d.matches(result)),
            Err(_) => false,
        };
        if !ok {
            eprintln!("rfvperf: reply for {:?} failed verification", jobs[r.job]);
        }
        tally.check(ok);
    }
}

/// Wall time of each consecutive batch of `size` completions.
fn batch_walls(replies: &[Reply], size: usize) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut prev = Duration::ZERO;
    for chunk in replies.chunks_exact(size) {
        let end = chunk[size - 1].done;
        walls.push((end - prev).as_secs_f64());
        prev = end;
    }
    walls
}

pub fn run(
    opts: &Options,
    kind: Kind,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (jobs, priming, batch): (Vec<Job>, Vec<usize>, usize) = match kind {
        Kind::Warm => {
            let jobs = warm_set(opts.seed);
            let all = (0..jobs.len()).collect();
            (jobs, all, 100)
        }
        Kind::Cold => (cold_stream(opts.seed), (0..COLD_PRIMING).collect(), 25),
    };
    let nonces = Nonces::new(opts.seed);

    // set-up: spawn to ready plus the priming pass, several times
    let mut setup = Vec::new();
    let mut primed = Vec::new();
    let mut daemon = None;
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let d = Daemon::start(&opts.bin_dir, kind)?;
        let next = |_: usize, k: usize| priming.get(k).copied();
        primed.extend(drive(
            &d.addr,
            1,
            &jobs,
            &next,
            &nonces,
            Duration::MAX,
            None,
        ));
        setup.push(t0.elapsed().as_secs_f64());
        if round + 1 < SETUP_ROUNDS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up round");
    let before = daemon.stats()?;

    // the timed window
    let window = Duration::from_secs(opts.seconds);
    let cold_cursor = AtomicUsize::new(COLD_PRIMING);
    // warm jobs are drawn independently per submission: a fixed cycle per
    // connection would lock which jobs run side by side, and with it the tail
    let pick = |conn: usize, k: usize| {
        let state = opts.seed ^ ((conn as u64) << 40) ^ k as u64;
        Rng::new(state).next_u64() as usize % jobs.len()
    };
    let next = |conn: usize, k: usize| match kind {
        Kind::Warm => Some(pick(conn, k)),
        Kind::Cold => {
            let i = cold_cursor.fetch_add(1, Ordering::Relaxed);
            (i < jobs.len()).then_some(i)
        }
    };
    let timed = drive(
        &daemon.addr,
        CONNECTIONS,
        &jobs,
        &next,
        &nonces,
        window,
        opts.trace.then_some(&mut *tracer),
    );
    let after = daemon.stats()?;
    if kind == Kind::Cold && cold_cursor.load(Ordering::Relaxed) >= jobs.len() {
        eprintln!("rfvperf: the cold stream ran out before the window closed");
    }

    // traced run: one connection, so no job queues behind another
    let probe = if opts.trace {
        let base = cold_cursor.load(Ordering::Relaxed);
        let next = |_: usize, k: usize| match kind {
            Kind::Warm => (k < PROBE_JOBS).then(|| k % jobs.len()),
            Kind::Cold => (k < PROBE_JOBS && base + k < jobs.len()).then_some(base + k),
        };
        drive(&daemon.addr, 1, &jobs, &next, &nonces, Duration::MAX, None)
    } else {
        Vec::new()
    };

    let end = daemon.stats()?;
    let exit = daemon.stop();

    // verification, outside the timed window
    let mut ids = distinct(&primed);
    ids.extend(distinct(&timed));
    ids.extend(distinct(&probe));
    ids.sort_unstable();
    ids.dedup();
    let direct = direct_runs(&jobs, &ids, opts.trace.then_some(&mut *tracer))?;
    verify(&primed, &direct, &jobs, &mut report.tally);
    verify(&timed, &direct, &jobs, &mut report.tally);
    verify(&probe, &direct, &jobs, &mut report.tally);
    // the dedupe guard: a fresh daemon with fresh nonces dedupes,
    // replays, sheds, rejects and fails nothing
    let guard = end.deduped + end.replayed + end.shed + end.rejected + end.failed;
    if guard > 0 {
        eprintln!("rfvperf: daemon counters not clean: {end:?}");
    }
    report.tally.fail_extra(guard);
    if !exit.success {
        eprintln!("rfvperf: rfvd did not drain cleanly");
        report.tally.fail_extra(1);
    }

    let ok_timed: Vec<&Reply> = timed.iter().filter(|r| r.outcome.is_ok()).collect();
    let rt_ms: Vec<f64> = timed.iter().map(|r| r.rt.as_secs_f64() * 1e3).collect();
    if !opts.trace {
        let walls = batch_walls(&timed, batch);
        let span = timed.last().map_or(window, |r| r.done).as_secs_f64();
        report.add_noted(
            "wall_s",
            median(&walls),
            "s",
            format!("(per {batch} jobs, n={} batches)", walls.len()),
        );
        report.add_noted(
            "jobs_per_s",
            ok_timed.len() as f64 / span,
            "1/s",
            format!("(n={})", ok_timed.len()),
        );
        report.add_rt(&rt_ms, "(submit to reply)", Some(P99_WINDOW));
        report.add("ok_frac", report.tally.ok_frac(), "frac");
        report.add_noted(
            "setup_s",
            median(&setup),
            "s",
            format!("(n={})", setup.len()),
        );
        report.add("peak_rss_mb", exit.peak_rss_mb, "MB");
        return Ok(());
    }

    // per-layer numbers
    let service = |d: &Direct| match kind {
        Kind::Warm => d.warm_service(),
        Kind::Cold => d.cold_service(),
    };
    let per_job = |f: &dyn Fn(&Direct) -> f64| -> Vec<f64> {
        ok_timed.iter().map(|r| f(&direct[&r.job])).collect()
    };
    report.add(
        "daemon.service_ms_p50",
        median(&per_job(&|d| service(d).as_secs_f64() * 1e3)),
        "ms",
    );
    let overhead: Vec<f64> = probe
        .iter()
        .map(|r| (r.rt.as_secs_f64() - service(&direct[&r.job]).as_secs_f64()) * 1e3)
        .collect();
    report.add_noted(
        "daemon.overhead_ms_p50",
        median(&overhead),
        "ms",
        format!("(one connection, n={})", overhead.len()),
    );
    let sample = ok_timed.first().ok_or("no job completed in the window")?;
    let request = jobs[sample.job].request(1);
    let reply = sample.outcome.as_ref().expect("filtered to ok");
    report.add("proto.codec_us", layers::codec_us(&request, reply)?, "us");
    let spool_dir = opts.scratch.join("spool");
    let (journal, done) = layers::spool_us(&spool_dir, &request, reply)?;
    report.add("spool.journal_us", journal, "us");
    report.add("spool.done_us", done, "us");
    report.add(
        "render.stats_json_us",
        median(&per_job(&|d| d.render.as_secs_f64() * 1e6)),
        "us",
    );

    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    report.add(
        "cache.hit_frac",
        hits as f64 / lookups.max(1) as f64,
        "frac",
    );
    report.add(
        "cache.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
        "count",
    );

    if kind == Kind::Cold {
        let compile_ms = per_job(&|d| d.compile.as_secs_f64() * 1e3);
        let service_ms = per_job(&|d| service(d).as_secs_f64() * 1e3);
        report.add("compiler.cold_ms_p50", median(&compile_ms), "ms");
        report.add(
            "compiler.cold_share",
            compile_ms.iter().sum::<f64>() / service_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE),
            "frac",
        );
        report.add(
            "predecode.us_p50",
            median(&per_job(&|d| d.predecode.as_secs_f64() * 1e6)),
            "us",
        );
    } else {
        report.add(
            "sim.ns_per_instr.serve_warm",
            layers::sliced_ns_per_instr(&jobs, 3)?,
            "ns",
        );
    }

    let split = |want: bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|r| r.traced == want)
            .map(|r| r.rt.as_secs_f64())
            .collect()
    };
    report.add(
        "trace.overhead_frac",
        stats::overhead_frac(&split(true), &split(false)),
        "frac",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_stream_is_seeded_and_distinct() {
        let a = cold_stream(1);
        assert_eq!(a, cold_stream(1));
        assert_ne!(a, cold_stream(2));
        assert_eq!(a[..COLD_PRIMING], cold_stream(2)[..COLD_PRIMING]);
        let specs: HashSet<&str> = a.iter().map(|j| j.spec.as_str()).collect();
        assert_eq!(specs.len(), a.len());
        assert_eq!(a.len(), 48 * 73 * 2);
        for job in &a {
            rfvd::spec::JobSpec::parse(&job.spec).expect("valid spec");
        }
    }

    #[test]
    fn warm_set_is_seeded_distinct_and_valid() {
        let a = warm_set(5);
        assert_eq!(a, warm_set(5));
        assert_ne!(a, warm_set(6));
        assert_eq!(a.len(), 72);
        let distinct: HashSet<&Job> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
        for job in &a {
            rfvd::spec::JobSpec::parse(&job.spec).expect("valid spec");
        }
    }

    #[test]
    fn nonces_are_distinct_and_nonzero() {
        let n = Nonces::new(3);
        let minted: HashSet<u64> = (0..10_000).map(|_| n.mint()).collect();
        assert_eq!(minted.len(), 10_000);
        assert!(!minted.contains(&0));
        assert_eq!(Nonces::new(3).mint(), Nonces::new(3).mint());
    }
}
