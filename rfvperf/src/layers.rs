//! Calls into each crate's public functions, timed from here: the
//! direct run that serves as the serve workloads' oracle, and the layer
//! measurements of the traced run.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfv_bench::harness::{self, machine_config, Machine};
use rfv_compiler::{compile, CompileOptions};
use rfv_sim::{PredecodedKernel, SlicedSim};
use rfvd::cache::{compile_flavored, CachedKernel};
use rfvd::persist::Spool;
use rfvd::proto::{JobRequest, JobResult, Request, Response};
use rfvd::spec::JobSpec;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// The daemon's default preemption slice; direct runs advance by it too.
pub const SLICE_CYCLES: u64 = 50_000;

/// One distinct job: a workload spec under a named machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    pub spec: String,
    pub machine: &'static str,
}

impl Job {
    /// The submission `rfvd` receives for this job: one SM.
    pub fn request(&self, nonce: u64) -> JobRequest {
        JobRequest {
            spec: self.spec.clone(),
            machine: self.machine.to_string(),
            num_sms: 1,
            nonce,
            ..JobRequest::default()
        }
    }
}

/// A job run in-process through the same calls the daemon makes, with
/// each stage timed.
pub struct Direct {
    pub stats_json: String,
    pub cycles: u64,
    pub instrs: u64,
    pub build: Duration,
    pub compile: Duration,
    pub predecode: Duration,
    pub sim: Duration,
    pub render: Duration,
}

impl Direct {
    /// Service time on a compile-cache miss.
    pub fn cold_service(&self) -> Duration {
        self.build + self.compile + self.predecode + self.sim + self.render
    }

    /// Service time on a compile-cache hit.
    pub fn warm_service(&self) -> Duration {
        self.sim + self.render
    }

    /// Whether a reply from the daemon carries exactly this result.
    pub fn matches(&self, reply: &JobResult) -> bool {
        reply.stats_json == self.stats_json
            && reply.cycles == self.cycles
            && reply.instrs == self.instrs
    }
}

/// Runs `job` the way an `rfvd` runner does on a cache miss: build the
/// kernel, compile, predecode, simulate in slices, render the stats.
/// With a tracer, records a `direct` span with one child per stage.
pub fn direct_run(job: &Job, tracer: Option<&mut Tracer>, id: u64) -> Result<Direct, String> {
    let spec = JobSpec::parse(&job.spec)?;
    let mut config = machine_config(job.machine).ok_or("unknown machine")?;
    config.num_sms = 1;
    let release_flags = config.regfile.policy.uses_release_flags();

    let t0 = Instant::now();
    let kernel = spec.build_kernel();
    let t1 = Instant::now();
    let compiled = compile_flavored(&kernel, release_flags)?;
    let t2 = Instant::now();
    let prog = Arc::new(PredecodedKernel::new(&compiled));
    let t3 = Instant::now();
    let mut sim =
        SlicedSim::with_predecoded(&compiled, &config, &[], 0, prog).map_err(|e| e.to_string())?;
    while !sim.advance(SLICE_CYCLES).map_err(|e| e.to_string())? {}
    let run = sim.finish().map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let stats_json = rfvd::result_stats_json(&run.result, config.num_sms);
    let t5 = Instant::now();

    if let Some(tr) = tracer {
        let parent = tr.record("direct", t0, t5, None, id);
        for (name, a, b) in [
            ("build", t0, t1),
            ("compile", t1, t2),
            ("predecode", t2, t3),
            ("sim", t3, t4),
            ("render", t4, t5),
        ] {
            tr.record(name, a, b, Some(parent), id);
        }
    }
    Ok(Direct {
        stats_json,
        cycles: run.result.cycles,
        instrs: run.result.total(|s| s.instrs_issued),
        build: t1 - t0,
        compile: t2 - t1,
        predecode: t3 - t2,
        sim: t4 - t3,
        render: t5 - t4,
    })
}

/// Simulation alone on already-compiled kernels, as the daemon runs a
/// cache hit: `SlicedSim::with_predecoded` plus `advance`, in ns per
/// issued instruction (median over `reps` passes).
pub fn sliced_ns_per_instr(jobs: &[Job], reps: usize) -> Result<f64, String> {
    let mut built = Vec::new();
    for job in jobs {
        let spec = JobSpec::parse(&job.spec)?;
        let mut config = machine_config(job.machine).ok_or("unknown machine")?;
        config.num_sms = 1;
        let kernel = CachedKernel::build(
            &spec.build_kernel(),
            config.regfile.policy.uses_release_flags(),
        )?;
        built.push((kernel, config));
    }
    let mut per_rep = Vec::new();
    for _ in 0..reps {
        let mut ns = 0.0;
        let mut instrs = 0u64;
        for (kernel, config) in &built {
            let t0 = Instant::now();
            let mut sim = SlicedSim::with_predecoded(
                &kernel.compiled,
                config,
                &[],
                0,
                Arc::clone(&kernel.predecoded),
            )
            .map_err(|e| e.to_string())?;
            while !sim.advance(SLICE_CYCLES).map_err(|e| e.to_string())? {}
            let run = sim.finish().map_err(|e| e.to_string())?;
            ns += t0.elapsed().as_secs_f64() * 1e9;
            instrs += run.result.total(|s| s.instrs_issued);
        }
        per_rep.push(ns / instrs.max(1) as f64);
    }
    Ok(median(&per_rep))
}

const MACHINES: [(Machine, &str); 4] = [
    (Machine::Conventional, "conventional"),
    (Machine::Full128, "full"),
    (Machine::Shrink64, "shrink50"),
    (Machine::HardwareOnly, "hwonly"),
];

const SUITE_REPS: usize = 3;

/// Layer measurements that do not depend on the workload: the compiler
/// over the suite, and the simulator over the suite under each machine
/// with its exact counters.
pub fn measure_isolated(report: &mut Report) -> Result<(), String> {
    let suite = rfv_bench::figures::full_suite();

    // rfv-compiler: 16 kernels x 2 renaming budgets
    let budgets = [
        CompileOptions::default(),
        CompileOptions {
            table_budget_bytes: 0,
        },
    ];
    let mut compile_us = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for w in &suite {
            for opts in &budgets {
                black_box(compile(&w.kernel, opts).map_err(|e| e.to_string())?);
            }
        }
        compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    report.add("compiler.suite_us", median(&compile_us), "us");

    // rfv-sim through the harness, every machine, predecode outside
    let mut total_s = 0.0;
    let mut counters = [0u64; 5];
    for (machine, name) in MACHINES {
        let config = machine.config();
        let prepared: Vec<_> = suite
            .iter()
            .map(|w| {
                let compiled = machine.compile(w);
                let prog = Arc::new(PredecodedKernel::new(&compiled));
                (compiled, prog)
            })
            .collect();
        let mut rep_s = Vec::new();
        let mut instrs = 0u64;
        for rep in 0..SUITE_REPS {
            let mut s = 0.0;
            for (compiled, prog) in &prepared {
                let t0 = Instant::now();
                let result = harness::run_predecoded(compiled, &config, prog);
                s += t0.elapsed().as_secs_f64();
                if rep == 0 {
                    instrs += result.total(|st| st.instrs_issued);
                    counters[0] += result.total(|st| st.instrs_issued);
                    counters[1] += result.cycles;
                    counters[2] += result.total(|st| st.bank_conflicts);
                    counters[3] += result.total(|st| st.no_reg_stalls);
                    counters[4] += result.total(|st| st.swap_outs);
                }
            }
            rep_s.push(s);
        }
        let s = median(&rep_s);
        total_s += s;
        report.add(
            format!("sim.ns_per_instr.{name}"),
            s * 1e9 / instrs.max(1) as f64,
            "ns",
        );
    }
    report.add(
        "sim.mcycles_per_s",
        counters[1] as f64 / total_s / 1e6,
        "Mcycle/s",
    );
    for (name, v) in [
        "sim.instrs",
        "sim.cycles",
        "sim.bank_conflicts",
        "sim.no_reg_stalls",
        "sim.swap_outs",
    ]
    .into_iter()
    .zip(counters)
    {
        report.add(name, v as f64, "count");
    }
    Ok(())
}

/// `Request`/`Response` encode plus decode for one submission and its
/// reply, µs.
pub fn codec_us(request: &JobRequest, reply: &JobResult) -> Result<f64, String> {
    let request = Request::Submit(request.clone());
    let response = Response::Result(reply.clone());
    let mut samples = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        for _ in 0..100 {
            let rq = Request::decode(&black_box(request.encode())).map_err(|e| e.to_string())?;
            let rs = Response::decode(&black_box(response.encode())).map_err(|e| e.to_string())?;
            black_box((rq, rs));
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / 100.0);
    }
    Ok(median(&samples))
}

/// `Spool::journal` and `Spool::record_done` in a fresh spool under
/// `dir`, µs each (median).
pub fn spool_us(dir: &Path, request: &JobRequest, reply: &JobResult) -> Result<(f64, f64), String> {
    let spool = Spool::open(dir).map_err(|e| format!("open spool: {e}"))?;
    let response = Response::Result(reply.clone());
    let (mut journal, mut done) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let t0 = Instant::now();
        let id = spool
            .journal(request)
            .map_err(|e| format!("journal: {e}"))?;
        let t1 = Instant::now();
        spool
            .record_done(id, &response)
            .map_err(|e| format!("record_done: {e}"))?;
        journal.push((t1 - t0).as_secs_f64() * 1e6);
        done.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    drop(spool);
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove spool: {e}"))?;
    Ok((median(&journal), median(&done)))
}
