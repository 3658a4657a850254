//! End-to-end daemon behaviour: results match a direct in-process
//! run byte-for-byte, the compile cache hits on repeat kernels, a
//! full queue rejects with a typed error, and drain refuses new work
//! while finishing what was accepted.

mod common;

use std::thread;
use std::time::{Duration, Instant};

use rfv_bench::harness::machine_config;
use rfv_sim::SlicedSim;
use rfvd::cache::compile_flavored;
use rfvd::client::Client;
use rfvd::proto::{ErrorCode, JobRequest, Priority, Response};
use rfvd::server::{serve, ServerConfig, ServerHandle};
use rfvd::spec::JobSpec;
use rfvd::{proto::CacheOutcome, result_stats_json};

fn test_server(jobs: usize, queue_depth: usize) -> ServerHandle {
    serve(ServerConfig {
        jobs,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn submit_ok(client: &mut Client, req: &JobRequest) -> rfvd::proto::JobResult {
    match client.submit(req) {
        Ok(Response::Result(r)) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// The daemon must report exactly what a direct in-process simulation
/// of the same (spec, machine, sms) reports — same stats-json bytes.
#[test]
fn daemon_results_match_a_direct_run_bytewise() {
    let server = test_server(1, 8);
    let mut c = common::connect(server.local_addr());
    for (spec, machine) in [
        ("VectorAdd", "full"),
        ("VectorAdd", "conventional"),
        ("synth:regs=20,trips=3,tpc=64,ctas=2,conc=2", "shrink50"),
    ] {
        let got = submit_ok(
            &mut c,
            &JobRequest {
                spec: spec.into(),
                machine: machine.into(),
                num_sms: 1,
                ..JobRequest::default()
            },
        );

        let kernel = JobSpec::parse(spec).unwrap().build_kernel();
        let mut config = machine_config(machine).unwrap();
        config.num_sms = 1;
        let release = config.regfile.policy.uses_release_flags();
        let compiled = compile_flavored(&kernel, release).unwrap();
        let mut sim = SlicedSim::new(&compiled, &config, &[], 0).unwrap();
        while !sim.is_done() {
            sim.advance(u64::MAX).unwrap();
        }
        let run = sim.finish().unwrap();
        let expected = result_stats_json(&run.result, config.num_sms);

        assert_eq!(got.cycles, run.result.cycles, "{spec} on {machine}");
        assert_eq!(
            got.stats_json, expected,
            "{spec} on {machine}: daemon stats diverge from a direct run"
        );
    }
    server.begin_drain();
    server.join();
}

#[test]
fn repeat_kernels_hit_the_cache_and_optouts_bypass_it() {
    let server = test_server(1, 8);
    let mut c = common::connect(server.local_addr());
    let req = JobRequest {
        spec: "synth:regs=16,trips=2,tpc=64,ctas=1,conc=1".into(),
        num_sms: 1,
        ..JobRequest::default()
    };
    let first = submit_ok(&mut c, &req);
    let second = submit_ok(&mut c, &req);
    let third = submit_ok(
        &mut c,
        &JobRequest {
            use_cache: false,
            ..req.clone()
        },
    );
    assert_eq!(first.cache, CacheOutcome::Miss);
    assert_eq!(second.cache, CacheOutcome::Hit);
    assert_eq!(third.cache, CacheOutcome::Bypass);
    // identical spec => identical results regardless of cache path
    assert_eq!(first.stats_json, second.stats_json);
    assert_eq!(first.stats_json, third.stats_json);

    let stats = {
        let mut s = common::connect(server.local_addr());
        s.stats().unwrap()
    };
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    server.begin_drain();
    server.join();
}

/// With one runner and a one-slot queue, a third concurrent job must
/// be rejected with `QueueFull` — backpressure is typed, not a hang.
#[test]
fn full_queue_rejects_with_queue_full() {
    let server = test_server(1, 1);
    let addr = server.local_addr();
    let long = JobRequest {
        spec: "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2".into(),
        num_sms: 1,
        ..JobRequest::default()
    };

    // stage saturation deterministically: first job on the runner,
    // second in the single queue slot, and only then the overflow
    let spawn_runner = |req: JobRequest| {
        thread::spawn(move || {
            let mut c = common::connect(addr);
            submit_ok(&mut c, &req)
        })
    };
    let mut probe = common::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);

    let first = spawn_runner(long.clone());
    while probe.stats().unwrap().active < 1 {
        assert!(Instant::now() < deadline, "first job never started");
        thread::sleep(Duration::from_millis(1));
    }
    let second = spawn_runner(long.clone());
    while probe.stats().unwrap().queued < 1 {
        assert!(Instant::now() < deadline, "second job never queued");
        thread::sleep(Duration::from_millis(1));
    }

    match probe.submit(&long) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::QueueFull, "{e}");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let runners = [first, second];

    // the rejection cost nothing: both accepted jobs still finish
    for r in runners {
        let result = r.join().unwrap();
        assert!(result.cycles > 0);
    }
    let stats = probe.stats().unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected, 1);
    server.begin_drain();
    server.join();
}

/// High-priority jobs jump the FIFO: with one runner busy and two
/// jobs submitted while it runs, the high one runs first.
#[test]
fn high_priority_jumps_the_queue() {
    let server = test_server(1, 8);
    let addr = server.local_addr();
    let long = JobRequest {
        spec: "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2".into(),
        num_sms: 1,
        ..JobRequest::default()
    };
    let blocker = {
        let req = long.clone();
        thread::spawn(move || {
            let mut c = common::connect(addr);
            submit_ok(&mut c, &req)
        })
    };
    let mut probe = common::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.stats().unwrap().active < 1 {
        assert!(Instant::now() < deadline, "blocker never started");
        thread::sleep(Duration::from_millis(2));
    }

    let normal = {
        let req = JobRequest {
            spec: "synth:regs=10,trips=1,tpc=32,ctas=1,conc=1".into(),
            num_sms: 1,
            ..JobRequest::default()
        };
        thread::spawn(move || {
            let mut c = common::connect(addr);
            let t0 = Instant::now();
            let r = submit_ok(&mut c, &req);
            (r, t0.elapsed())
        })
    };
    // give the normal job time to be enqueued ahead of the high one
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.stats().unwrap().queued < 1 {
        assert!(Instant::now() < deadline, "normal job never queued");
        thread::sleep(Duration::from_millis(2));
    }
    let high = {
        let req = JobRequest {
            spec: "synth:regs=12,trips=1,tpc=32,ctas=1,conc=1".into(),
            num_sms: 1,
            priority: Priority::High,
            ..JobRequest::default()
        };
        thread::spawn(move || {
            let mut c = common::connect(addr);
            let t0 = Instant::now();
            let r = submit_ok(&mut c, &req);
            (r, t0.elapsed())
        })
    };

    let (hr, h_latency) = high.join().unwrap();
    let (nr, n_latency) = normal.join().unwrap();
    let br = blocker.join().unwrap();
    assert!(hr.cycles > 0 && nr.cycles > 0 && br.cycles > 0);
    assert!(
        h_latency < n_latency,
        "high-priority job ({h_latency:?}) should finish before the \
         earlier-submitted normal job ({n_latency:?})"
    );
    server.begin_drain();
    server.join();
}

/// Draining: accepted work finishes, new work is refused (typed
/// `ShuttingDown` when the connection reads the request, or a clean
/// close when the drain wins the race), and `join` returns counters
/// consistent with what clients observed.
#[test]
fn drain_finishes_accepted_work_and_refuses_new() {
    let server = test_server(1, 8);
    let addr = server.local_addr();
    let long = JobRequest {
        spec: "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2".into(),
        num_sms: 1,
        ..JobRequest::default()
    };
    let accepted = {
        let req = long.clone();
        thread::spawn(move || {
            let mut c = common::connect(addr);
            submit_ok(&mut c, &req)
        })
    };
    let mut probe = common::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.stats().unwrap().active < 1 {
        assert!(Instant::now() < deadline, "accepted job never started");
        thread::sleep(Duration::from_millis(2));
    }

    server.begin_drain();
    match probe.submit(&long) {
        Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown, "{e}"),
        Err(_) => {} // the conn thread noticed the drain first: clean close
        Ok(other) => panic!("drain accepted new work: {other:?}"),
    }

    let result = accepted.join().unwrap();
    assert!(result.cycles > 0, "accepted job must finish despite drain");
    let final_stats = server.join();
    assert_eq!(final_stats.completed, 1);
    assert_eq!(final_stats.queued, 0);
    assert_eq!(final_stats.active, 0);
}
