//! Resource-bound behaviour end to end: the compile cache respects
//! its configured capacity (evicting LRU, rebuilding byte-identical),
//! and a client with a deadline gets a typed timeout from a stalled
//! daemon instead of hanging forever.

mod common;

use std::net::TcpListener;
use std::time::Duration;

use rfvd::client::{Client, ClientError};
use rfvd::proto::{CacheOutcome, JobRequest, JobResult, Response};
use rfvd::server::{serve, ServerConfig};

fn submit_ok(client: &mut Client, req: &JobRequest) -> JobResult {
    match client.submit(req) {
        Ok(Response::Result(r)) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

fn req(spec: &str) -> JobRequest {
    JobRequest {
        spec: spec.into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

/// With `cache_entries = 2` and three distinct kernels, the cache
/// must stay at two entries, evict in LRU order, and serve a rebuilt
/// (previously evicted) kernel with byte-identical results.
#[test]
fn bounded_cache_evicts_lru_and_rebuilds_byte_identical() {
    let server = serve(ServerConfig {
        jobs: 1,
        queue_depth: 8,
        cache_entries: 2,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let mut c = common::connect(server.local_addr());
    let mut probe = common::connect(server.local_addr());

    let a = req("synth:regs=12,trips=2,tpc=32,ctas=1,conc=1");
    let b = req("synth:regs=16,trips=2,tpc=32,ctas=1,conc=1");
    let d = req("synth:regs=20,trips=2,tpc=32,ctas=1,conc=1");

    let first_a = submit_ok(&mut c, &a);
    assert_eq!(first_a.cache, CacheOutcome::Miss);
    assert_eq!(submit_ok(&mut c, &b).cache, CacheOutcome::Miss);
    // cache now full at [a, b]; a third kernel evicts the LRU (a)
    assert_eq!(submit_ok(&mut c, &d).cache, CacheOutcome::Miss);

    let stats = probe.stats().unwrap();
    assert_eq!(stats.cache_entries, 2, "capacity is a hard bound");
    assert_eq!(stats.cache_evictions, 1);

    // the evicted kernel misses again — and its rebuild is
    // indistinguishable from the original compile
    let again_a = submit_ok(&mut c, &a);
    assert_eq!(again_a.cache, CacheOutcome::Miss, "evicted => recompiled");
    assert_eq!(again_a.stats_json, first_a.stats_json, "rebuild diverged");
    assert_eq!(again_a.cycles, first_a.cycles);
    assert_eq!(again_a.instrs, first_a.instrs);

    // re-inserting a evicted the next LRU (b); d must still be hot
    assert_eq!(submit_ok(&mut c, &d).cache, CacheOutcome::Hit, "LRU order");

    let stats = probe.stats().unwrap();
    assert_eq!(stats.cache_entries, 2);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_hits, 1);

    drop(c);
    drop(probe);
    let final_stats = server.join();
    assert_eq!(final_stats.completed, 5);
    assert_eq!(final_stats.failed, 0);
}

/// A daemon that accepts but never answers must cost the client one
/// typed `TimedOut` at its configured deadline — not a forever-hang.
#[test]
fn stalled_daemon_times_out_instead_of_hanging() {
    // a listener that accepts (via the OS backlog) and never responds
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mut c = common::connect(addr);
    c.set_timeout(Some(Duration::from_millis(100))).unwrap();
    let started = std::time::Instant::now();
    match c.submit(&req("synth:regs=10,trips=1,tpc=32,ctas=1,conc=1")) {
        Err(ClientError::TimedOut) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout fired far too late"
    );
    drop(listener);
}
