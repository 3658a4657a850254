//! Connection-churn soak for the multiplexed connection layer.
//!
//! PR 6's daemon spawned (and leaked the `JoinHandle` of) one thread
//! per connection, so a long-lived server serving short-lived clients
//! grew without bound. These tests pin the fix: hundreds of churned
//! and idle connections must leave the daemon's thread count flat,
//! closed connections must be reaped eagerly, and the connection
//! counters in `Stats` must account for all of it.
//!
//! This file deliberately contains a single test: thread-count
//! assertions read `/proc/self/status`, and sibling tests running in
//! the same process would pollute the measurement.

mod common;

use std::time::{Duration, Instant};

use rfvd::client::Client;
use rfvd::proto::{JobRequest, Response};
use rfvd::server::{serve, ServerConfig};

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("numeric thread count")
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0 // no /proc: the churn still runs, the flat-count assertion is vacuous
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn connection_churn_and_idle_clients_leave_thread_count_flat() {
    const CHURNED: u64 = 150;
    const IDLE: usize = 100;

    let server = serve(ServerConfig {
        jobs: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.local_addr();
    let mut probe = common::connect(addr);
    let baseline = thread_count();

    // churn: every connection submits one tiny job and hangs up
    let tiny = JobRequest {
        spec: "synth:regs=10,trips=1,tpc=32,ctas=1,conc=1".into(),
        num_sms: 1,
        ..JobRequest::default()
    };
    for _ in 0..CHURNED {
        let mut c = common::connect(addr);
        match c.submit(&tiny) {
            Ok(Response::Result(_)) => {}
            other => panic!("churned submit failed: {other:?}"),
        }
    }

    // idle load: connections that send nothing at all
    let idles: Vec<Client> = (0..IDLE).map(|_| common::connect(addr)).collect();
    wait_until("idle connections to register", || {
        probe.stats().unwrap().conns_open == (IDLE + 1) as u64
    });

    assert!(
        thread_count() <= baseline + 4,
        "thread count grew under churn: {baseline} -> {} \
         (connections must multiplex, not spawn threads)",
        thread_count()
    );

    let stats = probe.stats().unwrap();
    assert_eq!(stats.completed, CHURNED);
    assert!(
        stats.conns_total > CHURNED + IDLE as u64,
        "conns_total {} must count every connection ever accepted",
        stats.conns_total
    );

    // eager reaping: closed idles disappear from the open count
    // without any traffic from us
    drop(idles);
    wait_until("closed connections to be reaped", || {
        probe.stats().unwrap().conns_open == 1
    });

    drop(probe);
    let final_stats = server.join();
    assert_eq!(final_stats.completed, CHURNED);
    assert_eq!(final_stats.failed, 0);
}
