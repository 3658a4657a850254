//! Protocol framing robustness against a live server: malformed
//! magic, version, checksum, truncated frames, oversized payloads,
//! and mid-frame disconnects all yield typed errors (or a clean
//! close) while the server keeps serving other connections.

mod common;

use rfv_trace::wire::fnv1a;
use rfvd::client::{Client, ClientError};
use rfvd::proto::{ErrorCode, JobRequest, Request, Response, JOB_MAGIC, JOB_VERSION, MAX_PAYLOAD};
use rfvd::server::{serve, ServerConfig, ServerHandle};

fn test_server() -> ServerHandle {
    serve(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// A length-prefixed frame around raw payload bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

/// A checksummed envelope with every field under caller control.
fn raw_envelope(magic: [u8; 8], version: u32, kind: u8, body: &[u8]) -> Vec<u8> {
    let mut p = magic.to_vec();
    p.extend_from_slice(&version.to_le_bytes());
    p.push(kind);
    p.extend_from_slice(body);
    p.extend_from_slice(&fnv1a(&p).to_le_bytes());
    p
}

fn quick_job() -> JobRequest {
    JobRequest {
        spec: "synth:regs=8,trips=1,tpc=32,ctas=1,conc=1".into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

fn expect_error(client: &mut Client, code: ErrorCode) {
    match client.read_response() {
        Ok(Response::Error(e)) => assert_eq!(e.code, code, "{e}"),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

/// The stream must be closed by the server after a poisoning error.
fn expect_closed(client: &mut Client) {
    match client.read_response() {
        Err(ClientError::Closed) => {}
        other => panic!("expected server-side close, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_typed_and_closes_the_stream() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    let p = raw_envelope(*b"rfv-nope", JOB_VERSION, 1, &[]);
    c.send_raw(&frame(&p)).unwrap();
    expect_error(&mut c, ErrorCode::BadMagic);
    expect_closed(&mut c);
    server.begin_drain();
    server.join();
}

#[test]
fn bad_version_keeps_the_connection_usable() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    let p = raw_envelope(JOB_MAGIC, JOB_VERSION + 7, 1, &[]);
    c.send_raw(&frame(&p)).unwrap();
    expect_error(&mut c, ErrorCode::BadVersion);
    // a version mismatch is semantic — the same connection still works
    match c.submit(&quick_job()) {
        Ok(Response::Result(r)) => assert!(r.cycles > 0),
        other => panic!("submit after version error failed: {other:?}"),
    }
    server.begin_drain();
    server.join();
}

#[test]
fn corrupt_checksum_is_typed_and_closes_the_stream() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    let mut p = Request::Submit(quick_job()).encode();
    let mid = p.len() / 2;
    p[mid] ^= 0x40;
    c.send_raw(&frame(&p)).unwrap();
    expect_error(&mut c, ErrorCode::BadChecksum);
    expect_closed(&mut c);
    server.begin_drain();
    server.join();
}

#[test]
fn oversized_length_prefix_is_typed_and_closes_the_stream() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    // a hostile length prefix; no payload bytes ever follow
    c.send_raw(&((MAX_PAYLOAD as u32 + 1).to_le_bytes()))
        .unwrap();
    expect_error(&mut c, ErrorCode::Oversized);
    expect_closed(&mut c);
    server.begin_drain();
    server.join();
}

#[test]
fn truncated_envelope_is_malformed_not_a_hang() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    // a full frame whose payload is shorter than any valid envelope
    c.send_raw(&frame(b"rfv")).unwrap();
    expect_error(&mut c, ErrorCode::Malformed);
    server.begin_drain();
    server.join();
}

#[test]
fn trailing_garbage_in_body_is_malformed_and_recoverable() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    let valid = Request::Submit(quick_job()).encode();
    // re-envelope the body with extra bytes appended
    let body_start = 8 + 4 + 1;
    let body_end = valid.len() - 8;
    let mut body = valid[body_start..body_end].to_vec();
    body.extend_from_slice(b"junk");
    let p = raw_envelope(JOB_MAGIC, JOB_VERSION, 1, &body);
    c.send_raw(&frame(&p)).unwrap();
    expect_error(&mut c, ErrorCode::Malformed);
    match c.submit(&quick_job()) {
        Ok(Response::Result(r)) => assert!(r.cycles > 0),
        other => panic!("submit after malformed body failed: {other:?}"),
    }
    server.begin_drain();
    server.join();
}

#[test]
fn mid_frame_disconnect_leaves_the_server_serving_others() {
    let server = test_server();
    // connection A sends half a frame and vanishes
    let mut a = common::connect(server.local_addr());
    let payload = Request::Submit(quick_job()).encode();
    let mut partial = frame(&payload);
    partial.truncate(partial.len() / 2);
    a.send_raw(&partial).unwrap();
    a.shutdown().unwrap();
    drop(a);
    // connection B is unaffected
    let mut b = common::connect(server.local_addr());
    match b.submit(&quick_job()) {
        Ok(Response::Result(r)) => assert!(r.cycles > 0),
        other => panic!("submit on a healthy connection failed: {other:?}"),
    }
    server.begin_drain();
    server.join();
}

#[test]
fn poisoned_connection_does_not_poison_neighbors() {
    let server = test_server();
    let mut victim = common::connect(server.local_addr());
    let mut healthy = common::connect(server.local_addr());
    let p = raw_envelope(*b"BADBADBA", JOB_VERSION, 1, &[]);
    victim.send_raw(&frame(&p)).unwrap();
    expect_error(&mut victim, ErrorCode::BadMagic);
    expect_closed(&mut victim);
    match healthy.submit(&quick_job()) {
        Ok(Response::Result(r)) => assert!(r.cycles > 0),
        other => panic!("neighbor connection broken: {other:?}"),
    }
    server.begin_drain();
    server.join();
}

#[test]
fn semantic_rejections_are_typed_and_keep_serving() {
    let server = test_server();
    let mut c = common::connect(server.local_addr());
    for (req, code) in [
        (
            JobRequest {
                spec: "NotAWorkload".into(),
                ..quick_job()
            },
            ErrorCode::UnknownWorkload,
        ),
        (
            JobRequest {
                spec: "synth:regs=64".into(),
                ..quick_job()
            },
            ErrorCode::UnknownWorkload,
        ),
        (
            JobRequest {
                machine: "warp9".into(),
                ..quick_job()
            },
            ErrorCode::UnknownMachine,
        ),
    ] {
        match c.submit(&req) {
            Ok(Response::Error(e)) => assert_eq!(e.code, code, "{e}"),
            other => panic!("expected {code}, got {other:?}"),
        }
    }
    // after three rejections the connection still completes real work
    match c.submit(&quick_job()) {
        Ok(Response::Result(r)) => assert!(r.cycles > 0),
        other => panic!("submit after rejections failed: {other:?}"),
    }
    server.begin_drain();
    server.join();
}
