//! Partial-write robustness of the poll-multiplexed connection
//! layer: reply frames must arrive byte-identical even when every
//! socket write makes only sliver progress — whether the slivers come
//! from injected `net_short_write` chaos or from genuinely tiny
//! kernel socket buffers that force frames to split across many
//! `POLLOUT` drains.

mod common;

use rfvd::chaos::{ChaosKind, ChaosPlan};
use rfvd::proto::{JobRequest, Response};
use rfvd::server::{serve, ServerConfig};

const QUICK_SPEC: &str = "synth:regs=24,trips=2,rep=4";

fn req(spec: &str) -> JobRequest {
    JobRequest {
        spec: spec.into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

#[test]
fn sliver_writes_still_deliver_byte_identical_replies() {
    // reference: a fault-free server's result for the same job
    let clean = serve(ServerConfig::default()).expect("serve clean");
    let mut c = common::connect(clean.local_addr());
    let reference = match c.submit(&req(QUICK_SPEC)).unwrap() {
        Response::Result(r) => r,
        other => panic!("reference submit: {other:?}"),
    };
    clean.join();

    // every write the chaos server makes map to a 1–8 byte sliver;
    // frames must still arrive whole and identical
    let handle = serve(ServerConfig {
        chaos: ChaosPlan::parse("net_short_write:1.0", 5).unwrap(),
        ..ServerConfig::default()
    })
    .expect("serve chaos");
    let mut client = common::connect(handle.local_addr());
    for _ in 0..8 {
        match client.submit(&req(QUICK_SPEC)).unwrap() {
            Response::Result(r) => {
                assert_eq!(r.stats_json, reference.stats_json);
                assert_eq!(r.cycles, reference.cycles);
                assert_eq!(r.instrs, reference.instrs);
            }
            other => panic!("sliver submit: {other:?}"),
        }
    }
    assert!(
        handle.chaos().fired(ChaosKind::NetShortWrite) > 0,
        "the short-write fault actually fired"
    );
    handle.join();
}

/// Shrinks a socket's kernel buffers to their floor so a burst of
/// reply frames cannot possibly flush in one write, and returns the
/// receive buffer size the kernel actually granted.
#[cfg(target_os = "linux")]
fn shrink_buffers(stream: &std::net::TcpStream) -> usize {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn getsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *mut std::ffi::c_void,
            optlen: *mut u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    // the kernel clamps the request up to its per-socket minimum —
    // the point is "as small as allowed", not an exact byte count
    let val: i32 = 1;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                opt,
                (&raw const val).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt({opt})");
    }
    let mut granted: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: the fd is open for the borrow of `stream`, and `optval`
    // and `optlen` point to live locals, `len` holding `granted`'s size
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&raw mut granted).cast(),
            &raw mut len,
        )
    };
    assert_eq!(rc, 0, "getsockopt(SO_RCVBUF)");
    granted as usize
}

#[cfg(target_os = "linux")]
#[test]
fn pipelined_frames_split_across_pollout_drains() {
    use std::io::Write as _;

    use rfvd::proto::{read_frame, write_frame, Request};

    let handle = serve(ServerConfig::default()).expect("serve");
    let mut stream = common::stream(handle.local_addr());
    stream.set_nodelay(true).unwrap();
    let rcvbuf = shrink_buffers(&stream);

    // pipeline a burst of stats requests while a second thread reads
    // the replies: they overflow the shrunken buffers, so the mux must
    // park them in its out-buffer and drain over many POLLOUT rounds
    // as the reader frees window. (Writing the whole burst before
    // reading can deadlock: the kernel may block our writes while
    // unread replies fill the window.)
    const BURST: usize = 64;
    let mut reader = stream.try_clone().expect("clone stream");
    let replies = std::thread::spawn(move || {
        let mut reply_bytes = 0;
        for i in 0..BURST {
            let frame = read_frame(&mut reader)
                .unwrap_or_else(|e| panic!("reply {i}: {e}"))
                .unwrap_or_else(|| panic!("reply {i}: connection closed early"));
            reply_bytes += frame.len();
            match Response::decode(&frame) {
                Ok(Response::Stats(s)) => {
                    assert!(s.conns_total >= 1, "reply {i}: nonsense counters");
                }
                other => panic!("reply {i}: {other:?}"),
            }
        }
        reply_bytes
    });

    let payload = Request::Stats.encode();
    for _ in 0..BURST {
        write_frame(&mut stream, &payload).unwrap();
    }
    stream.flush().unwrap();

    let reply_bytes = replies
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    assert!(
        reply_bytes > rcvbuf,
        "the burst ({reply_bytes} B of replies) must overflow the {rcvbuf} B receive \
         buffer, or it never exercised split drains"
    );
    handle.join();
}
