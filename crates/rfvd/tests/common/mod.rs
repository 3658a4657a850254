//! Socket helpers shared by the daemon's integration suites. Every
//! test socket carries a read and write deadline, so a wedged daemon
//! or a test-side deadlock fails the suite instead of hanging it.

// each suite compiles its own copy and uses a subset of it
#![allow(dead_code)]

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rfvd::client::Client;

/// Deadline for any single socket read or write. Far above the
/// slowest legitimate wait in these suites (a long job queued behind
/// others in a debug build), so it only fires on a real hang.
pub const SOCKET_DEADLINE: Duration = Duration::from_secs(60);

/// [`Client::connect`] with [`SOCKET_DEADLINE`] applied.
pub fn connect(addr: impl ToSocketAddrs) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(SOCKET_DEADLINE))
        .expect("set socket deadline");
    client
}

/// A raw stream with [`SOCKET_DEADLINE`] applied, for tests that
/// speak the frame protocol directly.
pub fn stream(addr: impl ToSocketAddrs) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(SOCKET_DEADLINE))
        .expect("set read deadline");
    stream
        .set_write_timeout(Some(SOCKET_DEADLINE))
        .expect("set write deadline");
    stream
}
