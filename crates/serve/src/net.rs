//! Transport abstraction: one connected stream / listener type over TCP
//! and unix-domain sockets.
//!
//! A listen/connect *spec* selects the transport: `unix:PATH` (or any
//! spec containing a `/`) is a unix socket path; anything else is a TCP
//! `host:port` address.

use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A parsed listen/connect spec.
pub(crate) enum Spec<'a> {
    /// TCP `host:port`.
    Tcp(&'a str),
    /// Unix-domain socket path.
    Unix(&'a str),
}

/// Parses a spec: `unix:PATH` or a path containing `/` → unix socket,
/// otherwise TCP `host:port`.
pub(crate) fn parse_spec(spec: &str) -> Spec<'_> {
    if let Some(path) = spec.strip_prefix("unix:") {
        Spec::Unix(path)
    } else if spec.contains('/') {
        Spec::Unix(spec)
    } else {
        Spec::Tcp(spec)
    }
}

/// One connected byte stream, TCP or unix.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to a server by spec.
    pub(crate) fn connect(spec: &str) -> std::io::Result<Stream> {
        match parse_spec(spec) {
            Spec::Tcp(addr) => Ok(Stream::Tcp(nodelay(TcpStream::connect(addr)?)?)),
            #[cfg(unix)]
            Spec::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Spec::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not supported on this platform",
            )),
        }
    }

    /// Clones the handle (shares the underlying socket).
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Sets the read timeout (shared with clones of this socket).
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Peeks at incoming bytes without consuming them; `Ok(0)` means the
    /// peer closed its write side.
    pub(crate) fn peek(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.peek(buf),
            #[cfg(unix)]
            Stream::Unix(s) => unix_peek(s, buf),
        }
    }
}

/// Turns off Nagle's algorithm: every frame is one request or reply the
/// peer is waiting for, so holding it back for coalescing only adds a
/// delayed-ACK round trip.
fn nodelay(s: TcpStream) -> std::io::Result<TcpStream> {
    s.set_nodelay(true)?;
    Ok(s)
}

/// `UnixStream::peek` is still unstable (`unix_socket_peek`), so peek
/// through the libc `recv` std already links, with `MSG_PEEK`. Honors
/// the socket's `SO_RCVTIMEO` like any other receive.
#[cfg(unix)]
fn unix_peek(s: &UnixStream, buf: &mut [u8]) -> std::io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn recv(fd: i32, buf: *mut std::ffi::c_void, len: usize, flags: i32) -> isize;
    }
    /// POSIX `MSG_PEEK` (value 2 on every platform the workspace
    /// supports).
    const MSG_PEEK: i32 = 2;
    // SAFETY: `fd` is a valid open socket for the lifetime of `&self`,
    // and `buf` is a live, writable allocation of exactly `buf.len()`
    // bytes — the kernel writes at most that many.
    let n = unsafe { recv(s.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len(), MSG_PEEK) };
    match usize::try_from(n) {
        Ok(n) => Ok(n),
        Err(_) => Err(std::io::Error::last_os_error()),
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    /// Forwarded, not left to the default: the default sends only the
    /// first non-empty slice, which would split every reply frame into
    /// separate writes.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound, blocking listener, TCP or unix.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds by spec. A stale unix socket file left by a dead server is
    /// removed first.
    pub(crate) fn bind(spec: &str) -> std::io::Result<Listener> {
        match parse_spec(spec) {
            Spec::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Spec::Unix(path) => {
                if std::fs::metadata(path).is_ok() && Stream::connect(path).is_err() {
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.to_string()))
            }
            #[cfg(not(unix))]
            Spec::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not supported on this platform",
            )),
        }
    }

    /// The spec clients should connect to (resolves TCP port 0).
    pub(crate) fn addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "?".to_string(), |a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix:{path}"),
        }
    }

    /// Accepts one connection, blocking until one arrives ([`wake`]
    /// makes one).
    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Tcp(nodelay(s)?))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    /// The unix socket path to unlink on shutdown, if any.
    pub(crate) fn unix_path(&self) -> Option<&str> {
        match self {
            Listener::Tcp(_) => None,
            #[cfg(unix)]
            Listener::Unix(_, path) => Some(path),
        }
    }
}

/// Wakes a listener blocked in [`Listener::accept`] on `spec` (the
/// listener's own [`Listener::addr`]) by connecting to it and hanging up.
/// Failures are ignored: a listener that cannot be reached is not
/// accepting either.
pub(crate) fn wake(spec: &str) {
    match parse_spec(spec) {
        Spec::Tcp(addr) => {
            if let Ok(addr) = addr.parse::<SocketAddr>() {
                let _ = TcpStream::connect_timeout(&wake_target(addr), Duration::from_secs(1));
            }
        }
        #[cfg(unix)]
        Spec::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        #[cfg(not(unix))]
        Spec::Unix(_) => {}
    }
}

/// The address that reaches a TCP listener bound to `addr`: a listener on
/// the unspecified address (`0.0.0.0`, `::`) is reached through loopback.
fn wake_target(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_targets_loopback_for_unspecified_addresses() {
        let at = |s: &str| wake_target(s.parse().expect("socket address")).to_string();
        assert_eq!(at("0.0.0.0:7777"), "127.0.0.1:7777");
        assert_eq!(at("[::]:7777"), "[::1]:7777");
        assert_eq!(at("127.0.0.1:7777"), "127.0.0.1:7777");
        assert_eq!(at("192.0.2.5:80"), "192.0.2.5:80");
    }

    #[test]
    fn specs_parse() {
        assert!(matches!(parse_spec("127.0.0.1:7777"), Spec::Tcp(_)));
        assert!(matches!(
            parse_spec("unix:/tmp/x.sock"),
            Spec::Unix("/tmp/x.sock")
        ));
        assert!(matches!(
            parse_spec("/tmp/x.sock"),
            Spec::Unix("/tmp/x.sock")
        ));
        assert!(matches!(parse_spec("localhost:0"), Spec::Tcp(_)));
    }

    /// A vectored write reaches the socket whole, on both transports:
    /// every slice of a frame goes out in the one call.
    #[test]
    fn streams_write_every_slice_in_one_call() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let tcp = Stream::connect(&listener.addr()).expect("connect");
        let tcp_peer = listener.accept().expect("accept");
        let mut pairs = vec![(tcp, tcp_peer)];
        #[cfg(unix)]
        {
            let (a, b) = UnixStream::pair().expect("socket pair");
            pairs.push((Stream::Unix(a), Stream::Unix(b)));
        }
        for (mut writer, mut reader) in pairs {
            let slices = [IoSlice::new(b"ab"), IoSlice::new(b""), IoSlice::new(b"cde")];
            assert_eq!(writer.write_vectored(&slices).expect("write"), 5);
            let mut got = [0; 5];
            reader.read_exact(&mut got).expect("read");
            assert_eq!(&got, b"abcde");
        }
    }

    /// Both ends of a loopback TCP connection run with `TCP_NODELAY`.
    #[test]
    fn tcp_streams_set_nodelay() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let client = Stream::connect(&listener.addr()).expect("connect");
        let server = listener.accept().expect("accept");
        for s in [&client, &server] {
            match s {
                Stream::Tcp(s) => assert!(s.nodelay().expect("nodelay")),
                #[cfg(unix)]
                Stream::Unix(_) => panic!("expected a TCP stream"),
            }
        }
    }
}
