//! A connected stream, transport-erased: the one socket type the daemon
//! and the client library read and write through.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// A TCP or unix-domain connection.
pub(crate) enum Conn {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Conn {
    /// A second handle on the same connection (one reads, one writes).
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}
