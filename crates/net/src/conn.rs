//! The one framed TCP connection (DESIGN.md §6, "The network edge").
//!
//! Every socket this workspace dials or accepts becomes a [`Conn`], so the
//! socket policy is applied in exactly one place and every peer speaks
//! [`write_frame`] / [`read_frame`] frames and nothing else.

use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::error::TransportFailure;
use crate::wire::{read_frame, write_frame, FrameError, Wire};

/// A TCP stream carrying length-prefixed [`Wire`] frames.
///
/// Methods take `&self`, as `TcpStream`'s own I/O does: one thread may
/// read while another writes, but two concurrent writers would interleave
/// their frames — callers that share a `Conn` serialize their sends.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Dials `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        TcpStream::connect(addr).map(Conn::adopt)
    }

    /// Dials the first address `addr` resolves to, giving up after
    /// `timeout`; `InvalidInput` when it resolves to nothing.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no usable address"))
        })?;
        TcpStream::connect_timeout(&sock, timeout).map(Conn::adopt)
    }

    /// Wraps an accepted (or otherwise obtained) stream. The socket policy
    /// lives here, so dialled and accepted sockets cannot differ: frames
    /// are written whole and most await a reply, so Nagle's batching buys
    /// nothing and costs a delayed-ACK stall whenever two frames leave
    /// back to back.
    #[must_use]
    pub fn adopt(stream: TcpStream) -> Conn {
        // Fails only on a dead socket, which the first read or write reports.
        let _ = stream.set_nodelay(true);
        Conn { stream }
    }

    /// Writes one frame ([`write_frame`]): `InvalidInput`, with nothing
    /// sent, for a frame above the size cap.
    pub fn send(&self, msg: &impl Wire) -> io::Result<()> {
        write_frame(&mut &self.stream, msg)
    }

    /// Reads one frame ([`read_frame`]); `Ok(None)` is a clean EOF between
    /// frames.
    pub fn recv<T: Wire>(&self) -> Result<Option<T>, FrameError> {
        read_frame(&mut &self.stream)
    }

    /// One request, one reply, with every way that can fail mapped onto
    /// the [`TransportFailure`] taxonomy (EOF where the reply was due is a
    /// hangup). After a failure the connection may hold a half-exchanged
    /// frame and must not be reused.
    pub fn call<Req: Wire, Resp: Wire>(&self, req: &Req) -> Result<Resp, TransportFailure> {
        let started = Instant::now();
        self.send(req).map_err(|e| TransportFailure::classify_io(&e, started.elapsed()))?;
        match self.recv() {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(TransportFailure::Hangup),
            Err(e) => Err(TransportFailure::classify_frame(&e, started.elapsed())),
        }
    }

    /// Bounds every blocking read (`None` = wait forever; zero is invalid).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Bounds every blocking write (`None` = wait forever; zero is invalid).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    /// A second handle to the same socket, for a dedicated writer beside a
    /// reader thread.
    pub fn try_clone(&self) -> io::Result<Conn> {
        self.stream.try_clone().map(|stream| Conn { stream })
    }

    /// Closes both directions, waking any thread blocked in [`Conn::recv`]
    /// on this socket (or a clone of it).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
