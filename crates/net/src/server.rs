//! The one TCP server skeleton (DESIGN.md §6, "The network edge").
//!
//! [`Listener::serve`] owns everything the request/response tiers share:
//! accept, thread per connection, the uniform frame loop, and the
//! shutdown flag with its self-connect wake. A tier supplies only what
//! differs — how one decoded request becomes one [`Reply`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::conn::Conn;
use crate::wire::{FrameError, Wire};

/// A handler's answer to one request. Every request gets exactly one
/// response frame either way.
#[derive(Debug)]
pub enum Reply<R> {
    /// Send the response and wait for the connection's next request.
    Continue(R),
    /// Send the response, close this connection, and stop the listener:
    /// [`Listener::serve`] returns once the response is on the wire.
    Stop(R),
}

/// A bound listening socket plus the flag that stops its accept loop.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
    local_addr: SocketAddr,
    stopping: Arc<AtomicBool>,
}

impl Listener {
    /// Binds `addr` (port 0 picks a free port).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Listener { listener, local_addr, stopping: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The stop flag, for background threads that should wind down with
    /// the listener. It is set (`Release`; read it with `Acquire`) after a
    /// [`Reply::Stop`] response has been written.
    #[must_use]
    pub fn stopping(&self) -> Arc<AtomicBool> {
        self.stopping.clone()
    }

    /// Accepts connections until a handler answers [`Reply::Stop`], giving
    /// each its own thread and its own handler from `per_connection` (so a
    /// handler may keep per-connection state).
    ///
    /// Every connection runs the same frame loop: a clean EOF or an I/O
    /// error closes it; a frame that does not decode as `Req`, or exceeds
    /// the size cap, is answered with `reject(reason)` and then closes it;
    /// a response too large to frame is replaced by `reject(reason)`.
    ///
    /// Handler threads are detached, not joined: one may sit blocked in a
    /// read on a socket an idle client still holds, and a drain must not
    /// wait on it.
    ///
    /// # Errors
    /// Only a failing `accept` (other than `Interrupted`, which retries).
    pub fn serve<Req, Resp, H>(
        &self,
        reject: fn(String) -> Resp,
        per_connection: impl Fn() -> H,
    ) -> io::Result<()>
    where
        Req: Wire + 'static,
        Resp: Wire + 'static,
        H: FnMut(Req) -> Reply<Resp> + Send + 'static,
    {
        loop {
            let accepted = self.listener.accept();
            if self.stopping.load(Ordering::Acquire) {
                return Ok(());
            }
            let conn = match accepted {
                Ok((stream, _)) => Conn::adopt(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let handler = per_connection();
            let (stopping, addr) = (self.stopping.clone(), self.local_addr);
            std::thread::spawn(move || {
                if frame_loop(&conn, handler, reject) {
                    stopping.store(true, Ordering::Release);
                    // `accept` only notices the flag on its next (possibly
                    // never-arriving) connection: poke it with a throwaway one.
                    let _ = TcpStream::connect(addr);
                }
            });
        }
    }
}

/// Serves one connection; returns whether the handler asked to stop.
fn frame_loop<Req: Wire, Resp: Wire>(
    conn: &Conn,
    mut handler: impl FnMut(Req) -> Reply<Resp>,
    reject: fn(String) -> Resp,
) -> bool {
    loop {
        let req = match conn.recv::<Req>() {
            Ok(Some(req)) => req,
            // Client done, or peer reset mid-frame: nobody to answer.
            Ok(None) | Err(FrameError::Io(_)) => return false,
            Err(e) => {
                let _ = conn.send(&reject(format!("bad frame: {e}")));
                return false;
            }
        };
        let (resp, stop) = match handler(req) {
            Reply::Continue(resp) => (resp, false),
            Reply::Stop(resp) => (resp, true),
        };
        let sent = match conn.send(&resp) {
            // Nothing was written, so the client is still owed its one
            // response: make it a typed one instead of a dead thread.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                conn.send(&reject(format!("reply refused: {e}")))
            }
            sent => sent,
        };
        if stop || sent.is_err() {
            return stop;
        }
    }
}
