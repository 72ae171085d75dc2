//! Blocking accept with a self-wake, shared by the fleet queen and the
//! serve server.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A listener whose accept loop sleeps in `accept` and is stopped by the
/// last connection handler to leave.
///
/// Both network edges serve one thread per connection and stop once their
/// run is over and no handler is left. The loop blocks in
/// [`accept`](Self::accept); a handler calls [`leave`](Self::leave) as it
/// exits, and the last one out of a finished run wakes the loop with one
/// loopback connect to the listener's own port. The loop drops that
/// connection and returns `None`, so it is never served or counted.
/// Connections accepted before the wake are served as usual.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
    /// The listener's own address, on loopback when it is bound to an
    /// unspecified one (`0.0.0.0`, `[::]`).
    wake_addr: SocketAddr,
    /// Handlers accepted and not yet left.
    active: AtomicUsize,
    woken: AtomicBool,
}

impl Acceptor {
    /// Takes over `listener`, in blocking mode.
    ///
    /// # Errors
    ///
    /// Reading the bound address or clearing non-blocking mode failed.
    pub fn new(listener: TcpListener) -> io::Result<Acceptor> {
        listener.set_nonblocking(false)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Acceptor {
            listener,
            wake_addr,
            active: AtomicUsize::new(0),
            woken: AtomicBool::new(false),
        })
    }

    /// Blocks for the next connection and counts it as active; its handler
    /// must call [`leave`](Self::leave) when it exits. `Ok(None)` once the
    /// loop was woken: stop accepting.
    ///
    /// # Errors
    ///
    /// The listener's accept error.
    pub fn accept(&self) -> io::Result<Option<TcpStream>> {
        let accepted = self.listener.accept();
        // `leave` sets `woken` before it connects, so the accept that
        // returns the wake connection sees it set.
        if self.woken.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let (stream, _peer) = accepted?;
        self.active.fetch_add(1, Ordering::AcqRel);
        Ok(Some(stream))
    }

    /// Marks one handler gone. If it was the last and `finished()` holds,
    /// wakes the accept loop. `finished` is read after the count drops, so
    /// a run another handler finished in the meantime is never missed.
    pub fn leave(&self, finished: impl FnOnce() -> bool) {
        // AcqRel: what a handler wrote before its own decrement is
        // visible to the last one's `finished`.
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1
            && finished()
            && !self.woken.swap(true, Ordering::SeqCst)
        {
            // The listener outlives every handler, so the connect lands
            // in its backlog; the stream is dropped at once.
            let _ = TcpStream::connect(self.wake_addr);
        }
    }
}
