//! The connection core behind both network servers, this crate's HTTP
//! plane and `grbac-serve`'s NDJSON policy service: one thread per
//! accepted connection, so an idle or streaming client never delays
//! another, under one cap, [`MAX_CONNECTIONS`], past which a new
//! connection reads the server's refusal bytes and is closed.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

/// The most connections one server holds open. Each costs one thread,
/// about 14 kB resident while it waits in a read, and one fd.
pub const MAX_CONNECTIONS: usize = 256;

/// How long the acceptor sleeps after a failed accept. A failure such as
/// `EMFILE` leaves the pending connection in the backlog, so an
/// immediate retry fails again and the loop would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serves one connection: its socket, when it was accepted, the stop flag.
type Handler = dyn Fn(&TcpStream, Instant, &AtomicBool) + Send + Sync;

/// The open connections: each socket, held weakly so that it closes as
/// soon as its thread lets go of it, and that thread. Only the acceptor
/// and [`Server::stop`] lock it, and each update leaves it valid, so a
/// poisoned lock still guards a usable registry.
type Open = Vec<(Weak<TcpStream>, JoinHandle<()>)>;

/// A listening socket whose connections each run on their own thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    open: Arc<Mutex<Open>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and runs `handler` on a new thread for each accepted
    /// connection. A connection past [`MAX_CONNECTIONS`], or one whose
    /// thread cannot be spawned, is sent `refusal` and closed.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to spawn the acceptor.
    pub fn serve(
        addr: impl ToSocketAddrs,
        refusal: Vec<u8>,
        handler: impl Fn(&TcpStream, Instant, &AtomicBool) + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(Mutex::new(Open::new()));
        let (flag, registry, handler) = (Arc::clone(&stop), Arc::clone(&open), Arc::new(handler));
        let acceptor =
            Builder::new().spawn(move || accept(&listener, &flag, &registry, &refusal, handler))?;
        Ok(Self {
            addr,
            stop,
            open,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag `shutdown` and `Drop` set, for the owner's own threads.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Stops accepting, shuts down every open connection's socket, and
    /// joins the acceptor and every connection thread.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, thread) in open.drain(..) {
            let _ = thread.join();
        }
    }

    /// Sets the stop flag, wakes the acceptor, and shuts down every open
    /// socket so that each connection thread's read returns at once; a
    /// no-op after the first call.
    fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor blocks in `accept`; a throwaway connection wakes it.
        let _ = TcpStream::connect(self.addr);
        let open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        for (socket, _) in open.iter() {
            if let Some(socket) = socket.upgrade() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Drop for Server {
    /// Stops like [`Server::shutdown`], leaving the threads to finish.
    fn drop(&mut self) {
        self.stop();
    }
}

/// The acceptor loop, which runs until the stop flag is set.
fn accept(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    open: &Mutex<Open>,
    refusal: &[u8],
    handler: Arc<Handler>,
) {
    loop {
        let next = listener.accept();
        let accepted = Instant::now();
        let mut open = open.lock().unwrap_or_else(PoisonError::into_inner);
        // Read under the registry lock, which `Server::stop` takes after
        // setting the flag: a socket registered here is shut down there.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = next else {
            drop(open);
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        for (_, done) in open.extract_if(.., |(_, thread)| thread.is_finished()) {
            // A panicked handler has already reported through the panic hook.
            let _ = done.join();
        }
        let stream = Arc::new(stream);
        let (socket, stop, handler) = (Arc::clone(&stream), Arc::clone(stop), Arc::clone(&handler));
        let spawn = || Builder::new().spawn(move || handler(&socket, accepted, &stop));
        if let Some(Ok(thread)) = (open.len() < MAX_CONNECTIONS).then(spawn) {
            open.push((Arc::downgrade(&stream), thread));
        } else {
            // At the cap, or out of threads: refuse, then close on drop.
            let _ = (&*stream).write_all(refusal);
        }
    }
}
