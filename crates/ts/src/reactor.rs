//! The readiness reactor behind [`crate::http::HttpServer`]: one thread
//! multiplexing *all* parked keep-alive sockets and the accept listener
//! through epoll (via the in-repo `libc` shim), so an idle connection
//! costs one registered fd and **zero CPU** until its next byte arrives.
//!
//! Mechanics:
//!
//! - Parked items are registered level-triggered with `EPOLLONESHOT`:
//!   the kernel reports each readiness exactly once, and the reactor
//!   removes the item from its table (plus `EPOLL_CTL_DEL`, so a later
//!   re-park can `ADD` again) before handing it to the client. An item
//!   parked while its socket still holds bytes fires at once, so the
//!   reactor never needs to be told about buffered data.
//! - Each parked item carries its own deadline (or none). The loop
//!   sleeps until the soonest one and closes every item whose deadline
//!   passed; when no parked item has a deadline it blocks indefinitely.
//! - The listener is also one-shot: an accept burst is a single event,
//!   answered by queueing one *low-priority* drain job; the job re-arms
//!   the registration when the backlog is empty. Level-triggered re-arm
//!   means connections that raced in meanwhile re-fire immediately.
//! - An `eventfd` wakes the loop for shutdown, and when an item parks
//!   with a deadline sooner than every other.
//! - When the client's queue refuses a dispatch ([`ReactorClient::
//!   on_ready`] returns the item), the reactor parks it in a retry
//!   backlog and polls with a short timeout instead of blocking forever;
//!   the bytes wait in the socket, nothing is dropped.
//!
//! The reactor does no I/O on the items and is generic over them
//! (anything `AsRawFd`), so its register/re-arm/close races are
//! unit-testable on bare `TcpStream`s below, independent of HTTP.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Token values 0/1 are reserved; parked items get 2+.
const TOKEN_WAKE: u64 = 0;
const TOKEN_ACCEPT: u64 = 1;

/// Poll timeout while dispatches await queue space (retry backlog).
const RETRY_DELAY_MS: libc::c_int = 5;

/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// How the reactor's owner reacts to readiness.
pub(crate) trait ReactorClient<T>: Send + Sync {
    /// The loop exits (closing everything it owns) once this is true.
    fn shutting_down(&self) -> bool;
    /// A parked item became readable (or closed — the client discovers
    /// which by reading). Return it to have the reactor retry shortly
    /// (dispatch queue full); the reactor never drops a ready item.
    fn on_ready(&self, item: T) -> Result<(), T>;
    /// The listener has pending connections: queue an accept-drain job.
    /// `false` means the queue refused and the reactor should retry.
    fn on_accept_ready(&self) -> bool;
}

/// The parked table: items by token, and the deadlines of those that
/// have one, soonest first.
struct Parked<T> {
    items: HashMap<u64, (T, Option<Instant>)>,
    deadlines: BTreeSet<(Instant, u64)>,
}

impl<T> Parked<T> {
    fn take(&mut self, token: u64) -> Option<T> {
        let (item, deadline) = self.items.remove(&token)?;
        if let Some(deadline) = deadline {
            self.deadlines.remove(&(deadline, token));
        }
        Some(item)
    }
}

/// The readiness core: epoll fd + wake eventfd + listener + parked table.
pub(crate) struct Reactor<T> {
    epfd: libc::c_int,
    wake_fd: libc::c_int,
    listener: Mutex<Option<TcpListener>>,
    listener_fd: libc::c_int,
    parked: Mutex<Parked<T>>,
    next_token: AtomicU64,
    /// Set by `close_all`: late `park` calls fail instead of leaking
    /// items into a table nobody will ever poll again.
    closed: AtomicBool,
}

fn cvt(ret: libc::c_int) -> io::Result<libc::c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl<T: AsRawFd + Send> Reactor<T> {
    /// Build a reactor owning `listener` (switched to non-blocking and
    /// registered one-shot) plus a fresh epoll instance and wake eventfd.
    pub(crate) fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let listener_fd = listener.as_raw_fd();
        let epfd = cvt(unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) })?;
        let wake_fd = match cvt(unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) })
        {
            Ok(fd) => fd,
            Err(e) => {
                unsafe { libc::close(epfd) };
                return Err(e);
            }
        };
        let reactor = Reactor {
            epfd,
            wake_fd,
            listener: Mutex::new(Some(listener)),
            listener_fd,
            parked: Mutex::new(Parked {
                items: HashMap::new(),
                deadlines: BTreeSet::new(),
            }),
            next_token: AtomicU64::new(2),
            closed: AtomicBool::new(false),
        };
        reactor.ctl(libc::EPOLL_CTL_ADD, wake_fd, libc::EPOLLIN, TOKEN_WAKE)?;
        reactor.ctl(
            libc::EPOLL_CTL_ADD,
            listener_fd,
            libc::EPOLLIN | libc::EPOLLONESHOT,
            TOKEN_ACCEPT,
        )?;
        Ok(reactor)
    }

    fn ctl(&self, op: libc::c_int, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        cvt(unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Fully deregister (one-shot only disarms) so a later park can ADD
    /// the fd again.
    fn deregister(&self, item: &T) {
        let fd = item.as_raw_fd();
        // SAFETY: EPOLL_CTL_DEL ignores the event pointer, so null is
        // allowed; `self.epfd` stays open for the reactor's lifetime.
        let _ =
            unsafe { libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
    }

    /// Park an item: it costs nothing until its fd becomes readable (or
    /// the peer closes), at which point it is dispatched exactly once —
    /// or until `deadline`, when the reactor drops (closes) it. Fails
    /// after `close_all` (the caller should drop the item).
    pub(crate) fn park(&self, item: T, deadline: Option<Instant>) -> io::Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "reactor closed",
            ));
        }
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        let fd = item.as_raw_fd();
        // Insert before ADD so the event (which can fire on another
        // thread's epoll_wait immediately) always finds its item.
        let soonest = {
            let mut parked = self.parked.lock().expect("parked lock");
            parked.items.insert(token, (item, deadline));
            deadline.is_some_and(|deadline| {
                let soonest = parked.deadlines.first().is_none_or(|&(d, _)| deadline < d);
                parked.deadlines.insert((deadline, token));
                soonest
            })
        };
        let armed = self.ctl(
            libc::EPOLL_CTL_ADD,
            fd,
            libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLONESHOT,
            token,
        );
        if armed.is_err() {
            self.parked.lock().expect("parked lock").take(token);
        }
        if soonest {
            // The loop sleeps toward the deadline that was soonest until
            // now; a later one needs no wake.
            self.wake();
        }
        armed
    }

    /// Wake a (possibly indefinitely) blocked `epoll_wait`.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { libc::write(self.wake_fd, (&one as *const u64).cast(), 8) };
    }

    /// Non-blocking accept off the owned listener.
    pub(crate) fn try_accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        match &*self.listener.lock().expect("listener lock") {
            Some(listener) => listener.accept(),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener closed",
            )),
        }
    }

    /// Re-enable the one-shot listener registration after an accept
    /// drain. Level-triggered: pending connections re-fire immediately.
    pub(crate) fn rearm_accept(&self) {
        if self.listener.lock().expect("listener lock").is_some() {
            let _ = self.ctl(
                libc::EPOLL_CTL_MOD,
                self.listener_fd,
                libc::EPOLLIN | libc::EPOLLONESHOT,
                TOKEN_ACCEPT,
            );
        }
    }

    /// Items currently parked (diagnostics).
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.lock().expect("parked lock").items.len()
    }

    /// Close the listener and drop every parked item (dropping closes
    /// their sockets). Idempotent; later `park`s fail.
    pub(crate) fn close_all(&self) {
        self.closed.store(true, Ordering::SeqCst);
        *self.listener.lock().expect("listener lock") = None;
        let mut parked = self.parked.lock().expect("parked lock");
        parked.items.clear();
        parked.deadlines.clear();
    }

    /// The reactor loop. Blocks in `epoll_wait` (indefinitely when no
    /// parked item has a deadline) until shutdown; returns after
    /// `close_all`.
    pub(crate) fn run<C: ReactorClient<T>>(&self, client: &C) {
        let mut ready: VecDeque<T> = VecDeque::new();
        let mut accept_pending = false;
        let mut events = [libc::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        loop {
            if client.shutting_down() {
                self.close_all();
                return;
            }
            let timeout_ms = if !ready.is_empty() || accept_pending {
                RETRY_DELAY_MS
            } else {
                // Sleep until the soonest deadline, rounded up to the next
                // millisecond; with none, block indefinitely — that's the
                // "idle connections cost zero CPU" property.
                let parked = self.parked.lock().expect("parked lock");
                parked.deadlines.first().map_or(-1, |&(deadline, _)| {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    wait.as_millis().min(1 << 30) as libc::c_int + 1
                })
            };
            let n = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as libc::c_int,
                    timeout_ms,
                )
            };
            if client.shutting_down() {
                self.close_all();
                return;
            }
            for ev in events.iter().take(n.max(0) as usize) {
                let token = ev.u64;
                match token {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_ACCEPT => accept_pending = true,
                    token => {
                        let taken = self.parked.lock().expect("parked lock").take(token);
                        if let Some(item) = taken {
                            self.deregister(&item);
                            ready.push_back(item);
                        }
                    }
                }
            }
            // Readable connections dispatch ahead of accepts — the
            // priority inversion the two-lane pool exists to prevent.
            while let Some(item) = ready.pop_front() {
                if let Err(item) = client.on_ready(item) {
                    ready.push_front(item);
                    break;
                }
            }
            if accept_pending && client.on_accept_ready() {
                accept_pending = false;
            }
            self.reap_expired();
        }
    }

    fn drain_wake(&self) {
        let mut buf: u64 = 0;
        // Nonblocking eventfd: one read collects all pending wakes.
        let _ = unsafe { libc::read(self.wake_fd, (&mut buf as *mut u64).cast(), 8) };
    }

    /// Drop (close) every parked item whose deadline has passed.
    fn reap_expired(&self) {
        let now = Instant::now();
        let mut parked = self.parked.lock().expect("parked lock");
        while let Some(&(_, token)) = parked.deadlines.first().filter(|(d, _)| *d <= now) {
            if let Some(item) = parked.take(token) {
                self.deregister(&item);
            }
        }
    }
}

impl<T> Drop for Reactor<T> {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.wake_fd);
            libc::close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    /// Test client: parks every accepted stream (with `accept_deadline`
    /// from now, if set), forwards every ready stream through a channel.
    struct EchoClient {
        shutdown: AtomicBool,
        ready_tx: Mutex<Sender<TcpStream>>,
        reactor: OnceLock<Arc<Reactor<TcpStream>>>,
        accept_events: AtomicUsize,
        accept_deadline: Option<Duration>,
    }

    impl ReactorClient<TcpStream> for EchoClient {
        fn shutting_down(&self) -> bool {
            self.shutdown.load(Ordering::SeqCst)
        }
        fn on_ready(&self, item: TcpStream) -> Result<(), TcpStream> {
            let _ = self.ready_tx.lock().unwrap().send(item);
            Ok(())
        }
        fn on_accept_ready(&self) -> bool {
            self.accept_events.fetch_add(1, Ordering::SeqCst);
            let reactor = self.reactor.get().expect("reactor set");
            while let Ok((stream, _)) = reactor.try_accept() {
                let deadline = self.accept_deadline.map(|d| Instant::now() + d);
                reactor.park(stream, deadline).unwrap();
            }
            reactor.rearm_accept();
            true
        }
    }

    struct Rig {
        reactor: Arc<Reactor<TcpStream>>,
        client: Arc<EchoClient>,
        addr: SocketAddr,
        rx: std::sync::mpsc::Receiver<TcpStream>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    fn rig(accept_deadline: Option<Duration>) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Arc::new(Reactor::new(listener).unwrap());
        let (tx, rx) = channel();
        let client = Arc::new(EchoClient {
            shutdown: AtomicBool::new(false),
            ready_tx: Mutex::new(tx),
            reactor: OnceLock::new(),
            accept_events: AtomicUsize::new(0),
            accept_deadline,
        });
        client.reactor.set(reactor.clone()).ok().unwrap();
        let (r, c) = (reactor.clone(), client.clone());
        let thread = std::thread::spawn(move || r.run(&*c));
        Rig {
            reactor,
            client,
            addr,
            rx,
            thread: Some(thread),
        }
    }

    impl Rig {
        fn stop(mut self) {
            self.client.shutdown.store(true, Ordering::SeqCst);
            self.reactor.wake();
            self.thread.take().unwrap().join().unwrap();
        }
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn parked_stream_dispatches_once_per_readiness_and_rearms() {
        let rig = rig(None);
        let mut peer = TcpStream::connect(rig.addr).unwrap();
        peer.write_all(b"a").unwrap();
        // Accept → park → data already pending → immediate dispatch
        // (level-triggered ADD after the byte arrived still fires).
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        let mut byte = [0u8; 1];
        served.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"a");
        // Nothing further pending: re-parking must NOT re-dispatch…
        rig.reactor.park(served, None).unwrap();
        assert!(rig.rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(rig.reactor.parked_len(), 1);
        // …until the next byte arrives (the re-arm race).
        peer.write_all(b"b").unwrap();
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        served.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"b");
        assert_eq!(rig.reactor.parked_len(), 0);
        rig.stop();
    }

    #[test]
    fn peer_close_dispatches_the_parked_stream_for_reaping() {
        let rig = rig(None);
        let peer = TcpStream::connect(rig.addr).unwrap();
        // Quietly parked (no data): wait for the accept to land.
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(peer); // FIN
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        let mut byte = [0u8; 1];
        // The dispatched stream reads EOF — the client discovers the
        // close exactly the way a worker would.
        assert_eq!(served.read(&mut byte).unwrap(), 0);
        rig.stop();
    }

    #[test]
    fn deadlines_reap_only_the_parked_streams_that_carry_them() {
        // Accepted streams park with a 200 ms deadline. One of them talks
        // first and is re-parked without a deadline: it must outlive the
        // other, which is closed at its deadline without ever being
        // dispatched.
        let rig = rig(Some(Duration::from_millis(200)));
        let mut kept = TcpStream::connect(rig.addr).unwrap();
        kept.write_all(b"a").unwrap();
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        let mut byte = [0u8; 1];
        served.read_exact(&mut byte).unwrap();
        rig.reactor.park(served, None).unwrap();

        let mut reaped = TcpStream::connect(rig.addr).unwrap();
        let start = Instant::now();
        reaped.set_read_timeout(Some(WAIT)).unwrap();
        assert_eq!(reaped.read(&mut byte).unwrap_or(0), 0, "expected FIN");
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(150) && waited < WAIT,
            "reaped after {waited:?}"
        );
        assert!(
            rig.rx.try_recv().is_err(),
            "the reaped stream was dispatched"
        );
        assert_eq!(rig.reactor.parked_len(), 1);

        // The stream without a deadline is still parked and still live.
        kept.write_all(b"b").unwrap();
        let mut served = rig.rx.recv_timeout(WAIT).unwrap();
        served.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"b");
        rig.stop();
    }

    /// A connected pair on a private listener: (peer, server end).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (peer, listener.accept().unwrap().0)
    }

    #[test]
    fn a_sooner_deadline_parked_later_is_reaped_on_time() {
        // Once the loop sleeps toward a 30 s deadline, parking a 200 ms one
        // must wake it, or that stream would outlive its deadline.
        let rig = rig(None);
        let (_slow_peer, slow) = pair();
        let (mut fast_peer, fast) = pair();
        let slow_deadline = Instant::now() + Duration::from_secs(30);
        rig.reactor.park(slow, Some(slow_deadline)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        rig.reactor
            .park(fast, Some(start + Duration::from_millis(200)))
            .unwrap();
        let mut byte = [0u8; 1];
        fast_peer.set_read_timeout(Some(WAIT)).unwrap();
        assert_eq!(fast_peer.read(&mut byte).unwrap_or(1), 0, "expected FIN");
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(150) && waited < Duration::from_secs(2),
            "reaped after {waited:?}"
        );
        assert_eq!(rig.reactor.parked_len(), 1, "the 30 s stream was reaped");
        rig.stop();
    }

    #[test]
    fn shutdown_wake_exits_promptly_and_closes_parked_streams() {
        let rig = rig(None);
        let peer = TcpStream::connect(rig.addr).unwrap();
        let deadline = Instant::now() + WAIT;
        while rig.reactor.parked_len() == 0 {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let reactor = rig.reactor.clone();
        let start = Instant::now();
        rig.stop(); // blocks in epoll_wait(-1) until the eventfd wake
        assert!(start.elapsed() < Duration::from_secs(2), "wake was slow");
        assert_eq!(reactor.parked_len(), 0);
        // Late parks fail instead of leaking into a dead table.
        assert!(reactor.park(peer.try_clone().unwrap(), None).is_err());
    }
}
