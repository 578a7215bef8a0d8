//! Readiness polling for the reactor: one level-triggered backend per
//! platform behind one token-based interface. [`Poller`] is `epoll(7)`
//! on Linux, `poll(2)` on other Unix systems, and a sleep-tick stub off
//! Unix; the choice is made at compile time. Every backend has the same
//! methods:
//!
//! * `new()` creates the poller;
//! * `backend()` names it, for logs and telemetry;
//! * `add(token, source, interest)` starts watching `source` under
//!   `token`, and `modify` changes the interest set of a watched one;
//! * `remove(token, source)` stops watching it — always explicitly, as
//!   `poll(2)` tracks interest in user space;
//! * `wait(out, timeout)` clears `out`, then appends readiness events,
//!   waiting up to `timeout` (`None` blocks indefinitely).
//!
//! This module and [`crate::signal`] are the only `unsafe` in the
//! workspace: both call libc entry points already linked through std
//! (the offline container has no mio/polling crate). Every backend is
//! level-triggered, so the reactor's state machine never depends on
//! edge semantics. Linux test builds also compile the
//! `poll(2)` backend, so its unit tests run beside epoll's.
//!
//! Off Unix there are no raw fds to poll; the stub reports every
//! registered token as ready each tick. That is *spuriously* ready —
//! correct for this reactor, whose handlers use non-blocking sockets
//! and treat `WouldBlock` as "not actually ready" — and keeps the
//! crate building everywhere.

use std::io;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub use epoll::Epoll as Poller;
#[cfg(all(unix, not(target_os = "linux")))]
pub use pollfds::Poll as Poller;
#[cfg(not(unix))]
pub use spin::Spin as Poller;

/// Readable interest / readiness bit.
pub const READ: u8 = 1;
/// Writable interest / readiness bit.
pub const WRITE: u8 = 2;

/// Anything the poller can watch. Blanket-implemented over
/// `AsRawFd` on Unix; a no-op elsewhere.
pub trait Source {
    /// The raw handle to register.
    fn raw(&self) -> i32;
}

#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Source for T {
    fn raw(&self) -> i32 {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> Source for T {
    fn raw(&self) -> i32 {
        0
    }
}

/// One readiness event: the token registered for the source, plus
/// which of [`READ`]/[`WRITE`] fired.
pub type Event = (u64, u8);

/// A wait timeout in whole milliseconds, `-1` for none. Rounds up so a
/// 0.5 ms timeout still sleeps instead of spinning.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

/// The ready count a wait call returned, or its error. A signal landing
/// on the reactor thread is not an error: it counts as nothing ready,
/// and the loop re-checks its flags and re-waits.
#[cfg(unix)]
fn ready_count(rc: i32) -> io::Result<usize> {
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{ready_count, timeout_ms, Event, Source, READ, WRITE};
    use std::io;
    use std::time::Duration;

    // x86_64 is the one ABI where the kernel's struct is packed.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The Linux backend: interest lives in the kernel's epoll set.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: a flags-only syscall; no memory crosses it.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        pub fn backend(&self) -> &'static str {
            "epoll"
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, interest: u8) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if interest & READ != 0 {
                events |= EPOLLIN;
            }
            if interest & WRITE != 0 {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live `epoll_event` of the kernel's layout.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        pub fn add(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source.raw(), token, interest)
        }

        pub fn modify(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source.raw(), token, interest)
        }

        pub fn remove(&mut self, _token: u64, source: &impl Source) {
            let _ = self.ctl(EPOLL_CTL_DEL, source.raw(), 0, 0);
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            // SAFETY: the kernel writes at most `events.len()` entries.
            let n = ready_count(unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms(timeout),
                )
            })?;
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct first.
                let (bits, token) = (ev.events, ev.data);
                let mut ready = 0u8;
                if bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
                    ready |= READ;
                }
                if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                    ready |= WRITE;
                }
                out.push((token, ready));
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is owned by this value and closed once, here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, any(test, not(target_os = "linux"))))]
mod pollfds {
    use super::{ready_count, timeout_ms, Event, Source, READ, WRITE};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// The portable Unix backend: interest tracked in user space, the
    /// pollfd array rebuilt per wait (O(n) per call).
    #[derive(Debug, Default)]
    pub struct Poll {
        entries: Vec<(u64, i32, u8)>, // (token, fd, interest)
    }

    impl Poll {
        pub fn new() -> io::Result<Poll> {
            Ok(Poll::default())
        }

        pub fn backend(&self) -> &'static str {
            "poll"
        }

        pub fn add(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.remove(token, source);
            self.entries.push((token, source.raw(), interest));
            Ok(())
        }

        pub fn modify(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.add(token, source, interest)
        }

        pub fn remove(&mut self, token: u64, _source: &impl Source) {
            self.entries.retain(|&(t, _, _)| t != token);
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|&(_, fd, interest)| PollFd {
                    fd,
                    events: if interest & READ != 0 { POLLIN } else { 0 }
                        | if interest & WRITE != 0 { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` holds `fds.len()` initialised `pollfd`s.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
            if ready_count(n)? == 0 {
                return Ok(());
            }
            for (pfd, &(token, _, _)) in fds.iter().zip(self.entries.iter()) {
                let mut ready = 0u8;
                if pfd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0 {
                    ready |= READ;
                }
                if pfd.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0 {
                    ready |= WRITE;
                }
                if ready != 0 {
                    out.push((token, ready));
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod spin {
    use super::{timeout_ms, Event, Source, READ, WRITE};
    use std::io;
    use std::time::Duration;

    /// Sleep-tick stub: every registered token reports as fully ready
    /// each tick; non-blocking handlers sort out the truth.
    #[derive(Debug, Default)]
    pub struct Spin {
        tokens: Vec<(u64, u8)>,
    }

    impl Spin {
        pub fn new() -> io::Result<Spin> {
            Ok(Spin::default())
        }

        pub fn backend(&self) -> &'static str {
            "spin"
        }

        pub fn add(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.remove(token, source);
            self.tokens.push((token, interest));
            Ok(())
        }

        pub fn modify(&mut self, token: u64, source: &impl Source, interest: u8) -> io::Result<()> {
            self.add(token, source, interest)
        }

        pub fn remove(&mut self, token: u64, _source: &impl Source) {
            self.tokens.retain(|&(t, _)| t != token);
        }

        /// Sleeps one tick (at most 1 ms), then reports every token.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let ms = timeout_ms(timeout);
            let ms = if ms < 0 { 1 } else { ms.min(1) };
            std::thread::sleep(Duration::from_millis(ms as u64));
            for &(token, interest) in &self.tokens {
                let ready = interest & (READ | WRITE);
                if ready != 0 {
                    out.push((token, ready));
                }
            }
            Ok(())
        }
    }
}

/// A cross-thread wakeup channel built from a loopback socket pair —
/// pure std, no extra fds beyond what the platform gives every test
/// server. The receiving end registers in the poller like any
/// connection; [`Waker::wake`] makes it readable.
#[derive(Debug)]
pub struct Waker {
    tx: std::sync::Mutex<std::net::TcpStream>,
}

impl Waker {
    /// Builds the pair: the `Waker` half is `Send + Sync` for workers
    /// and the public [`crate::Server`] handle; the stream half goes
    /// into the reactor's poller.
    pub fn pair() -> io::Result<(Waker, std::net::TcpStream)> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = std::net::TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((
            Waker {
                tx: std::sync::Mutex::new(tx),
            },
            rx,
        ))
    }

    /// Makes the reactor's receiving end readable. Best-effort: a full
    /// socket buffer means wakeups are already pending, which is all a
    /// level-triggered loop needs.
    pub fn wake(&self) {
        use std::io::Write as _;
        let mut tx = self
            .tx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = tx.write(&[1]);
    }
}

/// Drains all pending wakeup bytes from the receiving end.
pub fn drain_waker(rx: &mut std::net::TcpStream) {
    use std::io::Read as _;
    let mut scratch = [0u8; 256];
    loop {
        match rx.read(&mut scratch) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// Runs `$body` once per backend compiled into this test build —
    /// the platform's [`Poller`], plus `poll(2)` on Linux — with `$p`
    /// bound to a fresh poller of that backend.
    macro_rules! on_every_backend {
        (|$p:ident| $body:block) => {{
            {
                let mut $p = Poller::new().unwrap();
                $body
            }
            #[cfg(target_os = "linux")]
            {
                let mut $p = pollfds::Poll::new().unwrap();
                $body
            }
        }};
    }

    /// The readiness of one `wait`, folded per token and sorted, taken
    /// again until it equals `want` or two seconds pass. The backends
    /// are level-triggered, so a wrong state persists to the caller's
    /// assertion.
    fn settle(mut wait: impl FnMut(&mut Vec<Event>), want: &[Event]) -> Vec<Event> {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        loop {
            wait(&mut events);
            let mut seen = std::collections::BTreeMap::<u64, u8>::new();
            for &(token, ready) in &events {
                *seen.entry(token).or_default() |= ready;
            }
            let seen: Vec<Event> = seen.into_iter().collect();
            if seen == want || Instant::now() >= deadline {
                return seen;
            }
        }
    }

    #[test]
    fn reports_readability_on_both_backends() {
        on_every_backend!(|poller| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();
            poller.add(7, &rx, READ).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|&(t, r)| t != 7 || r & READ == 0),
                "{}: idle socket reported readable",
                poller.backend()
            );

            tx.write_all(b"x").unwrap();
            tx.flush().unwrap();
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if events.iter().any(|&(t, r)| t == 7 && r & READ != 0) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{}: write never became readable",
                    poller.backend()
                );
            }
            let mut byte = [0u8; 8];
            assert_eq!(rx.read(&mut byte).unwrap(), 1);
            poller.remove(7, &rx);
        });
    }

    #[test]
    fn write_interest_fires_and_modify_silences_it() {
        on_every_backend!(|poller| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let _tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();
            poller.add(3, &rx, READ | WRITE).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert!(
                events.iter().any(|&(t, r)| t == 3 && r & WRITE != 0),
                "{}: empty send buffer should be writable",
                poller.backend()
            );
            poller.modify(3, &rx, READ).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|&(t, r)| t != 3 || r & WRITE == 0),
                "{}: write interest should be gone after modify",
                poller.backend()
            );
            poller.remove(3, &rx);
        });
    }

    #[test]
    fn modify_and_remove_touch_only_their_own_token() {
        on_every_backend!(|poller| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            // Three connections, each with one unread byte waiting, so
            // every receiving end is readable until the test ends.
            let pairs: Vec<(TcpStream, TcpStream)> = (0..3)
                .map(|_| {
                    let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (rx, _) = listener.accept().unwrap();
                    tx.write_all(b"x").unwrap();
                    (tx, rx)
                })
                .collect();
            for (token, (_, rx)) in (10u64..).zip(&pairs) {
                poller.add(token, rx, READ).unwrap();
            }
            let backend = poller.backend();
            let tick = Some(Duration::from_millis(50));

            let want = [(10, READ), (11, READ), (12, READ)];
            let got = settle(|events| poller.wait(events, tick).unwrap(), &want);
            assert_eq!(got, want, "{backend}: after add");

            poller.modify(11, &pairs[1].1, WRITE).unwrap();
            let want = [(10, READ), (11, WRITE), (12, READ)];
            let got = settle(|events| poller.wait(events, tick).unwrap(), &want);
            assert_eq!(got, want, "{backend}: after modify");

            poller.remove(10, &pairs[0].1);
            let want = [(11, WRITE), (12, READ)];
            let got = settle(|events| poller.wait(events, tick).unwrap(), &want);
            assert_eq!(got, want, "{backend}: after remove");
        });
    }

    #[test]
    fn waker_wakes_through_the_poller() {
        on_every_backend!(|poller| {
            let (waker, mut rx) = Waker::pair().unwrap();
            poller.add(1, &rx, READ).unwrap();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker
            });
            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if events.iter().any(|&(t, r)| t == 1 && r & READ != 0) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{}: wake never arrived",
                    poller.backend()
                );
            }
            drain_waker(&mut rx);
            let _ = handle.join().unwrap();
            poller.remove(1, &rx);
        });
    }
}
