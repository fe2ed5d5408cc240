//! The load generator: one thread driving at most two framed TCP
//! connections to a supervisor, either closed-loop (each connection sends
//! its next request when the previous reply lands) or open-loop (requests
//! are written when due on a seeded Poisson schedule, never held back for
//! earlier replies).
//!
//! Every request carries the time it was *due* and the time it was
//! *sent*.  Closed-loop round trips are reply − sent; open-loop latency is
//! reply − due, so a server stall also charges the requests that queued
//! up behind it (no coordinated omission), and sent − due is reported as
//! the generator's own lateness.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use redundancy_stats::DeterministicRng;

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// Longest a request may wait for its reply before the run fails.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Monotonic nanoseconds since a fixed origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Work,
    Return,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Sent {
    verb: Verb,
    due: u64,
    sent: u64,
}

/// One nonblocking protocol connection with its frame buffers and the
/// FIFO of requests awaiting replies (the server answers in order).
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    waiting: VecDeque<Sent>,
    eof: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            outbuf: Vec::with_capacity(1 << 12),
            outpos: 0,
            waiting: VecDeque::new(),
            eof: false,
        })
    }

    fn queue(&mut self, verb: Verb, payload: &str, due: u64, now: u64) {
        self.outbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.outbuf.extend_from_slice(payload.as_bytes());
        self.waiting.push_back(Sent {
            verb,
            due,
            sent: now,
        });
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(())
    }

    fn poll_fd(&self) -> PollFd {
        let mut events = POLLIN;
        if self.outpos < self.outbuf.len() {
            events |= POLLOUT;
        }
        PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Read what the socket has and pop every complete reply frame.
    fn read_replies(&mut self, out: &mut Vec<(Sent, String)>) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 14];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut at = 0;
        while let Some(prefix) = self.inbuf.get(at..at + 4) {
            let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
            let Some(body) = self.inbuf.get(at + 4..at + 4 + len) else {
                break;
            };
            let text = String::from_utf8_lossy(body).into_owned();
            let sent = self.waiting.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply with no request")
            })?;
            out.push((sent, text));
            at += 4 + len;
        }
        self.inbuf.drain(..at);
        if self.eof && !self.waiting.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed with requests unanswered",
            ));
        }
        Ok(())
    }
}

/// Wait (at most `timeout`) for any connection to become ready, then
/// flush pending output and collect every complete reply.
fn pump(
    conns: &mut [Conn],
    timeout: Duration,
    replies: &mut Vec<(usize, Sent, String)>,
) -> io::Result<usize> {
    let mut fds: Vec<PollFd> = conns.iter().map(Conn::poll_fd).collect();
    let ready = sys::poll(&mut fds, timeout)?;
    let mut got = Vec::new();
    for (i, (c, fd)) in conns.iter_mut().zip(&fds).enumerate() {
        if fd.revents & POLLOUT != 0 {
            c.flush()?;
        }
        if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            c.read_replies(&mut got)?;
            replies.extend(got.drain(..).map(|(s, t)| (i, s, t)));
        }
    }
    Ok(ready)
}

/// A parsed `work <task> <copy> <mult>` reply.
fn parse_work(text: &str) -> Option<(u64, u32)> {
    let mut p = text.split(' ');
    if p.next() != Some("work") {
        return None;
    }
    Some((p.next()?.parse().ok()?, p.next()?.parse().ok()?))
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples per window of [`p99_windowed`]: twenty beyond each window's p99.
pub const WINDOW: usize = 2000;

/// The tail as a run sees it between machine hiccups: split `v` (in
/// completion order) into consecutive [`WINDOW`]-sample windows, take each
/// window's p99, and return their median (the lower middle one), so one
/// multi-millisecond stall of a shared host moves one window, not the
/// result.  Fewer samples than one window give the pooled p99.
pub fn p99_windowed(v: &[u64]) -> u64 {
    if v.len() < WINDOW {
        return percentile(&mut v.to_vec(), 0.99);
    }
    let mut tails: Vec<u64> = v
        .chunks_exact(WINDOW)
        .map(|w| percentile(&mut w.to_vec(), 0.99))
        .collect();
    tails.sort_unstable();
    tails[(tails.len() - 1) / 2]
}

/// What a closed-loop drain measured.
#[derive(Debug, Default)]
pub struct Closed {
    pub requests: u64,
    pub failed: u64,
    pub assignments: u64,
    pub idles: u64,
    pub wall_ns: u64,
    /// reply − sent, every request.
    pub rtt: Vec<u64>,
    /// reply − due, where a request is due when the previous reply on its
    /// connection arrived.
    pub lat: Vec<u64>,
}

/// Drain the store closed-loop: every connection sends `request-work`,
/// returns each `work` at once, and stops at `drained`.
pub fn closed_loop(conns: &mut [Conn], clock: &Clock) -> io::Result<Closed> {
    let mut r = Closed::default();
    let start = clock.now();
    for c in conns.iter_mut() {
        c.queue(Verb::Work, "request-work", start, start);
        c.flush()?;
    }
    let mut live = conns.len();
    let mut replies = Vec::new();
    let mut line = String::new();
    while live > 0 {
        if pump(conns, REPLY_TIMEOUT, &mut replies)? == 0 {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timeout"));
        }
        let now = clock.now();
        for (i, sent, text) in replies.drain(..) {
            r.requests += 1;
            r.rtt.push(now - sent.sent);
            r.lat.push(now - sent.due);
            line.clear();
            if let Some((task, copy)) = parse_work(&text) {
                r.assignments += 1;
                use std::fmt::Write as _;
                let _ = write!(line, "return-result {task} {copy}");
                conns[i].queue(Verb::Return, &line, now, now);
            } else if text == "drained" {
                live -= 1;
                continue;
            } else {
                match text.as_str() {
                    "idle" => r.idles += 1,
                    "ok" | "ok complete" => {}
                    _ => r.failed += 1,
                }
                conns[i].queue(Verb::Work, "request-work", now, now);
            }
            conns[i].flush()?;
        }
    }
    r.wall_ns = clock.now() - start;
    Ok(r)
}

/// Send one request on `conn` and wait for its reply.
pub fn request(conn: &mut Conn, payload: &str, clock: &Clock) -> io::Result<String> {
    let now = clock.now();
    conn.queue(Verb::Other, payload, now, now);
    conn.flush()?;
    let mut replies = Vec::new();
    while replies.is_empty() {
        if pump(std::slice::from_mut(conn), REPLY_TIMEOUT, &mut replies)? == 0 {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timeout"));
        }
    }
    Ok(replies.swap_remove(0).2)
}

/// One rate rung of the open-loop ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered `request-work` rate, per second.
    pub rate: f64,
    /// Rung length.
    pub dur_ns: u64,
}

/// The seeded arrival schedule: Poisson `request-work` arrivals, rung
/// after rung, as nanosecond offsets from the ladder's start.
pub fn arrivals(rungs: &[Rung], seed: u64) -> Vec<u64> {
    let mut rng = DeterministicRng::new(seed);
    let mut out = Vec::new();
    let mut rung_start = 0u64;
    for r in rungs {
        let end = rung_start + r.dur_ns;
        let mut t = rung_start as f64;
        loop {
            // Exponential gap; 1 − u keeps the log finite.
            t += -(1.0 - rng.uniform()).ln() / r.rate * 1e9;
            if t >= end as f64 {
                break;
            }
            out.push(t as u64);
        }
        rung_start = end;
    }
    out
}

/// What one rung measured; requests belong to the rung they were due in.
#[derive(Debug, Default)]
pub struct RungResult {
    pub rate: f64,
    pub dur_ns: u64,
    /// Requests (both verbs) due in the rung.
    pub due: u64,
    pub failed: u64,
    /// `work` replies to `request-work`s due in the rung.
    pub assignments: u64,
    pub idles: u64,
    /// reply − due, both verbs.
    pub lat: Vec<u64>,
    /// sent − due, both verbs.
    pub late: Vec<u64>,
    /// Requests outstanding at the rung's midpoint and at its end.
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

impl RungResult {
    /// Assignments per second over the rung.
    pub fn achieved(&self) -> f64 {
        self.assignments as f64 / (self.dur_ns as f64 / 1e9)
    }

    /// The rung holds its rate: p99 latency within `limit_ns`, nothing
    /// failed, and the backlog did not grow through the second half of the
    /// rung by more than the arrivals of one latency limit.
    pub fn ok(&self, limit_ns: u64) -> bool {
        let slack = (self.rate * limit_ns as f64 / 1e9) as u64 + 16;
        self.failed == 0
            && self.lat.len() as u64 == self.due
            && p99_windowed(&self.lat) <= limit_ns
            && self.backlog_end <= self.backlog_mid + slack
    }
}

/// The whole ladder: every rung, plus how long the generator ran and how
/// much of that it spent spinning with nothing to send or read.
#[derive(Debug)]
pub struct Ladder {
    pub rungs: Vec<RungResult>,
    pub wall_ns: u64,
    pub idle_ns: u64,
}

/// Run the open-loop ladder: `request-work` frames go out when due,
/// alternating over the connections; each `work` reply schedules its
/// `return-result` `think_ns` later on the same connection.  Returns once
/// every request due in the ladder has been answered.
pub fn paced_ladder(
    conns: &mut [Conn],
    clock: &Clock,
    rungs: &[Rung],
    seed: u64,
    think_ns: u64,
) -> io::Result<Ladder> {
    let mut res: Vec<RungResult> = rungs
        .iter()
        .map(|r| RungResult {
            rate: r.rate,
            dur_ns: r.dur_ns,
            ..RungResult::default()
        })
        .collect();
    // Start a millisecond out so the first arrivals are not already late.
    let t0 = clock.now() + 1_000_000;
    let due_at: Vec<u64> = arrivals(rungs, seed).into_iter().map(|a| t0 + a).collect();
    let mut bounds = Vec::with_capacity(rungs.len());
    let mut edge = t0;
    for r in rungs {
        bounds.push(edge + r.dur_ns);
        edge += r.dur_ns;
    }
    let rung_of = |due: u64| {
        bounds
            .iter()
            .position(|&b| due < b)
            .unwrap_or(rungs.len() - 1)
    };
    // Backlog checkpoints: (time, rung, is_end).
    let mut checks: VecDeque<(u64, usize, bool)> = VecDeque::new();
    let mut edge = t0;
    for (i, r) in rungs.iter().enumerate() {
        checks.push_back((edge + r.dur_ns / 2, i, false));
        checks.push_back((edge + r.dur_ns, i, true));
        edge += r.dur_ns;
    }

    let mut next = 0;
    let mut rr = 0;
    let mut returns: VecDeque<(u64, usize, u64, u32)> = VecDeque::new();
    let mut replies = Vec::new();
    let mut line = String::new();
    let mut last_progress = clock.now();
    let mut idle_ns = 0;
    loop {
        let now = clock.now();
        let queued = (next, returns.len());
        while next < due_at.len() && due_at[next] <= now {
            let due = due_at[next];
            let k = rung_of(due);
            res[k].due += 1;
            res[k].late.push(now - due);
            conns[rr].queue(Verb::Work, "request-work", due, now);
            rr = (rr + 1) % conns.len();
            next += 1;
        }
        while let Some(&(due, i, task, copy)) = returns.front() {
            if due > now {
                break;
            }
            returns.pop_front();
            let k = rung_of(due);
            res[k].due += 1;
            res[k].late.push(now - due);
            line.clear();
            use std::fmt::Write as _;
            let _ = write!(line, "return-result {task} {copy}");
            conns[i].queue(Verb::Return, &line, due, now);
        }
        let busy = queued != (next, returns.len());
        for c in conns.iter_mut() {
            c.flush()?;
        }
        while let Some(&(t, k, end)) = checks.front() {
            if t > now {
                break;
            }
            checks.pop_front();
            let backlog = conns.iter().map(|c| c.waiting.len() as u64).sum();
            if end {
                res[k].backlog_end = backlog;
            } else {
                res[k].backlog_mid = backlog;
            }
        }
        let outstanding: usize = conns.iter().map(|c| c.waiting.len()).sum();
        if next == due_at.len() && returns.is_empty() && outstanding == 0 && checks.is_empty() {
            break;
        }
        // Spin rather than sleep: a sleeping generator wakes up to
        // milliseconds late on a virtualized CPU, and that lateness would
        // read as server latency.
        pump(conns, Duration::ZERO, &mut replies)?;
        let after = clock.now();
        if replies.is_empty() {
            if !busy {
                idle_ns += after - now;
            }
            if outstanding > 0 && after - last_progress > REPLY_TIMEOUT.as_nanos() as u64 {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timeout"));
            }
            continue;
        }
        let now = after;
        last_progress = now;
        for (i, sent, text) in replies.drain(..) {
            let k = rung_of(sent.due);
            let r = &mut res[k];
            r.lat.push(now - sent.due);
            match (sent.verb, parse_work(&text)) {
                (Verb::Work, Some((task, copy))) => {
                    r.assignments += 1;
                    returns.push_back((now + think_ns, i, task, copy));
                }
                (Verb::Work, None) if text == "idle" => r.idles += 1,
                (Verb::Return, None) if text == "ok" || text == "ok complete" => {}
                // `drained` mid-ladder means the plan was too small: a
                // failure, like any `err` frame.
                _ => r.failed += 1,
            }
        }
    }
    Ok(Ladder {
        rungs: res,
        wall_ns: clock.now() - t0,
        idle_ns,
    })
}

/// Connect `n` protocol connections to `addr`, waiting up to
/// [`REPLY_TIMEOUT`] for the server to start listening.
pub fn connect_all(addr: SocketAddr, n: usize) -> io::Result<Vec<Conn>> {
    let start = Instant::now();
    loop {
        match Conn::connect(addr) {
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionRefused
                    && start.elapsed() < REPLY_TIMEOUT =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            first => {
                let mut conns = vec![first?];
                for _ in 1..n {
                    conns.push(Conn::connect(addr)?);
                }
                return Ok(conns);
            }
        }
    }
}

/// Ask for the final `stats` dump on the first connection, then send
/// `shutdown` and wait for `bye`.
pub fn stats_and_shutdown(conns: &mut [Conn], clock: &Clock) -> io::Result<String> {
    let stats = request(&mut conns[0], "stats", clock)?;
    let bye = request(&mut conns[0], "shutdown", clock)?;
    if bye != "bye" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shutdown answered {bye:?}"),
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection echo server that answers `request-work` with a
    /// fixed `work` frame and everything else with `ok`, stalling once for
    /// `stall` before answering the request numbered `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).expect("nodelay");
            let mut n = 0;
            loop {
                let mut prefix = [0u8; 4];
                if s.read_exact(&mut prefix).is_err() {
                    return;
                }
                let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
                s.read_exact(&mut body).expect("body");
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                let reply: &[u8] = if body == b"request-work" {
                    b"work 7 0 1"
                } else {
                    b"ok"
                };
                s.write_all(&(reply.len() as u32).to_be_bytes()).expect("w");
                s.write_all(reply).expect("w");
            }
        });
        (addr, h)
    }

    #[test]
    fn arrivals_are_seeded_and_match_the_offered_rate() {
        let rungs = [Rung {
            rate: 5_000.0,
            dur_ns: 2_000_000_000,
        }];
        let a = arrivals(&rungs, 9);
        assert_eq!(a, arrivals(&rungs, 9));
        assert_ne!(a, arrivals(&rungs, 10));
        // 10k expected; Poisson sd = 100.
        assert!((a.len() as i64 - 10_000).abs() < 500, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut v = vec![10u64; WINDOW * 5];
        for x in &mut v[WINDOW..WINDOW + 200] {
            *x = 1_000_000;
        }
        assert_eq!(p99_windowed(&v), 10);
        assert_eq!(percentile(&mut v.clone(), 0.99), 1_000_000);
        assert_eq!(p99_windowed(&v[..10]), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    /// No coordinated omission: a one-off 50 ms server stall must show up
    /// in the latency of the requests that fell due behind it, not only
    /// in the one request the server was holding.
    #[test]
    fn a_server_stall_charges_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(50);
        let (addr, h) = stub_server(200, stall);
        let clock = Clock::new();
        let mut conns = connect_all(addr, 1).expect("connect");
        let rungs = [Rung {
            rate: 2_000.0,
            dur_ns: 400_000_000,
        }];
        let mut res = paced_ladder(&mut conns, &clock, &rungs, 1, 200_000).expect("ladder");
        drop(conns);
        h.join().expect("stub server");
        let r = &mut res.rungs[0];
        assert_eq!(r.failed, 0);
        assert_eq!(r.lat.len() as u64, r.due);
        // At 2k/s plus returns, ~200 requests fall due during the stall;
        // each waits for (part of) it.  A coordinated-omission generator
        // would show one slow request, not dozens.
        let slow = r.lat.iter().filter(|&&l| l > 10_000_000).count();
        assert!(slow >= 40, "only {slow} requests saw the stall");
        assert!(percentile(&mut r.lat, 0.99) >= 20_000_000);
    }
}
