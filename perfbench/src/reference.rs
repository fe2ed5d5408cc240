//! Yardsticks of the host's speed, measured next to every round.
//!
//! The machine this benchmark runs on is a slice of a shared host, and the
//! host's load moves every timing by up to twofold between runs, the
//! simulator's CPU time too.  So each round also times a fixed piece of
//! work that shares the round's machinery but none of the program's code:
//!
//! * [`echo_server`] answers the supervisor's verbs with canned frames
//!   over the same loopback TCP path, so the load generator drives it
//!   exactly as it drives a daemon;
//! * [`cpu_kernel`] draws random numbers and tallies them in large
//!   tables, on as many threads as the campaign runs.
//!
//! This code uses nothing from the repository's crates: a change to the
//! program never moves the yardstick.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys::{self, PollFd, POLLIN};

/// One accepted connection: its socket and the bytes of a partial frame.
struct Peer {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

/// Serve `tasks` canned `work` replies, then `drained`, on a loopback
/// listener, announced on stderr the way `redundancy serve`
/// announces its port.  Every frame is answered at once, in order, with
/// one write; `shutdown` is answered with `bye` and ends the server.
pub fn echo_server(tasks: u64) -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    eprintln!("[serving on {}]", listener.local_addr()?);
    let mut peers: Vec<Peer> = Vec::new();
    let mut issued = 0u64;
    let mut out = Vec::with_capacity(64);
    let mut chunk = [0u8; 1 << 14];
    loop {
        let mut fds: Vec<PollFd> = std::iter::once(listener.as_raw_fd())
            .chain(peers.iter().map(|p| p.stream.as_raw_fd()))
            .map(|fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        sys::poll(&mut fds, Duration::from_secs(3600))?;
        if fds[0].revents != 0 {
            while let Ok((stream, _)) = listener.accept() {
                // Blocking: replies are a few bytes to a client that reads
                // them all, so a write never waits for buffer space.
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                peers.push(Peer {
                    stream,
                    inbuf: Vec::new(),
                });
            }
        }
        let mut closed = Vec::new();
        for (i, fd) in fds[1..].iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            // Poll said readable, so one read returns without blocking.
            let p = &mut peers[i];
            match p.stream.read(&mut chunk) {
                Ok(0) => closed.push(i),
                Ok(n) => p.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            let mut at = 0;
            while let Some(prefix) = p.inbuf.get(at..at + 4) {
                let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
                let Some(body) = p.inbuf.get(at + 4..at + 4 + len) else {
                    break;
                };
                let verb = body.split(|&b| b == b' ').next().unwrap_or_default();
                let reply = match verb {
                    b"request-work" if issued < tasks => {
                        issued += 1;
                        format!("work {issued} 0 1")
                    }
                    b"request-work" => "drained".to_string(),
                    b"shutdown" => "bye".to_string(),
                    b"stats" => format!("issued {issued}"),
                    _ => "ok".to_string(),
                };
                out.clear();
                out.extend_from_slice(&(reply.len() as u32).to_be_bytes());
                out.extend_from_slice(reply.as_bytes());
                p.stream.write_all(&out)?;
                at += 4 + len;
                if verb == b"shutdown" {
                    return Ok(());
                }
            }
            p.inbuf.drain(..at);
        }
        for i in closed.into_iter().rev() {
            peers.swap_remove(i);
        }
    }
}

/// Words in each thread's table: 64 MiB, well past the per-core caches,
/// so the kernel waits on the shared cache and memory as the simulator
/// does.  Of 2, 16 and 64 MiB tables, this one tracked the simulator's
/// speed best across a drifting host (README, "Host-speed yardsticks").
const TABLE_WORDS: usize = 1 << 24;

/// `ops` random table updates split evenly over `threads` threads, each
/// with its own table and seed; returns (wall ns, a checksum of the
/// tallies, so the work cannot be optimised away).
pub fn cpu_kernel(threads: usize, ops: u64) -> (u64, u64) {
    let start = Instant::now();
    let per = ops / threads as u64;
    let sums: Vec<u64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || tally(per, 0x9E37_79B9_7F4A_7C15 ^ t as u64)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("kernel thread"))
            .collect()
    });
    let wall = start.elapsed().as_nanos() as u64;
    (wall, sums.into_iter().fold(0, u64::wrapping_add))
}

/// One thread of [`cpu_kernel`]: xorshift draws, each picking a table slot
/// and a Bernoulli outcome, as a campaign picks a task and a verdict.
fn tally(ops: u64, seed: u64) -> u64 {
    let mut table = vec![0u32; TABLE_WORDS];
    let mut x = seed | 1;
    let mut hits = 0u64;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x >> 32) as usize & (TABLE_WORDS - 1);
        let hit = (x & 0xffff) < 0x8000;
        table[slot] = table[slot].wrapping_add(1 + hit as u32);
        hits += hit as u64;
    }
    table.iter().fold(hits, |acc, &v| {
        acc.wrapping_mul(31).wrapping_add(u64::from(v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_kernel_is_deterministic() {
        assert_eq!(cpu_kernel(2, 100_000).1, cpu_kernel(2, 100_000).1);
    }
}
