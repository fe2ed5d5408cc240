//! `perfbench`: the compiled half of the repository benchmark.
//!
//! `run.py` builds this binary next to the release `redundancy` binary and
//! calls it in one of four modes:
//!
//! * `closed --port P` — drain a running `redundancy serve` daemon
//!   closed-loop over two connections, then ask for `stats`;
//! * `paced --port P --seed S --rates R1,R2,.. --rung-ms D1,D2,.. --think-us T`
//!   — the open-loop rate ladder, then the same closed-loop drain;
//! * `trace-serve ...` / `trace-campaign ...` — the traced in-process
//!   replays (see `trace.rs`);
//! * `exec --out PATH -- CMD ...` — run one command and report its wall
//!   time, exit code, CPU time and peak memory;
//! * `echo --tasks N` / `ref-cpu --threads T --ops N` — the host-speed
//!   yardsticks of `reference.rs`;
//! * `idle-poll --cpus 0,1` — keep each CPU busy at the lowest priority
//!   until stdin closes, so no CPU halts while the benchmark measures.
//!
//! Each mode but `echo` and `idle-poll` prints one JSON object on stdout.

mod load;
mod reference;
mod sys;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::ExitCode;

use load::{p99_windowed, percentile, Clock, Closed, Rung};
use redundancy_sim::serve::StreamMode;

/// `--key value` pairs after the mode word.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = rest.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.0.get(key).ok_or_else(|| format!("missing --{key}"))?;
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    }

    fn opt(&self, key: &str) -> Option<String> {
        self.0.get(key).cloned()
    }
}

/// A JSON object built field by field.
pub(crate) struct Obj(String);

impl Obj {
    fn new() -> Obj {
        Obj(String::new())
    }

    fn raw(mut self, k: &str, v: impl std::fmt::Display) -> Obj {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{k}\": {v}");
        self
    }

    /// A number; non-finite values (a ratio over nothing) print as 0.
    fn num(self, k: &str, v: f64) -> Obj {
        self.raw(k, if v.is_finite() { v } else { 0.0 })
    }

    fn str(self, k: &str, v: &str) -> Obj {
        let esc = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        self.raw(k, format!("\"{esc}\""))
    }

    fn done(self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn closed_json(c: &mut Closed) -> String {
    let samples = c.rtt.len();
    let (rtt99, lat99) = (p99_windowed(&c.rtt), p99_windowed(&c.lat));
    Obj::new()
        .raw("requests", c.requests)
        .raw("failed", c.failed)
        .raw("assignments", c.assignments)
        .raw("idles", c.idles)
        .raw("wall_ns", c.wall_ns)
        .raw("samples", samples)
        .raw("rtt_p50_ns", percentile(&mut c.rtt, 0.50))
        .raw("rtt_p99_ns", rtt99)
        .raw("lat_p50_ns", percentile(&mut c.lat, 0.50))
        .raw("lat_p99_ns", lat99)
        .done()
}

fn parse_rungs(a: &Args) -> Result<Vec<Rung>, String> {
    let list = |key: &str| -> Result<Vec<f64>, String> {
        a.get::<String>(key)?
            .split(',')
            .map(|x| x.parse().map_err(|_| format!("--{key}: bad number {x:?}")))
            .collect()
    };
    let (rates, ms) = (list("rates")?, list("rung-ms")?);
    if rates.len() != ms.len() {
        return Err("--rates and --rung-ms need one entry per rung".into());
    }
    Ok(rates
        .into_iter()
        .zip(ms)
        .map(|(rate, ms)| Rung {
            rate,
            dur_ns: (ms * 1e6) as u64,
        })
        .collect())
}

/// Drive a daemon on `--port`: the ladder first when `paced`, then the
/// closed-loop drain and `stats`.
fn drive(a: &Args, paced: bool) -> Result<String, String> {
    sys::tight_timer_slack();
    let clock = Clock::new();
    let addr = SocketAddr::from(([127, 0, 0, 1], a.get::<u16>("port")?));
    let io = |e: std::io::Error| e.to_string();
    let mut conns = load::connect_all(addr, 2).map_err(io)?;
    let mut out = Obj::new();
    if paced {
        let rungs = parse_rungs(a)?;
        let limit_ns = a.get::<u64>("limit-us")? * 1_000;
        let think_ns = a.get::<u64>("think-us")? * 1_000;
        let ladder =
            load::paced_ladder(&mut conns, &clock, &rungs, a.get("seed")?, think_ns).map_err(io)?;
        let mut late_all = Vec::new();
        let mut rows = Vec::new();
        for mut r in ladder.rungs {
            late_all.extend_from_slice(&r.late);
            let ok = r.ok(limit_ns);
            let lat99 = p99_windowed(&r.lat);
            rows.push(
                Obj::new()
                    .raw("rate", r.rate)
                    .raw("achieved", r.achieved())
                    .raw("due", r.due)
                    .raw("answered", r.lat.len())
                    .raw("failed", r.failed)
                    .raw("assignments", r.assignments)
                    .raw("idles", r.idles)
                    .raw("lat_p50_ns", percentile(&mut r.lat, 0.50))
                    .raw("lat_p99_ns", lat99)
                    .raw("lat_p99_pooled_ns", percentile(&mut r.lat, 0.99))
                    .raw("late_p99_ns", percentile(&mut r.late, 0.99))
                    .raw("backlog_mid", r.backlog_mid)
                    .raw("backlog_end", r.backlog_end)
                    .raw("ok", ok)
                    .done(),
            );
        }
        out = out
            .raw("rungs", format!("[{}]", rows.join(", ")))
            .raw("late_p99_ns", percentile(&mut late_all, 0.99))
            .raw("ladder_wall_ns", ladder.wall_ns)
            .raw("ladder_idle_ns", ladder.idle_ns);
    }
    let mut drain = load::closed_loop(&mut conns, &clock).map_err(io)?;
    // run.py reads the daemon's peak memory before it shuts it down.
    let stats = load::request(&mut conns[0], "stats", &clock).map_err(io)?;
    Ok(out
        .raw("drain", closed_json(&mut drain))
        .raw("cpu_ns", sys::process_cpu_ns())
        .raw("life_ns", clock.now())
        .str("stats", &stats)
        .done())
}

/// Run `cmd` with its stdout in `out_path`; report its wall time, exit
/// code, CPU time and peak memory.
fn exec(out_path: &str, cmd: &[String]) -> Result<String, String> {
    let (prog, args) = cmd.split_first().ok_or("exec needs a command after --")?;
    let out = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let start = std::time::Instant::now();
    let child = std::process::Command::new(prog)
        .args(args)
        .stdout(out)
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("{prog}: {e}"))?;
    let r = sys::reap(child.id()).map_err(|e| e.to_string())?;
    Ok(Obj::new()
        .raw("wall_ns", start.elapsed().as_nanos())
        .raw("code", r.code)
        .raw("cpu_ns", r.cpu_ns)
        .raw("maxrss_kib", r.maxrss_kib)
        .done())
}

/// One `SCHED_IDLE` spinning thread pinned to each of `--cpus` until
/// stdin reaches end of file (the benchmark closes it, or exits).
///
/// A virtual CPU with nothing to run halts, and waking it again goes
/// through the hypervisor, whose latency follows the load of the whole
/// host.  A closed loop pays that twice per round trip.  The spinners
/// keep both CPUs running, like booting with `idle=poll`: a task that
/// wakes preempts the spinner at once, and the spinner takes CPU time
/// from nobody.
fn idle_poll(a: &Args) -> Result<String, String> {
    let cpus: Vec<usize> = a
        .get::<String>("cpus")?
        .split(',')
        .map(|c| c.parse().map_err(|_| format!("--cpus: bad CPU {c:?}")))
        .collect::<Result<_, _>>()?;
    for cpu in cpus {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ready =
                sys::pin_current_thread(cpu).and_then(|()| sys::sched_idle_current_thread());
            let failed = ready.is_err();
            let _ = tx.send(ready);
            if failed {
                return;
            }
            loop {
                std::hint::spin_loop();
            }
        });
        rx.recv()
            .map_err(|e| e.to_string())?
            .map_err(|e| format!("CPU {cpu}: {e}"))?;
    }
    // The benchmark reads this line to know every CPU is covered.
    println!("polling");
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    Ok(String::new())
}

fn trace_serve(a: &Args) -> Result<String, String> {
    let ladder = match a.opt("rates") {
        Some(_) => Some((
            parse_rungs(a)?,
            a.get("seed")?,
            a.get::<u64>("think-us")? * 1_000,
        )),
        None => None,
    };
    let streams: StreamMode = a.get::<String>("streams")?.parse()?;
    trace::trace_serve(&trace::ServeParams {
        tasks: a.get("tasks")?,
        epsilon: a.get("epsilon")?,
        proportion: a.get("proportion")?,
        seed: a.get("seed")?,
        timeout: a.get("timeout")?,
        streams,
        shards: a.get("shards")?,
        journal: match a.opt("journal") {
            Some(path) => Some((path, a.get::<String>("sync")?.parse()?)),
            None => None,
        },
        ladder,
        spans: a.get("spans")?,
    })
}

fn trace_campaign(a: &Args) -> Result<String, String> {
    trace::trace_campaign(
        a.get("tasks")?,
        a.get("epsilon")?,
        a.get("proportion")?,
        a.get("campaigns")?,
        a.get("seed")?,
        a.get("threads")?,
        &a.get::<String>("spans")?,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench closed|paced|trace-serve|trace-campaign|exec|echo|ref-cpu|idle-poll ...");
        return ExitCode::from(2);
    };
    if mode == "exec" {
        // perfbench exec --out PATH -- CMD ARGS...
        let result = match rest {
            [flag, path, sep, cmd @ ..] if flag == "--out" && sep == "--" => exec(path, cmd),
            _ => Err("usage: perfbench exec --out PATH -- CMD ARGS...".into()),
        };
        return finish(mode, result);
    }
    let result = Args::parse(rest).and_then(|a| match mode.as_str() {
        "closed" => drive(&a, false),
        "paced" => drive(&a, true),
        "trace-serve" => trace_serve(&a),
        "trace-campaign" => trace_campaign(&a),
        "idle-poll" => idle_poll(&a),
        "echo" => reference::echo_server(a.get("tasks")?)
            .map(|()| String::new())
            .map_err(|e| e.to_string()),
        "ref-cpu" => {
            let (wall_ns, checksum) = reference::cpu_kernel(a.get("threads")?, a.get("ops")?);
            Ok(Obj::new()
                .raw("wall_ns", wall_ns)
                .raw("cpu_ns", sys::process_cpu_ns())
                .raw("checksum", checksum)
                .done())
        }
        other => Err(format!("unknown mode {other:?}")),
    });
    finish(mode, result)
}

fn finish(mode: &str, result: Result<String, String>) -> ExitCode {
    match result {
        Ok(json) => {
            if !json.is_empty() {
                println!("{json}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {mode}: {e}");
            ExitCode::FAILURE
        }
    }
}
