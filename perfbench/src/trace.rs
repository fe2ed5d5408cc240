//! The traced run: each workload replayed in process, with spans recorded
//! from this file around the calls into each layer's public functions.
//!
//! * `plan` — `RealizedPlan::balanced` + `expand_plan`.
//! * `store.build` — `StoreEnum::new`.
//! * `protocol` — the handler closure around `handle_request` that the
//!   epoll loop (`serve_readiness_loop`) calls once per request frame.
//! * `journal.*` — a [`Timed`] decorator over `JournaledStore`; its child
//!   `store.*` spans come from a second [`Timed`] over the store itself,
//!   so journal self time is the journal span minus the store span.
//! * `engine` — each `run_campaign_with_scratch` call inside `run_trials`.
//!
//! Spans stay in memory and are written out once, after the run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use redundancy_core::RealizedPlan;
use redundancy_sim::engine::{run_campaign_with_scratch, CampaignAccumulator, CampaignConfig};
use redundancy_sim::serve::{
    handle_request, serve_readiness_loop, workload_fingerprint, Issue, JournalWriter,
    JournaledStore, LoopOptions, Record, ReturnAck, ServeConfig, ServeError, ServeStats,
    SessionHeader, StoreEnum, StreamMode, SyncPolicy, WorkStore,
};
use redundancy_sim::task::{expand_plan, TaskId, TaskSpec};
use redundancy_sim::{AdversaryModel, CampaignOutcome, CheatStrategy, FaultModel};
use redundancy_stats::{run_trials, DeterministicRng, SamplerMode, TrialConfig};

use crate::load::{self, Clock, Rung};
use crate::{sys, Obj};

/// One timed call: name, interval on the tracer's clock, the span that
/// caused it, the request it served, and the worker thread it ran on.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub worker: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

/// In-memory span recorder.  Nesting (`open`/`close`) is tracked on one
/// stack, which the serve replay uses from its single io thread; the
/// campaign workers record flat spans with [`Tracer::record`].
pub struct Tracer {
    pub clock: Clock,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Tracer {
        Tracer {
            clock,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer poisoned")
    }

    /// Start a new request: later spans carry its id.
    pub fn next_request(&self) {
        self.lock().req += 1;
    }

    pub fn open(&self, name: &'static str) -> usize {
        let start = self.clock.now();
        let mut g = self.lock();
        let id = g.spans.len();
        let span = Span {
            name,
            start,
            end: start,
            parent: g.open.last().copied(),
            req: g.req,
            worker: 0,
        };
        g.spans.push(span);
        g.open.push(id);
        id
    }

    pub fn close(&self, id: usize) {
        let end = self.clock.now();
        let mut g = self.lock();
        debug_assert_eq!(g.open.last(), Some(&id), "spans close innermost first");
        g.open.pop();
        g.spans[id].end = end;
    }

    /// Record a finished top-level span.
    pub fn record(&self, name: &'static str, start: u64, end: u64, worker: u32) {
        let mut g = self.lock();
        let req = g.req;
        g.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            req,
            worker,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().expect("tracer poisoned").spans
    }
}

/// Each span's self time: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Write the spans as tab-separated lines, once, at the end of the run.
pub fn write_spans(path: &str, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tworker")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start, s.end, s.req, s.worker
        )?;
    }
    w.flush()
}

/// A [`WorkStore`] decorator that records a span around every issue and
/// return of the store it wraps.
pub struct Timed<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    issue: &'static str,
    ret: &'static str,
}

impl<'t, S: WorkStore> Timed<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer, issue: &'static str, ret: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            issue,
            ret,
        }
    }
}

impl<S: WorkStore> WorkStore for Timed<'_, S> {
    fn request_work(&mut self) -> Issue {
        let id = self.tracer.open(self.issue);
        let issue = self.inner.request_work();
        self.tracer.close(id);
        issue
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        let id = self.tracer.open(self.ret);
        let r = self.inner.return_result(task, copy);
        self.tracer.close(id);
        r
    }

    fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        self.inner.merged_outcome()
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        self.inner.final_rngs()
    }

    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }

    fn expiry_counters(&self) -> (u64, u64) {
        self.inner.expiry_counters()
    }

    fn reset_in_flight(&mut self) -> u64 {
        self.inner.reset_in_flight()
    }

    fn note_shutdown(&mut self) {
        self.inner.note_shutdown();
    }
}

/// The knobs a serve replay shares with the `redundancy serve` daemon.
pub struct ServeParams {
    pub tasks: u64,
    pub epsilon: f64,
    pub proportion: f64,
    pub seed: u64,
    pub timeout: u64,
    pub streams: StreamMode,
    pub shards: usize,
    /// Journal path and fsync policy, when journaling.
    pub journal: Option<(String, SyncPolicy)>,
    /// `None`: closed-loop drain only.  `Some`: the open-loop ladder
    /// (rungs, schedule seed, think time) before the drain.
    pub ladder: Option<(Vec<Rung>, u64, u64)>,
    pub spans: String,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run time and run-queue wait of thread `tid`, from its schedstat.
fn schedstat(tid: &str) -> (u64, u64) {
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .expect("reading the server thread's schedstat");
    let mut f = s
        .split_whitespace()
        .map(|x| x.parse::<u64>().expect("schedstat field"));
    (f.next().unwrap_or(0), f.next().unwrap_or(0))
}

/// The calling thread's kernel id.
fn own_tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    link.file_name()
        .expect("tid component")
        .to_string_lossy()
        .into_owned()
}

/// Replay a serve workload in process and print its per-layer JSON.
pub fn trace_serve(p: &ServeParams) -> Result<String, String> {
    let tracer = Tracer::new(Clock::new());
    let t = &tracer;

    let id = t.open("plan");
    let plan = RealizedPlan::balanced(p.tasks, p.epsilon).map_err(|e| e.to_string())?;
    let specs: Vec<TaskSpec> = expand_plan(&plan);
    t.close(id);

    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: p.proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    let serve = ServeConfig {
        faults: FaultModel {
            timeout: p.timeout,
            max_retries: 3,
            ..FaultModel::none()
        },
        ..ServeConfig::new(p.shards)
    };
    let writer = match &p.journal {
        Some((path, sync)) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = JournalWriter::new(file, *sync);
            w.append(&Record::Header(SessionHeader {
                seed: p.seed,
                shards: p.shards as u32,
                mode: p.streams,
                timeout: p.timeout,
                max_retries: 3,
                fingerprint: workload_fingerprint(&specs, &campaign),
                total_tasks: specs.len() as u64,
            }))
            .map_err(|e| e.to_string())?;
            Some(w)
        }
        None => None,
    };
    let id = t.open("store.build");
    let store = StoreEnum::new(&specs, &campaign, &serve, p.seed, p.streams)?;
    t.close(id);
    // The same backend shape as the daemon: one lock around a
    // JournaledStore (with or without a writer) over the store.
    let backend = Mutex::new(Timed::new(
        JournaledStore::new(Timed::new(store, t, "store.issue", "store.return"), writer),
        t,
        "journal.issue",
        "journal.return",
    ));

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let (server, client) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let _ = sys::pin_current_thread(0);
            tid_tx.send(own_tid()).expect("send tid");
            let loop_span = t.open("epoll");
            let r = serve_readiness_loop(listener, LoopOptions::default(), |req, reply| {
                t.next_request();
                let id = t.open("protocol");
                let mut store = backend.lock().expect("backend poisoned");
                let shutdown = handle_request(&mut *store, req, reply);
                drop(store);
                t.close(id);
                shutdown
            });
            t.close(loop_span);
            r
        });
        let client = scope.spawn(move || {
            let r = drive_traced(p, addr, t, &tid_rx);
            if r.is_err() {
                // Stop the server thread too, or the scope never ends.
                let _ = load::connect_all(addr, 1)
                    .and_then(|mut c| load::request(&mut c[0], "shutdown", &t.clock));
            }
            r
        });
        (
            server.join().expect("server thread panicked"),
            client.join().expect("client thread panicked"),
        )
    });
    server.map_err(|e| format!("serve loop: {e}"))?;
    let client = client.map_err(|e| format!("traced client: {e}"))?;
    let backend = backend.into_inner().map_err(|_| "backend poisoned")?;
    let stats = backend.stats();
    let (_, writer) = backend.inner.finish().map_err(|e| e.to_string())?;
    let (records, bytes, syncs) =
        writer.map_or((0, 0, 0), |w| (w.records(), w.bytes(), w.synced()));

    let spans = tracer.into_spans();
    write_spans(&p.spans, &spans).map_err(|e| e.to_string())?;
    let selfs = self_times(&spans);
    let dur = |s: &Span| s.end - s.start;
    let mut sum: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = sum.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur(s);
        e.2 += own;
    }
    let get = |n: &str| sum.get(n).copied().unwrap_or_default();
    let frames = get("protocol").0;
    let issued = stats.issued;
    let (si, sr) = (get("store.issue"), get("store.return"));
    let (ji, jr) = (get("journal.issue"), get("journal.return"));

    // The measured window (the drain, or the ladder): server on-CPU and
    // off-CPU time against the handler spans inside it.
    let (w0, w1) = client.window;
    let in_window = |s: &Span| s.start >= w0 && s.end <= w1;
    let mut proto_self = 0;
    let mut journal_self = 0;
    let mut store_time = 0;
    let mut window_frames = 0u64;
    for (s, &own) in spans.iter().zip(&selfs) {
        if !in_window(s) {
            continue;
        }
        match s.name {
            "protocol" => {
                proto_self += own;
                window_frames += 1;
            }
            "journal.issue" | "journal.return" => journal_self += own,
            "store.issue" | "store.return" => store_time += dur(s),
            _ => {}
        }
    }
    let wall = w1 - w0;
    let (cpu, runq) = client.server_cpu;
    let idle = wall.saturating_sub(cpu);
    // What no span inside the program covers yet: the io loop's own
    // on-CPU time (epoll_wait, socket reads and writes, frame parsing).
    let unattributed = wall as i64 - (proto_self + journal_self + store_time + idle) as i64;

    let metrics = Obj::new()
        .num("plan.build_ms", ms(get("plan").1))
        .num("store.build_ms", ms(get("store.build").1))
        .num("store.issue_us", us(si.1) / si.0.max(1) as f64)
        .num("store.return_us", us(sr.1) / sr.0.max(1) as f64)
        .num(
            "store.idle_ratio",
            ratio(client.idles as f64, client.work_requests as f64),
        )
        .num(
            "protocol.self_us_per_req",
            us(get("protocol").2) / frames.max(1) as f64,
        )
        .num(
            "protocol.frames_per_assign",
            ratio(frames as f64, issued as f64),
        )
        .num(
            "journal.self_us_per_record",
            ratio(us(ji.2 + jr.2), records as f64),
        )
        .num(
            "journal.records_per_assign",
            ratio(records as f64, issued as f64),
        )
        .num(
            "journal.bytes_per_assign",
            ratio(bytes as f64, issued as f64),
        )
        .num("journal.syncs", syncs as f64)
        .num(
            "epoll.self_us_per_req",
            ratio(us(unattributed.max(0) as u64), window_frames as f64),
        )
        .num("epoll.busy_share", ratio(cpu as f64, wall as f64))
        .num("headline_assign_per_s", client.assign_per_s);
    let breakdown = Obj::new()
        .str("window", client.window_name)
        .num("wall_us", us(wall))
        .num("protocol_self_us", us(proto_self))
        .num("journal_self_us", us(journal_self))
        .num("store_us", us(store_time))
        .num("server_idle_us", us(idle))
        .num("runqueue_wait_us", us(runq))
        .num("unattributed_us", unattributed as f64 / 1e3)
        .raw("frames", window_frames);
    Ok(Obj::new()
        .raw("metrics", metrics.done())
        .raw("breakdown", breakdown.done())
        .str("stats", &client.stats)
        .done())
}

/// What the traced replay's client saw.
struct TracedClient {
    window: (u64, u64),
    window_name: &'static str,
    server_cpu: (u64, u64),
    assign_per_s: f64,
    idles: u64,
    work_requests: u64,
    stats: String,
}

/// Drive the in-process server exactly as the separate load generator
/// drives the daemon, timing the server thread over the measured window.
fn drive_traced(
    p: &ServeParams,
    addr: std::net::SocketAddr,
    t: &Tracer,
    tid_rx: &std::sync::mpsc::Receiver<String>,
) -> io::Result<TracedClient> {
    let _ = sys::pin_current_thread(1);
    sys::tight_timer_slack();
    let tid = tid_rx.recv().expect("server tid");
    let clock = &t.clock;
    let mut conns = load::connect_all(addr, 2)?;
    let mut idles = 0;
    let mut work_requests = 0;
    let mut ladder = None;
    if let Some((rungs, seed, think)) = &p.ladder {
        let (c0, q0) = schedstat(&tid);
        let w0 = clock.now();
        for r in load::paced_ladder(&mut conns, clock, rungs, *seed, *think)?.rungs {
            idles += r.idles;
            work_requests += r.idles + r.assignments;
        }
        let w1 = clock.now();
        let (c1, q1) = schedstat(&tid);
        ladder = Some(((w0, w1), (c1 - c0, q1 - q0)));
    }
    let (c0, q0) = schedstat(&tid);
    let d0 = clock.now();
    let drain = load::closed_loop(&mut conns, clock)?;
    let d1 = clock.now();
    let (c1, q1) = schedstat(&tid);
    let stats = load::stats_and_shutdown(&mut conns, clock)?;
    idles += drain.idles;
    work_requests += drain.idles + drain.assignments;
    let (window, window_name, server_cpu) = match ladder {
        Some((w, c)) => (w, "ladder", c),
        None => ((d0, d1), "drain", (c1 - c0, q1 - q0)),
    };
    Ok(TracedClient {
        window,
        window_name,
        server_cpu,
        assign_per_s: drain.assignments as f64 / (drain.wall_ns as f64 / 1e9),
        idles,
        work_requests,
        stats,
    })
}

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// A small stable id for the calling `run_trials` worker thread.
fn worker_id(next: &AtomicU32) -> u32 {
    WORKER.with(|w| {
        if w.get() == u32::MAX {
            w.set(next.fetch_add(1, Ordering::Relaxed));
        }
        w.get()
    })
}

/// Replay `redundancy simulate` in process (same plan, chunking, seeds
/// and sampler) and print its per-layer JSON plus the detection rows, so
/// the caller can check them against the CLI's table.
pub fn trace_campaign(
    tasks: u64,
    epsilon: f64,
    proportion: f64,
    campaigns: u64,
    seed: u64,
    threads: usize,
    spans_path: &str,
) -> Result<String, String> {
    let tracer = Tracer::new(Clock::new());
    let t = &tracer;
    let t_plan = t.clock.now();
    let plan = RealizedPlan::balanced(tasks, epsilon).map_err(|e| e.to_string())?;
    let specs: Vec<TaskSpec> = expand_plan(&plan);
    let t_plan_end = t.clock.now();
    t.record("plan", t_plan, t_plan_end, 0);

    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    let cfg = TrialConfig {
        trials: campaigns,
        chunk_size: TrialConfig::CAMPAIGN_CHUNK_SIZE,
        threads,
        seed,
        sampler: SamplerMode::default(),
    };
    let next_worker = AtomicU32::new(0);
    let tables: Mutex<BTreeMap<u32, usize>> = Mutex::new(BTreeMap::new());
    let call = t.clock.now();
    let acc: CampaignAccumulator = run_trials(
        &cfg,
        |rng, _i, acc: &mut CampaignAccumulator| {
            let w = worker_id(&next_worker);
            acc.scratch.set_sampler_mode(cfg.sampler);
            let s = t.clock.now();
            run_campaign_with_scratch(&specs, &campaign, rng, &mut acc.outcome, &mut acc.scratch);
            let e = t.clock.now();
            t.record("engine", s, e, w);
            let (bin, hyp) = acc.scratch.cached_parameter_sets();
            tables.lock().expect("tables poisoned").insert(w, bin + hyp);
        },
        |a, b| a.merge(b),
    );
    let ret = t.clock.now();
    t.record("run_trials", call, ret, 0);

    let workers = next_worker.load(Ordering::Relaxed).max(1);
    let spans = tracer.into_spans();
    write_spans(spans_path, &spans).map_err(|e| e.to_string())?;
    let mut kernel = 0;
    let mut first: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_end = call;
    for s in spans.iter().filter(|s| s.name == "engine") {
        kernel += s.end - s.start;
        let f = first.entry(s.worker).or_insert(s.start);
        *f = (*f).min(s.start);
        last_end = last_end.max(s.end);
    }
    let tables = tables.into_inner().expect("tables poisoned");
    let assigns = campaigns * plan.total_assignments();
    let trials_wall = ret - call;
    let spawn = first.values().map(|&f| f - call).sum::<u64>() as f64 / first.len().max(1) as f64;

    let o = &acc.outcome;
    let metrics = Obj::new()
        .num("plan.build_ms", ms(t_plan_end - t_plan))
        .num("engine.ns_per_assign", ratio(kernel as f64, assigns as f64))
        .num(
            "samplers.tables_per_worker",
            ratio(tables.values().sum::<usize>() as f64, tables.len() as f64),
        )
        .num(
            "parallel.idle_share",
            1.0 - ratio(kernel as f64, f64::from(workers) * trials_wall as f64),
        )
        .num("parallel.spawn_us", spawn / 1e3)
        .num("parallel.merge_us", us(ret - last_end))
        .num(
            "headline_assign_per_s",
            ratio(
                assigns as f64,
                (ret - call + t_plan_end - t_plan) as f64 / 1e9,
            ),
        );
    let rows: Vec<String> = (1..o.cheats_attempted.len())
        .filter(|&k| o.cheats_attempted[k] > 0)
        .map(|k| format!("[{k}, {}, {}]", o.cheats_attempted[k], o.cheats_detected[k]))
        .collect();
    Ok(Obj::new()
        .raw("metrics", metrics.done())
        .raw("workers", workers)
        .raw("false_flags", o.false_flags)
        .raw("rows", format!("[{}]", rows.join(", ")))
        .done())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            worker: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (union 40),
        // [90,120) is clipped to 10; grandchild [12,18) belongs to child 1
        // only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a1", 12, 18, Some(1)),
            span("leaf", 200, 210, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 10]);
    }

    #[test]
    fn nested_open_close_records_parents_and_request_ids() {
        let t = Tracer::new(Clock::new());
        t.next_request();
        let outer = t.open("protocol");
        let inner = t.open("store.issue");
        t.close(inner);
        t.close(outer);
        t.next_request();
        let again = t.open("protocol");
        t.close(again);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[0].req, spans[1].req, spans[2].req), (1, 1, 2));
        assert!(spans.iter().all(|s| s.start <= s.end));
    }
}
