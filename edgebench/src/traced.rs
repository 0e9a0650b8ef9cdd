//! The traced run: per-layer numbers, measured from outside each layer.
//!
//! A short live bout (light then busy, no saturation) gives the transport
//! accounting from `/proc/self/task` and the generator's own lag, and
//! records the request stream it sent. That stream is then replayed in
//! process, request by request, through the same public calls the live
//! path makes — `wire` encode → [`FrameAssembler`] → decode →
//! `ServeEngine::advance_to` (one call per due poll instant, so polls are
//! timed on their own) → `ServeEngine::handle` → response decode and
//! re-encode — under a [`SimClock`] advanced to each request's due
//! instant, with a timing [`StorageBackend`] around `DirStorage` on the
//! WAL workload. Spans are kept in memory (name, start, end, parent, and
//! the request they belong to) and written out when the run ends.
//!
//! The replay runs twice on identically built engines, once with spans
//! off and once on; the difference in wall time is the tracing overhead.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use senseaid_core::persist::{DirStorage, PersistConfig, StorageBackend, StorageError};
use senseaid_core::runtime::{Clock as _, SimClock};
use senseaid_serve::engine::ConnId;
use senseaid_serve::trace::trace_server;
use senseaid_serve::wire::{decode_frame, encode_response, WireFrame};
use senseaid_serve::{
    encode_request, EngineOutput, FrameAssembler, ServeEngine, ServeOptions, WirePush, WireRequest,
    WireResponse,
};
use senseaid_sim::{SimDuration, SimTime};

use crate::alloc;
use crate::client::{register, Faults, Recorded};
use crate::lat::Samples;
use crate::live::{self, Ctx, Kind, Plan};
use crate::{check, generator_check, metric, push_lag, set_up, Outcome};

/// Blocks of each fixed-rate phase of the live bout.
const TRACED_BLOCKS: usize = 3;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    parent: u32,
    req: u32,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last (1-based ids; 0 is "no parent").
    stack: Vec<u32>,
    req: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        req: 0,
    });
}

/// Runs `f` inside a span named `name` when tracing is on.
fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len() as u32 + 1;
        let parent = t.stack.last().copied().unwrap_or(0);
        let req = t.req;
        t.stack.push(id);
        t.spans.push(Span {
            name,
            parent,
            req,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        Some((id, t.epoch))
    });
    let Some((id, epoch)) = open else {
        return f();
    };
    let allocs = alloc::allocs();
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let allocs = alloc::allocs() - allocs;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let s = &mut t.spans[id as usize - 1];
        s.start_ns = start.duration_since(epoch).as_nanos() as u64;
        s.end_ns = end.duration_since(epoch).as_nanos() as u64;
        s.allocs = allocs;
        t.stack.pop();
    });
    r
}

fn tracer_reset(on: bool, capacity: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.epoch = Instant::now();
        // Reserved up front so span bookkeeping does not reallocate (and
        // count as an allocation) inside the calls it times.
        t.spans = Vec::with_capacity(if on { capacity } else { 0 });
        t.stack.clear();
        t.req = 0;
    });
}

fn tracer_set_req(req: u32) {
    TRACER.with(|t| t.borrow_mut().req = req);
}

fn tracer_take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        std::mem::take(&mut t.spans)
    })
}

// ---------------------------------------------------------------------
// Timing storage
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct PersistTally {
    counting: bool,
    appends: u64,
    bytes: u64,
    append_ns: Samples,
}

/// `DirStorage` with every append and write timed (and spanned).
#[derive(Debug)]
struct TimedStorage {
    inner: DirStorage,
    tally: Arc<Mutex<PersistTally>>,
}

impl StorageBackend for TimedStorage {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        span("persist.write", || self.inner.write(name, bytes))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        span("persist.append", || {
            let t = Instant::now();
            let r = self.inner.append(name, bytes);
            let ns = t.elapsed().as_nanos() as u64;
            let mut tally = self.tally.lock().expect("tally lock is never poisoned");
            if tally.counting {
                tally.appends += 1;
                tally.bytes += bytes.len() as u64;
                tally.append_ns.push(ns);
            }
            r
        })
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------
// The in-process replica
// ---------------------------------------------------------------------

/// One connection's sessions on the replica.
struct Sessions {
    conn: ConnId,
    tokens: Vec<u64>,
    seqs: Vec<u64>,
    acks: Vec<u64>,
}

struct Replica {
    engine: ServeEngine,
    clock: Arc<SimClock>,
    sessions: Vec<Sessions>,
    /// Device identities per connection.
    imeis: Vec<Vec<u64>>,
    /// imei → (connection, device index), for push acks.
    index: HashMap<u64, (usize, usize)>,
    density: HashMap<u64, u32>,
    register_ns: Samples,
    submit_ns: Samples,
    recover_ms: f64,
    tally: Arc<Mutex<PersistTally>>,
    /// The replica's instant that corresponds to the live server's
    /// "set-up finished".
    ready: SimTime,
    /// Where the last `advance_to` left the scheduler.
    cursor: SimTime,
}

/// The responses among an engine output's sealed frames.
fn responses(out: &EngineOutput) -> impl Iterator<Item = WireResponse> + '_ {
    out.frames
        .iter()
        .filter_map(|(_, frame)| match decode_sealed(frame) {
            Some(WireFrame::Response(r)) => Some(r),
            _ => None,
        })
}

impl Replica {
    fn tracked(&mut self, c: usize, d: usize, inner: WireRequest) -> WireRequest {
        let s = &mut self.sessions[c];
        s.seqs[d] += 1;
        WireRequest::Tracked {
            token: s.tokens[d],
            req_seq: s.seqs[d],
            push_ack: s.acks[d],
            inner: Box::new(inner),
        }
    }

    fn hello_all(&mut self) {
        for c in 0..self.sessions.len() {
            let conn = self.sessions[c].conn;
            for d in 0..self.sessions[c].tokens.len() {
                let imei = self.imeis[c][d];
                let out = self.engine.handle(conn, WireRequest::Hello { imei });
                let token = responses(&out)
                    .find_map(|r| match r {
                        WireResponse::SessionBound { token } => Some(token),
                        _ => None,
                    })
                    .expect("Hello is answered with a session");
                let s = &mut self.sessions[c];
                s.tokens[d] = token;
                s.seqs[d] = 0;
                s.acks[d] = 0;
            }
        }
    }
}

/// Builds a replica of the live server's state at the end of set-up.
fn build(ctx: &Ctx, tag: &str) -> Replica {
    let clock = Arc::new(SimClock::new());
    clock.advance_to(SimTime::from_secs(1));
    let tally = Arc::new(Mutex::new(PersistTally::default()));
    let mut server = trace_server(ServeOptions::default().shards);
    let storage_dir = ctx.scratch_dir.join(format!("replay-wal-{tag}"));
    if ctx.w.wal {
        let _ = std::fs::remove_dir_all(&storage_dir);
        let storage = TimedStorage {
            inner: DirStorage::open(&storage_dir).expect("open the replay WAL directory"),
            tally: Arc::clone(&tally),
        };
        server
            .recover_from_storage(Box::new(storage), PersistConfig::default(), clock.now())
            .expect("fresh WAL directory arms");
    }
    let engine = ServeEngine::new(server, clock.clone());
    let mut sessions = Vec::new();
    let mut imeis = Vec::new();
    let mut index = HashMap::new();
    for c in 0..ctx.conns {
        let (devices, _) = ctx.identities(c);
        for (d, &imei) in devices.iter().enumerate() {
            index.insert(imei, (c, d));
        }
        sessions.push(Sessions {
            conn: c as ConnId + 1,
            tokens: vec![0; devices.len()],
            seqs: vec![0; devices.len()],
            acks: vec![0; devices.len()],
        });
        imeis.push(devices);
    }
    let mut rep = Replica {
        engine,
        clock,
        sessions,
        index,
        density: HashMap::new(),
        register_ns: Samples::new(),
        submit_ns: Samples::new(),
        recover_ms: 0.0,
        tally,
        ready: SimTime::ZERO,
        cursor: SimTime::ZERO,
        imeis,
    };
    rep.hello_all();
    for c in 0..ctx.conns {
        let imeis = rep.imeis[c].clone();
        let observes = ctx.enrol_observe(c, &imeis);
        let conn = rep.sessions[c].conn;
        for (d, (&imei, obs)) in imeis.iter().zip(observes).enumerate() {
            let req = rep.tracked(c, d, register(imei));
            let t = Instant::now();
            rep.engine.handle(conn, req);
            rep.register_ns.push(t.elapsed().as_nanos() as u64);
            let req = rep.tracked(c, d, obs);
            rep.engine.handle(conn, req);
        }
    }
    for spec in crate::workload::tasks(&ctx.w.tasks, ctx.seed, ctx.task_duration_us) {
        let density = spec.spatial_density;
        let t = Instant::now();
        let out = rep
            .engine
            .handle(1, WireRequest::SubmitTask { cas: 1, spec });
        rep.submit_ns.push(t.elapsed().as_nanos() as u64);
        let created = responses(&out).next();
        if let Some(WireResponse::TaskCreated { task }) = created {
            rep.density.insert(task, density);
        }
    }
    if ctx.w.wal {
        // The live set-up is a restart: flush, then recover a fresh
        // server from the same storage and re-bind every session.
        rep.engine.shutdown_flush();
        let storage = rep
            .engine
            .server_mut()
            .detach_persistence()
            .expect("persistence armed");
        let mut server = trace_server(ServeOptions::default().shards);
        let t = Instant::now();
        server
            .recover_from_storage(storage, PersistConfig::default(), rep.clock.now())
            .expect("replay WAL recovers");
        rep.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        rep.engine = ServeEngine::new(server, rep.clock.clone());
        rep.hello_all();
    }
    rep.ready = rep.clock.now();
    rep.cursor = rep.ready;
    rep
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

#[derive(Default)]
struct ReplayTally {
    measured: u64,
    frames_out: u64,
    /// Poll instants fired in the measured part.
    polls: u64,
    poll_pushes: u64,
    /// request id → (devices selected, density asked).
    assigned: HashMap<u64, (usize, u32)>,
    sim_span: SimDuration,
    wall: Duration,
    /// Encoded request frames of the measured part, in order.
    stream: Vec<Vec<u8>>,
    /// Responses of the measured part, decoded.
    responses: Vec<WireResponse>,
    waited_before: u64,
    waited_after: u64,
    /// Replayed requests (warm-up and measured).
    replayed: u64,
    /// `Error` responses, and requests not answered by exactly one
    /// response of the kind the live run expected.
    errors: u64,
    wrong: u64,
}

fn decode_sealed(frame: &[u8]) -> Option<WireFrame> {
    let mut asm = FrameAssembler::new();
    asm.extend(frame);
    let (kind, payload) = asm.next_frame().ok()??;
    decode_frame(kind, &payload).ok()
}

/// Replays `records` (connection, request) on `rep`. `live_ready_ns` is
/// the live server's set-up end on the bench clock, which anchors the
/// replica's clock so task schedules line up.
fn replay(
    rep: &mut Replica,
    records: &[(usize, Recorded)],
    live_ready_ns: u64,
    trace: bool,
) -> ReplayTally {
    let mut tally = ReplayTally::default();
    let mut asm = FrameAssembler::new();
    tracer_reset(trace, records.len() * 12);
    alloc::set_counting(true);
    let mut measuring = false;
    let mut started = Instant::now();
    let mut first_t = None;
    let mut last_t = rep.ready;
    for (i, (c, rec)) in records.iter().enumerate() {
        if rec.measured && !measuring {
            measuring = true;
            rep.tally.lock().expect("tally lock").counting = true;
            tally.waited_before = rep.engine.server().stats().requests_waited;
            started = Instant::now();
        }
        tracer_set_req(i as u32);
        let t =
            rep.ready + SimDuration::from_micros(rec.due_ns.saturating_sub(live_ready_ns) / 1_000);
        if measuring {
            first_t.get_or_insert(t);
            last_t = t;
        }
        let conn = rep.sessions[*c].conn;
        span("request", || {
            let mut frames = span("coordinator.advance", || {
                let mut frames = Vec::new();
                while let Some(w) = rep.engine.server().next_wakeup(rep.cursor) {
                    if w > t {
                        break;
                    }
                    rep.clock.advance_to(w.max(rep.cursor));
                    let polled = span("coordinator.poll", || rep.engine.advance_to(w));
                    if measuring {
                        tally.polls += 1;
                        tally.poll_pushes += polled.len() as u64;
                    }
                    frames.extend(polled);
                    rep.cursor = rep.cursor.max(w);
                }
                rep.clock.advance_to(t);
                frames.extend(rep.engine.advance_to(t));
                rep.cursor = rep.cursor.max(t);
                frames
            });
            let req = match rec.device {
                Some(d) => rep.tracked(*c, d as usize, rec.req.clone()),
                None => rec.req.clone(),
            };
            let bytes = span("wire.encode_req", || encode_request(&req));
            let (kind, payload) = span("conn.assemble", || {
                asm.extend(&bytes);
                asm.next_frame()
                    .expect("the codec's own frame assembles")
                    .expect("a whole frame was fed")
            });
            let req = match span("wire.decode_req", || decode_frame(kind, &payload)) {
                Ok(WireFrame::Request(r)) => r,
                other => panic!("request frame decodes to a request, got {other:?}"),
            };
            let out = span("engine.handle", || rep.engine.handle(conn, req));
            if measuring {
                tally.measured += 1;
                tally.frames_out += out.frames.len() as u64;
                tally.stream.push(bytes);
            }
            frames.extend(out.frames);
            let mut answers = 0;
            for (_, frame) in &frames {
                match span("wire.decode_resp", || decode_sealed(frame)) {
                    Some(WireFrame::Response(resp)) => {
                        span("wire.encode_resp", || encode_response(&resp));
                        answers += 1;
                        if matches!(resp, WireResponse::Error { .. }) {
                            tally.errors += 1;
                        } else if !rec.expect.answered_by(&resp) {
                            tally.wrong += 1;
                        }
                        if measuring {
                            tally.responses.push(resp);
                        }
                    }
                    Some(WireFrame::Push(WirePush::Assignment {
                        seq,
                        device,
                        request,
                        task,
                        devices,
                        ..
                    })) => {
                        if let Some(&(pc, pd)) = rep.index.get(&device) {
                            let ack = &mut rep.sessions[pc].acks[pd];
                            *ack = (*ack).max(seq);
                        }
                        if measuring {
                            let density = rep.density.get(&task).copied().unwrap_or(0);
                            tally.assigned.insert(request, (devices.len(), density));
                        }
                    }
                    _ => {}
                }
            }
            tally.replayed += 1;
            if answers != 1 {
                tally.wrong += 1;
            }
        });
    }
    tally.wall = started.elapsed();
    alloc::set_counting(false);
    rep.tally.lock().expect("tally lock").counting = false;
    tally.waited_after = rep.engine.server().stats().requests_waited;
    tally.sim_span = last_t.saturating_elapsed_since(first_t.unwrap_or(last_t));
    tally
}

/// Spans of the measured requests, summarised by name.
#[derive(Default)]
struct SpanStats {
    durations: Samples,
    self_ns: u64,
}

fn summarise(spans: &[Span], measured: &dyn Fn(u32) -> bool) -> HashMap<&'static str, SpanStats> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut by_name: HashMap<&'static str, SpanStats> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !measured(s.req) {
            continue;
        }
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.durations.push(dur);
        e.self_ns += dur.saturating_sub(child_ns[i + 1]);
    }
    by_name
}

fn write_spans(ctx: &Ctx, spans: &[Span]) {
    let dir = std::path::Path::new(".edgebench_out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(file) = std::fs::File::create(dir.join(format!("{}.spans.csv", ctx.w.name))) else {
        return;
    };
    let mut w = std::io::BufWriter::new(file);
    let _ = writeln!(w, "id,parent,request,name,start_ns,end_ns,allocs");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            w,
            "{},{},{},{},{},{},{}",
            i + 1,
            s.parent,
            s.req,
            s.name,
            s.start_ns,
            s.end_ns,
            s.allocs
        );
    }
    let _ = w.flush();
}

/// Span names reported as self time, in pipeline order. (`persist.write`
/// spans exist too, but only snapshots write, outside any request.)
pub const SPAN_NAMES: [&str; 10] = [
    "request",
    "coordinator.advance",
    "coordinator.poll",
    "wire.encode_req",
    "conn.assemble",
    "wire.decode_req",
    "engine.handle",
    "persist.append",
    "wire.decode_resp",
    "wire.encode_resp",
];

/// Best-of-`rounds` nanoseconds per item for a tight loop over `items`.
fn tight<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> (f64, f64) {
    let mut best = f64::MAX;
    let mut allocs = 0.0;
    for _ in 0..rounds {
        alloc::set_counting(true);
        let a = alloc::allocs();
        let t = Instant::now();
        for item in items {
            f(std::hint::black_box(item));
        }
        let ns = t.elapsed().as_nanos() as f64 / items.len().max(1) as f64;
        allocs = (alloc::allocs() - a) as f64 / items.len().max(1) as f64;
        alloc::set_counting(false);
        best = best.min(ns);
    }
    (best, allocs)
}

pub fn run(ctx: &Ctx, seconds: u64) -> Outcome {
    let mut checks = Vec::new();
    let mut faults = Faults::default();
    let (mut rig, _, _) = set_up(ctx, 1, &mut checks, &mut faults);
    let s = Duration::from_secs(seconds);
    // Light blocks first and unbroken: the replay re-runs the warm-up and
    // light requests in order, so no unrecorded request may come between.
    let mut schedule = vec![Kind::Light; TRACED_BLOCKS];
    schedule.extend([Kind::Busy; TRACED_BLOCKS]);
    let plan = Plan {
        schedule,
        block: (s / 9).max(Duration::from_millis(500)),
        record_light: true,
    };
    let live_ready_ns = rig.ready_at.duration_since(ctx.epoch).as_nanos() as u64;
    let mut steady = live::steady(&mut rig, ctx, &plan);
    let run_faults = rig.faults();
    let summary = rig.stop();
    checks.push(check(
        format!("live bout faults none ({run_faults:?}; {faults:?})"),
        run_faults.total() + faults.total() == 0,
    ));
    if ctx.w.wal {
        checks.push(check(
            format!("final shutdown flush=clean ({summary})"),
            summary.contains("flush=clean"),
        ));
    }
    checks.push(generator_check("light", &steady.light_log));
    checks.push(generator_check("busy", &steady.busy_log));
    let light = &mut steady.light;
    let busy = &mut steady.busy;
    let light_secs = light.span_secs.max(1e-9);
    let kreq = light.completed.max(1) as f64 / 1e3;

    // The replayed stream: warm-up then light, both connections merged in
    // due order.
    let mut records: Vec<(usize, Recorded)> = Vec::new();
    for per_conn in [&steady.warmup_recorded, &light.recorded] {
        for (c, recs) in per_conn.iter().enumerate() {
            records.extend(recs.iter().cloned().map(|r| (c, r)));
        }
    }
    records.sort_by_key(|(c, r)| (r.due_ns, *c));

    // Untraced, traced, untraced again: the overhead is taken against the
    // faster untraced replay, so a cold first pass does not read as a
    // negative overhead.
    let untraced_wall = |ctx: &Ctx| {
        let mut plain = build(ctx, "plain");
        replay(&mut plain, &records, live_ready_ns, false).wall
    };
    let first_untraced = untraced_wall(ctx);
    let mut rep = build(ctx, "traced");
    let traced = replay(&mut rep, &records, live_ready_ns, true);
    let spans = tracer_take();
    let untraced = first_untraced.min(untraced_wall(ctx));
    let snapshot_ms = if ctx.w.wal {
        let t = Instant::now();
        let now = rep.clock.now();
        rep.engine.server_mut().take_snapshot(now);
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    write_spans(ctx, &spans);
    let measured_ids: HashSet<u32> = records
        .iter()
        .enumerate()
        .filter(|(_, (_, r))| r.measured)
        .map(|(i, _)| i as u32)
        .collect();
    let mut by_name = summarise(&spans, &|req| measured_ids.contains(&req));
    let n = traced.measured.max(1) as f64;

    // conn: the measured byte stream, fed in the live run's write sizes.
    let frames = traced.stream.len().max(1) as f64;
    let mut stream = traced.stream.iter();
    let sizes: &[u32] = if light.write_batches.is_empty() {
        &[1]
    } else {
        &light.write_batches
    };
    let chunks: Vec<Vec<u8>> = sizes
        .iter()
        .cycle()
        .map_while(|&batch| {
            let chunk: Vec<u8> = stream
                .by_ref()
                .take(batch.max(1) as usize)
                .flatten()
                .copied()
                .collect();
            (!chunk.is_empty()).then_some(chunk)
        })
        .collect();
    let (conn_ns, conn_allocs) = tight(std::slice::from_ref(&chunks), 5, |chunks| {
        let mut asm = FrameAssembler::new();
        for chunk in chunks {
            asm.extend(chunk);
            while let Ok(Some(frame)) = asm.next_frame() {
                std::hint::black_box(frame);
            }
        }
    });
    let (conn_ns, conn_allocs) = (conn_ns / frames, conn_allocs / frames);

    // wire: decode every measured request payload, re-encode every
    // response the engine produced for them.
    let payloads: Vec<(u8, Vec<u8>)> = traced
        .stream
        .iter()
        .filter_map(|f| {
            let mut asm = FrameAssembler::new();
            asm.extend(f);
            asm.next_frame().ok().flatten()
        })
        .collect();
    let (decode_ns, decode_allocs) = tight(&payloads, 5, |(k, p)| {
        std::hint::black_box(decode_frame(*k, p).ok());
    });
    let responses = &traced.responses;
    let (encode_ns, encode_allocs) = tight(responses, 5, |r| {
        std::hint::black_box(encode_response(r));
    });
    let resp_bytes = responses
        .iter()
        .map(|r| encode_response(r).len() as f64)
        .sum::<f64>()
        / responses.len().max(1) as f64;
    let req_bytes = traced.stream.iter().map(|f| f.len() as f64).sum::<f64>() / frames;

    let mut quantile_ns = |name: &str, q: f64| {
        by_name
            .get_mut(name)
            .map_or(0, |s| s.durations.quantile_ns(q)) as f64
    };
    let handle_p50 = quantile_ns("engine.handle", 0.5);
    let handle_p99 = quantile_ns("engine.handle", 0.99);
    let poll_p50_ms = quantile_ns("coordinator.poll", 0.5) / 1e6;
    let poll_p99_ms = quantile_ns("coordinator.poll", 0.99) / 1e6;
    let stage_p50_us = quantile_ns("request", 0.5) / 1e3;
    let self_metrics = SPAN_NAMES.iter().map(|name| {
        let per_req = by_name.get(name).map_or(0.0, |s| s.self_ns as f64 / n);
        metric(&format!("self_ns.{name}"), per_req, "ns")
    });
    let fill_den: f64 = traced
        .assigned
        .values()
        .map(|&(_, d)| f64::from(d))
        .sum::<f64>()
        + (traced.waited_after - traced.waited_before) as f64;
    let fill_num: f64 = traced.assigned.values().map(|&(k, _)| k as f64).sum();
    let persist = rep.tally.lock().expect("tally lock");
    let mut append_ns = persist.append_ns.clone();
    let poll_secs = traced.sim_span.as_secs_f64().max(1e-9);
    let overhead_pct =
        (traced.wall.as_secs_f64() / untraced.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    let live_p50_us = light.latency.quantile_ns(0.5) as f64 / 1e3;
    let mut lag = light.lag.clone();
    lag.extend(&busy.lag);

    let mut metrics = vec![
        metric(
            "tcp.engine_cpu_ms_per_kreq",
            light.threads.engine.cpu_ns as f64 / 1e6 / kreq,
            "ms",
        ),
        metric(
            "tcp.worker_cpu_ms_per_kreq",
            light.threads.workers.cpu_ns as f64 / 1e6 / kreq,
            "ms",
        ),
        metric(
            "tcp.worker_wakeups_per_s",
            light.threads.workers.voluntary_switches as f64 / light_secs,
            "1/s",
        ),
        metric(
            "tcp.engine_wakeups_per_s",
            light.threads.engine.voluntary_switches as f64 / light_secs,
            "1/s",
        ),
        metric("tcp.residual_us", live_p50_us - stage_p50_us, "us"),
        metric("conn.assemble_ns_per_frame", conn_ns, "ns"),
        metric("conn.allocs_per_frame", conn_allocs, "count"),
        metric("wire.decode_req_ns", decode_ns, "ns"),
        metric("wire.encode_resp_ns", encode_ns, "ns"),
        metric("wire.req_bytes", req_bytes, "B"),
        metric("wire.resp_bytes", resp_bytes, "B"),
        metric(
            "wire.allocs_per_req",
            decode_allocs + encode_allocs,
            "count",
        ),
        metric("engine.handle_ns.p50", handle_p50, "ns"),
        metric("engine.handle_ns.p99", handle_p99, "ns"),
        metric(
            "engine.frames_per_req",
            traced.frames_out as f64 / n,
            "count",
        ),
        metric("coordinator.poll_ms.p50", poll_p50_ms, "ms"),
        metric("coordinator.poll_ms.p99", poll_p99_ms, "ms"),
        metric(
            "coordinator.polls_per_s",
            traced.polls as f64 / poll_secs,
            "1/s",
        ),
        metric(
            "coordinator.assignments_per_poll",
            traced.poll_pushes as f64 / traced.polls.max(1) as f64,
            "count",
        ),
        metric(
            "coordinator.fill_ratio",
            if fill_den > 0.0 {
                fill_num / fill_den
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "coordinator.submit_task_ms",
            rep.submit_ns.quantile_ms(0.5),
            "ms",
        ),
        metric(
            "coordinator.register_us",
            rep.register_ns.quantile_ns(0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "persist.append_us.p50",
            append_ns.quantile_ns(0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "persist.append_us.p99",
            append_ns.quantile_ns(0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "persist.appends_per_req",
            persist.appends as f64 / n,
            "count",
        ),
        metric("persist.bytes_per_req", persist.bytes as f64 / n, "B"),
        metric("persist.snapshot_ms", snapshot_ms, "ms"),
        metric("persist.recover_ms", rep.recover_ms, "ms"),
        metric("gen.lag_ms.p99", lag.quantile_ms(0.99), "ms"),
        metric("gen.lag_ms.max", lag.max_ns() as f64 / 1e6, "ms"),
        metric(
            "gen.outstanding_max",
            light.outstanding_max.max(busy.outstanding_max) as f64,
            "count",
        ),
    ];
    metrics.extend(self_metrics);
    metrics.push(metric("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));

    let self_of = |name: &str| by_name.get(name).map_or(0.0, |s| s.self_ns as f64);
    let coordinator_ns = self_of("coordinator.advance") + self_of("coordinator.poll");
    let coordinator_share_pct = 100.0 * coordinator_ns
        / (coordinator_ns + self_of("engine.handle") + self_of("persist.append")).max(1.0);
    let mut push = push_lag(&light.pushes);
    let notes = vec![
        format!(
            "live light {:.0} rps: latency_ms {} ; push lag_ms {}",
            light.rate,
            light.latency.describe_ms(),
            push.describe_ms()
        ),
        format!(
            "replay: {} requests ({} measured), {} spans, untraced {:.1} ms (faster of two), traced {:.1} ms; stage-sum p50 {:.2} us vs live p50 {:.2} us",
            records.len(),
            traced.measured,
            spans.len(),
            untraced.as_secs_f64() * 1e3,
            traced.wall.as_secs_f64() * 1e3,
            stage_p50_us,
            live_p50_us
        ),
        format!(
            "coordinator share of replayed engine time (scheduler advance and polls over those plus handle): {coordinator_share_pct:.2}%"
        ),
        format!("spans written to .edgebench_out/{}.spans.csv", ctx.w.name),
        format!("server: {summary}"),
    ];
    checks.push(check(
        format!(
            "replay: each of {} requests got one response of the expected kind (Error responses {}, wrong kind or count {})",
            traced.replayed, traced.errors, traced.wrong
        ),
        traced.replayed > 0 && traced.errors == 0 && traced.wrong == 0,
    ));
    Outcome {
        metrics,
        checks,
        attempted: steady.attempted,
        failed: steady.faults.error_responses + steady.faults.mismatched + steady.undrained,
        notes,
    }
}
