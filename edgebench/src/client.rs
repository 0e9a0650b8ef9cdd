//! The open-loop client side: one connection per generator thread, each
//! multiplexing many device sessions' `Tracked` envelopes the way an
//! eNodeB-side proxy aggregates UEs.
//!
//! A paced step sends on a fixed schedule regardless of how the server
//! keeps up, and times every request from the instant it was *due*, so a
//! stall is charged to every request queued behind it. Responses come
//! back in order on each connection, which is what lets the client match
//! them to their requests with a FIFO and check each one.
//!
//! The socket is non-blocking and the thread waits in `ppoll(2)` for
//! either readable bytes or the next due instant, so arrival stamps are
//! taken as soon as the kernel has the bytes and no core is burned
//! spinning.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use senseaid_device::Sensor;
use senseaid_geo::GeoPoint;
use senseaid_serve::wire::{decode_frame, WireFrame};
use senseaid_serve::{
    encode_request, FrameAssembler, WirePush, WireReading, WireRequest, WireResponse,
};
use senseaid_sim::SimRng;

use crate::lat::Samples;

/// Campus centre shared by device positions and task regions.
pub fn campus() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

pub(crate) mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    const PR_SET_TIMERSLACK: i32 = 29;

    /// Asks the kernel to expire this thread's timers within 1 µs instead
    /// of the default 50 µs, so the generator sends close to each due
    /// instant.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
        // caller memory; failure only leaves the default slack in place.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }

    /// Waits until `fd` has one of `events` ready or `timeout` passes.
    pub fn wait(fd: i32, events: i16, timeout: Duration) {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfd` and `ts` are live, properly laid out (`repr(C)`
        // matching `struct pollfd` / `struct timespec` on 64-bit Linux)
        // for the whole call, `nfds` is 1, and a null sigmask is allowed.
        // The result is ignored: an error or EINTR just ends the wait
        // early, and every caller re-checks its own deadline.
        unsafe {
            ppoll(&mut pfd, 1, &ts, std::ptr::null());
        }
    }
}

/// What the response to a request must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Ok,
    BatchAck,
    /// A `Hello` for the device at this index of the connection.
    SessionBound(u32),
    TaskCreated,
    Stats,
}

impl Expect {
    /// Whether `resp` is the kind of answer this calls for.
    pub fn answered_by(self, resp: &WireResponse) -> bool {
        matches!(
            (resp, self),
            (WireResponse::Ok, Expect::Ok)
                | (WireResponse::BatchAck { .. }, Expect::BatchAck)
                | (WireResponse::TaskCreated { .. }, Expect::TaskCreated)
                | (WireResponse::SessionBound { .. }, Expect::SessionBound(_))
                | (WireResponse::Stats { .. }, Expect::Stats)
        )
    }
}

/// The client half of one device session.
#[derive(Debug, Clone)]
pub struct Device {
    pub imei: u64,
    token: u64,
    req_seq: u64,
    push_seen: u64,
    battery: f64,
    batch_seq: u64,
}

impl Device {
    pub fn new(imei: u64) -> Self {
        Device {
            imei,
            token: 0,
            req_seq: 0,
            push_seen: 0,
            battery: 90.0,
            batch_seq: 0,
        }
    }
}

/// A churn identity: enrolled and withdrawn in turn, untracked.
#[derive(Debug, Clone)]
struct ChurnDevice {
    imei: u64,
    registered: bool,
}

/// One request as sent in a recorded step, for the in-process replay.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Due instant, nanoseconds after the bench epoch.
    pub due_ns: u64,
    /// Sent in a measured step (else warm-up).
    pub measured: bool,
    /// Device index on the connection, for `Tracked` envelopes.
    pub device: Option<u32>,
    /// The request (the envelope's inner request when tracked).
    pub req: WireRequest,
    /// The response it must get.
    pub expect: Expect,
}

/// How a step sends.
#[derive(Debug, Clone)]
pub enum Pace {
    /// Open loop: Poisson arrivals at `rate` requests per second over all
    /// connections until `start + duration`.
    Rate {
        rate: f64,
        duration: Duration,
        /// Stop sending once this many requests are outstanding: the
        /// backlog is growing without bound.
        backlog_cap: usize,
    },
    /// Set-up: the scripted requests, as fast as a window of `window`
    /// outstanding requests allows.
    Window { window: usize },
    /// Saturation: the steady mix, keeping `window` requests outstanding
    /// until `start + duration`; each is timed from when it was queued.
    Saturate { window: usize, duration: Duration },
}

/// One step of a run, as both connections run it.
#[derive(Debug, Clone)]
pub struct Step {
    pub start: Instant,
    pub pace: Pace,
    /// Keep latency, lag and push samples.
    pub measure: bool,
    /// Keep the sent requests for the in-process replay.
    pub record: bool,
    /// Share of steady requests that are Register/Deregister churn.
    pub churn: f64,
}

/// What one connection saw during a step.
#[derive(Debug, Default)]
pub struct StepOut {
    pub sent: u64,
    pub completed: u64,
    pub latency: Samples,
    /// Generator lateness: write instant minus due instant.
    pub lag: Samples,
    pub outstanding_max: usize,
    /// `(arrival ns since the bench epoch, sample_at µs on the server clock)`.
    pub pushes: Vec<(u64, u64)>,
    pub aborted: bool,
    /// Responses still missing when the drain deadline passed.
    pub undrained: u64,
    pub recorded: Vec<Recorded>,
    /// Requests per socket write, for chunking the replayed stream.
    pub write_batches: Vec<u32>,
    /// Device count from the last `Stats` response.
    pub stats_devices: Option<u64>,
    /// When the last response arrived.
    pub last_arrival: Option<Instant>,
    /// Correctness faults raised during the step.
    pub faults: Faults,
}

/// Correctness tallies; every field must stay zero for a valid run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Faults {
    /// `Error` responses the workload did not provoke.
    pub error_responses: u64,
    /// Responses of the wrong kind, or with no request outstanding.
    pub mismatched: u64,
    /// Pushes naming a device with no session on this connection.
    pub foreign_pushes: u64,
    /// `Disconnect` pushes (the server gave up on a session or socket).
    pub disconnects: u64,
    /// Frames that failed to decode, or transport failures.
    pub wire: u64,
}

impl Faults {
    pub fn total(&self) -> u64 {
        self.error_responses + self.mismatched + self.foreign_pushes + self.disconnects + self.wire
    }

    fn since(&self, o: &Faults) -> Faults {
        Faults {
            error_responses: self.error_responses - o.error_responses,
            mismatched: self.mismatched - o.mismatched,
            foreign_pushes: self.foreign_pushes - o.foreign_pushes,
            disconnects: self.disconnects - o.disconnects,
            wire: self.wire - o.wire,
        }
    }

    pub fn add(&mut self, o: &Faults) {
        self.error_responses += o.error_responses;
        self.mismatched += o.mismatched;
        self.foreign_pushes += o.foreign_pushes;
        self.disconnects += o.disconnects;
        self.wire += o.wire;
    }
}

struct Pending {
    due: Instant,
    expect: Expect,
    measured: bool,
}

/// How long a step may wait for its last responses.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection and the device sessions it carries.
pub struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    outbuf: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<Pending>,
    /// Per queued-but-unwritten request: its due instant (for lag).
    unwritten: VecDeque<(Instant, usize)>,
    pub devices: Vec<Device>,
    by_imei: HashMap<u64, usize>,
    churn: Vec<ChurnDevice>,
    /// The request stream (which device, which op, what values).
    rng: SimRng,
    /// Inter-arrival gaps, a stream of its own so the request sequence
    /// does not depend on the rates a run offered.
    arrivals: SimRng,
    scratch: Vec<u8>,
    epoch: Instant,
    pub faults: Faults,
    /// The first few fault descriptions, for the report.
    pub fault_notes: Vec<String>,
    script: VecDeque<(WireRequest, Expect)>,
    /// The running step keeps samples.
    measuring: bool,
}

impl Conn {
    /// Dials `addr`; `devices` and `churn` are this connection's
    /// identities, `rng` its request stream.
    pub fn dial(
        addr: std::net::SocketAddr,
        devices: Vec<u64>,
        churn: Vec<u64>,
        mut rng: SimRng,
        epoch: Instant,
    ) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let by_imei = devices
            .iter()
            .chain(churn.iter())
            .enumerate()
            .map(|(i, &imei)| (imei, i))
            .collect();
        Ok(Conn {
            stream,
            assembler: FrameAssembler::new(),
            outbuf: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            inflight: VecDeque::new(),
            unwritten: VecDeque::new(),
            devices: devices.into_iter().map(Device::new).collect(),
            by_imei,
            churn: churn
                .into_iter()
                .map(|imei| ChurnDevice {
                    imei,
                    registered: false,
                })
                .collect(),
            arrivals: rng.derive("arrivals"),
            rng,
            scratch: vec![0u8; 256 * 1024],
            epoch,
            faults: Faults::default(),
            fault_notes: Vec::new(),
            script: VecDeque::new(),
            measuring: false,
        })
    }

    /// Queues scripted requests for the next `Window` step.
    pub fn script(&mut self, reqs: impl IntoIterator<Item = (WireRequest, Expect)>) {
        self.script.extend(reqs);
    }

    /// Wraps `inner` in the device's next `Tracked` envelope.
    pub fn tracked(&mut self, device: usize, inner: WireRequest) -> WireRequest {
        let d = &mut self.devices[device];
        d.req_seq += 1;
        WireRequest::Tracked {
            token: d.token,
            req_seq: d.req_seq,
            push_ack: d.push_seen,
            inner: Box::new(inner),
        }
    }

    fn note(&mut self, what: String) {
        if self.fault_notes.len() < 5 {
            self.fault_notes.push(what);
        }
    }

    /// The next steady-state request: the loadgen mix (35% StateUpdate,
    /// 20% Comm, 25% Observe, 20% SubmitBatch) over this connection's
    /// sessions, with `churn` of the draws replaced by Register/Deregister
    /// of a churn identity.
    fn steady(&mut self, churn: f64) -> (WireRequest, Option<u32>, Expect) {
        if churn > 0.0 && !self.churn.is_empty() && self.rng.chance(churn) {
            let i = self.rng.uniform_usize(0, self.churn.len());
            let c = &mut self.churn[i];
            c.registered = !c.registered;
            let req = if c.registered {
                register(c.imei)
            } else {
                WireRequest::Deregister { imei: c.imei }
            };
            return (req, None, Expect::Ok);
        }
        let rng = &mut self.rng;
        let i = rng.uniform_usize(0, self.devices.len());
        let d = &mut self.devices[i];
        let imei = d.imei;
        let roll = rng.uniform();
        let (req, expect) = if roll < 0.35 {
            // A bounded random walk, so batteries never reach the floor
            // and every device stays selectable for the whole run.
            d.battery = (d.battery + rng.uniform_range(-0.4, 0.4)).clamp(40.0, 98.0);
            let req = WireRequest::StateUpdate {
                imei,
                battery_pct: d.battery,
                cs_energy_j: rng.uniform_range(0.0, 0.5),
            };
            (req, Expect::Ok)
        } else if roll < 0.55 {
            (WireRequest::Comm { imei }, Expect::Ok)
        } else if roll < 0.80 {
            (observe(imei, rng), Expect::Ok)
        } else {
            d.batch_seq += 1;
            let req = WireRequest::SubmitBatch {
                imei,
                seq: d.batch_seq,
                attempt: 1,
                readings: vec![WireReading {
                    request: rng.uniform_usize(0, 8) as u64,
                    sensor: Sensor::Barometer,
                    value: rng.uniform_range(990.0, 1030.0),
                    taken_at_us: d.batch_seq * 1_000,
                    lat_deg: campus().lat_deg(),
                    lon_deg: campus().lon_deg(),
                }],
            };
            (req, Expect::BatchAck)
        };
        (req, Some(i as u32), expect)
    }

    fn queue(&mut self, req: &WireRequest, due: Instant, expect: Expect, measured: bool) {
        let frame = encode_request(req);
        self.outbuf.extend_from_slice(&frame);
        self.unwritten.push_back((due, self.outbuf.len()));
        self.inflight.push_back(Pending {
            due,
            expect,
            measured,
        });
    }

    /// Writes what the socket takes; stamps generator lag for every
    /// request whose last byte left.
    fn flush(&mut self, out: &mut StepOut, measure: bool) {
        let mut batch = 0u32;
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.faults.wire += 1;
                    self.note(format!("write: {e}"));
                    break;
                }
            }
        }
        let now = Instant::now();
        while let Some(&(due, end)) = self.unwritten.front() {
            if end > self.out_pos {
                break;
            }
            self.unwritten.pop_front();
            batch += 1;
            if measure {
                out.lag
                    .push(now.saturating_duration_since(due).as_nanos() as u64);
            }
        }
        if batch > 0 {
            out.write_batches.push(batch);
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
            // Everything queued was written, so `unwritten` is empty too.
        } else if self.out_pos > (1 << 20) {
            self.outbuf.drain(..self.out_pos);
            for (_, end) in self.unwritten.iter_mut() {
                *end -= self.out_pos;
            }
            self.out_pos = 0;
        }
    }

    /// Reads everything available and settles every complete frame.
    fn pump_reads(&mut self, out: &mut StepOut) {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.faults.wire += 1;
                    self.note("server closed the connection".to_owned());
                    return;
                }
                Ok(n) => {
                    let arrived = Instant::now();
                    self.assembler.extend(&self.scratch[..n]);
                    self.settle(arrived, out);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.faults.wire += 1;
                    self.note(format!("read: {e}"));
                    return;
                }
            }
        }
    }

    fn settle(&mut self, arrived: Instant, out: &mut StepOut) {
        loop {
            let (kind, payload) = match self.assembler.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    self.faults.wire += 1;
                    self.note(format!("frame: {e}"));
                    continue;
                }
            };
            match decode_frame(kind, &payload) {
                Ok(WireFrame::Response(resp)) => self.on_response(resp, arrived, out),
                Ok(WireFrame::Push(WirePush::Assignment {
                    seq,
                    device,
                    sample_at_us,
                    ..
                })) => match self.by_imei.get(&device) {
                    Some(&i) => {
                        if let Some(d) = self.devices.get_mut(i) {
                            d.push_seen = d.push_seen.max(seq);
                        }
                        if self.measuring {
                            let at = arrived.duration_since(self.epoch).as_nanos() as u64;
                            out.pushes.push((at, sample_at_us));
                        }
                    }
                    None => {
                        self.faults.foreign_pushes += 1;
                        self.note(format!("push for device {device} not on this connection"));
                    }
                },
                Ok(WireFrame::Push(WirePush::Disconnect { code, detail })) => {
                    self.faults.disconnects += 1;
                    self.note(format!("disconnect push {code}: {detail}"));
                }
                Ok(WireFrame::Request(_)) | Err(_) => {
                    self.faults.wire += 1;
                    self.note("undecodable or request frame from server".to_owned());
                }
            }
        }
    }

    fn on_response(&mut self, resp: WireResponse, arrived: Instant, out: &mut StepOut) {
        let Some(p) = self.inflight.pop_front() else {
            self.faults.mismatched += 1;
            self.note(format!("response with nothing outstanding: {resp:?}"));
            return;
        };
        out.completed += 1;
        out.last_arrival = Some(arrived);
        if p.measured {
            out.latency
                .push(arrived.saturating_duration_since(p.due).as_nanos() as u64);
        }
        if let WireResponse::Error { code, detail } = &resp {
            self.faults.error_responses += 1;
            self.note(format!("error response {code}: {detail}"));
            return;
        }
        if !p.expect.answered_by(&resp) {
            self.faults.mismatched += 1;
            self.note(format!("expected {:?}, got {resp:?}", p.expect));
            return;
        }
        match (&resp, p.expect) {
            (WireResponse::SessionBound { token }, Expect::SessionBound(i)) => {
                self.devices[i as usize].token = *token;
            }
            (WireResponse::Stats { devices, .. }, _) => out.stats_devices = Some(*devices),
            _ => {}
        }
    }

    /// Runs one step as one of `conns` connections. `abort` is shared
    /// with the other connections: any of them tripping the backlog guard
    /// stops all.
    pub fn run(&mut self, step: &Step, conns: usize, abort: &AtomicBool) -> StepOut {
        let mut out = StepOut::default();
        self.measuring = step.measure;
        let faults_before = self.faults;
        let fd = self.stream.as_raw_fd();
        match step.pace {
            Pace::Rate {
                rate,
                duration,
                backlog_cap,
            } => {
                // Exponential gaps: independent users, and no fixed phase
                // between the schedule and the server's own poll cycles.
                let mean_gap = conns as f64 / rate;
                let end = step.start + duration;
                let mut due =
                    step.start + Duration::from_secs_f64(self.arrivals.exponential(mean_gap));
                let mut sending = due < end;
                let mut drain_deadline = None;
                loop {
                    self.pump_reads(&mut out);
                    let now = Instant::now();
                    if sending && abort.load(Ordering::Relaxed) {
                        out.aborted = true;
                        sending = false;
                    }
                    while sending && due <= now {
                        let (req, device, expect) = self.steady(step.churn);
                        if step.record {
                            out.recorded.push(Recorded {
                                due_ns: (due - self.epoch).as_nanos() as u64,
                                measured: step.measure,
                                device,
                                req: req.clone(),
                                expect,
                            });
                        }
                        let wire_req = match device {
                            Some(i) => self.tracked(i as usize, req),
                            None => req,
                        };
                        self.queue(&wire_req, due, expect, step.measure);
                        out.sent += 1;
                        due += Duration::from_secs_f64(self.arrivals.exponential(mean_gap));
                        sending = due < end;
                    }
                    out.outstanding_max = out.outstanding_max.max(self.inflight.len());
                    if sending && self.inflight.len() > backlog_cap {
                        abort.store(true, Ordering::Relaxed);
                        out.aborted = true;
                        sending = false;
                    }
                    self.flush(&mut out, step.measure);
                    if !sending {
                        if self.inflight.is_empty() {
                            break;
                        }
                        let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
                        if now >= deadline || self.faults.wire > 0 {
                            out.undrained = self.inflight.len() as u64;
                            break;
                        }
                    }
                    let timeout = if sending {
                        due.saturating_duration_since(Instant::now())
                    } else {
                        Duration::from_millis(50)
                    };
                    let events = if self.out_pos < self.outbuf.len() {
                        sys::POLLIN | sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    sys::wait(fd, events, timeout);
                }
            }
            Pace::Saturate { window, duration } => {
                let end = step.start + duration;
                let mut drain_deadline = None;
                loop {
                    self.pump_reads(&mut out);
                    let now = Instant::now();
                    let sending = now < end;
                    while sending && self.inflight.len() < window {
                        let (req, device, expect) = self.steady(step.churn);
                        let wire_req = match device {
                            Some(i) => self.tracked(i as usize, req),
                            None => req,
                        };
                        self.queue(&wire_req, now, expect, step.measure);
                        out.sent += 1;
                    }
                    out.outstanding_max = out.outstanding_max.max(self.inflight.len());
                    self.flush(&mut out, false);
                    if !sending {
                        if self.inflight.is_empty() {
                            break;
                        }
                        let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
                        if now >= deadline || self.faults.wire > 0 {
                            out.undrained = self.inflight.len() as u64;
                            break;
                        }
                    }
                    let timeout = if sending {
                        end.saturating_duration_since(now)
                    } else {
                        Duration::from_millis(50)
                    };
                    let events = if self.out_pos < self.outbuf.len() {
                        sys::POLLIN | sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    sys::wait(fd, events, timeout);
                }
            }
            Pace::Window { window } => {
                let deadline = Instant::now() + Duration::from_secs(120);
                loop {
                    self.pump_reads(&mut out);
                    let now = Instant::now();
                    while self.inflight.len() < window {
                        let Some((req, expect)) = self.script.pop_front() else {
                            break;
                        };
                        self.queue(&req, now, expect, false);
                        out.sent += 1;
                    }
                    self.flush(&mut out, false);
                    if self.script.is_empty() && self.inflight.is_empty() {
                        break;
                    }
                    if now >= deadline || self.faults.wire > 0 {
                        out.undrained = self.inflight.len() as u64;
                        break;
                    }
                    let events = if self.out_pos < self.outbuf.len() {
                        sys::POLLIN | sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    sys::wait(fd, events, Duration::from_millis(50));
                }
            }
        }
        out.faults = self.faults.since(&faults_before);
        out
    }
}

/// A device's enrolment request.
pub fn register(imei: u64) -> WireRequest {
    WireRequest::Register {
        imei,
        energy_budget_j: 5_000.0,
        critical_battery_pct: 15.0,
        battery_pct: 90.0,
        device_type: "bench-phone".to_owned(),
        sensors: vec![Sensor::Barometer, Sensor::Light],
    }
}

/// A position report somewhere on campus.
pub fn observe(imei: u64, rng: &mut SimRng) -> WireRequest {
    let p = campus().offset_by_meters(
        rng.uniform_range(-900.0, 900.0),
        rng.uniform_range(-900.0, 900.0),
    );
    WireRequest::Observe {
        imei,
        lat_deg: p.lat_deg(),
        lon_deg: p.lon_deg(),
        cell: None,
    }
}
