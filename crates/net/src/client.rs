//! The TCP client transport: one pipelined connection per target site
//! driven by a reactor thread, with a background cast pump so the lazy
//! path never blocks on a slow target.
//!
//! # Calls: pipelining and exactly-once retries
//!
//! Every `call` runs on a *slot* from a free-list slab: the caller
//! encodes the request into the slot's reused submission buffer, pushes
//! the slot onto the reactor's queue, and sleeps on the slot's condvar.
//! After warmup the whole round trip — submit, frame, correlate, wake —
//! performs no heap allocation: slots, buffers and queues all reach a
//! high-water mark and are recycled. The reactor owns one nonblocking
//! connection per target, tags each request with a per-connection
//! sequence id (the frame's [`CallHeader`]), and writes
//! every submission that arrived in one pass back-to-back — so
//! concurrent callers share a connection, their requests coalesce into
//! one kernel write, and the server's batch decode turns them into
//! shard-grouped multi-gets. Responses are correlated back to callers by
//! the echoed sequence id, so they may resolve in any order; a slot
//! generation counter (bumped on every submission and on timeout)
//! guards recycled slots against late deliveries.
//!
//! Retries are governed by one invariant: **a request may be re-sent
//! only if it provably never reached the server**. The reactor tracks,
//! per connection, the absolute byte offset handed to the kernel; when a
//! connection dies, a pending call whose frame was not yet *fully*
//! flushed is reported [`CallOutcome::NotSent`] (a partial frame can
//! never be decoded, let alone applied) and `call` transparently retries
//! once on a fresh connection. Everything else — a flushed frame with no
//! response, a response timeout, any bytes of a response — is
//! `Unavailable` with **no second send**: the server may have applied
//! the request, and `Put`/OCC writes are not idempotent across duplicate
//! delivery.

use crate::frame::{write_frame_with_mode, CallHeader, Fill, FrameReader, MAX_FRAME, MODE_CAST};
use crate::server::epoch_checked;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::MetaError;
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use parking_lot::{Condvar, Mutex};
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP connect deadline for calls.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Cast-pump connect deadline: shorter, so a down site costs little.
const CAST_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Cast-pump per-write deadline: a target that accepts but stops reading
/// (full socket buffer) fails the write instead of head-of-line-blocking
/// lazy pushes to every other site — and instead of hanging the pump
/// join in `Drop`.
const CAST_WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// Bounded cast queue: when the pump falls this far behind, new casts are
/// dropped. Lazy pushes are best-effort — a miss at the hash owner is
/// repaired by the next read probing further, and the *sync agent* never
/// uses `cast` (it requires acked delivery; see
/// `geometa_core::runtime::drive_sync_agent`).
const CAST_QUEUE: usize = 4096;
/// First-failure cooldown for a cast target. Doubles on every further
/// consecutive failure up to [`CAST_BACKOFF_CAP`], so one dropped
/// connect mutes a peer briefly while a real outage is probed ever more
/// rarely — a black-holed site must not head-of-line-block pushes to
/// healthy sites, but neither should it eat a connect timeout per
/// message once per fixed window forever.
const CAST_BACKOFF_BASE: Duration = Duration::from_millis(125);
/// Ceiling on the per-target cast cooldown (pre-jitter).
const CAST_BACKOFF_CAP: Duration = Duration::from_secs(8);
/// Multiplicative jitter spread on every cooldown (`±25%`), so pumps at
/// many clients that watched the same site die do not re-probe it in
/// lockstep. Drawn from a seeded [`SplitMix64`] stream: the sequence is
/// reproducible per transport instance, never wall-clock dependent.
const CAST_BACKOFF_JITTER: f64 = 0.25;
/// Seed for the cast pump's jitter stream.
const CAST_BACKOFF_SEED: u64 = 0xCA57_BACC_0FF5;

/// Per-target capped exponential backoff for the cast pump.
struct CastBackoff {
    rng: SplitMix64,
    strikes: HashMap<SiteId, u32>,
    until: HashMap<SiteId, Instant>,
}

impl CastBackoff {
    fn new(seed: u64) -> CastBackoff {
        CastBackoff {
            rng: SplitMix64::new(seed),
            strikes: HashMap::new(),
            until: HashMap::new(),
        }
    }

    /// Whether casts to `target` should be dropped right now.
    fn is_dead(&self, target: SiteId, now: Instant) -> bool {
        self.until.get(&target).is_some_and(|&t| now < t)
    }

    /// Consecutive failures recorded against `target` (0 after a
    /// success). Exposed through
    /// [`TcpClientTransport::cast_strikes`] so recovery tests can assert
    /// the schedule reset, not just infer it from timing.
    fn strikes(&self, target: SiteId) -> u32 {
        self.strikes.get(&target).copied().unwrap_or(0)
    }

    /// A delivery succeeded: the target is healthy again.
    fn record_success(&mut self, target: SiteId) {
        self.strikes.remove(&target);
        self.until.remove(&target);
    }

    /// A delivery failed: extend the cooldown. Returns the jittered
    /// delay so tests (and tracing) can observe the schedule.
    fn record_failure(&mut self, target: SiteId, now: Instant) -> Duration {
        let strikes = self.strikes.entry(target).or_insert(0);
        *strikes = strikes.saturating_add(1);
        // 125ms, 250ms, … doubling to the cap; the shift is clamped so
        // a long outage cannot overflow the multiplier.
        let base = CAST_BACKOFF_BASE
            .saturating_mul(1u32 << (*strikes - 1).min(16))
            .min(CAST_BACKOFF_CAP);
        let factor = 1.0 + self.rng.jitter(CAST_BACKOFF_JITTER);
        let delay = base.mul_f64(factor);
        self.until.insert(target, now + delay);
        delay
    }
}

/// Consecutive transport-level failures before a site's breaker opens.
/// Three strikes separates a stray timeout from a dead peer without
/// letting a flapping site eat `call_timeout` per operation.
const BREAKER_THRESHOLD: u32 = 3;
/// First open-interval for a tripped breaker; doubles per re-open.
const BREAKER_BASE: Duration = Duration::from_millis(250);
/// Ceiling on the open interval (pre-jitter).
const BREAKER_CAP: Duration = Duration::from_secs(8);
/// Multiplicative jitter on every open interval (`±25%`) so many
/// clients that watched the same site die do not half-open in lockstep.
const BREAKER_JITTER: f64 = 0.25;
/// Seed for the breaker's jitter stream (per-transport deterministic).
const BREAKER_SEED: u64 = 0x0B4E_A4E4_5EED;

/// Per-site breaker record.
#[derive(Default)]
struct SiteBreaker {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Times this breaker has opened since the last success (drives the
    /// exponential open interval).
    opens: u32,
    /// Open until this deadline; `None` = closed (or half-open once a
    /// previous deadline passed).
    open_until: Option<Instant>,
}

/// Per-site circuit breaker for the *call* path, layered on the
/// exactly-once retry rule: it watches **transport-level** outcomes
/// only. Any correlated response — including a server-sent
/// `Error { Unavailable }` — proves the connection works and closes the
/// breaker; only dial failures, dead connections, and response timeouts
/// count as strikes.
///
/// States: closed (deliver) → after [`BREAKER_THRESHOLD`] consecutive
/// strikes, open (fast-fail without touching the socket) → when the
/// open interval lapses, half-open (the next call probes the site; a
/// success closes the breaker, a failure re-opens it at double the
/// interval, capped and jittered).
struct CircuitBreaker {
    rng: SplitMix64,
    sites: HashMap<SiteId, SiteBreaker>,
}

impl CircuitBreaker {
    fn new(seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            rng: SplitMix64::new(seed),
            sites: HashMap::new(),
        }
    }

    /// Whether calls to `target` should fast-fail right now.
    fn is_open(&self, target: SiteId, now: Instant) -> bool {
        self.sites
            .get(&target)
            .and_then(|s| s.open_until)
            .is_some_and(|t| now < t)
    }

    /// A correlated response arrived: the site is reachable. Full reset.
    fn record_success(&mut self, target: SiteId) {
        self.sites.remove(&target);
    }

    /// A transport-level failure. Returns the open interval when this
    /// strike tripped (or re-tripped) the breaker.
    fn record_failure(&mut self, target: SiteId, now: Instant) -> Option<Duration> {
        let s = self.sites.entry(target).or_default();
        s.failures = s.failures.saturating_add(1);
        // Before the first open, demand a full threshold of strikes; in
        // half-open, a single failed probe re-opens immediately.
        if s.opens == 0 && s.failures < BREAKER_THRESHOLD {
            return None;
        }
        s.opens = s.opens.saturating_add(1);
        let base = BREAKER_BASE
            .saturating_mul(1u32 << (s.opens - 1).min(16))
            .min(BREAKER_CAP);
        let delay = base.mul_f64(1.0 + self.rng.jitter(BREAKER_JITTER));
        s.open_until = Some(now + delay);
        Some(delay)
    }
}

/// How one submitted call ended, as reported by the reactor.
enum CallOutcome {
    /// A correlated response arrived.
    Response(RegistryResponse),
    /// The connection died before this call's frame fully reached the
    /// kernel: the server cannot have seen it — safe to retry.
    NotSent,
    /// The frame was flushed but the connection died before a response:
    /// the server may have applied it — **never** re-send.
    Failed,
}

/// Mutable state of one call slot, guarded by the slot's mutex.
struct SlotState {
    /// Submission generation: bumped by the caller on every submission
    /// and again on timeout, so a late delivery against a stale
    /// generation is dropped instead of resolving a recycled slot.
    gen: u64,
    /// The reactor's verdict for the current generation.
    outcome: Option<CallOutcome>,
    /// The caller's reused submission buffer: cleared (never shrunk) and
    /// re-encoded into on every call, so steady-state submission touches
    /// no allocator.
    body: Vec<u8>,
    target: SiteId,
    /// Membership epoch to stamp on the frame's [`CallHeader`]; `None`
    /// for epoch-exempt requests.
    epoch: Option<u64>,
}

/// One slot of the call slab: a caller parks on `cv` until the reactor
/// delivers an outcome for its generation.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl CallSlot {
    fn new() -> CallSlot {
        CallSlot {
            state: Mutex::new(SlotState {
                gen: 0,
                outcome: None,
                body: Vec::new(),
                target: SiteId(0),
                epoch: None,
            }),
            cv: Condvar::new(),
        }
    }
}

/// The call slab: a free list of recycled slots plus the submission
/// queue the reactor drains. Both are plain `Mutex<Vec>`s — pushing a
/// recycled slot or a submission is lock-push-unlock with no allocation
/// once the vectors reach their high-water mark (a channel here would
/// allocate per send in the vendored shim).
struct CallSlab {
    /// Submissions awaiting the reactor, with the generation each was
    /// made under. Drained wholesale by `mem::swap` into the reactor's
    /// local vector.
    queue: Mutex<Vec<(Arc<CallSlot>, u64)>>,
    /// Recycled slots ready for the next caller.
    free: Mutex<Vec<Arc<CallSlot>>>,
}

/// Deliver `outcome` to a slot if its generation still matches, waking
/// the parked caller.
fn deliver(slot: &CallSlot, gen: u64, outcome: CallOutcome) {
    let mut st = slot.state.lock();
    if st.gen == gen {
        st.outcome = Some(outcome);
        slot.cv.notify_one();
    }
}

/// A call waiting for its response on some connection.
struct PendingCall {
    seq: u32,
    /// Absolute output offset one past this call's frame: the frame is
    /// fully in the kernel iff `end_abs <= flushed_abs`.
    end_abs: u64,
    slot: Arc<CallSlot>,
    /// Generation the slot was submitted under (guards late delivery).
    gen: u64,
}

/// One reactor-owned pipelined connection.
struct CConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Pending output; `sent` is the already-flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// Lifetime bytes handed to the kernel on this connection.
    flushed_abs: u64,
    /// Lifetime bytes appended to `out` on this connection.
    queued_abs: u64,
    next_seq: u32,
    pending: VecDeque<PendingCall>,
}

/// Max `FrameReader::fill` calls per readiness pass (≤16 KiB each); the
/// level-triggered poller re-fires for leftovers.
const MAX_FILLS_PER_PASS: usize = 16;

impl CConn {
    fn new(stream: TcpStream) -> CConn {
        CConn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            sent: 0,
            flushed_abs: 0,
            queued_abs: 0,
            next_seq: 0,
            pending: VecDeque::new(),
        }
    }

    /// Frame one call (`[CallHeader][req]`) onto the output buffer and
    /// record it pending.
    // geometa-hot
    fn enqueue_call(&mut self, body: &[u8], epoch: Option<u64>, slot: Arc<CallSlot>, gen: u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let frame_body = CallHeader::encoded_len(epoch) + body.len();
        self.out
            .extend_from_slice(&(frame_body as u32).to_le_bytes());
        CallHeader { seq, epoch }.encode_into(&mut self.out);
        self.out.extend_from_slice(body);
        self.queued_abs += (4 + frame_body) as u64;
        self.pending.push_back(PendingCall {
            seq,
            end_abs: self.queued_abs,
            slot,
            gen,
        });
    }

    /// Drain readable bytes and resolve every complete response frame.
    /// Returns false when the connection must be dropped.
    // geometa-hot
    fn pump_read(&mut self) -> bool {
        let mut alive = true;
        for _ in 0..MAX_FILLS_PER_PASS {
            match self.reader.fill(&mut self.stream) {
                Ok(Fill::Progress) => continue,
                Ok(Fill::Idle) => break,
                Ok(Fill::Eof) | Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        // Resolve responses that made it through even when the stream
        // just died — those callers get real answers, not Unavailable.
        // Frames are popped as ranges into the read buffer: correlating
        // a response touches the heap only when the response carries a
        // payload (`Found`/`Delta`/`Status`) that must outlive the pass.
        loop {
            let range = match self.reader.next_frame_range() {
                Ok(Some(range)) => range,
                Ok(None) => break,
                Err(_) => return false,
            };
            if !resolve_frame(&self.reader, range, &mut self.pending) {
                return false;
            }
        }
        alive
    }

    /// Push pending output to the kernel. `Ok(true)` = fully drained.
    fn flush_out(&mut self) -> std::io::Result<bool> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.sent += n;
                    self.flushed_abs += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.sent > 256 * 1024 {
                        self.out.drain(..self.sent);
                        self.sent = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(true)
    }

    /// The connection is dead: report every pending call per the
    /// exactly-once rule — fully-flushed frames *may* have been applied
    /// (`Failed`), partially-flushed ones cannot have been (`NotSent`).
    fn fail_pending(self) {
        for p in self.pending {
            let outcome = if p.end_abs <= self.flushed_abs {
                CallOutcome::Failed
            } else {
                CallOutcome::NotSent
            };
            deliver(&p.slot, p.gen, outcome);
        }
    }
}

/// Correlate one response frame (`[u32_le seq][response]`) back to its
/// caller. False on a protocol violation. Fixed-shape responses (`Ack`,
/// payload-free errors) decode straight from the borrowed frame view;
/// everything else is copied out of the read buffer first. A garbled
/// response still *arrived*: per the exactly-once contract it resolves
/// the call (as a codec error), it does not trigger a retry. An unknown
/// seq is a caller that already timed out — nothing to do.
// geometa-hot
fn resolve_frame(
    reader: &FrameReader,
    range: std::ops::Range<usize>,
    pending: &mut VecDeque<PendingCall>,
) -> bool {
    let body = reader.view(range.clone());
    if body.len() < 4 {
        return false;
    }
    let seq = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    let Some(pos) = pending.iter().position(|p| p.seq == seq) else {
        return true;
    };
    let resp = match protocol::decode_fixed_response(&body[4..]) {
        Some(resp) => resp,
        None => match RegistryResponse::decode(reader.materialize(range.start + 4..range.end)) {
            Ok(resp) => resp,
            Err(error) => RegistryResponse::Error { error },
        },
    };
    if let Some(p) = pending.remove(pos) {
        deliver(&p.slot, p.gen, CallOutcome::Response(resp));
    }
    true
}

/// Poller key for the reactor's wake pipe.
const WAKE_KEY: usize = usize::MAX;

/// The client-side reactor: one thread multiplexing every pipelined
/// connection plus the wake pipe through the poll shim.
struct CallReactor {
    poller: Poller,
    /// Connections indexed by `SiteId.0` (site ids are dense).
    conns: Vec<Option<CConn>>,
    addrs: HashMap<SiteId, SocketAddr>,
    tick: Duration,
    /// True only while the reactor may be blocked in `poll`. Submitters
    /// skip the wake-byte syscall whenever this is false — under load
    /// the reactor is mid-pass and will drain the queue anyway, so the
    /// common case sends zero wake bytes.
    parked: Arc<AtomicBool>,
}

impl CallReactor {
    fn run(mut self, slab: Arc<CallSlab>, wake_rx: UnixStream, closing: Arc<AtomicBool>) {
        let mut events: Vec<Event> = Vec::new();
        // Reactor-local submission scratch, swapped with the slab queue:
        // draining N submissions is one lock and zero allocation.
        let mut local: Vec<(Arc<CallSlot>, u64)> = Vec::new();
        while !closing.load(Ordering::Acquire) {
            events.clear();
            // Park gate, SeqCst-paired with the swap in
            // `TcpClientTransport::submit`: either the submitter sees
            // `parked == true` and writes a wake byte, or its push is
            // already visible to the drain below and we skip the sleep.
            // Both orders are covered; a missed wake is not possible.
            self.parked.store(true, Ordering::SeqCst);
            std::mem::swap(&mut *slab.queue.lock(), &mut local);
            if !local.is_empty() {
                // Submissions raced our parking (their callers may have
                // skipped the wake byte): process them now, don't sleep.
                self.parked.store(false, Ordering::SeqCst);
                for (slot, gen) in local.drain(..) {
                    self.submit(&slot, gen);
                }
            } else if self.poller.wait(&mut events, Some(self.tick)).is_err() {
                break;
            } else {
                self.parked.store(false, Ordering::SeqCst);
            }
            for &ev in &events {
                if ev.key == WAKE_KEY {
                    drain_wake(&wake_rx);
                    continue;
                }
                if !ev.readable {
                    continue; // writes happen in the flush pass below
                }
                let Some(conn) = self.conns.get_mut(ev.key).and_then(Option::as_mut) else {
                    continue;
                };
                if !conn.pump_read() {
                    self.kill(ev.key);
                }
            }
            // Coalesce: every submission queued right now is framed
            // before the flush pass, so concurrent callers' requests
            // leave in one kernel write per connection.
            std::mem::swap(&mut *slab.queue.lock(), &mut local);
            for (slot, gen) in local.drain(..) {
                self.submit(&slot, gen);
            }
            self.flush_all();
        }
        // Shutdown: nothing more will be read, so every still-pending
        // call is dead. Report per the flushed-bytes rule; callers map
        // both outcomes to Unavailable once the transport is closing.
        for conn in std::mem::take(&mut self.conns).into_iter().flatten() {
            let _ = self.poller.delete(&conn.stream);
            conn.fail_pending();
        }
        // Submissions still queued never touched a socket: resolve them
        // too (as Failed — the transport is closing, the caller maps it
        // to Unavailable) instead of leaving callers to ride out their
        // full timeout.
        std::mem::swap(&mut *slab.queue.lock(), &mut local);
        for (slot, gen) in local.drain(..) {
            deliver(&slot, gen, CallOutcome::Failed);
        }
    }

    /// Route one submission onto its target's connection, dialing if
    /// needed. Dial failures are `NotSent` by definition.
    // geometa-hot
    fn submit(&mut self, slot: &Arc<CallSlot>, gen: u64) {
        let st = slot.state.lock();
        if CallHeader::encoded_len(st.epoch) + st.body.len() > MAX_FRAME {
            drop(st);
            deliver(slot, gen, CallOutcome::NotSent); // unframeable
            return;
        }
        let key = st.target.0 as usize;
        if key >= self.conns.len() {
            self.conns.resize_with(key + 1, || None);
        }
        if self.conns[key].is_none() {
            let Some(&addr) = self.addrs.get(&st.target) else {
                drop(st);
                deliver(slot, gen, CallOutcome::NotSent); // unknown site
                return;
            };
            let conn = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).and_then(|stream| {
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                self.poller.add(&stream, Event::readable(key))?;
                Ok(CConn::new(stream))
            });
            match conn {
                Ok(conn) => self.conns[key] = Some(conn),
                Err(_) => {
                    drop(st);
                    deliver(slot, gen, CallOutcome::NotSent);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns[key].as_mut() {
            conn.enqueue_call(&st.body, st.epoch, Arc::clone(slot), gen);
        }
    }

    /// Flush every connection's backlog and refresh poller interest.
    fn flush_all(&mut self) {
        for key in 0..self.conns.len() {
            let Some(conn) = self.conns[key].as_mut() else {
                continue;
            };
            let flushed = conn.flush_out();
            match flushed {
                Err(_) => self.kill(key),
                Ok(drained) => {
                    let interest = Event {
                        key,
                        readable: true,
                        writable: !drained,
                    };
                    if self.poller.modify(&conn.stream, interest).is_err() {
                        self.kill(key);
                    }
                }
            }
        }
    }

    /// Drop one connection, resolving its pending calls.
    fn kill(&mut self, key: usize) {
        if let Some(conn) = self.conns[key].take() {
            let _ = self.poller.delete(&conn.stream);
            conn.fail_pending();
        }
    }
}

/// Drain the wake pipe (coalesced wake-ups are the point).
fn drain_wake(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    while matches!((&mut { wake_rx }).read(&mut sink), Ok(n) if n > 0) {}
}

/// A pipelining, reconnecting [`RegistryTransport`] over framed TCP.
///
/// * **Pipelining** — all calls to one target share one connection;
///   many can be in flight at once, correlated by sequence id, and
///   submissions queued together coalesce into one kernel write.
/// * **Exactly-once retries** — a call is re-sent only when its frame
///   provably never fully reached the kernel (connect failure, pre-write
///   error, partial flush). Timeouts and post-flush failures surface as
///   `Unavailable` without a second send (see the module docs).
/// * **Fire-and-forget casts** — `cast` hands the pre-encoded frame to a
///   background pump thread with its own connections; the caller returns
///   immediately, so a slow or dead target cannot stall the lazy path.
pub struct TcpClientTransport {
    addrs: HashMap<SiteId, SocketAddr>,
    /// The call slab (slots + submission queue) shared with the reactor.
    slab: Arc<CallSlab>,
    wake_tx: UnixStream,
    reactor: Option<std::thread::JoinHandle<()>>,
    cast_tx: Option<Sender<(SiteId, bytes::Bytes)>>,
    cast_worker: Option<std::thread::JoinHandle<()>>,
    closing: Arc<AtomicBool>,
    /// Mirror of the reactor's park gate (see `CallReactor::parked`).
    reactor_parked: Arc<AtomicBool>,
    call_timeout: Duration,
    boot: Instant,
    /// Last membership epoch learned from the cluster; stamped on every
    /// epoch-checked call frame. Starts at 0, matching a fresh cluster;
    /// a stale value is corrected by the first `WrongEpoch` rejection.
    mem_epoch: AtomicU64,
    /// Per-site call breaker (see [`CircuitBreaker`]); shared with the
    /// cast path for shedding.
    breaker: Mutex<CircuitBreaker>,
    /// Calls answered `Unavailable` without touching the socket because
    /// the target's breaker was open.
    breaker_fast_fails: AtomicU64,
    /// Casts dropped at enqueue because the target's breaker was open
    /// (shed lazy pushes before acked calls under breaker pressure).
    casts_shed: AtomicU64,
    /// The cast pump's backoff schedule, shared so callers can observe
    /// per-target strike counts ([`Self::cast_strikes`]).
    cast_backoff: Arc<Mutex<CastBackoff>>,
}

impl TcpClientTransport {
    /// A transport dialing `addrs` (lazily, per target). Routing is fully
    /// determined by the target argument of each call, so one instance is
    /// shared by clients at every site. `io_tick` bounds the reactor's
    /// poll wait — it is the shutdown-observation latency, plumbed from
    /// `TcpConfig::read_timeout` by the TCP layer.
    pub fn new(
        addrs: HashMap<SiteId, SocketAddr>,
        call_timeout: Duration,
        io_tick: Duration,
    ) -> TcpClientTransport {
        let closing = Arc::new(AtomicBool::new(false));

        // -- call reactor ---------------------------------------------------
        let (wake_tx, wake_rx) = UnixStream::pair().expect("socketpair"); // geometa-lint: allow(net-unwrap) construction-time, before any peer traffic: a host that cannot allocate a socketpair cannot run the transport at all
        let _ = wake_tx.set_nonblocking(true);
        let _ = wake_rx.set_nonblocking(true);
        let slab = Arc::new(CallSlab {
            queue: Mutex::new(Vec::new()),
            free: Mutex::new(Vec::new()),
        });
        let poller = Poller::new().expect("poller"); // geometa-lint: allow(net-unwrap) construction-time, infallible in the poll(2) shim
        poller
            .add(&wake_rx, Event::readable(WAKE_KEY))
            .expect("register wake pipe"); // geometa-lint: allow(net-unwrap) construction-time: fresh poller, fresh fd, cannot already be registered
        let reactor_parked = Arc::new(AtomicBool::new(true));
        let reactor_state = CallReactor {
            poller,
            conns: Vec::new(),
            addrs: addrs.clone(),
            tick: io_tick,
            parked: Arc::clone(&reactor_parked),
        };
        let reactor_closing = Arc::clone(&closing);
        let reactor_slab = Arc::clone(&slab);
        // geometa-lint: allow(untracked-thread) the reactor's handle is stored in `reactor` and joined in Drop
        let reactor = std::thread::Builder::new()
            .name("tcp-call-reactor".into())
            .spawn(move || reactor_state.run(reactor_slab, wake_rx, reactor_closing))
            .expect("spawn call reactor"); // geometa-lint: allow(net-unwrap) construction-time, before any peer traffic: a host that cannot spawn one thread cannot run the transport at all

        // -- cast pump ------------------------------------------------------
        let (cast_tx, cast_rx) = bounded::<(SiteId, bytes::Bytes)>(CAST_QUEUE);
        let pump_addrs = addrs.clone();
        let pump_closing = Arc::clone(&closing);
        let cast_backoff = Arc::new(Mutex::new(CastBackoff::new(CAST_BACKOFF_SEED)));
        let pump_backoff = Arc::clone(&cast_backoff);
        // geometa-lint: allow(untracked-thread) the cast pump's handle is stored in cast_worker and joined in Drop
        let cast_worker = std::thread::Builder::new()
            .name("tcp-cast-pump".into())
            .spawn(move || cast_pump(&cast_rx, &pump_addrs, &pump_closing, &pump_backoff))
            .expect("spawn cast pump"); // geometa-lint: allow(net-unwrap) construction-time, before any peer traffic: a host that cannot spawn one thread cannot run the transport at all

        TcpClientTransport {
            addrs,
            slab,
            wake_tx,
            reactor: Some(reactor),
            cast_tx: Some(cast_tx),
            cast_worker: Some(cast_worker),
            closing,
            reactor_parked,
            call_timeout,
            boot: Instant::now(),
            mem_epoch: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_SEED)),
            breaker_fast_fails: AtomicU64::new(0),
            casts_shed: AtomicU64::new(0),
            cast_backoff,
        }
    }

    /// Hand one slot to the reactor, waking it only if it might be
    /// blocked in `poll` (see `CallReactor::parked` for the pairing).
    // geometa-hot
    fn submit(&self, slot: &Arc<CallSlot>, gen: u64) -> Result<(), ()> {
        if self.closing.load(Ordering::Acquire) {
            return Err(());
        }
        self.slab.queue.lock().push((Arc::clone(slot), gen));
        // swap, not load: concurrent submitters collapse into a single
        // wake byte, and a full wake pipe already guarantees a pending
        // wake-up anyway.
        if self.reactor_parked.swap(false, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write(&[1]);
        }
        Ok(())
    }

    /// Run one call on an acquired slot: encode into the slot's reused
    /// buffer, submit, park on the slot's condvar, apply the
    /// exactly-once retry rule. The slot is returned to the free list by
    /// the caller ([`RegistryTransport::call`]).
    // geometa-hot
    fn call_on_slot(
        &self,
        slot: &Arc<CallSlot>,
        target: SiteId,
        epoch: Option<u64>,
        req: &RegistryRequest,
    ) -> RegistryResponse {
        for attempt in 0..2 {
            let gen = {
                let mut st = slot.state.lock();
                st.gen = st.gen.wrapping_add(1);
                st.outcome = None;
                st.target = target;
                st.epoch = epoch;
                if attempt == 0 {
                    st.body.clear();
                    req.encode_into(&mut st.body);
                }
                // A NotSent retry reuses the already-encoded body.
                st.gen
            };
            if self.submit(slot, gen).is_err() {
                break; // transport closing
            }
            let deadline = Instant::now() + self.call_timeout;
            let outcome = {
                let mut st = slot.state.lock();
                while st.outcome.is_none() {
                    if slot.cv.wait_until(&mut st, deadline).timed_out() {
                        break;
                    }
                }
                let outcome = st.outcome.take();
                if outcome.is_none() {
                    // Timed out: bump the generation under the lock so a
                    // late delivery against this submission is dropped
                    // instead of resolving the slot's next occupant.
                    st.gen = st.gen.wrapping_add(1);
                }
                outcome
            };
            match outcome {
                Some(CallOutcome::Response(resp)) => {
                    // Any correlated response — even a server-sent error
                    // — proves the transport works: close the breaker.
                    self.breaker.lock().record_success(target);
                    // A WrongEpoch rejection names the current epoch:
                    // adopt it eagerly so the very next call is stamped
                    // correctly even before the caller re-plans.
                    if let RegistryResponse::Error {
                        error: MetaError::WrongEpoch { epoch },
                    } = resp
                    {
                        self.mem_epoch.store(epoch, Ordering::Release);
                    }
                    return resp;
                }
                // The frame never fully reached the kernel: the one case
                // where a second send cannot double-apply.
                Some(CallOutcome::NotSent) if attempt == 0 => continue,
                // Flushed-but-unanswered, exhausted retries, a timeout,
                // or reactor death: the server may have applied the
                // request — report Unavailable, never re-send.
                Some(CallOutcome::NotSent) | Some(CallOutcome::Failed) | None => break,
            }
        }
        self.breaker.lock().record_failure(target, Instant::now());
        RegistryResponse::Error {
            error: MetaError::Unavailable,
        }
    }

    /// Membership epoch this transport currently stamps on calls.
    pub fn membership_epoch(&self) -> u64 {
        self.mem_epoch.load(Ordering::Acquire)
    }

    /// Whether `target`'s call breaker is open right now.
    pub fn breaker_open(&self, target: SiteId) -> bool {
        self.breaker.lock().is_open(target, Instant::now())
    }

    /// Calls fast-failed without touching the socket (open breaker).
    pub fn breaker_fast_fails(&self) -> u64 {
        self.breaker_fast_fails.load(Ordering::Relaxed)
    }

    /// Casts shed at enqueue because the target's breaker was open.
    pub fn casts_shed(&self) -> u64 {
        self.casts_shed.load(Ordering::Relaxed)
    }

    /// The cast pump's consecutive-failure count for `target` (0 once a
    /// delivery succeeds — recovery tests assert this reset directly).
    pub fn cast_strikes(&self, target: SiteId) -> u32 {
        self.cast_backoff.lock().strikes(target)
    }
}

/// The cast pump loop: drain the queue, coalesce by target, deliver each
/// group with one flush.
fn cast_pump(
    cast_rx: &Receiver<(SiteId, bytes::Bytes)>,
    addrs: &HashMap<SiteId, SocketAddr>,
    closing: &AtomicBool,
    backoff: &Mutex<CastBackoff>,
) {
    let mut conns: HashMap<SiteId, TcpStream> = HashMap::new();
    while let Ok(first) = cast_rx.recv() {
        // On close, discard the backlog instead of pushing it through
        // (possibly wedged) peers — otherwise Drop could wait
        // queue_len × write_timeout.
        if closing.load(Ordering::Acquire) {
            break;
        }
        // Write coalescing: everything already queued leaves in this
        // pass, grouped by target (per-target arrival order preserved),
        // each group written back-to-back with a single flush.
        let mut groups: Vec<(SiteId, Vec<bytes::Bytes>)> = Vec::new();
        for (target, body) in std::iter::once(first).chain(cast_rx.try_iter()) {
            match groups.iter_mut().find(|(t, _)| *t == target) {
                Some((_, bodies)) => bodies.push(body),
                None => groups.push((target, vec![body])),
            }
        }
        for (target, bodies) in groups {
            if closing.load(Ordering::Acquire) {
                return;
            }
            let Some(&addr) = addrs.get(&target) else {
                continue;
            };
            // Dead-peer backoff: casts to a recently failed target drop
            // instantly rather than paying connect timeouts per group
            // and starving other sites. The lock is shared only with
            // cheap observers (`cast_strikes`), never held across I/O.
            if backoff.lock().is_dead(target, Instant::now()) {
                continue;
            }
            // One reconnect attempt per group; on failure the group is
            // dropped (lazy pushes are best-effort — the strategies
            // re-converge via absorb idempotence). Every write is
            // deadline-armed, so a stalled target costs at most
            // CAST_WRITE_TIMEOUT per frame before the pump moves on.
            let mut delivered = false;
            for _ in 0..2 {
                let ok = match conns.entry(target) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let ok = write_cast_group(e.get_mut(), &bodies).is_ok();
                        if !ok {
                            e.remove();
                        }
                        ok
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match TcpStream::connect_timeout(&addr, CAST_CONNECT_TIMEOUT) {
                            Ok(mut s) => {
                                let _ = s.set_nodelay(true);
                                let _ = s.set_write_timeout(Some(CAST_WRITE_TIMEOUT));
                                let ok = write_cast_group(&mut s, &bodies).is_ok();
                                if ok {
                                    e.insert(s);
                                }
                                ok
                            }
                            Err(_) => false,
                        }
                    }
                };
                if ok {
                    delivered = true;
                    break;
                }
            }
            if delivered {
                backoff.lock().record_success(target);
            } else {
                backoff.lock().record_failure(target, Instant::now());
            }
        }
    }
}

/// Write one target's coalesced cast frames, flushing once at the end.
fn write_cast_group(stream: &mut TcpStream, bodies: &[bytes::Bytes]) -> std::io::Result<()> {
    for body in bodies {
        write_frame_with_mode(stream, MODE_CAST, body)?;
    }
    stream.flush()
}

impl RegistryTransport for TcpClientTransport {
    // geometa-hot
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        // Epoch-checked requests carry the cached membership epoch and
        // respect the breaker. Exempt requests (Status, Reconfigure,
        // replication plumbing) always go through — they are how a
        // half-open site is probed and how stale clients re-learn the
        // membership, so fast-failing them would wedge recovery.
        let checked = epoch_checked(&req);
        if checked && self.breaker.lock().is_open(target, Instant::now()) {
            self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            return RegistryResponse::Error {
                error: MetaError::Unavailable,
            };
        }
        let epoch = checked.then(|| self.mem_epoch.load(Ordering::Acquire));
        // A recycled slot from the free list; the slab grows (one Arc)
        // only while warming up past its previous high-water mark.
        let slot = {
            let recycled = self.slab.free.lock().pop();
            recycled.unwrap_or_else(|| Arc::new(CallSlot::new()))
        };
        let resp = self.call_on_slot(&slot, target, epoch, &req);
        self.slab.free.lock().push(slot);
        resp
    }

    /// Enqueue on the cast pump; never blocks on the target. When the
    /// pump is `CAST_QUEUE` messages behind the cast is dropped rather
    /// than growing the queue without bound, and when the target's call
    /// breaker is open the cast is shed immediately — under breaker
    /// pressure lazy pushes are sacrificed before acked calls
    /// (best-effort semantics; absorb idempotence re-converges).
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        if self.breaker.lock().is_open(target, Instant::now()) {
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(tx) = &self.cast_tx {
            if let Err(TrySendError::Full(_)) = tx.try_send((target, req.encode())) {
                // Dropped: the pump is saturated or wedged on a slow peer.
            }
        }
    }

    fn now_micros(&self) -> u64 {
        self.boot.elapsed().as_micros() as u64
    }

    fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<SiteId> = self.addrs.keys().copied().collect();
        s.sort();
        s
    }

    /// Ask the cluster for the current membership: probe every known
    /// address (breaker-exempt `Status` calls) until one answers, adopt
    /// its epoch, and hand `(epoch, members)` to the caller for
    /// re-planning.
    fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
        for site in self.sites() {
            if let RegistryResponse::Status { status } = self.call(site, RegistryRequest::Status) {
                self.mem_epoch.store(status.epoch, Ordering::Release);
                return Some((status.epoch, status.members));
            }
        }
        None
    }
}

impl Drop for TcpClientTransport {
    fn drop(&mut self) {
        // Flag first so both workers discard any backlog (and `submit`
        // rejects new slots), then poke the wake pipe so they observe
        // the flag promptly; joins are bounded by one poll tick / write
        // timeout. The reactor resolves everything pending or queued on
        // its way out.
        self.closing.store(true, Ordering::Release);
        let _ = (&self.wake_tx).write(&[1]);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        drop(self.cast_tx.take());
        if let Some(h) = self.cast_worker.take() {
            let _ = h.join();
        }
    }
}

/// Convenience: a transport for a cluster listening on `addrs[i]` for
/// site *i* (the `geometa-load --connect` path).
pub fn transport_for(addrs: &[SocketAddr], call_timeout: Duration) -> Arc<TcpClientTransport> {
    // geometa-lint: allow(unordered-iter) `addrs` here is the slice parameter (caller-ordered), not this file's HashMap field of the same name
    let map = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| (SiteId(i as u16), a))
        .collect();
    Arc::new(TcpClientTransport::new(
        map,
        call_timeout,
        Duration::from_millis(25),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_backoff_doubles_to_the_cap_within_jitter_bounds() {
        let mut b = CastBackoff::new(1);
        let t = SiteId(0);
        let now = Instant::now();
        let mut expected = CAST_BACKOFF_BASE;
        let mut prev_hit_cap = false;
        for _ in 0..12 {
            let d = b.record_failure(t, now);
            let lo = expected.mul_f64(1.0 - CAST_BACKOFF_JITTER);
            let hi = expected.mul_f64(1.0 + CAST_BACKOFF_JITTER);
            assert!(
                d >= lo && d <= hi,
                "delay {d:?} outside jitter band [{lo:?}, {hi:?}]"
            );
            if expected >= CAST_BACKOFF_CAP {
                prev_hit_cap = true;
            } else {
                expected *= 2;
                expected = expected.min(CAST_BACKOFF_CAP);
            }
        }
        assert!(prev_hit_cap, "12 strikes must reach the cap");
    }

    #[test]
    fn cast_backoff_success_resets_and_targets_are_independent() {
        let mut b = CastBackoff::new(2);
        let now = Instant::now();
        let (a, c) = (SiteId(1), SiteId(2));
        for _ in 0..5 {
            b.record_failure(a, now);
        }
        // Target `c` starts from the base despite `a`'s strike count…
        assert!(b.record_failure(c, now) <= CAST_BACKOFF_BASE.mul_f64(1.0 + CAST_BACKOFF_JITTER));
        assert!(b.is_dead(a, now));
        // …and a success forgets the whole history for that target only.
        b.record_success(a);
        assert!(!b.is_dead(a, now));
        assert!(b.is_dead(c, now));
        assert!(b.record_failure(a, now) <= CAST_BACKOFF_BASE.mul_f64(1.0 + CAST_BACKOFF_JITTER));
    }

    #[test]
    fn cast_backoff_jitter_is_deterministic_per_seed() {
        let now = Instant::now();
        let run = |seed: u64| -> Vec<Duration> {
            let mut b = CastBackoff::new(seed);
            (0..8).map(|_| b.record_failure(SiteId(0), now)).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds de-correlate");
    }

    #[test]
    fn cast_backoff_expires_by_the_clock() {
        let mut b = CastBackoff::new(3);
        let now = Instant::now();
        let d = b.record_failure(SiteId(0), now);
        assert!(b.is_dead(SiteId(0), now));
        assert!(!b.is_dead(SiteId(0), now + d));
    }

    #[test]
    fn pending_calls_resolve_by_the_flushed_bytes_rule() {
        // Two frames queued; only the first fully flushed when the
        // connection dies. The first may have been applied (Failed),
        // the second provably was not (NotSent).
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        let stream = {
            // A TcpStream is required by the struct; dial a throwaway
            // loopback listener (never read from).
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap()
        };
        drop(a);
        let mut conn = CConn::new(stream);
        let slot1 = Arc::new(CallSlot::new());
        let slot2 = Arc::new(CallSlot::new());
        conn.enqueue_call(b"first", None, Arc::clone(&slot1), 0);
        let first_end = conn.queued_abs;
        conn.enqueue_call(b"second", None, Arc::clone(&slot2), 0);
        // Pretend the kernel took the first frame plus half the second.
        conn.flushed_abs = first_end + 3;
        conn.fail_pending();
        assert!(matches!(
            slot1.state.lock().outcome,
            Some(CallOutcome::Failed)
        ));
        assert!(matches!(
            slot2.state.lock().outcome,
            Some(CallOutcome::NotSent)
        ));
    }

    #[test]
    fn stale_generation_deliveries_are_dropped() {
        let slot = Arc::new(CallSlot::new());
        slot.state.lock().gen = 7;
        deliver(&slot, 6, CallOutcome::Failed);
        assert!(slot.state.lock().outcome.is_none(), "stale gen must drop");
        deliver(&slot, 7, CallOutcome::Failed);
        assert!(matches!(
            slot.state.lock().outcome,
            Some(CallOutcome::Failed)
        ));
    }

    #[test]
    fn epoch_calls_carry_the_epoch_in_the_frame_header() {
        let stream = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap()
        };
        let mut conn = CConn::new(stream);
        let slot = Arc::new(CallSlot::new());
        conn.enqueue_call(b"req", Some(0xDEAD_BEEF_0042), slot, 0);
        // [len u32][mode][seq u32][epoch u64][body]
        let out = &conn.out;
        let len = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
        assert_eq!(len, 1 + 4 + 8 + 3);
        let header = CallHeader {
            seq: 0,
            epoch: Some(0xDEAD_BEEF_0042),
        };
        assert_eq!(CallHeader::parse(&out[4..]), Some((header, 13)));
        assert_eq!(&out[17..20], b"req");
        assert_eq!(conn.queued_abs, (4 + len) as u64);
    }

    #[test]
    fn breaker_opens_after_threshold_and_halfopen_reopens_on_failure() {
        let mut b = CircuitBreaker::new(1);
        let t = SiteId(0);
        let now = Instant::now();
        // Two strikes: still closed.
        assert!(b.record_failure(t, now).is_none());
        assert!(b.record_failure(t, now).is_none());
        assert!(!b.is_open(t, now));
        // Third strike trips it, within the jitter band of the base.
        let d1 = b.record_failure(t, now).expect("threshold trips");
        assert!(d1 >= BREAKER_BASE.mul_f64(1.0 - BREAKER_JITTER));
        assert!(d1 <= BREAKER_BASE.mul_f64(1.0 + BREAKER_JITTER));
        assert!(b.is_open(t, now));
        // The interval lapses: half-open (not open), and one failed
        // probe re-opens immediately at roughly double the interval.
        let later = now + d1;
        assert!(!b.is_open(t, later));
        let d2 = b
            .record_failure(t, later)
            .expect("half-open failure re-opens");
        assert!(d2 >= (BREAKER_BASE * 2).mul_f64(1.0 - BREAKER_JITTER));
        assert!(b.is_open(t, later));
    }

    #[test]
    fn breaker_success_closes_and_resets_the_schedule() {
        let mut b = CircuitBreaker::new(2);
        let (t, u) = (SiteId(3), SiteId(4));
        let now = Instant::now();
        for _ in 0..6 {
            b.record_failure(t, now);
        }
        assert!(b.is_open(t, now));
        assert!(!b.is_open(u, now), "breakers are per-site");
        b.record_success(t);
        assert!(!b.is_open(t, now));
        // After the reset a single failure is a first strike again.
        assert!(b.record_failure(t, now).is_none());
    }

    #[test]
    fn breaker_open_interval_caps_out() {
        let mut b = CircuitBreaker::new(3);
        let t = SiteId(0);
        let now = Instant::now();
        let mut last = Duration::ZERO;
        for _ in 0..24 {
            if let Some(d) = b.record_failure(t, now) {
                last = d;
            }
        }
        assert!(last <= BREAKER_CAP.mul_f64(1.0 + BREAKER_JITTER));
        assert!(last >= BREAKER_CAP.mul_f64(1.0 - BREAKER_JITTER));
    }
}
