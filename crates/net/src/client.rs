//! The TCP client transport: one pipelined connection per target site,
//! written and read by the calling threads themselves, with a background
//! cast pump so the lazy path never blocks on a slow target.
//!
//! # Calls: caller-driven I/O
//!
//! A `call` frames `[len][CallHeader][request]` straight into its target
//! connection's output buffer, registers itself pending under a
//! per-connection sequence id and issues the nonblocking `write` itself;
//! there is no I/O thread. Someone must then read the socket. Each
//! connection has one *read half* (its [`FrameReader`]), and holding it is
//! *leading* the connection: the leader polls the socket
//! ([`polling::wait_one`], bounded by its own call deadline), reads, and
//! correlates every response frame by its echoed sequence id, so responses
//! may arrive in any order. A caller takes the read half if it rests on
//! the connection; otherwise a leader exists and the caller parks on its
//! call slot's condvar. The hand-off rule, by what the leader does:
//!
//! * pops **its own response** — returns with it, once it has resolved
//!   whatever else the same read delivered;
//! * pops **another caller's response** — removes that call from the
//!   pending list, stores the outcome in its slot and wakes it;
//! * **leaves** (own response, own deadline, dead connection) — moves the
//!   read half into one still-pending caller's slot *under the slot
//!   mutex*, or rests it on the connection if no call is pending.
//!
//! A parked caller therefore wakes to exactly one of its outcome, the
//! lead, or its deadline; a promotion cannot be lost, and while any call
//! is pending exactly one thread holds the read half or has it waiting in
//! its slot. A connection with no pending calls has no leader, so nobody
//! would see its peer's FIN: a caller that picks the read half up off the
//! connection *probes* it with one nonblocking read first, and on EOF
//! drops the connection and dials afresh — a peer restart costs a redial,
//! not a failed call. Dials run on the calling thread under a per-site
//! guard, so a dark site stalls only its own callers.
//!
//! Lock order: site table (`Site::dial`, then `Site::conn`) → write half
//! (`Conn::w`) → pending list (`Conn::pending`) → call slot
//! (`CallSlot::state`). None is held across `poll` or `read`: writers and
//! the leader share `&TcpStream`, the leader owns the `FrameReader` by
//! value, and the write-half lock covers at most one nonblocking `write`.
//! A short write leaves its tail in the output buffer (later frames queue
//! behind it, so bytes never leave out of order) and raises
//! [`Conn::backlog`]; the leader adds `POLLOUT` to its wait and finishes
//! the flush. After warm-up a call allocates nothing: slots and buffers
//! are reused, and a slot generation counter (bumped on every attempt and
//! on timeout) guards recycled slots against late deliveries.
//!
//! # Exactly-once retries
//!
//! **A request may be re-sent only if it provably never reached the
//! server.** Each connection counts the bytes handed to the kernel; when
//! it dies, every pending call — parked ones included — is resolved at
//! once: one whose frame was not yet *fully* flushed is
//! [`CallOutcome::NotSent`] (a partial frame can never be decoded, let
//! alone applied) and `call` retries it once on a fresh connection.
//! Everything else — a flushed frame with no response, a response
//! timeout, any bytes of a response — is `Unavailable` with **no second
//! send**: the server may have applied the request, and `Put`/OCC writes
//! are not idempotent across duplicate delivery.

use crate::frame::{
    write_frame_with_mode, CallHeader, Fill, FrameReader, MAX_FILLS_PER_PASS, MAX_FRAME, MODE_CAST,
};
use crate::server::epoch_checked;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::MetaError;
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use parking_lot::{Condvar, Mutex};
use polling::{wait_one, Event};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
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

/// How one call attempt ended on its connection.
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
#[derive(Default)]
struct SlotState {
    /// Attempt generation: bumped by the caller on every attempt and
    /// again on timeout, so a late delivery against a stale generation is
    /// dropped instead of resolving a recycled slot.
    gen: u64,
    /// The verdict for the current generation.
    outcome: Option<CallOutcome>,
    /// The connection's read half, handed on by a leaving leader: the
    /// slot's caller leads from here on.
    lead: Option<FrameReader>,
}

/// One slot of the call slab: a caller parks on `cv` until a leader
/// delivers an outcome for its generation or hands it the lead.
#[derive(Default)]
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
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

/// Take the slot's outcome, or — none arrived — bump the generation so a
/// delivery racing this timeout is dropped.
fn settle(st: &mut SlotState) -> Option<CallOutcome> {
    let outcome = st.outcome.take();
    if outcome.is_none() {
        st.gen = st.gen.wrapping_add(1);
    }
    outcome
}

/// A call waiting for its response on some connection.
struct PendingCall {
    seq: u32,
    /// Absolute output offset one past this call's frame: the frame is
    /// fully in the kernel iff `end_abs <= flushed_abs`.
    end_abs: u64,
    slot: Arc<CallSlot>,
    /// Generation the slot was registered under (guards late delivery).
    gen: u64,
}

/// A connection's write half: callers append and flush one at a time.
#[derive(Default)]
struct WriteHalf {
    /// Pending output; `sent` is the already-flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// Lifetime bytes handed to the kernel on this connection.
    flushed_abs: u64,
    /// Lifetime bytes appended to `out` on this connection.
    queued_abs: u64,
    next_seq: u32,
    /// Set by [`Conn::kill`]: nothing is appended or written afterwards,
    /// so `flushed_abs` is final.
    dead: bool,
}

impl WriteHalf {
    /// Frame one call (`[len][CallHeader][req]`) onto the output buffer.
    /// Returns its sequence id and the offset one past its frame.
    // geometa-hot
    fn enqueue(&mut self, req: &RegistryRequest, epoch: Option<u64>) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let frame_body = CallHeader::encoded_len(epoch) + req.encoded_len();
        let at = self.out.len();
        self.out
            .extend_from_slice(&(frame_body as u32).to_le_bytes());
        CallHeader { seq, epoch }.encode_into(&mut self.out);
        req.encode_into(&mut self.out);
        debug_assert_eq!(self.out.len() - at, 4 + frame_body);
        self.queued_abs += (4 + frame_body) as u64;
        (seq, self.queued_abs)
    }
}

/// The calls awaiting a response on one connection.
struct Waiters {
    calls: Vec<PendingCall>,
    /// The read half while nobody leads (`None` = someone holds it).
    reader: Option<FrameReader>,
}

/// One pipelined connection, shared by every caller to its site.
struct Conn {
    /// Nonblocking; written under `w`, read by whoever leads.
    stream: TcpStream,
    w: Mutex<WriteHalf>,
    pending: Mutex<Waiters>,
    /// An unflushed tail sits in `w.out`: the leader adds `POLLOUT` to its
    /// wait. A hint — the bytes live under `w` — so `Relaxed` suffices. A
    /// leader already in `poll` acts on it at its next wake-up: a
    /// response, or the hand-off to the caller whose write fell short.
    backlog: AtomicBool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            w: Mutex::new(WriteHalf::default()),
            pending: Mutex::new(Waiters {
                calls: Vec::new(),
                reader: Some(FrameReader::new()),
            }),
            backlog: AtomicBool::new(false),
        }
    }

    /// Frame `req` behind whatever is still unflushed, register it pending
    /// for `slot`, take the lead if it is free, and write. On `Err` the
    /// connection must be [killed](Conn::kill), which also settles this
    /// call if it got as far as being registered.
    // geometa-hot
    fn send(
        &self,
        req: &RegistryRequest,
        epoch: Option<u64>,
        slot: &Arc<CallSlot>,
        gen: u64,
        lead: &mut Option<FrameReader>,
    ) -> std::io::Result<()> {
        let mut w = self.w.lock();
        if w.dead {
            return Err(std::io::ErrorKind::NotConnected.into());
        }
        let (seq, end_abs) = w.enqueue(req, epoch);
        {
            let mut p = self.pending.lock();
            p.calls.push(PendingCall {
                seq,
                end_abs,
                slot: Arc::clone(slot),
                gen,
            });
            if lead.is_none() {
                *lead = p.reader.take();
            }
        }
        self.flush(&mut w)
    }

    /// Push the write half's pending output to the kernel and publish
    /// whether a tail remains ([`Conn::backlog`]).
    // geometa-hot
    fn flush(&self, w: &mut WriteHalf) -> std::io::Result<()> {
        if w.dead {
            return Err(std::io::ErrorKind::NotConnected.into());
        }
        while w.sent < w.out.len() {
            match (&self.stream).write(&w.out[w.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    w.sent += n;
                    w.flushed_abs += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if w.sent > 256 * 1024 {
                        w.out.drain(..w.sent);
                        w.sent = 0;
                    }
                    self.backlog.store(true, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        w.out.clear();
        w.sent = 0;
        self.backlog.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Whether an idle connection is still open (nobody was reading it, so
    /// a peer's FIN shows up only now). Bytes that do arrive answer calls
    /// that timed out; the next read pass drops them as unknown seqs.
    fn probe(&self, reader: &mut FrameReader) -> bool {
        for _ in 0..MAX_FILLS_PER_PASS {
            match reader.fill(&mut &self.stream) {
                Ok(Fill::Idle) => return true,
                Ok(Fill::Progress | Fill::Short) => continue,
                Ok(Fill::Eof) | Err(_) => return false,
            }
        }
        true
    }

    /// Drain readable bytes and resolve every complete response frame:
    /// the leader's own (slot `me`) into `mine`, the others to their
    /// slots. Returns false when the connection must be dropped —
    /// responses that made it through before the stream died still
    /// resolve; those callers get real answers, not Unavailable.
    // geometa-hot
    fn pump_read(
        &self,
        reader: &mut FrameReader,
        me: &Arc<CallSlot>,
        mine: &mut Option<CallOutcome>,
    ) -> bool {
        let alive = matches!(reader.drain(&mut &self.stream), Ok(false));
        // Frames are popped as ranges into the read buffer: correlating a
        // response touches the heap only when it carries a payload
        // (`Found`/`Delta`/`Status`) that must outlive the pass.
        loop {
            let range = match reader.next_frame_range() {
                Ok(Some(range)) => range,
                Ok(None) => break,
                Err(_) => return false,
            };
            let body = reader.view(range.clone());
            if body.len() < 4 {
                return false; // no sequence id: protocol violation
            }
            let seq = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let call = {
                let mut p = self.pending.lock();
                let at = p.calls.iter().position(|c| c.seq == seq);
                at.map(|at| p.calls.swap_remove(at))
            };
            // An unknown seq is a caller that already timed out.
            let Some(call) = call else { continue };
            // Fixed-shape responses (`Ack`, payload-free errors) decode
            // from the borrowed view; the rest are copied out first. A
            // garbled response still *arrived*: it resolves the call (as
            // a codec error), it does not trigger a retry.
            let resp = match protocol::decode_fixed_response(&body[4..]) {
                Some(resp) => resp,
                None => {
                    let owned = reader.materialize(range.start + 4..range.end);
                    RegistryResponse::decode(owned)
                        .unwrap_or_else(|error| RegistryResponse::Error { error })
                }
            };
            // A slot has at most one call registered at a time.
            if Arc::ptr_eq(&call.slot, me) {
                *mine = Some(CallOutcome::Response(resp));
            } else {
                deliver(&call.slot, call.gen, CallOutcome::Response(resp));
            }
        }
        alive
    }

    /// Leave the lead: hand the read half to one still-pending caller, or
    /// rest it on the connection. Entries whose generation moved on are
    /// callers between timing out and unregistering; they are skipped.
    fn hand_on(&self, reader: FrameReader) {
        let mut p = self.pending.lock();
        let mut reader = Some(reader);
        for call in &p.calls {
            let mut st = call.slot.state.lock();
            if st.gen == call.gen {
                st.lead = reader.take();
                call.slot.cv.notify_one();
                return;
            }
        }
        p.reader = reader;
    }

    /// The connection is dead: stop further sends, wake whoever waits on
    /// the socket, and report every pending call per the exactly-once
    /// rule — fully-flushed frames *may* have been applied (`Failed`),
    /// partially-flushed ones cannot have been (`NotSent`). Idempotent,
    /// and delivered under the pending lock: when any `kill` returns,
    /// every call that was pending has its verdict.
    fn kill(&self) {
        let flushed_abs = {
            let mut w = self.w.lock();
            w.dead = true;
            w.flushed_abs
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        let mut p = self.pending.lock();
        for call in p.calls.drain(..) {
            let outcome = if call.end_abs <= flushed_abs {
                CallOutcome::Failed
            } else {
                CallOutcome::NotSent
            };
            deliver(&call.slot, call.gen, outcome);
        }
    }
}

/// One target site's entry in the site table.
struct Site {
    addr: SocketAddr,
    /// The live connection, if any.
    conn: Mutex<Option<Arc<Conn>>>,
    /// Held across a dial: one caller connects while the site's other
    /// callers wait for its result; other sites' callers are unaffected.
    dial: Mutex<()>,
}

/// A pipelining, reconnecting [`RegistryTransport`] over framed TCP.
///
/// * **Pipelining** — all calls to one target share one connection;
///   many can be in flight at once, correlated by sequence id; callers
///   write their own requests and one at a time reads for all.
/// * **Exactly-once retries** — a call is re-sent only when its frame
///   provably never fully reached the kernel (connect failure, pre-write
///   error, partial flush). Timeouts and post-flush failures surface as
///   `Unavailable` without a second send (see the module docs).
/// * **Fire-and-forget casts** — `cast` hands the pre-encoded frame to a
///   background pump thread with its own connections; the caller returns
///   immediately, so a slow or dead target cannot stall the lazy path.
pub struct TcpClientTransport {
    /// The site table (ordered, so [`RegistryTransport::sites`] is too).
    targets: BTreeMap<SiteId, Site>,
    /// Recycled call slots. A plain `Mutex<Vec>`: lock-push-unlock with no
    /// allocation once it reaches its high-water mark.
    free: Mutex<Vec<Arc<CallSlot>>>,
    cast_tx: Option<Sender<(SiteId, bytes::Bytes)>>,
    cast_worker: Option<std::thread::JoinHandle<()>>,
    closing: Arc<AtomicBool>,
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
    /// shared by clients at every site. Its one thread is the cast pump.
    pub fn new(addrs: HashMap<SiteId, SocketAddr>, call_timeout: Duration) -> TcpClientTransport {
        let closing = Arc::new(AtomicBool::new(false));
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
        let site = |(id, addr)| {
            let site = Site {
                addr,
                conn: Mutex::new(None),
                dial: Mutex::new(()),
            };
            (id, site)
        };
        TcpClientTransport {
            targets: addrs.into_iter().map(site).collect::<BTreeMap<_, _>>(),
            free: Mutex::new(Vec::new()),
            cast_tx: Some(cast_tx),
            cast_worker: Some(cast_worker),
            closing,
            call_timeout,
            boot: Instant::now(),
            mem_epoch: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_SEED)),
            breaker_fast_fails: AtomicU64::new(0),
            casts_shed: AtomicU64::new(0),
            cast_backoff,
        }
    }

    /// The site's connection, dialed on this thread if there is none.
    // geometa-hot
    fn connect(&self, site: &Site) -> Option<Arc<Conn>> {
        if let Some(conn) = &*site.conn.lock() {
            return Some(Arc::clone(conn));
        }
        let _dialing = site.dial.lock();
        if let Some(conn) = &*site.conn.lock() {
            return Some(Arc::clone(conn)); // the dialer ahead of us got through
        }
        let stream = TcpStream::connect_timeout(&site.addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(Conn::new(stream));
        *site.conn.lock() = Some(Arc::clone(&conn));
        Some(conn)
    }

    /// Unlist and kill a dead connection (the next call dials afresh).
    fn drop_conn(&self, site: &Site, conn: &Arc<Conn>) {
        let mut listed = site.conn.lock();
        if listed.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn)) {
            *listed = None;
        }
        drop(listed);
        conn.kill();
    }

    /// Lead `conn` until the response to the caller's own call (slot `me`)
    /// arrives. `None` = the connection died (the verdict is in the slot)
    /// or `deadline` passed.
    // geometa-hot
    fn lead(
        &self,
        site: &Site,
        conn: &Arc<Conn>,
        reader: &mut FrameReader,
        me: &Arc<CallSlot>,
        deadline: Instant,
    ) -> Option<CallOutcome> {
        let mut mine = None;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let interest = Event {
                writable: conn.backlog.load(Ordering::Relaxed),
                ..Event::readable(0)
            };
            let alive = wait_one(&conn.stream, interest, left).is_ok_and(|ev| {
                (!ev.writable || conn.flush(&mut conn.w.lock()).is_ok())
                    && (!ev.readable || conn.pump_read(reader, me, &mut mine))
            });
            if !alive {
                // Dead by our reading or by a writer's `kill` (its shutdown
                // woke the poll): every pending call has its verdict now.
                self.drop_conn(site, conn);
            }
            if mine.is_some() || !alive {
                return mine;
            }
        }
    }

    /// One attempt at one call: connect, probe, send, then lead the
    /// connection or park behind its leader. `None` = timed out.
    // geometa-hot
    fn attempt(
        &self,
        site: &Site,
        slot: &Arc<CallSlot>,
        epoch: Option<u64>,
        req: &RegistryRequest,
    ) -> Option<CallOutcome> {
        // A failed dial is `NotSent` by definition.
        let Some(conn) = self.connect(site) else {
            return Some(CallOutcome::NotSent);
        };
        let mut lead = conn.pending.lock().reader.take();
        if lead.as_mut().is_some_and(|reader| !conn.probe(reader)) {
            self.drop_conn(site, &conn);
            return Some(CallOutcome::NotSent);
        }
        let gen = {
            let mut st = slot.state.lock();
            debug_assert!(st.lead.is_none(), "a free slot never holds a read half");
            st.gen = st.gen.wrapping_add(1);
            st.outcome = None;
            st.gen
        };
        let deadline = Instant::now() + self.call_timeout;
        let outcome = if conn.send(req, epoch, slot, gen, &mut lead).is_err() {
            self.drop_conn(site, &conn);
            // Registered: `kill` judged the call by its flushed bytes (a
            // hand-off may have reached the slot first). Not registered:
            // nothing left this process.
            let mut st = slot.state.lock();
            lead = lead.or(st.lead.take());
            Some(st.outcome.take().unwrap_or(CallOutcome::NotSent))
        } else {
            loop {
                if let Some(reader) = lead.as_mut() {
                    let outcome = self.lead(site, &conn, reader, slot, deadline);
                    break outcome.or_else(|| settle(&mut slot.state.lock()));
                }
                // A leader exists: park until our outcome or the lead arrives.
                let mut st = slot.state.lock();
                while st.outcome.is_none() && st.lead.is_none() {
                    if slot.cv.wait_until(&mut st, deadline).timed_out() {
                        break;
                    }
                }
                lead = st.lead.take();
                if lead.is_none() || st.outcome.is_some() {
                    break settle(&mut st);
                }
            }
        };
        if outcome.is_none() {
            // Timed out (generation already bumped): unregister, so the
            // late response is dropped as an unknown sequence id.
            let mut p = conn.pending.lock();
            p.calls.retain(|c| !Arc::ptr_eq(&c.slot, slot));
        }
        if let Some(reader) = lead {
            conn.hand_on(reader);
        }
        outcome
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
/// group with one write.
fn cast_pump(
    cast_rx: &Receiver<(SiteId, bytes::Bytes)>,
    addrs: &HashMap<SiteId, SocketAddr>,
    closing: &AtomicBool,
    backoff: &Mutex<CastBackoff>,
) {
    let mut conns: HashMap<SiteId, TcpStream> = HashMap::new();
    // One group's frames, assembled here so they leave in one write.
    let mut wire: Vec<u8> = Vec::new();
    while let Ok(first) = cast_rx.recv() {
        // On close, discard the backlog instead of pushing it through
        // (possibly wedged) peers — otherwise Drop could wait
        // queue_len × write_timeout.
        if closing.load(Ordering::Acquire) {
            break;
        }
        // Write coalescing: everything already queued leaves in this
        // pass, grouped by target (per-target arrival order preserved),
        // each group framed back-to-back into a single write.
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
            // CAST_WRITE_TIMEOUT per group before the pump moves on.
            let mut delivered = false;
            for _ in 0..2 {
                let ok = match conns.entry(target) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let ok = write_cast_group(e.get_mut(), &bodies, &mut wire).is_ok();
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
                                let ok = write_cast_group(&mut s, &bodies, &mut wire).is_ok();
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

/// Write one target's coalesced cast frames as a single `write_all`: the
/// socket is `TCP_NODELAY`, so every separate write is a segment of its
/// own. The frames are assembled in `wire` (reused across groups) first;
/// an oversized body fails the group before anything reaches the wire.
fn write_cast_group(
    stream: &mut TcpStream,
    bodies: &[bytes::Bytes],
    wire: &mut Vec<u8>,
) -> std::io::Result<()> {
    wire.clear();
    wire.shrink_to(1 << 20); // one burst of big batches must not pin its high-water mark
    for body in bodies {
        write_frame_with_mode(wire, MODE_CAST, body)?;
    }
    stream.write_all(wire)
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
        // An unknown site or an unframeable request fails like a dial.
        let framed = CallHeader::encoded_len(epoch) + req.encoded_len();
        let site = self.targets.get(&target).filter(|_| framed <= MAX_FRAME);
        // A recycled slot from the free list; the slab grows (one Arc)
        // only while warming up past its previous high-water mark.
        let slot = {
            let recycled = self.free.lock().pop();
            recycled.unwrap_or_else(|| Arc::new(CallSlot::default()))
        };
        // One retry, and only of `NotSent`: the frame never fully reached
        // the kernel, so a second send cannot double-apply. A flushed but
        // unanswered frame or a timeout may have been applied — those
        // surface as Unavailable, never re-sent.
        let mut outcome = None;
        for _attempt in 0..2 {
            outcome = site.and_then(|site| self.attempt(site, &slot, epoch, &req));
            if !matches!(outcome, Some(CallOutcome::NotSent)) {
                break;
            }
        }
        self.free.lock().push(slot);
        let Some(CallOutcome::Response(resp)) = outcome else {
            self.breaker.lock().record_failure(target, Instant::now());
            return RegistryResponse::Error {
                error: MetaError::Unavailable,
            };
        };
        // Any correlated response — even a server-sent error — proves the
        // transport works: close the breaker.
        self.breaker.lock().record_success(target);
        // A WrongEpoch rejection names the current epoch: adopt it eagerly
        // so the very next call is stamped correctly even before the
        // caller re-plans.
        if let RegistryResponse::Error {
            error: MetaError::WrongEpoch { epoch },
        } = resp
        {
            self.mem_epoch.store(epoch, Ordering::Release);
        }
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
        self.targets.keys().copied().collect()
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
        // `&mut self`: no call is in flight, and the connections close
        // with their fields. Flag first so the pump discards its backlog,
        // then disconnect its queue; the join is bounded by one write
        // timeout.
        self.closing.store(true, Ordering::Release);
        drop(self.cast_tx.take());
        if let Some(h) = self.cast_worker.take() {
            let _ = h.join();
        }
    }
}

/// Convenience: a transport for a cluster listening on `addrs[i]` for
/// site *i* (the `geometa-load --connect` path).
pub fn transport_for(addrs: &[SocketAddr], call_timeout: Duration) -> Arc<TcpClientTransport> {
    // geometa-lint: allow(unordered-iter) `addrs` here is the slice parameter (caller-ordered), not a HashMap
    let map = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| (SiteId(i as u16), a))
        .collect();
    Arc::new(TcpClientTransport::new(map, call_timeout))
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

    /// A connection to a throwaway loopback listener that never reads.
    fn idle_conn() -> (Conn, std::net::TcpListener) {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        (Conn::new(stream), l)
    }

    fn send(conn: &Conn, slot: &Arc<CallSlot>, lead: &mut Option<FrameReader>) {
        let sent = conn.send(&RegistryRequest::Status, None, slot, 0, lead);
        sent.unwrap();
    }

    #[test]
    fn pending_calls_resolve_by_the_flushed_bytes_rule() {
        // Two frames sent; pretend only the first was fully flushed when
        // the connection dies. The first may have been applied (Failed),
        // the second provably was not (NotSent).
        let (conn, _listener) = idle_conn();
        let (slot1, slot2) = (Arc::new(CallSlot::default()), Arc::new(CallSlot::default()));
        let mut lead = None;
        send(&conn, &slot1, &mut lead);
        assert!(lead.is_some(), "the first caller takes the idle read half");
        let first_end = conn.w.lock().queued_abs;
        send(&conn, &slot2, &mut lead);
        conn.w.lock().flushed_abs = first_end + 3;
        conn.kill();
        let outcome = |slot: &CallSlot| slot.state.lock().outcome.take();
        assert!(matches!(outcome(&slot1), Some(CallOutcome::Failed)));
        assert!(matches!(outcome(&slot2), Some(CallOutcome::NotSent)));
        // Dead means dead: nothing is framed or written afterwards.
        let req = RegistryRequest::Status;
        assert!(conn.send(&req, None, &slot1, 1, &mut lead).is_err());
        assert!(conn.pending.lock().calls.is_empty());
    }

    #[test]
    fn a_leaving_leader_hands_the_read_half_to_a_pending_caller_or_rests_it() {
        let (conn, _listener) = idle_conn();
        let (slot1, slot2) = (Arc::new(CallSlot::default()), Arc::new(CallSlot::default()));
        let (mut lead1, mut lead2) = (None, None);
        send(&conn, &slot1, &mut lead1);
        send(&conn, &slot2, &mut lead2);
        assert!(lead1.is_some() && lead2.is_none(), "one leader at a time");
        // Caller 1 times out: generation bumped, not yet unregistered. The
        // hand-off must skip its stale entry and reach caller 2.
        assert!(settle(&mut slot1.state.lock()).is_none());
        conn.hand_on(lead1.take().unwrap());
        assert!(slot1.state.lock().lead.is_none());
        let handed = slot2.state.lock().lead.take();
        assert!(handed.is_some(), "the promotion waits in the slot");
        // Nobody left pending: the read half rests on the connection.
        conn.pending.lock().calls.clear();
        conn.hand_on(handed.unwrap());
        assert!(conn.pending.lock().reader.is_some());
    }

    #[test]
    fn stale_generation_deliveries_are_dropped() {
        let slot = Arc::new(CallSlot::default());
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
        let mut w = WriteHalf::default();
        let req = RegistryRequest::DeltaPull { since: 9 };
        let (seq, end_abs) = w.enqueue(&req, Some(0xDEAD_BEEF_0042));
        // [len u32][mode][seq u32][epoch u64][request]
        let out = &w.out;
        let len = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
        assert_eq!(len, 1 + 4 + 8 + req.encoded_len());
        let header = CallHeader {
            seq,
            epoch: Some(0xDEAD_BEEF_0042),
        };
        assert_eq!(CallHeader::parse(&out[4..]), Some((header, 13)));
        assert_eq!(&out[17..], &req.encode()[..]);
        assert_eq!((seq, end_abs, w.queued_abs), (0, (4 + len) as u64, end_abs));
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
