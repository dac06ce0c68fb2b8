//! The TCP client transport: one pipelined connection per target site,
//! written and read by the calling threads themselves — acked calls and
//! lazy pushes alike; the transport has no thread of its own.
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
//!
//! # Casts: the next write carries them
//!
//! A `cast` frames `[len][MODE_CAST][request]` onto the same connection's
//! output buffer, so a thread's later call to a site is FIFO-ordered
//! behind its own lazy push to that site. Who issues the `write` is
//! decided under the pending lock. While someone holds the read half — a
//! leader polling the socket, a caller about to send or to leave — the
//! cast raises [`Conn::backlog`] and returns without a syscall: the holder
//! flushes with its own send, at its next wake-up, or before it rests the
//! read half. While the read half rests nobody else is about to write, so
//! the caster issues the one nonblocking `write` itself. A cast never
//! waits for a write (past [`CAST_BACKLOG_MAX`] unflushed bytes it is
//! shed), never touches the read half, and waits for at most one dial: its
//! own, or one in progress, whose result it shares. A failed dial is a
//! breaker strike, so a dead peer's casts end up shed by the open breaker.

use crate::frame::{CallHeader, Fill, FrameReader, MAX_FILLS_PER_PASS, MAX_FRAME, MODE_CAST};
use crate::server::epoch_checked;
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::{FxHashMap, MetaError};
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use parking_lot::{Condvar, Mutex};
use polling::{wait_one, Event};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP connect deadline, for calls and casts alike.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Unflushed bytes a connection may hold before further casts to it are
/// shed. Lazy pushes are best-effort — a miss at the hash owner is
/// repaired by the next read probing further, and the *sync agent* never
/// uses `cast` (see `geometa_core::runtime::drive_sync_agent`).
const CAST_BACKLOG_MAX: usize = 1 << 20;

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
    sites: FxHashMap<SiteId, SiteBreaker>,
}

impl CircuitBreaker {
    fn new(seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            rng: SplitMix64::new(seed),
            sites: FxHashMap::default(),
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
    /// Append one frame of `body` bytes — length prefix, then whatever
    /// `encode` writes — and return the offset one past it.
    fn frame(&mut self, body: usize, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let at = self.out.len();
        self.out.extend_from_slice(&(body as u32).to_le_bytes());
        encode(&mut self.out);
        debug_assert_eq!(self.out.len() - at, 4 + body);
        self.queued_abs += (4 + body) as u64;
        self.queued_abs
    }

    /// Frame one call (`[len][CallHeader][req]`) onto the output buffer.
    /// Returns its sequence id and the offset one past its frame.
    fn enqueue(&mut self, req: &RegistryRequest, epoch: Option<u64>) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let body = CallHeader::encoded_len(epoch) + req.encoded_len();
        let end_abs = self.frame(body, |out| {
            CallHeader { seq, epoch }.encode_into(out);
            req.encode_into(out);
        });
        (seq, end_abs)
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
    /// An unflushed tail sits in `w.out` — a short write's, or casts framed
    /// while someone held the read half: the leader adds `POLLOUT` to its
    /// wait, and flushes after it rests the read half. The bytes live under
    /// `w`, and a deferring cast raises the flag under `pending`, which a
    /// resting leader locks before it looks, so `Relaxed` suffices. A
    /// leader already in `poll` acts on it at its next wake-up: a response,
    /// or the hand-off to the caller whose write fell short.
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

    /// Frame a lazy push (`[len][MODE_CAST][req]`: no sequence id, nothing
    /// answers it) behind whatever is still unflushed, and write unless
    /// someone holds the read half. `Ok(false)` = shed at the byte bound;
    /// on `Err` the connection must be [killed](Conn::kill).
    fn cast(&self, req: &RegistryRequest) -> std::io::Result<bool> {
        let mut w = self.w.lock();
        if w.dead {
            return Err(std::io::ErrorKind::NotConnected.into());
        }
        if w.out.len() - w.sent > CAST_BACKLOG_MAX {
            return Ok(false);
        }
        w.frame(1 + req.encoded_len(), |out| {
            out.push(MODE_CAST);
            req.encode_into(out);
        });
        {
            // Raised before the pending lock is released: a leader that
            // rests the read half after this looks at the flag after that.
            let p = self.pending.lock();
            if p.reader.is_none() {
                self.backlog.store(true, Ordering::Relaxed);
                return Ok(true);
            }
        }
        self.flush(&mut w).map(|()| true)
    }

    /// Push the write half's pending output to the kernel and publish
    /// whether a tail remains ([`Conn::backlog`]).
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
    /// rest it on the connection and flush what casts left behind the
    /// leader. Entries whose generation moved on are callers between
    /// timing out and unregistering; they are skipped. On `Err` the
    /// connection must be [killed](Conn::kill).
    fn hand_on(&self, reader: FrameReader) -> std::io::Result<()> {
        {
            let mut p = self.pending.lock();
            let mut reader = Some(reader);
            for call in &p.calls {
                let mut st = call.slot.state.lock();
                if st.gen == call.gen {
                    st.lead = reader.take();
                    call.slot.cv.notify_one();
                    return Ok(());
                }
            }
            p.reader = reader;
        }
        // A cast that comes now writes itself.
        if self.backlog.load(Ordering::Relaxed) {
            return self.flush(&mut self.w.lock());
        }
        Ok(())
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

/// Why [`TcpClientTransport::connect`] came back without a connection.
enum NoConn {
    /// The dial this thread waited for was another's, and it failed.
    Shared,
    /// This thread's own dial failed.
    Failed,
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
/// * **Fire-and-forget casts** — `cast` frames the push onto the same
///   connection, for the leader's next write or one nonblocking `write` of
///   its own; it never waits for a write or a response, so a slow target
///   cannot stall the lazy path.
pub struct TcpClientTransport {
    /// The site table (ordered, so [`RegistryTransport::sites`] is too).
    targets: BTreeMap<SiteId, Site>,
    /// Recycled call slots. A plain `Mutex<Vec>`: lock-push-unlock with no
    /// allocation once it reaches its high-water mark.
    free: Mutex<Vec<Arc<CallSlot>>>,
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
    /// Casts dropped instead of sent (see [`Self::casts_shed`]).
    casts_shed: AtomicU64,
}

impl TcpClientTransport {
    /// A transport dialing `addrs` (lazily, per target). Routing is fully
    /// determined by the target argument of each call, so one instance is
    /// shared by clients at every site. It spawns no thread.
    pub fn new(addrs: FxHashMap<SiteId, SocketAddr>, call_timeout: Duration) -> TcpClientTransport {
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
            call_timeout,
            boot: Instant::now(),
            mem_epoch: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_SEED)),
            breaker_fast_fails: AtomicU64::new(0),
            casts_shed: AtomicU64::new(0),
        }
    }

    /// The site's connection, dialed on this thread if there is none. A
    /// thread that finds a dial in progress waits for it and shares the
    /// connection it made; if it made none, a call dials again in its turn
    /// (`redial`), and a cast — which waits for one dial at most — does not.
    fn connect(&self, site: &Site, redial: bool) -> Result<Arc<Conn>, NoConn> {
        if let Some(conn) = &*site.conn.lock() {
            return Ok(Arc::clone(conn));
        }
        let (_dialing, waited) = match site.dial.try_lock() {
            Some(dialing) => (dialing, false),
            None => (site.dial.lock(), true),
        };
        if let Some(conn) = &*site.conn.lock() {
            return Ok(Arc::clone(conn)); // the dialer ahead of us got through
        }
        if waited && !redial {
            return Err(NoConn::Shared);
        }
        let stream = TcpStream::connect_timeout(&site.addr, CONNECT_TIMEOUT)
            .and_then(|stream| stream.set_nonblocking(true).map(|()| stream))
            .map_err(|_| NoConn::Failed)?;
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(Conn::new(stream));
        *site.conn.lock() = Some(Arc::clone(&conn));
        Ok(conn)
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
    fn attempt(
        &self,
        site: &Site,
        slot: &Arc<CallSlot>,
        epoch: Option<u64>,
        req: &RegistryRequest,
    ) -> Option<CallOutcome> {
        // A failed dial is `NotSent` by definition.
        let Ok(conn) = self.connect(site, true) else {
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
        if lead.is_some_and(|reader| conn.hand_on(reader).is_err()) {
            self.drop_conn(site, &conn);
        }
        outcome
    }

    /// Frame one lazy push onto `site`'s connection; false = dropped. Two
    /// attempts, as for a `NotSent` call: a write error kills the
    /// connection and the push goes once more, on a fresh dial.
    fn push(&self, target: SiteId, site: &Site, req: &RegistryRequest) -> bool {
        for _attempt in 0..2 {
            let conn = match self.connect(site, false) {
                Ok(conn) => conn,
                // The dialer it waited for takes the strike.
                Err(NoConn::Shared) => return false,
                Err(NoConn::Failed) => {
                    // The dead-peer cooldown: three of these and the open
                    // breaker sheds the site's casts without dialing. The
                    // way back is a correlated response — never a cast.
                    self.breaker.lock().record_failure(target, Instant::now());
                    return false;
                }
            };
            match conn.cast(req) {
                Ok(framed) => return framed,
                Err(_) => self.drop_conn(site, &conn),
            }
        }
        false
    }

    /// Whether `target`'s call breaker is open right now.
    pub fn breaker_open(&self, target: SiteId) -> bool {
        self.breaker.lock().is_open(target, Instant::now())
    }

    /// Calls fast-failed without touching the socket (open breaker).
    pub fn breaker_fast_fails(&self) -> u64 {
        self.breaker_fast_fails.load(Ordering::Relaxed)
    }

    /// Casts dropped instead of sent: the target's breaker was open (lazy
    /// pushes are shed before acked calls under breaker pressure), its
    /// unflushed tail was past the byte bound, or no connection was to be
    /// had within one dial.
    pub fn casts_shed(&self) -> u64 {
        self.casts_shed.load(Ordering::Relaxed)
    }
}

impl RegistryTransport for TcpClientTransport {
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

    /// Frame the push onto the target's connection (see the module docs).
    /// A cast that cannot is dropped and counted ([`Self::casts_shed`]) —
    /// best-effort semantics; absorb idempotence re-converges.
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let open = self.breaker.lock().is_open(target, Instant::now());
        let site = self.targets.get(&target);
        // The mode byte and the request must fit one frame.
        let site = site.filter(|_| !open && req.encoded_len() < MAX_FRAME);
        if !site.is_some_and(|site| self.push(target, site, &req)) {
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
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

/// Convenience: a transport for a cluster listening on `addrs[i]` for
/// site *i* (the `geometa-load --connect` path).
pub fn transport_for(addrs: &[SocketAddr], call_timeout: Duration) -> Arc<TcpClientTransport> {
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

    /// A connection to a throwaway loopback listener that never reads.
    #[expect(
        clippy::disallowed_methods,
        reason = "the listener is local and already bound, so the dial cannot hang"
    )]
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
        // Two calls sent with a cast between them; pretend the first call
        // and the cast were fully flushed, and three bytes of the second
        // call, when the connection dies. The first may have been applied
        // (Failed), the second provably was not (NotSent) — which takes the
        // cast's bytes being counted: its frame is longer than a call's.
        let (conn, _listener) = idle_conn();
        let (slot1, slot2) = (Arc::new(CallSlot::default()), Arc::new(CallSlot::default()));
        let mut lead = None;
        send(&conn, &slot1, &mut lead);
        assert!(lead.is_some(), "the first caller takes the idle read half");
        let cast = RegistryRequest::DeltaPull { since: 9 };
        assert!(conn.cast(&cast).unwrap());
        let cast_end = conn.w.lock().queued_abs;
        send(&conn, &slot2, &mut lead);
        conn.w.lock().flushed_abs = cast_end + 3;
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
        conn.hand_on(lead1.take().unwrap()).unwrap();
        assert!(slot1.state.lock().lead.is_none());
        let handed = slot2.state.lock().lead.take();
        assert!(handed.is_some(), "the promotion waits in the slot");
        // Nobody left pending: the read half rests on the connection.
        conn.pending.lock().calls.clear();
        conn.hand_on(handed.unwrap()).unwrap();
        assert!(conn.pending.lock().reader.is_some());
    }

    #[test]
    fn a_cast_behind_a_pending_call_waits_for_the_leader_to_write_it() {
        let (conn, _listener) = idle_conn();
        let slot = Arc::new(CallSlot::default());
        let mut lead = None;
        send(&conn, &slot, &mut lead);
        let call_end = conn.w.lock().flushed_abs;
        // The caller leads: it is the one about to write, not the caster.
        let cast = RegistryRequest::DeltaPull { since: 9 };
        assert!(conn.cast(&cast).unwrap());
        {
            let w = conn.w.lock();
            assert_eq!((w.flushed_abs, w.sent), (call_end, 0), "no write");
            assert_eq!(&w.out[..5], &[10, 0, 0, 0, MODE_CAST]);
            assert_eq!(&w.out[5..], &cast.encode()[..]);
            assert_eq!(w.queued_abs, call_end + 14);
        }
        assert!(conn.backlog.load(Ordering::Relaxed));
        // The leader leaves with nobody to hand the lead to: it rests the
        // read half and writes the cast.
        conn.pending.lock().calls.clear();
        conn.hand_on(lead.take().unwrap()).unwrap();
        let w = conn.w.lock();
        assert!(w.out.is_empty() && w.flushed_abs == w.queued_abs);
        assert!(!conn.backlog.load(Ordering::Relaxed));
        drop(w);
        // On the idle connection the caster writes at once.
        assert!(conn.cast(&cast).unwrap());
        let w = conn.w.lock();
        assert!(w.out.is_empty() && w.flushed_abs == call_end + 28);
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
