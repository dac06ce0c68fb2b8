//! The framed-TCP connection layer: one listener per site driven by a
//! pool of readiness reactors ([`TcpConfig::reactors`] threads per site,
//! nonblocking sockets multiplexed through the vendored `polling` shim).
//! Reactor 0 owns the listener and hands accepted connections off
//! round-robin to the pool via per-reactor mailboxes; a connection is
//! owned by exactly one reactor for its lifetime, so connection state is
//! never shared.
//!
//! Wire protocol (on top of [`crate::frame`]):
//!
//! * client → server: frame body = `[MODE_CAST][RegistryRequest]`
//!   (fire-and-forget, no response) or `[CallHeader][RegistryRequest]`
//!   (see [`CallHeader`]: a sequence id, optionally the caller's
//!   membership epoch);
//! * server → client: frame body = `[u32_le seq][RegistryResponse]`, one
//!   per call, so many calls can be in flight on one connection and
//!   resolve to the right callers regardless of interleaving.
//!
//! A malformed *request* never kills a connection's peers: calls answer
//! with `RegistryResponse::Error` under their sequence id (the codec is
//! total), casts are dropped. A malformed *header* — unknown mode byte,
//! body shorter than its header — leaves nothing to answer under, so
//! that one connection is dropped. The reactor decodes every frame a
//! readiness pass delivered and serves them as one ordered batch:
//! borrowed `Get` keys through [`ServiceCore::serve_gets`], everything
//! else through [`ServiceCore::serve_batch_into`]. Poll waits are
//! bounded by the configured tick so the loop observes the runtime's
//! shutdown flag; at shutdown the dummy connection from
//! [`ConnectionLayer::unblock`] also wakes the poller immediately.

use crate::client::TcpClientTransport;
use crate::frame::{CallHeader, FrameReader, MAX_FRAME, MODE_CAST};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{BatchScratch, ConnectionLayer, ServiceCore, Spawner};
use geometa_core::{FxHashMap, MetaError};
use geometa_sim::topology::SiteId;
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Whether a request's placement depends on the membership plan. Only
/// these are epoch-rejected: `Status`/`Reconfigure` must work from stale
/// clients (that is how they learn the new epoch), and
/// `Absorb`/`DeltaPull` are idempotent replication plumbing — the sync
/// agent and lazy pushes keep flowing across a flip; stragglers are
/// swept by the rebalance's second pass.
pub(crate) fn epoch_checked(req: &RegistryRequest) -> bool {
    matches!(
        req,
        RegistryRequest::Get { .. } | RegistryRequest::Put { .. } | RegistryRequest::Remove { .. }
    )
}

/// Tuning for the TCP layer.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Port for site 0 (site *i* binds `base_port + i`); 0 = ephemeral
    /// ports chosen by the OS (tests).
    pub base_port: u16,
    /// At most this many live connections per site, summed over the
    /// reactor pool; at the cap the listener is paused and further
    /// clients wait in the kernel backlog.
    pub max_conns_per_site: usize,
    /// Poll tick of the server reactors (shutdown observation latency).
    /// The client has no tick: a caller waits on its own socket until
    /// its `call_timeout` deadline.
    pub read_timeout: Duration,
    /// Client-side deadline for one call's response.
    pub call_timeout: Duration,
    /// Reactor threads per site. 0 = auto (`min(4, cores)`). Reactor 0
    /// owns the listener and hands accepted connections off round-robin
    /// to the pool; a connection lives on one reactor for its lifetime.
    pub reactors: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            base_port: 0,
            max_conns_per_site: 128,
            read_timeout: Duration::from_millis(25),
            call_timeout: Duration::from_secs(10),
            reactors: 0,
        }
    }
}

impl TcpConfig {
    /// The reactor-pool size this config resolves to (`reactors`, or
    /// `min(4, cores)` when 0/auto).
    pub fn resolved_reactors(&self) -> usize {
        if self.reactors != 0 {
            return self.reactors;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

/// The TCP [`ConnectionLayer`]: binds one loopback listener per site on
/// start, serves framed requests on the site's reactor pool, and hands
/// every client the one shared pipelining [`TcpClientTransport`].
pub struct TcpLayer {
    config: TcpConfig,
    addrs: FxHashMap<SiteId, SocketAddr>,
    /// One transport shared by every client of this runtime: routing is
    /// per call target, and calls and casts from every client pipeline on
    /// its one connection per site.
    shared: Mutex<Option<Arc<TcpClientTransport>>>,
}

impl TcpLayer {
    /// A layer with the given tuning (not yet bound).
    pub fn new(config: TcpConfig) -> TcpLayer {
        TcpLayer {
            config,
            addrs: FxHashMap::default(),
            shared: Mutex::new(None),
        }
    }

    /// Ephemeral loopback ports with default tuning (tests, `--spawn`).
    pub fn ephemeral() -> TcpLayer {
        TcpLayer::new(TcpConfig::default())
    }

    /// The bound address of every site (valid after the runtime started).
    pub fn addrs(&self) -> &FxHashMap<SiteId, SocketAddr> {
        &self.addrs
    }

    /// The layer's tuning.
    pub fn config(&self) -> &TcpConfig {
        &self.config
    }
}

impl ConnectionLayer for TcpLayer {
    type Transport = TcpClientTransport;

    fn start(&mut self, core: &Arc<ServiceCore>, spawner: &mut Spawner) {
        for site in core.topology().site_ids() {
            let port = if self.config.base_port == 0 {
                0
            } else {
                self.config.base_port + site.0
            };
            let listener = TcpListener::bind(("127.0.0.1", port))
                .unwrap_or_else(|e| panic!("bind 127.0.0.1:{port} for {site}: {e}"));
            #[expect(
                clippy::expect_used,
                reason = "infallible: local_addr on a freshly bound loopback listener cannot fail, and no peer input is involved"
            )]
            let addr = listener.local_addr().expect("bound listener has an addr");
            self.addrs.insert(site, addr);
            let core = Arc::clone(core);
            let read_timeout = self.config.read_timeout;
            let max_conns = self.config.max_conns_per_site;
            let pool = self.config.resolved_reactors().max(1);
            // One live-connection counter shared by the whole pool: the
            // listener pauses against the *site* total.
            let live = Arc::new(AtomicUsize::new(0));
            let mut peers: Vec<Arc<ReactorInbox>> = Vec::new();
            for k in 1..pool {
                let Ok((wake_tx, wake_rx)) = UnixStream::pair() else {
                    break; // fd pressure: serve with fewer reactors
                };
                if wake_tx.set_nonblocking(true).is_err() || wake_rx.set_nonblocking(true).is_err()
                {
                    break;
                }
                let inbox = Arc::new(ReactorInbox {
                    queue: Mutex::new(Vec::new()),
                    wake: wake_tx,
                });
                peers.push(Arc::clone(&inbox));
                let core = Arc::clone(&core);
                let live = Arc::clone(&live);
                spawner.spawn(format!("tcp-reactor-{site}-{k}"), move || {
                    let role = ReactorRole::Worker { inbox, wake_rx };
                    reactor_loop(role, &core, site, &live, max_conns, read_timeout)
                });
            }
            spawner.spawn(format!("tcp-reactor-{site}"), move || {
                let role = ReactorRole::Accepting { listener, peers };
                reactor_loop(role, &core, site, &live, max_conns, read_timeout)
            });
        }
    }

    fn transport(&self, _core: &Arc<ServiceCore>, _site: SiteId) -> Arc<TcpClientTransport> {
        Arc::clone(self.shared.lock().get_or_insert_with(|| {
            Arc::new(TcpClientTransport::new(
                self.addrs.clone(),
                self.config.call_timeout,
            ))
        }))
    }

    fn unblock(&self) {
        // One dummy connection per listener wakes its reactor's poll
        // wait; the loop then observes the shutdown flag and drains.
        for addr in self.addrs.values() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
        }
    }
}

// ---------------------------------------------------------------------------
// Readiness reactor
// ---------------------------------------------------------------------------

/// Poller key reserved for the site's listener.
const LISTENER_KEY: usize = usize::MAX;
/// Pending-output high-water mark: a connection whose peer stops reading
/// accumulates at most this much before the reactor stops *reading* from
/// it (write interest stays armed), pushing backpressure onto the peer
/// instead of into server memory.
const OUT_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Poller key reserved for a worker reactor's hand-off wake pipe.
const INBOX_WAKE_KEY: usize = usize::MAX - 1;

/// Hand-off mailbox from the accepting reactor to a worker reactor:
/// freshly accepted streams queue here and a byte on the wake pipe pops
/// the worker's poll wait.
struct ReactorInbox {
    queue: Mutex<Vec<TcpStream>>,
    /// Write end of the worker's wake pipe (nonblocking: a full pipe
    /// means wakes are already pending, so a dropped byte is harmless).
    wake: UnixStream,
}

/// Which job a reactor thread performs in the per-site pool.
enum ReactorRole {
    /// Reactor 0: owns the listener, serves its own share of the
    /// connections, hands the rest off round-robin.
    Accepting {
        listener: TcpListener,
        peers: Vec<Arc<ReactorInbox>>,
    },
    /// Reactors 1..n: serve the connections pushed into their inbox.
    Worker {
        inbox: Arc<ReactorInbox>,
        wake_rx: UnixStream,
    },
}

/// One reactor-managed connection. The scratch vectors at the bottom are
/// the allocation story of the wire path: cleared and reused every
/// readiness pass, they reach a high-water mark during warmup and the
/// steady state never touches the allocator again.
struct RConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Pending output; `sent` is the already-flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// Peer sent EOF: serve what arrived, drain `out`, then close.
    closing: bool,
    /// Owned (non-get) requests of the pass, drained by `serve_batch_into`.
    reqs: Vec<RegistryRequest>,
    /// Per request in `reqs`, the sequence id its response is owed under
    /// (`None` for a cast, which is owed nothing).
    req_seqs: Vec<Option<u32>>,
    /// Responses to `reqs`, appended by `serve_batch_into`.
    resps: Vec<RegistryResponse>,
    /// The pass's borrowed gets: sequence id and the key's byte range in
    /// `reader`'s buffer.
    gets: Vec<(u32, std::ops::Range<usize>)>,
    /// Responses to `gets`, appended by `serve_gets`.
    get_resps: Vec<RegistryResponse>,
    /// The core's own per-batch scratch, held per connection.
    batch: BatchScratch,
}

impl RConn {
    fn new(stream: TcpStream) -> RConn {
        RConn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            sent: 0,
            closing: false,
            reqs: Vec::new(),
            req_seqs: Vec::new(),
            resps: Vec::new(),
            gets: Vec::new(),
            get_resps: Vec::new(),
            batch: BatchScratch::default(),
        }
    }

    /// Drain the readable socket into the frame reader, serve every
    /// complete frame as one batch, queue the responses.
    /// Returns false when the connection must be dropped.
    fn pump_read(&mut self, core: &Arc<ServiceCore>, site: SiteId) -> bool {
        let Ok(eof) = self.reader.drain(&mut self.stream) else {
            return false;
        };
        let ok = self.dispatch(core, site);
        if eof {
            self.closing = true;
        }
        ok
    }

    /// Decode and serve everything buffered, replying into `out`. Every
    /// response names its call's sequence id, so reply order is free:
    /// refusals first, then the reads, then the owned batch.
    ///
    /// The zero-allocation path: frames are popped as *ranges* into the
    /// reader's buffer, `Get` keys stay borrowed `&str` views resolved
    /// through [`ServiceCore::serve_gets`], and responses are encoded
    /// in place behind the frame header by [`append_reply`]. Only
    /// non-get requests are materialized and decoded into owned form,
    /// then served as one ordered [`ServiceCore::serve_batch_into`]
    /// call (whole-batch shard-grouped reads, one WAL append).
    fn dispatch(&mut self, core: &Arc<ServiceCore>, site: SiteId) -> bool {
        self.reqs.clear();
        self.req_seqs.clear();
        self.resps.clear();
        self.gets.clear();
        self.get_resps.clear();
        let wrong_epoch = |epoch| RegistryResponse::Error {
            error: MetaError::WrongEpoch { epoch },
        };
        // One epoch read per pass: every frame in a batch is judged
        // against the same epoch (a flip mid-pass rejects from the next
        // pass on, which is within the flip's happens-before anyway).
        let mut current_epoch: Option<u64> = None;
        loop {
            let range = match self.reader.next_frame_range() {
                Ok(Some(range)) => range,
                Ok(None) => break,
                Err(_) => return false, // implausible frame length
            };
            let body = self.reader.view(range.clone());
            // Header split: seq owed, payload offset, frame epoch.
            let (reply, off, frame_epoch) = if body.first() == Some(&MODE_CAST) {
                (None, 1usize, None)
            } else {
                match CallHeader::parse(body) {
                    Some((header, off)) => (Some(header.seq), off, header.epoch),
                    None => return false, // not a call, or truncated header
                }
            };
            // The current epoch, iff the frame is stamped with another.
            let stale = frame_epoch.and_then(|epoch| {
                let current = *current_epoch.get_or_insert_with(|| core.membership_epoch());
                (epoch != current).then_some(current)
            });
            let is_get = protocol::decode_get_key(&body[off..]).is_some();
            // What is known without serving: a stale plan, a malformed
            // request. Everything else joins the pass's reads or batch.
            let refusal = match (is_get, stale, reply) {
                // Gets are always epoch-checked: refused before any decode.
                (true, Some(epoch), _) => wrong_epoch(epoch),
                // Borrowed-GET fast path: the key never leaves the read
                // buffer. Cast gets (legal, pointless) fall through to the
                // owned batch so their reads still count.
                (true, None, Some(seq)) => {
                    self.gets.push((seq, range.start + off + 5..range.end));
                    continue;
                }
                // Owned path: everything that mutates or replicates escapes
                // the read buffer (its decoded `MetaStr`s outlive the pass).
                _ => match RegistryRequest::decode(
                    self.reader.materialize(range.start + off..range.end),
                ) {
                    Ok(req) => match stale.filter(|_| epoch_checked(&req)) {
                        Some(epoch) => wrong_epoch(epoch),
                        None => {
                            self.reqs.push(req);
                            self.req_seqs.push(reply);
                            continue;
                        }
                    },
                    Err(error) => RegistryResponse::Error { error },
                },
            };
            // A cast is owed nothing: a refused one is just dropped.
            if let Some(seq) = reply {
                append_reply(&mut self.out, seq, &refusal);
            }
        }
        // Resolve the borrowed reads: a single get probes the store with
        // no allocation at all; two or more share shard locks through
        // one grouped read (the collect below is amortized over ≥2).
        let key = |(_, range): &(u32, std::ops::Range<usize>)| {
            std::str::from_utf8(self.reader.view(range.clone())).unwrap_or("")
        };
        match self.gets.as_slice() {
            [] => {}
            [one] => core.serve_gets(site, &[key(one)], &mut self.get_resps),
            many => {
                let keys: Vec<&str> = many.iter().map(key).collect();
                core.serve_gets(site, &keys, &mut self.get_resps);
            }
        }
        if !self.reqs.is_empty() {
            core.serve_batch_into(site, &mut self.reqs, &mut self.resps, &mut self.batch);
        }
        // serve_gets/serve_batch_into answer every request; a shortfall is
        // a server-side invariant breach — drop the connection rather
        // than answer the wrong caller.
        if self.get_resps.len() != self.gets.len() || self.resps.len() != self.req_seqs.len() {
            return false;
        }
        for ((seq, _), resp) in self.gets.iter().zip(&self.get_resps) {
            append_reply(&mut self.out, *seq, resp);
        }
        for (reply, resp) in self.req_seqs.iter().zip(&self.resps) {
            if let Some(seq) = reply {
                append_reply(&mut self.out, *seq, resp);
            }
        }
        true
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
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Reclaim the flushed prefix when it dominates the
                    // buffer, so a long-lived backlog doesn't pin memory.
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

    /// Poller interest for the connection's current state.
    fn desired_interest(&self, key: usize) -> Event {
        let backlog = self.out.len() - self.sent;
        Event {
            key,
            readable: !self.closing && backlog < OUT_HIGH_WATER,
            writable: backlog > 0,
        }
    }
}

/// Queue one response frame (`[u32_le seq][response]`) on `out`,
/// encoding the response *in place* behind its frame header — no intermediate body buffer. The length
/// prefix is exact up front because [`RegistryResponse::encoded_len`]
/// is, which the debug assert pins.
fn append_reply(out: &mut Vec<u8>, seq: u32, resp: &RegistryResponse) {
    let body_len = 4 + resp.encoded_len();
    if body_len > MAX_FRAME {
        // Response exceeds the frame cap (a pathological Delta): send an
        // encoded error instead so the caller fails fast rather than
        // timing out on a missing response.
        let err = RegistryResponse::Error {
            error: MetaError::Codec("response exceeds frame cap".to_string()),
        };
        append_reply(out, seq, &err);
        return;
    }
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let before = out.len();
    resp.encode_into(out);
    debug_assert_eq!(out.len() - before, resp.encoded_len());
}

/// One reactor thread of the per-site pool: drives its share of the
/// connections (plus, for reactor 0, the listener) through nonblocking
/// I/O and the poll shim. Poll waits are bounded by `tick` so the loop
/// observes shutdown even when idle; workers additionally wake on their
/// inbox pipe when the accepting reactor hands a connection off.
fn reactor_loop(
    role: ReactorRole,
    core: &Arc<ServiceCore>,
    site: SiteId,
    live: &AtomicUsize,
    max_conns: usize,
    tick: Duration,
) {
    let max_conns = max_conns.max(1);
    let Ok(poller) = Poller::new() else { return };
    match &role {
        ReactorRole::Accepting { listener, .. } => {
            if listener.set_nonblocking(true).is_err() {
                return;
            }
            if poller.add(listener, Event::readable(LISTENER_KEY)).is_err() {
                return;
            }
        }
        ReactorRole::Worker { wake_rx, .. } => {
            if poller
                .add(wake_rx, Event::readable(INBOX_WAKE_KEY))
                .is_err()
            {
                return;
            }
        }
    }
    let mut conns: Vec<Option<RConn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next_target = 0usize; // round-robin cursor (accepting reactor)
    let mut listener_paused = false;
    while !core.is_shutdown() {
        events.clear();
        if poller.wait(&mut events, Some(tick)).is_err() {
            break;
        }
        // Re-arm a paused listener once the pool has room again. Any
        // reactor may have freed the slot; reactor 0 notices within one
        // tick.
        if listener_paused && live.load(Ordering::SeqCst) < max_conns {
            if let ReactorRole::Accepting { listener, .. } = &role {
                if poller
                    .modify(listener, Event::readable(LISTENER_KEY))
                    .is_ok()
                {
                    listener_paused = false;
                }
            }
        }
        for &ev in &events {
            if ev.key == LISTENER_KEY {
                if let ReactorRole::Accepting { listener, peers } = &role {
                    accept_ready(
                        listener,
                        core,
                        site,
                        &poller,
                        &mut conns,
                        live,
                        max_conns,
                        peers,
                        &mut next_target,
                        &mut listener_paused,
                    );
                }
                continue;
            }
            if ev.key == INBOX_WAKE_KEY {
                if let ReactorRole::Worker { inbox, wake_rx } = &role {
                    drain_wake(wake_rx);
                    adopt_handoffs(inbox, core, site, &poller, &mut conns, live);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(ev.key).and_then(Option::as_mut) else {
                continue; // closed earlier in this pass
            };
            let mut dead = false;
            if ev.readable && !conn.closing {
                dead = !conn.pump_read(core, site);
            }
            if !dead {
                match conn.flush_out() {
                    Ok(drained) => dead = conn.closing && drained,
                    Err(_) => dead = true,
                }
            }
            if dead {
                close_conn(&poller, &mut conns, ev.key, live);
                core.conn_closed(site);
            } else {
                let interest = conn.desired_interest(ev.key);
                if poller.modify(&conn.stream, interest).is_err() {
                    close_conn(&poller, &mut conns, ev.key, live);
                    core.conn_closed(site);
                }
            }
        }
    }
    // Dropping the connections closes every socket; in-flight requests
    // were either answered above or die with the connection, which the
    // client surfaces as Unavailable.
    for conn in conns.into_iter().flatten() {
        drop(conn);
        live.fetch_sub(1, Ordering::SeqCst);
        core.conn_closed(site);
    }
    // Hand-offs that were queued but never adopted were counted at
    // accept time; close them out so the conn counters stay balanced.
    if let ReactorRole::Worker { inbox, .. } = &role {
        for stream in inbox.queue.lock().drain(..) {
            drop(stream);
            live.fetch_sub(1, Ordering::SeqCst);
            core.conn_closed(site);
        }
    }
}

/// Accept until the listener would block, distributing connections
/// round-robin over the reactor pool (slot 0 = the accepting reactor
/// itself). At `max_conns` *site-wide* the listener's read interest is
/// paused (further clients queue in the kernel backlog) and re-armed
/// when a connection closes.
#[expect(
    clippy::too_many_arguments,
    reason = "the reactor loop's state, borrowed field by field so the borrow checker sees disjoint fields"
)]
fn accept_ready(
    listener: &TcpListener,
    core: &Arc<ServiceCore>,
    site: SiteId,
    poller: &Poller,
    conns: &mut Vec<Option<RConn>>,
    live: &AtomicUsize,
    max_conns: usize,
    peers: &[Arc<ReactorInbox>],
    next_target: &mut usize,
    listener_paused: &mut bool,
) {
    loop {
        if live.load(Ordering::SeqCst) >= max_conns {
            if poller.modify(listener, Event::none(LISTENER_KEY)).is_ok() {
                *listener_paused = true;
            }
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if core.is_shutdown() {
                    return; // dummy unblock connection, most likely
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                live.fetch_add(1, Ordering::SeqCst);
                core.conn_opened(site);
                let target = *next_target;
                *next_target = (*next_target + 1) % (peers.len() + 1);
                if target == 0 {
                    if !adopt_conn(poller, conns, stream) {
                        live.fetch_sub(1, Ordering::SeqCst);
                        core.conn_closed(site);
                    }
                } else {
                    let inbox = &peers[target - 1];
                    inbox.queue.lock().push(stream);
                    // One byte wakes the worker; WouldBlock on a full
                    // pipe means wakes are already pending.
                    let _ = (&inbox.wake).write(&[1u8]);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Persistent accept failure (EMFILE and friends) with a
                // pending backlog would spin the poll loop at syscall
                // speed; back off briefly.
                std::thread::sleep(Duration::from_millis(10));
                return;
            }
        }
    }
}

/// Register one stream with this reactor's poller. Returns false when
/// registration failed (dropping the stream closes it).
fn adopt_conn(poller: &Poller, conns: &mut Vec<Option<RConn>>, stream: TcpStream) -> bool {
    let key = match conns.iter().position(Option::is_none) {
        Some(k) => k,
        None => {
            conns.push(None);
            conns.len() - 1
        }
    };
    if poller.add(&stream, Event::readable(key)).is_err() {
        return false;
    }
    conns[key] = Some(RConn::new(stream));
    true
}

/// Adopt every connection the accepting reactor queued on this worker's
/// inbox. Streams arrive already nonblocking + nodelay and counted in
/// `live`/`conn_opened`.
fn adopt_handoffs(
    inbox: &ReactorInbox,
    core: &Arc<ServiceCore>,
    site: SiteId,
    poller: &Poller,
    conns: &mut Vec<Option<RConn>>,
    live: &AtomicUsize,
) {
    let mut queue = inbox.queue.lock();
    for stream in queue.drain(..) {
        if !adopt_conn(poller, conns, stream) {
            live.fetch_sub(1, Ordering::SeqCst);
            core.conn_closed(site);
        }
    }
}

/// Drain the wake pipe so its level-triggered readability clears.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match wake_rx.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => continue,
        }
    }
}

/// Deregister and drop one connection. The accepting reactor re-arms a
/// paused listener on its next pass once `live` drops below the cap.
fn close_conn(poller: &Poller, conns: &mut [Option<RConn>], key: usize, live: &AtomicUsize) {
    if let Some(conn) = conns[key].take() {
        let _ = poller.delete(&conn.stream);
        live.fetch_sub(1, Ordering::SeqCst);
    }
}
