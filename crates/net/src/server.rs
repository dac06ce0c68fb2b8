//! The framed-TCP connection layer: one listener per site driven by a
//! pool of readiness reactors ([`TcpConfig::reactors`] threads per site,
//! nonblocking sockets multiplexed through the vendored `polling` shim).
//! Every reactor polls the site's one listener and accepts for itself:
//! the reactor whose `accept` wins owns that connection for its
//! lifetime, and the losers see `WouldBlock`. Connection state is never
//! shared; only the site's live-connection count is.
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
//! readiness pass delivered and serves the owned requests first, through
//! [`ServiceCore::serve_batch_into`], then the called `Get`s, with keys
//! borrowed from the read buffer, through [`ServiceCore::serve_gets`].
//! Poll waits are bounded by the configured tick so the loop observes
//! the runtime's shutdown flag; at shutdown the dummy connection from
//! [`ConnectionLayer::unblock`] also wakes every poller immediately.

use crate::client::TcpClientTransport;
use crate::frame::{CallHeader, FrameReader, MAX_FRAME, MODE_CAST};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{BatchScratch, ConnectionLayer, ServiceCore, Spawner};
use geometa_core::{FxHashMap, MetaError};
use geometa_sim::topology::SiteId;
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
    /// reactor pool and exact: a reactor reserves a slot before each
    /// accept. At the cap every reactor pauses its listener interest and
    /// further clients wait in the kernel backlog until a close.
    pub max_conns_per_site: usize,
    /// Poll tick of the server reactors (shutdown observation latency).
    /// The client has no tick: a caller waits on its own socket until
    /// its `call_timeout` deadline.
    pub read_timeout: Duration,
    /// Client-side deadline for one call's response.
    pub call_timeout: Duration,
    /// Reactor threads per site. 0 = auto (`min(4, cores)`). Every
    /// reactor accepts from the site's listener; a connection lives on
    /// the reactor that accepted it.
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
    pub(crate) fn config(&self) -> &TcpConfig {
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
            // Nonblocking, so the reactors that lose an accept race see
            // `WouldBlock` instead of parking in `accept`.
            listener
                .set_nonblocking(true)
                .unwrap_or_else(|e| panic!("nonblocking listener for {site}: {e}"));
            self.addrs.insert(site, addr);
            let listener = Arc::new(listener);
            // One live-connection counter per site: every reactor reserves
            // its accepts against the *site* total.
            let live = Arc::new(AtomicUsize::new(0));
            for k in 0..self.config.resolved_reactors() {
                let reactor = Reactor {
                    core: Arc::clone(core),
                    site,
                    listener: Arc::clone(&listener),
                    live: Arc::clone(&live),
                    max_conns: self.config.max_conns_per_site.max(1),
                    poller: Poller::new().unwrap_or_else(|e| panic!("poller for {site}: {e}")),
                    conns: Vec::new(),
                    listener_paused: false,
                };
                let tick = self.config.read_timeout;
                spawner.spawn(format!("tcp-reactor-{site}-{k}"), move || reactor.run(tick));
            }
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
        // One dummy connection per listener wakes the poll wait of every
        // reactor of its site; each then observes the shutdown flag and
        // drains.
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
    /// Owned requests of the pass (all but called gets), drained by
    /// `serve_batch_into`.
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
    /// refusals first, then the owned batch, then the reads.
    ///
    /// Serve order is not free. The owned batch goes first: a session
    /// has at most one call in flight, so everything it sent ahead of a
    /// called `Get` in this pass is an owned request (a cast, say), and
    /// the `Get` must see it — the FIFO rule the client promises for a
    /// call behind its own lazy push.
    ///
    /// The zero-allocation path: frames are popped as *ranges* into the
    /// reader's buffer, called `Get` keys stay borrowed `&str` views
    /// resolved through [`ServiceCore::serve_gets`], and responses are
    /// encoded in place behind the frame header by [`append_reply`].
    /// Every other request is materialized and decoded into owned form,
    /// then served in arrival order by one
    /// [`ServiceCore::serve_batch_into`] call (one WAL append).
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
        if !self.reqs.is_empty() {
            core.serve_batch_into(site, &mut self.reqs, &mut self.resps, &mut self.batch);
        }
        // Then the borrowed reads: a single get probes the store with no
        // allocation at all; two or more share shard locks through one
        // grouped read (the collect below is amortized over ≥2).
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
        // serve_batch_into/serve_gets answer every request; a shortfall is
        // a server-side invariant breach — drop the connection rather
        // than answer the wrong caller.
        if self.resps.len() != self.req_seqs.len() || self.get_resps.len() != self.gets.len() {
            return false;
        }
        for (reply, resp) in self.req_seqs.iter().zip(&self.resps) {
            if let Some(seq) = reply {
                append_reply(&mut self.out, *seq, resp);
            }
        }
        for ((seq, _), resp) in self.gets.iter().zip(&self.get_resps) {
            append_reply(&mut self.out, *seq, resp);
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

/// One reactor thread of a site's pool: its own poller, with the site's
/// shared listener and the connections this reactor accepted.
struct Reactor {
    core: Arc<ServiceCore>,
    site: SiteId,
    listener: Arc<TcpListener>,
    /// Live connections of the whole site, shared by its reactors.
    live: Arc<AtomicUsize>,
    max_conns: usize,
    poller: Poller,
    /// Indexed by poller key; `None` slots are reused.
    conns: Vec<Option<RConn>>,
    /// Listener interest is off because the site was at its cap.
    listener_paused: bool,
}

impl Reactor {
    /// Drive the listener and this reactor's connections through
    /// nonblocking I/O until shutdown. Poll waits are bounded by `tick`
    /// so the loop observes the shutdown flag even when idle.
    fn run(mut self, tick: Duration) {
        if self
            .poller
            .add(&*self.listener, Event::readable(LISTENER_KEY))
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        while !self.core.is_shutdown() {
            events.clear();
            if self.poller.wait(&mut events, Some(tick)).is_err() {
                break;
            }
            // Re-arm a paused listener once the site has room again: any
            // reactor may have freed the slot, so each one checks here,
            // within one tick of the close.
            if self.listener_paused && self.live.load(Ordering::SeqCst) < self.max_conns {
                self.listen(true);
            }
            for &ev in &events {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.serve_ready(ev);
                }
            }
        }
        // Dropping the connections closes every socket; in-flight requests
        // were either answered above or die with the connection, which the
        // client surfaces as Unavailable.
        for key in 0..self.conns.len() {
            self.close(key);
        }
    }

    /// Turn this reactor's listener interest on or off.
    fn listen(&mut self, on: bool) {
        let interest = if on {
            Event::readable(LISTENER_KEY)
        } else {
            Event::none(LISTENER_KEY)
        };
        if self.poller.modify(&*self.listener, interest).is_ok() {
            self.listener_paused = !on;
        }
    }

    /// Accept until the listener would block. Each accept first reserves
    /// a slot in the site-wide `live` count, so reactors racing for one
    /// backlog never overshoot `max_conns`; at the cap this reactor
    /// pauses its listener interest (clients wait in the kernel backlog)
    /// until a close anywhere in the site frees a slot.
    fn accept_ready(&mut self) {
        let max = self.max_conns;
        loop {
            let reserve = |n: usize| (n < max).then_some(n + 1);
            if self
                .live
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, reserve)
                .is_err()
            {
                self.listen(false);
                return;
            }
            let again = match self.listener.accept() {
                // The dummy connection from `unblock`, most likely.
                Ok(_) if self.core.is_shutdown() => false,
                Ok((stream, _peer)) => {
                    if self.adopt(stream) {
                        continue; // the slot is the connection's now
                    }
                    true
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => true,
                // Backlog empty, or another reactor won the race.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(_) => {
                    // Persistent accept failure (EMFILE and friends) with a
                    // pending backlog would spin the poll loop at syscall
                    // speed; back off briefly.
                    std::thread::sleep(Duration::from_millis(10));
                    false
                }
            };
            self.live.fetch_sub(1, Ordering::SeqCst);
            if !again {
                return;
            }
        }
    }

    /// Register an accepted stream with this reactor's poller. Returns
    /// false when that failed (dropping the stream closes it).
    fn adopt(&mut self, stream: TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let _ = stream.set_nodelay(true);
        let key = match self.conns.iter().position(Option::is_none) {
            Some(k) => k,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self.poller.add(&stream, Event::readable(key)).is_err() {
            return false;
        }
        self.conns[key] = Some(RConn::new(stream));
        self.core.conn_opened(self.site);
        true
    }

    /// Read, serve and flush one ready connection, then re-arm its
    /// interest or close it.
    fn serve_ready(&mut self, ev: Event) {
        let Some(conn) = self.conns.get_mut(ev.key).and_then(Option::as_mut) else {
            return; // closed earlier in this pass
        };
        let mut dead = ev.readable && !conn.closing && !conn.pump_read(&self.core, self.site);
        if !dead {
            dead = match conn.flush_out() {
                Ok(drained) => conn.closing && drained,
                Err(_) => true,
            };
        }
        if !dead {
            let interest = conn.desired_interest(ev.key);
            dead = self.poller.modify(&conn.stream, interest).is_err();
        }
        if dead {
            self.close(ev.key);
        }
    }

    /// Deregister and drop one connection, freeing its site-wide slot.
    fn close(&mut self, key: usize) {
        if let Some(conn) = self.conns[key].take() {
            let _ = self.poller.delete(&conn.stream);
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.core.conn_closed(self.site);
        }
    }
}
