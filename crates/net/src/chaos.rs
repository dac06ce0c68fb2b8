//! Seeded fault injection for the **live** TCP cluster: a frame-aware
//! chaos proxy in front of every site — the real-network analogue of
//! `geometa_sim::faults`.
//!
//! [`ChaosLayer`] wraps [`TcpLayer`]: the inner layer binds its real
//! listeners as usual, then one proxy listener per site is bound in
//! front of it, and every transport this layer hands out dials the
//! *proxies*. Each proxied connection is pumped frame by frame (the
//! proxy shares the production [`FrameReader`], so faults land exactly
//! at the frame boundary — never mid-length-prefix, which would just be
//! a codec error, not an interesting fault), and a seeded per-stream
//! [`SplitMix64`] decides each frame's fate:
//!
//! * **drop** — the frame vanishes; the peer sees silence, not an error
//!   (calls time out, casts are simply lost);
//! * **reset** — both directions of the proxied connection are torn
//!   down mid-stream, exercising the client's exactly-once retry rule
//!   and the server's partial-frame tolerance;
//! * **delay** — the frame is held for a seeded duration before
//!   forwarding (reordering *across* connections, never within one);
//! * **slow drip** — the frame's bytes are dribbled a few at a time
//!   with pauses, exercising incremental reads and write deadlines;
//! * **partition windows** — time-boxed one-directional blackouts per
//!   site ([`ChaosConfig::partitions`]): every frame crossing the
//!   blocked direction during the window is dropped, while the reverse
//!   direction keeps flowing — the classic asymmetric partition.
//!
//! Determinism: every fault decision draws from a stream derived from
//! `(seed, site, direction, connection-index)` via [`SplitMix64::split`]
//! — no wall-clock entropy, no global RNG. Given the same seed and the
//! same connection-establishment order, the fault schedule is identical;
//! a failing chaos run replays from its seed. (Connection *indices* are
//! assigned in accept order, which a multi-threaded cluster does not
//! fully pin down — the per-seed schedule is reproducible per stream,
//! and the test oracles are invariants, not exact traces, exactly as
//! with the simulator's fault stats.)
//!
//! Every injected fault is counted in [`ChaosStats`] — faults are never
//! silent, so a run can assert both "chaos actually happened" and "the
//! invariant held anyway".

use crate::client::TcpClientTransport;
use crate::frame::{Fill, FrameReader, MAX_FRAME};
use crate::server::TcpLayer;
use geometa_core::runtime::{ConnectionLayer, ServiceCore, Spawner};
use geometa_core::FxHashMap;
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use parking_lot::Mutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Proxy-side read tick: how often a pump thread re-checks the shutdown
/// flag while its socket is idle.
const PROXY_READ_TICK: Duration = Duration::from_millis(25);
/// Proxy-side write deadline: a chaos fault must never wedge the proxy
/// itself (a peer that stops reading fails the pump, closing the
/// connection — which is itself a legitimate fault from the peer's
/// point of view).
const PROXY_WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Upstream dial deadline for a freshly accepted proxied connection.
const PROXY_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Slow-drip chunk size: forwarded bytes per dribble step.
const DRIP_CHUNK: usize = 7;
/// Pause between slow-drip steps.
const DRIP_PAUSE: Duration = Duration::from_millis(2);
/// Cap on how many drip pauses one frame pays (a large sync chunk must
/// be *slow*, not effectively parked forever).
const DRIP_MAX_PAUSES: u32 = 40;

/// Which way a pumped stream flows through the proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client (or peer site) → the proxied site's server.
    ToServer,
    /// The proxied site's server → client.
    ToClient,
}

/// A time-boxed one-directional blackout of one site's proxy — the live
/// analogue of `FaultAction::Partition` with `symmetric: false`. Frames
/// flowing in `direction` through `site`'s proxy during
/// `[start, start + len)` (measured from [`ChaosLayer`] start) are
/// dropped; the reverse direction is untouched.
#[derive(Clone, Copy, Debug)]
pub struct PartitionWindow {
    /// Whose proxy goes dark.
    pub site: SiteId,
    /// Which direction is blocked.
    pub direction: Direction,
    /// Window start, relative to layer start.
    pub start: Duration,
    /// Window length.
    pub len: Duration,
}

/// Fault mix for a chaos run. Probabilities are per *frame*; they are
/// rolled from one uniform draw in the order drop → reset → delay →
/// drip, so the mix composes like the simulator's link chaos (at most
/// one structural fault per frame; a delayed frame may not also drop).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Root seed; every stream's RNG is split from it.
    pub seed: u64,
    /// Per-frame drop probability.
    pub drop_prob: f64,
    /// Per-frame connection-reset probability.
    pub reset_prob: f64,
    /// Per-frame delay probability.
    pub delay_prob: f64,
    /// Upper bound for an injected delay (the actual hold is a seeded
    /// uniform draw in `[0, max_delay]`).
    pub max_delay: Duration,
    /// Per-frame slow-drip probability.
    pub drip_prob: f64,
    /// Asymmetric blackout windows.
    pub partitions: Vec<PartitionWindow>,
}

/// Counters for every injected fault (and the traffic that crossed
/// cleanly). All relaxed — these are test oracles, not synchronization.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted and proxied.
    pub conns: AtomicU64,
    /// Frames forwarded unharmed (possibly delayed/dripped).
    pub frames_forwarded: AtomicU64,
    /// Frames dropped by the per-frame roll.
    pub frames_dropped: AtomicU64,
    /// Connections reset mid-stream by the per-frame roll.
    pub resets: AtomicU64,
    /// Frames held by an injected delay.
    pub delays: AtomicU64,
    /// Frames forwarded as a slow drip.
    pub drips: AtomicU64,
    /// Frames dropped by an active partition window.
    pub partition_drops: AtomicU64,
}

/// [`TcpLayer`] behind per-site seeded chaos proxies. See the module
/// docs for the fault model.
pub struct ChaosLayer {
    inner: TcpLayer,
    config: ChaosConfig,
    /// What clients dial: proxy address per site.
    proxy_addrs: FxHashMap<SiteId, SocketAddr>,
    /// The shared client transport, dialing the proxies.
    shared: Mutex<Option<Arc<TcpClientTransport>>>,
    stats: Arc<ChaosStats>,
    /// Epoch for partition windows; set when `start` runs.
    t0: Instant,
}

impl ChaosLayer {
    /// Put `inner` behind chaos proxies.
    pub fn over(inner: TcpLayer, config: ChaosConfig) -> ChaosLayer {
        ChaosLayer {
            inner,
            config,
            proxy_addrs: FxHashMap::default(),
            shared: Mutex::new(None),
            stats: Arc::new(ChaosStats::default()),
            t0: Instant::now(),
        }
    }

    /// Fault counters (shared with every proxy thread).
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.stats)
    }

    /// The inner layer's *unproxied* addresses — a chaos-free side door
    /// for test verification phases ("does every acked key still
    /// resolve?"), which must not themselves be subject to drops.
    pub fn direct_addrs(&self) -> &FxHashMap<SiteId, SocketAddr> {
        self.inner.addrs()
    }
}

impl ConnectionLayer for ChaosLayer {
    type Transport = TcpClientTransport;

    fn start(&mut self, core: &Arc<ServiceCore>, spawner: &mut Spawner) {
        self.inner.start(core, spawner);
        self.t0 = Instant::now();
        let mut upstreams: Vec<(SiteId, SocketAddr)> =
            self.inner.addrs().iter().map(|(s, a)| (*s, *a)).collect();
        upstreams.sort_by_key(|(s, _)| *s);
        for (site, upstream) in upstreams {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .unwrap_or_else(|e| panic!("bind chaos proxy for {site}: {e}"));
            #[expect(
                clippy::expect_used,
                reason = "infallible: local_addr on a freshly bound loopback listener cannot fail"
            )]
            let addr = listener.local_addr().expect("bound proxy has an addr");
            self.proxy_addrs.insert(site, addr);
            let core = Arc::clone(core);
            let stats = Arc::clone(&self.stats);
            let config = self.config.clone();
            let t0 = self.t0;
            spawner.spawn(format!("chaos-proxy-{site}"), move || {
                proxy_loop(&listener, upstream, site, &core, &config, &stats, t0)
            });
        }
    }

    fn transport(&self, _core: &Arc<ServiceCore>, _site: SiteId) -> Arc<TcpClientTransport> {
        Arc::clone(self.shared.lock().get_or_insert_with(|| {
            Arc::new(TcpClientTransport::new(
                self.proxy_addrs.clone(),
                self.inner.config().call_timeout,
            ))
        }))
    }

    fn unblock(&self) {
        self.inner.unblock();
        // Pop every proxy's blocking accept too.
        for addr in self.proxy_addrs.values() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
        }
    }
}

/// Accept loop of one site's proxy: dial upstream per accepted
/// connection and spawn the two directional pumps. Pump handles are
/// joined before the loop returns, preserving the runtime's no-leaked-
/// threads guarantee (the accept thread itself is spawner-tracked).
fn proxy_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    site: SiteId,
    core: &Arc<ServiceCore>,
    config: &ChaosConfig,
    stats: &Arc<ChaosStats>,
    t0: Instant,
) {
    let root = SplitMix64::new(config.seed ^ (0x9E37_79B9 ^ u64::from(site.0)).rotate_left(17));
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_idx: u64 = 0;
    loop {
        if core.is_shutdown() {
            break;
        }
        let Ok((client_side, _peer)) = listener.accept() else {
            break;
        };
        if core.is_shutdown() {
            break;
        }
        // Reap finished pumps so a long storm does not accumulate
        // handles without bound (join of a finished thread is free).
        let mut i = 0;
        while i < pumps.len() {
            if pumps[i].is_finished() {
                let _ = pumps.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let Ok(server_side) = TcpStream::connect_timeout(&upstream, PROXY_CONNECT_TIMEOUT) else {
            continue; // upstream refused: the client sees EOF, a clean fault
        };
        stats.conns.fetch_add(1, Ordering::Relaxed);
        let _ = client_side.set_nodelay(true);
        let _ = server_side.set_nodelay(true);
        let (c2s_src, s2c_dst) = (
            client_side.try_clone(),
            client_side, // s2c writes back to the client
        );
        let (s2c_src, c2s_dst) = (server_side.try_clone(), server_side);
        let Ok(c2s_src) = c2s_src else { continue };
        let Ok(s2c_src) = s2c_src else { continue };
        for (direction, src, dst) in [
            (Direction::ToServer, c2s_src, c2s_dst),
            (Direction::ToClient, s2c_src, s2c_dst),
        ] {
            let rng = root.split(conn_idx ^ (direction as u64) << 32);
            let core = Arc::clone(core);
            let stats = Arc::clone(stats);
            let config = config.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "handle lands in `pumps`, joined below before proxy_loop returns (which the Spawner tracks)"
            )]
            let spawned = std::thread::Builder::new()
                .name(format!("chaos-pump-{site}-{conn_idx}"))
                .spawn(move || pump(src, dst, direction, site, rng, &core, &config, &stats, t0));
            if let Ok(h) = spawned {
                pumps.push(h);
            }
            conn_idx += 1;
        }
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// Whether `direction` through `site`'s proxy is blacked out right now.
fn partitioned(config: &ChaosConfig, site: SiteId, direction: Direction, t0: Instant) -> bool {
    let now = t0.elapsed();
    config.partitions.iter().any(|w| {
        w.site == site && w.direction == direction && now >= w.start && now < w.start + w.len
    })
}

/// Pump one direction of one proxied connection, frame by frame,
/// rolling each frame's fate. Returns when either side closes, a reset
/// fault fires, or the runtime shuts down.
#[expect(
    clippy::too_many_arguments,
    reason = "a pump thread owns both sockets and its fault stream; the rest is shared proxy state it borrows"
)]
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    direction: Direction,
    site: SiteId,
    mut rng: SplitMix64,
    core: &Arc<ServiceCore>,
    config: &ChaosConfig,
    stats: &ChaosStats,
    t0: Instant,
) {
    if src.set_read_timeout(Some(PROXY_READ_TICK)).is_err() {
        return;
    }
    if dst.set_write_timeout(Some(PROXY_WRITE_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    loop {
        loop {
            match reader.next_frame() {
                Ok(Some(body)) => {
                    if body.len() > MAX_FRAME {
                        return; // unreachable (reader caps), belt and braces
                    }
                    if partitioned(config, site, direction, t0) {
                        stats.partition_drops.fetch_add(1, Ordering::Relaxed);
                        continue; // the frame crosses the cut: gone
                    }
                    // One uniform draw decides the frame's fate so the
                    // mix composes predictably (see ChaosConfig docs).
                    let roll = rng.uniform_f64();
                    let (p_drop, p_reset, p_delay) = (
                        config.drop_prob,
                        config.drop_prob + config.reset_prob,
                        config.drop_prob + config.reset_prob + config.delay_prob,
                    );
                    if roll < p_drop {
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if roll < p_reset {
                        stats.resets.fetch_add(1, Ordering::Relaxed);
                        // Tear down both directions: the paired pump
                        // sees EOF/ECONNRESET and exits too.
                        let _ = src.shutdown(std::net::Shutdown::Both);
                        let _ = dst.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                    if roll < p_delay {
                        stats.delays.fetch_add(1, Ordering::Relaxed);
                        let hold = config
                            .max_delay
                            .mul_f64(rng.uniform_f64())
                            .min(config.max_delay);
                        std::thread::sleep(hold);
                    }
                    let drip = roll >= p_delay && roll < p_delay + config.drip_prob;
                    if forward_frame(&mut dst, &body, drip, stats).is_err() {
                        let _ = src.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                    stats.frames_forwarded.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => break,
                Err(_) => return, // implausible length prefix: drop the conn
            }
        }
        if core.is_shutdown() {
            return;
        }
        match reader.fill(&mut src) {
            Ok(Fill::Progress | Fill::Short | Fill::Idle) => {}
            Ok(Fill::Eof) | Err(_) => {
                // Half-close: propagate so the peer's read side drains
                // naturally instead of hanging until its own timeout.
                let _ = dst.shutdown(std::net::Shutdown::Write);
                return;
            }
        }
    }
}

/// Re-emit one frame on `dst`, intact or as a slow drip.
fn forward_frame(
    dst: &mut TcpStream,
    body: &bytes::Bytes,
    drip: bool,
    stats: &ChaosStats,
) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(4 + body.len());
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(body);
    if !drip {
        return dst.write_all(&wire);
    }
    stats.drips.fetch_add(1, Ordering::Relaxed);
    let mut pauses = 0u32;
    for chunk in wire.chunks(DRIP_CHUNK) {
        dst.write_all(chunk)?;
        if pauses < DRIP_MAX_PAUSES {
            pauses += 1;
            std::thread::sleep(DRIP_PAUSE);
        }
    }
    dst.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_streams_are_deterministic_per_seed() {
        let draw = |seed: u64, conn: u64, dir: Direction| -> Vec<u64> {
            let root = SplitMix64::new(seed ^ (0x9E37_79B9 ^ 3u64).rotate_left(17));
            let mut rng = root.split(conn ^ (dir as u64) << 32);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(
            draw(7, 0, Direction::ToServer),
            draw(7, 0, Direction::ToServer),
            "same (seed, conn, direction) → same stream"
        );
        assert_ne!(
            draw(7, 0, Direction::ToServer),
            draw(7, 0, Direction::ToClient),
            "directions decorrelate"
        );
        assert_ne!(
            draw(7, 0, Direction::ToServer),
            draw(8, 0, Direction::ToServer),
            "seeds decorrelate"
        );
        assert_ne!(
            draw(7, 0, Direction::ToServer),
            draw(7, 2, Direction::ToServer),
            "connections decorrelate"
        );
    }

    /// A fault-free mix with one partition window.
    fn with_window(window: PartitionWindow) -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            drop_prob: 0.0,
            reset_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            drip_prob: 0.0,
            partitions: vec![window],
        }
    }

    #[test]
    fn partition_windows_are_time_boxed_and_directional() {
        let t0 = Instant::now();
        let config = with_window(PartitionWindow {
            site: SiteId(1),
            direction: Direction::ToServer,
            start: Duration::ZERO,
            len: Duration::from_secs(3600),
        });
        assert!(partitioned(&config, SiteId(1), Direction::ToServer, t0));
        assert!(
            !partitioned(&config, SiteId(1), Direction::ToClient, t0),
            "asymmetric: reverse direction flows"
        );
        assert!(!partitioned(&config, SiteId(0), Direction::ToServer, t0));
        let late = with_window(PartitionWindow {
            site: SiteId(1),
            direction: Direction::ToServer,
            start: Duration::from_secs(3600),
            len: Duration::from_secs(1),
        });
        assert!(
            !partitioned(&late, SiteId(1), Direction::ToServer, t0),
            "window not yet open"
        );
    }
}
