//! # geometa-net — the registry over real TCP sockets
//!
//! The network binding of the metadata registry: the same
//! [`ServiceRuntime`](geometa_core::runtime::ServiceRuntime) that serves
//! the socket-less inline deployment
//! ([`InlineLayer`](geometa_core::runtime::InlineLayer)), plugged into a
//! framed-TCP [`ConnectionLayer`](geometa_core::runtime::ConnectionLayer).
//! `std::net` only — no external networking crates.
//!
//! * [`frame`] — length-prefixed framing with a timeout-safe incremental
//!   reader and hard frame-size caps on both ends;
//! * [`server`] — [`TcpLayer`]: a pool of readiness-driven reactor
//!   threads per site, each accepting from the site's one listener for
//!   itself (nonblocking `std::net` sockets multiplexed through the
//!   vendored `polling` shim). A pass's frames are served owned requests
//!   first, in arrival order, through `ServiceCore::serve_batch_into`
//!   (its writes share one WAL append), then its called reads through
//!   `ServiceCore::serve_gets` (keys borrowed from the read buffer,
//!   shard locks shared);
//! * [`client`] — [`TcpClientTransport`]: one pipelined connection per
//!   target, driven by its callers — each writes its own request, and
//!   one of them at a time (the connection's leader) polls and reads the
//!   socket, correlating responses by per-connection sequence id and
//!   handing the lead on when it leaves; no I/O thread. Retries follow
//!   the exactly-once rule (re-send only when the frame provably never
//!   reached the kernel). A lazy push is framed onto the same connection
//!   by the publishing thread and leaves with that connection's next
//!   write — the leader's, or on an idle connection the caster's own —
//!   so it never waits on a slow target;
//! * [`loadgen`] — the seeded load generator driving synthetic /
//!   Montage / BuzzFlow op streams (`geometa_workflow::apps::ops`) in
//!   closed-loop and coordinated-omission-safe open-loop modes;
//! * [`chaos`] — [`ChaosLayer`]: seeded frame-aware fault proxies in
//!   front of every site (drops, resets, delays, slow drips, asymmetric
//!   partition windows) — the live analogue of `geometa_sim::faults`.
//!
//! Binaries: `geometa-server` boots an N-site cluster on loopback ports;
//! `geometa-load` drives it (or a self-spawned cluster) in both load
//! modes and prints throughput and latency percentiles.
//!
//! ```
//! use geometa_core::runtime::{RuntimeConfig, ServiceRuntime};
//! use geometa_net::TcpLayer;
//! use geometa_sim::topology::SiteId;
//!
//! let cluster = ServiceRuntime::start(RuntimeConfig::default(), TcpLayer::ephemeral());
//! let client = cluster.client(SiteId(0), 0);
//! client.publish("over-tcp.dat", 4096).unwrap();   // a real socket round trip
//! assert_eq!(client.resolve("over-tcp.dat").unwrap().size, 4096);
//! cluster.shutdown();
//! ```

// Peer input and connection failures surface as errors, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod cli;
pub mod client;
pub mod frame;
pub mod loadgen;
pub mod server;

pub use chaos::{ChaosConfig, ChaosLayer, ChaosStats, PartitionWindow};
pub use client::{transport_for, TcpClientTransport};
pub use loadgen::{LoadOptions, LoadReport};
pub use server::{TcpConfig, TcpLayer};

/// A loopback topology with `n` sites (for deployments that are not the
/// paper's 4-DC testbed; latencies are the builder's same-region
/// defaults, which only matter to the strategies' plan geometry here —
/// real flight time comes from the actual sockets).
pub fn loopback_topology(n: usize) -> geometa_sim::topology::Topology {
    assert!(n >= 1, "need at least one site");
    if n == 4 {
        return geometa_sim::topology::Topology::azure_4dc();
    }
    let mut b = geometa_sim::topology::Topology::builder();
    for i in 0..n {
        b = b.site(&format!("site-{i}"), geometa_sim::topology::Region(0));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometa_core::protocol::{RegistryRequest, RegistryResponse};
    use geometa_core::runtime::{ConnectionLayer, RuntimeConfig, ServiceRuntime};
    use geometa_core::strategy::StrategyKind;
    use geometa_core::transport::RegistryTransport;
    use geometa_sim::topology::SiteId;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn runtime(kind: StrategyKind) -> ServiceRuntime<TcpLayer> {
        ServiceRuntime::start(
            RuntimeConfig {
                kind,
                shards: 8,
                ..RuntimeConfig::default()
            },
            TcpLayer::ephemeral(),
        )
    }

    #[test]
    fn call_roundtrip_over_sockets() {
        let rt = runtime(StrategyKind::Centralized);
        let c = rt.client(SiteId(1), 0);
        for i in 0..25 {
            c.publish(&format!("tcp/{i}"), 10).unwrap();
        }
        let r = rt.client(SiteId(3), 0);
        for i in 0..25 {
            assert_eq!(r.resolve(&format!("tcp/{i}")).unwrap().size, 10);
        }
        rt.shutdown();
    }

    #[test]
    fn lazy_pushes_propagate_over_sockets() {
        let rt = runtime(StrategyKind::DhtLocalReplica);
        let w = rt.client(SiteId(0), 0);
        for i in 0..25 {
            w.publish(&format!("lazy/{i}"), 10).unwrap();
        }
        let remote = rt.client(SiteId(2), 0);
        for i in 0..25 {
            let res = remote.resolve_with_retry(&format!("lazy/{i}"), 400, |_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            assert!(res.is_ok(), "lazy/{i} never arrived over TCP");
        }
        rt.shutdown();
    }

    #[test]
    fn replicated_sync_agent_runs_over_sockets() {
        let rt = runtime(StrategyKind::Replicated);
        let w = rt.client(SiteId(1), 0);
        for i in 0..10 {
            w.publish(&format!("rep/{i}"), 10).unwrap();
        }
        let r = rt.client(SiteId(3), 0);
        for i in 0..10 {
            let res = r.resolve_with_retry(&format!("rep/{i}"), 500, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            assert!(res.is_ok(), "rep/{i} never synced over TCP");
        }
        rt.shutdown();
    }

    #[test]
    fn unavailable_after_shutdown_and_unknown_site() {
        let rt = runtime(StrategyKind::Centralized);
        let transport = rt.layer().transport(rt.core(), SiteId(0));
        assert!(matches!(
            transport.call(SiteId(9), RegistryRequest::DeltaPull { since: 0 }),
            RegistryResponse::Error { .. }
        ));
        rt.shutdown();
        assert!(matches!(
            transport.call(SiteId(0), RegistryRequest::DeltaPull { since: 0 }),
            RegistryResponse::Error { .. }
        ));
    }

    /// A target that accepts but never serves must not stall the caller's
    /// lazy path: `cast` never waits for a write, so it returns in
    /// microseconds while the sink sits on the bytes forever, and once the
    /// unflushed tail is past its bound further casts are shed.
    #[test]
    fn slow_target_cannot_stall_the_lazy_path() {
        // A black-hole server: accepts the connection, never reads.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let held = sink.accept().ok();
                let _ = stop_rx.recv_timeout(Duration::from_secs(5));
                drop(held);
            });

            let addrs = std::iter::once((SiteId(0), addr)).collect();
            let transport = TcpClientTransport::new(addrs, Duration::from_secs(5));
            // Batches big enough that the total (64 × ~120 KB ≈ 8 MB) far
            // exceeds any loopback socket buffer plus the byte bound: the
            // writes hit `WouldBlock`, then the bound.
            let entries: Vec<geometa_core::RegistryEntry> = (0..2000)
                .map(|i| {
                    geometa_core::RegistryEntry::new(
                        format!("lazy/slow/{i}"),
                        1,
                        geometa_core::FileLocation {
                            site: SiteId(0),
                            node: 0,
                        },
                        0,
                    )
                })
                .collect();
            let t0 = Instant::now();
            for _ in 0..64 {
                transport.cast(
                    SiteId(0),
                    RegistryRequest::Absorb {
                        entries: entries.clone(),
                    },
                );
            }
            let enqueue = t0.elapsed();
            assert!(
                enqueue < Duration::from_millis(250),
                "64 casts to a black-hole target took {enqueue:?} — the lazy path stalled"
            );
            assert!(
                transport.casts_shed() > 0,
                "8 MB at a sink that never reads must hit the byte bound"
            );
            // Nothing to join, nothing to push through the wedged peer.
            let t0 = Instant::now();
            drop(transport);
            let teardown = t0.elapsed();
            assert!(
                teardown < Duration::from_millis(50),
                "dropping the transport took {teardown:?}"
            );
            let _ = stop_tx.send(());
        });
    }

    /// A garbage request in a well-formed call frame gets an error
    /// response under its sequence id and the connection lives on; an
    /// unknown mode byte leaves nothing to answer under, so that one
    /// connection is dropped. The server survives both.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "dials this test's own loopback server, which is already listening"
    )]
    fn malformed_frames_do_not_kill_the_server() {
        use crate::frame::{CallHeader, FrameReader};
        // Length-prefix `body` onto the socket as one frame.
        fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
            crate::frame::write_frame_with_mode(w, body[0], &body[1..])
        }
        let rt = runtime(StrategyKind::Centralized);
        let addr = rt.layer().addrs()[&SiteId(0)];
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut body = Vec::new();
        CallHeader {
            seq: 7,
            epoch: None,
        }
        .encode_into(&mut body);
        body.extend_from_slice(&[0xFF, 0xFF]);
        write_frame(&mut raw, &body).unwrap();
        let mut reader = FrameReader::new();
        let (seq, resp) = read_reply(&mut raw, &mut reader).unwrap();
        assert_eq!(seq, 7, "answered under its seq");
        assert!(matches!(resp, RegistryResponse::Error { .. }));

        // Unknown mode: EOF on this socket, nothing written first.
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_frame(&mut bad, &[9u8, 0, 0, 0, 0, 0xFF]).unwrap();
        let mut chunk = [0u8; 64];
        assert_eq!(bad.read(&mut chunk).unwrap(), 0, "expected a clean close");

        // The first connection and the server still serve real traffic.
        body.truncate(CallHeader::encoded_len(None));
        RegistryRequest::Status.encode_into(&mut body);
        write_frame(&mut raw, &body).unwrap();
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "the well-framed connection must survive");
        let c = rt.client(SiteId(0), 0);
        c.publish("after-garbage", 1).unwrap();
        assert!(c.resolve("after-garbage").is_ok());
        rt.shutdown();
    }

    /// A call is served after the casts its own thread sent before it,
    /// even when one readiness pass delivers both: the FIFO rule the
    /// client promises for a call behind its own lazy push. Both frames
    /// go out in one write, so the server sees them in one pass.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "dials this test's own loopback server, which is already listening"
    )]
    fn a_call_sees_the_casts_sent_before_it_in_the_same_pass() {
        use crate::frame::{write_frame_with_mode, CallHeader, FrameReader, MODE_CAST};
        use std::io::Write;
        let rt = runtime(StrategyKind::Centralized);
        let mut raw = std::net::TcpStream::connect(rt.layer().addrs()[&SiteId(0)]).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = FrameReader::new();
        for seq in 0..50u32 {
            let name = format!("fifo/{seq}");
            let entry = geometa_core::RegistryEntry::new(
                name.as_str(),
                1,
                geometa_core::FileLocation {
                    site: SiteId(0),
                    node: 0,
                },
                0,
            );
            let mut wire = Vec::new();
            let mut body = Vec::new();
            RegistryRequest::Absorb {
                entries: vec![entry],
            }
            .encode_into(&mut body);
            write_frame_with_mode(&mut wire, MODE_CAST, &body).unwrap();
            body.clear();
            CallHeader { seq, epoch: None }.encode_into(&mut body);
            RegistryRequest::Get {
                key: name.as_str().into(),
            }
            .encode_into(&mut body);
            write_frame_with_mode(&mut wire, body[0], &body[1..]).unwrap();
            raw.write_all(&wire).unwrap();
            let (got, resp) = read_reply(&mut raw, &mut reader).unwrap();
            assert_eq!(got, seq);
            assert!(
                matches!(resp, RegistryResponse::Found { .. }),
                "{name}: the get was served ahead of its own cast: {resp:?}"
            );
        }
        rt.shutdown();
    }

    /// `max_conns_per_site` is a site-wide cap over the reactor pool: at
    /// the cap every reactor stops accepting, so a further client waits
    /// unanswered in the kernel backlog, and a close re-arms accepting.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "dials this test's own loopback server, which is already listening"
    )]
    fn the_connection_cap_pauses_accepting_until_a_close() {
        use crate::frame::{write_frame_with_mode, CallHeader, FrameReader};
        let rt = ServiceRuntime::start(
            RuntimeConfig {
                kind: StrategyKind::Centralized,
                shards: 8,
                ..RuntimeConfig::default()
            },
            TcpLayer::new(TcpConfig {
                reactors: 2,
                max_conns_per_site: 2,
                ..TcpConfig::default()
            }),
        );
        let addr = rt.layer().addrs()[&SiteId(0)];
        let mut status = Vec::new();
        CallHeader {
            seq: 1,
            epoch: None,
        }
        .encode_into(&mut status);
        RegistryRequest::Status.encode_into(&mut status);
        // Dial and send one `Status` call.
        let dial = || {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            write_frame_with_mode(&mut conn, status[0], &status[1..]).unwrap();
            conn
        };
        let answered = |conn: &mut std::net::TcpStream, within: Duration| {
            conn.set_read_timeout(Some(within)).unwrap();
            read_reply(conn, &mut FrameReader::new()).is_ok()
        };
        let mut first = dial();
        let mut second = dial();
        assert!(answered(&mut first, Duration::from_secs(10)));
        assert!(answered(&mut second, Duration::from_secs(10)));
        // The kernel completes the handshake, but no reactor accepts.
        let mut third = dial();
        assert!(
            !answered(&mut third, Duration::from_millis(300)),
            "a third connection was served past a cap of 2"
        );
        drop(first);
        assert!(
            answered(&mut third, Duration::from_secs(2)),
            "closing a connection did not re-arm accepting"
        );
        rt.shutdown();
    }

    /// Read one response frame: its sequence id and decoded response.
    /// `Err` when the read times out or the server closes first.
    fn read_reply(
        raw: &mut std::net::TcpStream,
        reader: &mut crate::frame::FrameReader,
    ) -> std::io::Result<(u32, RegistryResponse)> {
        loop {
            if let Some(frame) = reader.next_frame()? {
                let seq = u32::from_le_bytes(frame[..4].try_into().unwrap());
                return Ok((seq, RegistryResponse::decode(frame.slice(4..)).unwrap()));
            }
            let mut chunk = [0u8; 1024];
            let n = raw.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let _ = reader.fill(&mut &chunk[..n]);
        }
    }
}
