//! Wire-level regression tests for the pipelined client: exactly-once
//! call delivery (the PR 8 headline bugfix), sequence-id correlation
//! under fragmented out-of-order delivery, reconnects, and fast failure
//! on refused connections. Every test runs the real `TcpClientTransport`
//! against a hand-rolled fake server so the exact byte traffic — most
//! importantly *how many request frames the server ever saw* — can be
//! asserted.

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::{FileLocation, MetaError, RegistryEntry};
use geometa_net::frame::{CallHeader, Fill, FrameReader};
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn transport_to(addr: SocketAddr, call_timeout: Duration) -> TcpClientTransport {
    let addrs: HashMap<SiteId, SocketAddr> = std::iter::once((SiteId(0), addr)).collect();
    TcpClientTransport::new(addrs, call_timeout, Duration::from_millis(5))
}

/// Read one complete frame off a blocking socket (test-side peer).
fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<bytes::Bytes> {
    loop {
        match reader.next_frame().expect("well-framed traffic") {
            Some(body) => return Some(body),
            None => match reader.fill(stream).ok()? {
                Fill::Progress | Fill::Idle => continue,
                Fill::Eof => return None,
            },
        }
    }
}

/// Split a client call frame body into (seq, decoded request). The
/// response format is the same with and without an epoch.
fn parse_call(body: &bytes::Bytes) -> (u32, RegistryRequest) {
    let (header, req_at) = CallHeader::parse(body).unwrap_or_else(|| {
        panic!(
            "pipelined client sent a non-call frame, mode {:?}",
            body.first()
        )
    });
    let req = RegistryRequest::decode(body.slice(req_at..)).expect("decodable request");
    // Routing-sensitive requests must carry the epoch stamp — a client
    // that silently omits it would dodge the server's WrongEpoch
    // staleness check.
    if matches!(
        req,
        RegistryRequest::Get { .. } | RegistryRequest::Put { .. } | RegistryRequest::Remove { .. }
    ) {
        assert!(header.epoch.is_some(), "{req:?} must be epoch-stamped");
    }
    (header.seq, req)
}

/// Frame a call response (`[u32 seq][response]`) onto a byte buffer.
fn push_response(wire: &mut Vec<u8>, seq: u32, resp: &RegistryResponse) {
    let mut body = seq.to_le_bytes().to_vec();
    body.extend_from_slice(&resp.encode());
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
}

fn put_request(name: &str) -> RegistryRequest {
    RegistryRequest::Put {
        entry: RegistryEntry::new(
            name.to_string(),
            1,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            0,
        ),
    }
}

/// **The headline regression.** A server that *applies* the write, then
/// stalls past the client's call timeout before responding, must see the
/// request exactly once: the old pooled client retried on `TimedOut` and
/// delivered (and applied) the Put twice.
#[test]
fn timed_out_call_is_never_resent() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let call_timeout = Duration::from_millis(250);

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> usize {
        let mut applied = 0usize;
        // Serve connections until the whole test window closes; a
        // retrying client would show up either on this connection or on
        // a fresh one, and both paths land in `applied`.
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut conns: Vec<(TcpStream, FrameReader)> = Vec::new();
        while Instant::now() < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_read_timeout(Some(Duration::from_millis(10)))
                        .expect("read timeout");
                    conns.push((stream, FrameReader::new()));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            for (stream, reader) in &mut conns {
                while let Ok(Some(body)) = reader.next_frame() {
                    let (seq, _req) = parse_call(&body);
                    applied += 1;
                    if applied == 1 {
                        // Apply, stall past the client's deadline, then
                        // answer — the classic slow-server shape.
                        std::thread::sleep(call_timeout * 3);
                        let mut wire = Vec::new();
                        push_response(&mut wire, seq, &RegistryResponse::Ack);
                        let _ = stream.write_all(&wire);
                        let _ = stream.flush();
                    }
                }
                let _ = reader.fill(stream);
            }
        }
        applied
    });

    let transport = transport_to(addr, call_timeout);
    let resp = transport.call(SiteId(0), put_request("exactly/once"));
    assert!(
        matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::Unavailable
            }
        ),
        "a timed-out call must surface Unavailable, got {resp:?}"
    );
    drop(transport);
    let applied = server.join().expect("server thread");
    assert_eq!(
        applied, 1,
        "the request must reach the server exactly once — a second frame means the client re-sent after TimedOut"
    );
}

/// N interleaved in-flight calls on ONE connection resolve to the
/// correct callers even when the server answers in reverse order and
/// dribbles the bytes a few at a time (arbitrary refragmentation, the
/// `frames_survive_arbitrary_fragmentation` scaffolding taken to the
/// transport level).
#[test]
fn pipelined_responses_correlate_under_fragmented_out_of_order_delivery() {
    const CALLERS: usize = 16;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        // Hold every request until all callers are in flight — that is
        // what makes this *pipelining* and not sequential round trips.
        let mut calls: Vec<(u32, RegistryRequest)> = Vec::new();
        while calls.len() < CALLERS {
            let body = read_frame(&mut stream, &mut reader).expect("request frame");
            calls.push(parse_call(&body));
        }
        // Answer in reverse arrival order: each response names the key
        // its request asked for, so a mis-correlated client is caught.
        let mut wire = Vec::new();
        for (seq, req) in calls.iter().rev() {
            let RegistryRequest::Get { key } = req else {
                panic!("expected Get, got {req:?}");
            };
            let idx: u64 = key
                .as_str()
                .trim_start_matches("pipelined/k")
                .parse()
                .expect("key suffix");
            let resp = RegistryResponse::Found {
                entry: RegistryEntry::new(
                    key.as_str().to_string(),
                    1000 + idx,
                    FileLocation {
                        site: SiteId(0),
                        node: 0,
                    },
                    0,
                ),
            };
            push_response(&mut wire, *seq, &resp);
        }
        // Dribble the response bytes in tiny slices.
        for chunk in wire.chunks(5) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_micros(300));
        }
    });

    let transport = std::sync::Arc::new(transport_to(addr, Duration::from_secs(10)));
    std::thread::scope(|scope| {
        for i in 0..CALLERS {
            let transport = std::sync::Arc::clone(&transport);
            scope.spawn(move || {
                let key = geometa_cache::Key::from(format!("pipelined/k{i}"));
                let resp = transport.call(SiteId(0), RegistryRequest::Get { key });
                let RegistryResponse::Found { entry } = resp else {
                    panic!("caller {i}: expected Found, got {resp:?}");
                };
                assert_eq!(entry.name.as_str(), format!("pipelined/k{i}"));
                assert_eq!(
                    entry.size,
                    1000 + i as u64,
                    "caller {i} received another caller's response"
                );
            });
        }
    });
    server.join().expect("server thread");
}

/// A server that closes the connection after each response: the next
/// call dials a fresh connection (the reactor reaps the dead one) and
/// every request is still delivered exactly once.
#[test]
fn reconnects_after_server_closes_idle_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> usize {
        let mut served = 0usize;
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let body = read_frame(&mut stream, &mut reader).expect("request");
            let (seq, _req) = parse_call(&body);
            served += 1;
            let mut wire = Vec::new();
            push_response(&mut wire, seq, &RegistryResponse::Ack);
            stream.write_all(&wire).expect("respond");
            stream.flush().expect("flush");
            // Close after responding (server restart / idle reap).
        }
        served
    });

    let transport = transport_to(addr, Duration::from_secs(5));
    let first = transport.call(SiteId(0), put_request("reconnect/a"));
    assert!(matches!(first, RegistryResponse::Ack), "got {first:?}");
    // Give the reactor a few ticks to observe the FIN and reap the
    // connection; the second call then dials fresh deterministically.
    std::thread::sleep(Duration::from_millis(100));
    let second = transport.call(SiteId(0), put_request("reconnect/b"));
    assert!(matches!(second, RegistryResponse::Ack), "got {second:?}");
    drop(transport);
    assert_eq!(server.join().expect("server"), 2);
}

/// A refused connection is a provable not-sent: the call fails fast as
/// Unavailable (after its one retry-safe redial) instead of burning the
/// full call timeout.
#[test]
fn refused_connection_fails_fast_as_unavailable() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
        // listener drops here: the port now refuses connections
    };
    let transport = transport_to(addr, Duration::from_secs(30));
    let t0 = Instant::now();
    let resp = transport.call(SiteId(0), put_request("refused"));
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::Unavailable
            }
        ),
        "got {resp:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "refused connect took {elapsed:?} — should fail fast, not wait out the call timeout"
    );
}
