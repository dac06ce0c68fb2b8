//! Wire-level regression tests for the pipelined client: exactly-once
//! call delivery (the PR 8 headline bugfix), sequence-id correlation
//! under fragmented out-of-order delivery, casts sharing the call
//! connection, reconnects, and fast failure on refused connections. Every test runs the real `TcpClientTransport`
//! against a hand-rolled fake server so the exact byte traffic — most
//! importantly *how many request frames the server ever saw* — can be
//! asserted.

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::{FileLocation, FxHashMap, MetaError, RegistryEntry};
use geometa_net::frame::{CallHeader, Fill, FrameReader, MODE_CAST};
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn transport_to(addr: SocketAddr, call_timeout: Duration) -> TcpClientTransport {
    let addrs: FxHashMap<SiteId, SocketAddr> = std::iter::once((SiteId(0), addr)).collect();
    TcpClientTransport::new(addrs, call_timeout)
}

/// Read one complete frame off a blocking socket (test-side peer).
fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<bytes::Bytes> {
    loop {
        match reader.next_frame().expect("well-framed traffic") {
            Some(body) => return Some(body),
            None => match reader.fill(stream).ok()? {
                Fill::Progress | Fill::Short | Fill::Idle => continue,
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

/// Answer a batch of `Get`s in reverse arrival order. Each response
/// names the key its request asked for and a size derived from the key's
/// numeric suffix, so a mis-correlated client is caught.
fn answer_reversed(calls: &[(u32, RegistryRequest)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (seq, req) in calls.iter().rev() {
        let RegistryRequest::Get { key } = req else {
            panic!("expected Get, got {req:?}");
        };
        let (_, idx) = key.as_str().rsplit_once('k').expect("key suffix");
        let idx: u64 = idx.parse().expect("numeric key suffix");
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
    wire
}

/// The name a `Put` request carries (the mocks tell callers apart by it).
fn put_name(req: &RegistryRequest) -> String {
    let RegistryRequest::Put { entry } = req else {
        panic!("expected Put, got {req:?}");
    };
    entry.name.as_str().to_string()
}

fn unavailable(resp: &RegistryResponse) -> bool {
    matches!(
        resp,
        RegistryResponse::Error {
            error: MetaError::Unavailable
        }
    )
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

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> usize {
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
    });
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

    let transport = std::sync::Arc::new(transport_to(addr, Duration::from_secs(10)));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            // Hold every request until all callers are in flight — that is
            // what makes this *pipelining* and not sequential round trips.
            let mut calls: Vec<(u32, RegistryRequest)> = Vec::new();
            while calls.len() < CALLERS {
                let body = read_frame(&mut stream, &mut reader).expect("request frame");
                calls.push(parse_call(&body));
            }
            let wire = answer_reversed(&calls);
            // Dribble the response bytes in tiny slices.
            for chunk in wire.chunks(5) {
                stream.write_all(chunk).expect("dribble");
                stream.flush().expect("flush");
                std::thread::sleep(Duration::from_micros(300));
            }
        });
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
}

/// A server that closes the connection after each response: nobody reads
/// an idle connection, so the next call's probe is what finds the FIN,
/// and the call dials a fresh connection instead of failing. Every
/// request is still delivered exactly once.
#[test]
fn reconnects_after_server_closes_idle_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (closed_tx, closed_rx) = std::sync::mpsc::channel();

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> Vec<String> {
            let mut served = Vec::new();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut reader = FrameReader::new();
                let body = read_frame(&mut stream, &mut reader).expect("request");
                let (seq, req) = parse_call(&body);
                served.push(put_name(&req));
                let mut wire = Vec::new();
                push_response(&mut wire, seq, &RegistryResponse::Ack);
                stream.write_all(&wire).expect("respond");
                // Close after responding (server restart / idle reap),
                // and only then let the client go on: on loopback the FIN
                // is queued at the peer by the time close returns.
                drop(stream);
                let _ = closed_tx.send(());
            }
            served
        });

        let transport = transport_to(addr, Duration::from_secs(5));
        let first = transport.call(SiteId(0), put_request("reconnect/a"));
        assert!(matches!(first, RegistryResponse::Ack), "got {first:?}");
        closed_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("server closed the first connection");
        let second = transport.call(SiteId(0), put_request("reconnect/b"));
        assert!(matches!(second, RegistryResponse::Ack), "got {second:?}");
        drop(transport);
        // Exactly two connections, one request each.
        assert_eq!(
            server.join().expect("server"),
            ["reconnect/a", "reconnect/b"]
        );
    });
}

/// The in-flight twin: the connection dies under two callers at once, one
/// leading it and one parked behind the leader. Both frames were fully
/// flushed, so both calls fail at once — the parked one is not left to
/// its deadline — and neither is re-sent; the next call dials afresh.
#[test]
fn connection_death_fails_leader_and_parked_caller_without_resend() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> (Vec<String>, Vec<String>) {
            // First connection: take both requests, answer neither, close.
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let mut doomed = Vec::new();
            while doomed.len() < 2 {
                let body = read_frame(&mut stream, &mut reader).expect("request");
                doomed.push(put_name(&parse_call(&body).1));
            }
            drop(stream);
            // Second connection: a working server. A re-sent request
            // would show up here (or as a third frame above).
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let mut served = Vec::new();
            while let Some(body) = read_frame(&mut stream, &mut reader) {
                let (seq, req) = parse_call(&body);
                served.push(put_name(&req));
                let mut wire = Vec::new();
                push_response(&mut wire, seq, &RegistryResponse::Ack);
                stream.write_all(&wire).expect("respond");
            }
            (doomed, served)
        });

        let transport = transport_to(addr, Duration::from_secs(10));
        let t0 = Instant::now();
        std::thread::scope(|callers| {
            for name in ["doomed/a", "doomed/b"] {
                let transport = &transport;
                callers.spawn(move || {
                    let resp = transport.call(SiteId(0), put_request(name));
                    assert!(unavailable(&resp), "{name}: got {resp:?}");
                });
            }
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "a dead connection must fail every pending call at once, took {elapsed:?}"
        );
        let third = transport.call(SiteId(0), put_request("after/c"));
        assert!(matches!(third, RegistryResponse::Ack), "got {third:?}");
        drop(transport);
        let (mut doomed, served) = server.join().expect("server");
        doomed.sort();
        assert_eq!(doomed, ["doomed/a", "doomed/b"]);
        assert_eq!(served, ["after/c"], "a failed call must never be re-sent");
    });
}

/// The hand-off under load: eight closed-loop callers over ONE connection
/// against a server that answers each batch in reverse order and in
/// fragments. Leadership changes hands thousands of times; a single lost
/// promotion would strand a parked caller until its deadline and surface
/// as `Unavailable`. Every caller must get the response for its own key,
/// and the server must see every request exactly once.
#[test]
fn eight_callers_share_one_connection_without_stranding_a_follower() {
    const CALLERS: usize = 8;
    const CALLS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> usize {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut reader = FrameReader::new();
            let mut seen = 0usize;
            // One batch = a frame waited for plus whatever arrived with it.
            while let Some(first) = read_frame(&mut stream, &mut reader) {
                let mut calls = vec![parse_call(&first)];
                while let Some(body) = reader.next_frame().expect("well-framed") {
                    calls.push(parse_call(&body));
                }
                seen += calls.len();
                let wire = answer_reversed(&calls);
                // Split at a point that moves from batch to batch, so
                // frames arrive cut at every offset sooner or later.
                let cut = seen % wire.len();
                stream.write_all(&wire[..cut]).expect("first fragment");
                stream.write_all(&wire[cut..]).expect("second fragment");
            }
            assert!(
                listener.set_nonblocking(true).is_ok() && listener.accept().is_err(),
                "every call must share the one connection"
            );
            seen
        });

        let transport = transport_to(addr, Duration::from_secs(10));
        std::thread::scope(|callers| {
            for caller in 0..CALLERS {
                let transport = &transport;
                callers.spawn(move || {
                    for call in 0..CALLS {
                        let idx = caller * CALLS + call;
                        let name = format!("handoff/c{caller}/k{idx}");
                        let key = geometa_cache::Key::from(name.clone());
                        let resp = transport.call(SiteId(0), RegistryRequest::Get { key });
                        let RegistryResponse::Found { entry } = resp else {
                            panic!("caller {caller} call {call}: expected Found, got {resp:?}");
                        };
                        assert_eq!(entry.name.as_str(), name);
                        assert_eq!(entry.size, 1000 + idx as u64);
                    }
                });
            }
        });
        drop(transport);
        assert_eq!(server.join().expect("server"), CALLERS * CALLS);
    });
}

/// Caller A leads a connection and caller B parks behind it; A leaves —
/// with its own response (`answer_a`) or by timing out — while B's
/// response is still to come. Nobody else is calling, so only A's
/// hand-off can make B the reader: B must see its `Ack` well before its
/// own deadline, and the server must see each request exactly once.
fn leader_leaves_while_a_follower_waits(answer_a: bool) {
    let call_timeout = Duration::from_millis(600);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (a_seen_tx, a_seen_rx) = std::sync::mpsc::channel();
    let (a_done_tx, a_done_rx) = std::sync::mpsc::channel();

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> Vec<String> {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            let mut wire = Vec::new();
            let a = read_frame(&mut stream, &mut reader).expect("A's request");
            let a_arrived = Instant::now();
            let (a_seq, a_req) = parse_call(&a);
            seen.push(put_name(&a_req));
            let _ = a_seen_tx.send(());
            let b = read_frame(&mut stream, &mut reader).expect("B's request");
            let (b_seq, b_req) = parse_call(&b);
            seen.push(put_name(&b_req));
            // B is registered behind A. Let A leave, and only then answer B.
            if answer_a {
                push_response(&mut wire, a_seq, &RegistryResponse::Ack);
                stream.write_all(&wire).expect("respond to A");
                a_done_rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("A returned");
            } else {
                let gone = a_arrived + call_timeout + Duration::from_millis(100);
                std::thread::sleep(gone.saturating_duration_since(Instant::now()));
            }
            wire.clear();
            push_response(&mut wire, b_seq, &RegistryResponse::Ack);
            stream.write_all(&wire).expect("respond to B");
            // A re-send of A's request would be one more frame here.
            while let Some(body) = read_frame(&mut stream, &mut reader) {
                seen.push(put_name(&parse_call(&body).1));
            }
            seen
        });

        let transport = transport_to(addr, call_timeout);
        std::thread::scope(|callers| {
            let transport = &transport;
            callers.spawn(move || {
                let resp = transport.call(SiteId(0), put_request("lead/a"));
                if answer_a {
                    assert!(matches!(resp, RegistryResponse::Ack), "A: got {resp:?}");
                } else {
                    assert!(unavailable(&resp), "A: got {resp:?}");
                }
                let _ = a_done_tx.send(());
            });
            a_seen_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("A's request reached the server");
            if !answer_a {
                // Start B well inside A's wait, so that B's own deadline
                // lies well after the moment the server answers it.
                std::thread::sleep(call_timeout / 2);
            }
            let t0 = Instant::now();
            let resp = transport.call(SiteId(0), put_request("lead/b"));
            assert!(matches!(resp, RegistryResponse::Ack), "B: got {resp:?}");
            assert!(
                t0.elapsed() < call_timeout,
                "B waited {:?}: it was not promoted when A left",
                t0.elapsed()
            );
        });
        drop(transport);
        assert_eq!(server.join().expect("server"), ["lead/a", "lead/b"]);
    });
}

#[test]
fn a_leader_that_returns_hands_the_connection_on() {
    leader_leaves_while_a_follower_waits(true);
}

/// A stays `Unavailable` without a second send, as in
/// `timed_out_call_is_never_resent`.
#[test]
fn a_leader_that_times_out_hands_the_connection_on() {
    leader_leaves_while_a_follower_waits(false);
}

/// Serve the one connection `listener` gets until the client closes it:
/// `Ack` every call, answer no cast, and show each request to `seen`
/// (`true` = it came as a cast).
fn ack_calls(listener: &TcpListener, mut seen: impl FnMut(bool, RegistryRequest)) {
    let (mut stream, _) = listener.accept().expect("accept");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = FrameReader::new();
    while let Some(body) = read_frame(&mut stream, &mut reader) {
        if body[0] == MODE_CAST {
            let req = RegistryRequest::decode(body.slice(1..)).expect("decodable cast");
            seen(true, req);
            continue;
        }
        let (seq, req) = parse_call(&body);
        seen(false, req);
        let mut wire = Vec::new();
        push_response(&mut wire, seq, &RegistryResponse::Ack);
        stream.write_all(&wire).expect("respond");
    }
}

/// A thread's lazy push and its later call to the same site travel on the
/// site's one connection, in that order: the server sees the cast frame
/// first, owes it nothing, and the call's response still finds its caller.
#[test]
fn casts_and_calls_share_one_connection_in_order() {
    const ROUNDS: usize = 50;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> Vec<String> {
            let mut seen = Vec::new();
            ack_calls(&listener, |_, req| seen.push(put_name(&req)));
            assert!(
                listener.set_nonblocking(true).is_ok() && listener.accept().is_err(),
                "casts must not open a connection of their own"
            );
            seen
        });

        let transport = transport_to(addr, Duration::from_secs(10));
        let mut sent = Vec::new();
        for round in 0..ROUNDS {
            // The very first frame is a cast: it dials the connection.
            transport.cast(SiteId(0), put_request(&format!("cast/{round}")));
            let resp = transport.call(SiteId(0), put_request(&format!("call/{round}")));
            assert!(matches!(resp, RegistryResponse::Ack), "got {resp:?}");
            sent.extend([format!("cast/{round}"), format!("call/{round}")]);
        }
        assert_eq!(transport.casts_shed(), 0);
        drop(transport);
        assert_eq!(server.join().expect("server"), sent);
    });
}

/// A cast that finds a leader on its connection writes nothing itself, so
/// someone must. One thread casts for as long as another has a call in
/// flight on the same connection, so the last casts of every burst race
/// the leader's leaving; then both go quiet, and with no further traffic
/// to carry them every cast so far must reach the server — one stranded in
/// the output buffer would sit there until the next burst.
#[test]
fn no_cast_is_stranded_when_the_callers_go_quiet() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const BURSTS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let casts_seen = AtomicUsize::new(0);
    let calling = AtomicBool::new(true);
    let quiet = std::sync::Barrier::new(2);

    std::thread::scope(|scope| {
        let (casts_seen, calling, quiet) = (&casts_seen, &calling, &quiet);
        let server = scope.spawn(move || {
            ack_calls(&listener, |cast, _| {
                casts_seen.fetch_add(usize::from(cast), Ordering::Relaxed);
            })
        });

        let transport = transport_to(addr, Duration::from_secs(10));
        std::thread::scope(|bursts| {
            let transport = &transport;
            bursts.spawn(move || {
                for _ in 0..BURSTS {
                    let resp = transport.call(SiteId(0), put_request("quiet/call"));
                    assert!(matches!(resp, RegistryResponse::Ack), "got {resp:?}");
                    calling.store(false, Ordering::SeqCst);
                    quiet.wait();
                    quiet.wait();
                }
            });
            let mut cast = 0;
            let mut stranded = None;
            for burst in 0..BURSTS {
                while calling.load(Ordering::SeqCst) {
                    transport.cast(SiteId(0), put_request("quiet/cast"));
                    cast += 1;
                }
                quiet.wait();
                // Both threads are quiet. Behind a call that took long the
                // casts may have piled up to the byte bound and been shed;
                // all others are owed. (A failure is reported after the
                // last burst: the caller thread waits on the barrier.)
                let owed = cast - transport.casts_shed() as usize;
                let deadline = Instant::now() + Duration::from_secs(2);
                while stranded.is_none() && casts_seen.load(Ordering::Relaxed) < owed {
                    if Instant::now() >= deadline {
                        stranded = Some(burst);
                    }
                    std::thread::yield_now();
                }
                calling.store(true, Ordering::SeqCst);
                quiet.wait();
            }
            assert_eq!(
                stranded, None,
                "a cast sat in the output buffer with nobody to write it"
            );
        });
        drop(transport);
        server.join().expect("server thread");
    });
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
