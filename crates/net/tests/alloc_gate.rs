//! Allocation gate: proves the hot paths are **zero allocations per op**
//! in steady state, with a counting global allocator standing in for the
//! system one (an integration test is its own crate, so it can own
//! `#[global_allocator]`).
//!
//! The allocation counter is process-wide, so the three gated paths run
//! sequentially inside ONE `#[test]` — the default parallel test runner
//! would otherwise pollute each other's deltas. Each phase warms its
//! path first (interning keys, growing scratch buffers, dialing the TCP
//! connection) and only then measures: steady state is the claim, not
//! cold start.

use geometa_cache::{Key, ShardedStore};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa_core::transport::RegistryTransport;
use geometa_core::MetaError;
use geometa_net::{transport_for, TcpLayer};
use geometa_sim::topology::SiteId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation (alloc, realloc,
/// alloc_zeroed — frees are not interesting to the gate).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` performed. Only meaningful while nothing else in the
/// process allocates: the phases keep background threads quiescent.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Phase 1: sharded-store gets — hit and miss — by interned key.
fn gate_cache_get() {
    let store = ShardedStore::new(64);
    for i in 0..1024 {
        store
            .put(
                &format!("montage/tile_{i}.fits"),
                bytes::Bytes::from_static(b"entry"),
                0,
            )
            .unwrap();
    }
    let hot = Key::new("montage/tile_511.fits");
    let absent = Key::new("montage/absent.fits");

    // Warm: fault in whatever lazy state the shards keep.
    for _ in 0..64 {
        assert!(store.get_key(&hot).is_ok());
        assert!(store.get_key(&absent).is_err());
    }

    let n = allocs_during(|| {
        for _ in 0..4096 {
            let hit = store.get_key(&hot);
            std::hint::black_box(&hit);
            drop(hit);
            let miss = store.get_key(&absent);
            std::hint::black_box(&miss);
            drop(miss);
        }
    });
    assert_eq!(n, 0, "cache get (hit+miss) must not allocate: {n} allocs");
}

/// Phase 2: wire codec round trip into reused buffers — `encode_into`
/// plus the borrowed decode fast paths.
fn gate_codec_round_trip() {
    let req = RegistryRequest::Get {
        key: "montage/projected/tile_0042.fits".into(),
    };
    let responses = [
        RegistryResponse::Ack,
        RegistryResponse::Error {
            error: MetaError::NotFound,
        },
        RegistryResponse::Error {
            error: MetaError::WrongEpoch { epoch: 7 },
        },
    ];
    let mut buf: Vec<u8> = Vec::with_capacity(256);

    // Warm: let the buffer reach its high-water mark.
    for resp in &responses {
        buf.clear();
        req.encode_into(&mut buf);
        assert!(protocol::decode_get_key(&buf).is_some());
        buf.clear();
        resp.encode_into(&mut buf);
        assert!(protocol::decode_fixed_response(&buf).is_some());
    }

    let n = allocs_during(|| {
        for _ in 0..4096 {
            buf.clear();
            req.encode_into(&mut buf);
            let key = protocol::decode_get_key(&buf).expect("round trip");
            std::hint::black_box(key);
            for resp in &responses {
                buf.clear();
                resp.encode_into(&mut buf);
                let back = protocol::decode_fixed_response(&buf).expect("fixed decode");
                std::hint::black_box(&back);
            }
        }
    });
    assert_eq!(n, 0, "codec round trip must not allocate: {n} allocs");
}

/// Phase 3: the full loopback echo — client submit, reactor frame +
/// flush, server decode + serve + encode, client correlate + wake. The
/// op is a `Get` of an absent key: the miss path touches every wire
/// layer but fabricates no entry, so steady state must be 0 allocs/op.
fn gate_loopback_echo() {
    let runtime = ServiceRuntime::start(RuntimeConfig::default(), TcpLayer::ephemeral());
    let addrs: Vec<std::net::SocketAddr> = {
        let map = runtime.layer().addrs();
        let mut pairs: Vec<_> = map.iter().map(|(s, a)| (*s, *a)).collect();
        pairs.sort_by_key(|(s, _)| *s);
        pairs.into_iter().map(|(_, a)| a).collect()
    };
    let transport = transport_for(&addrs, Duration::from_secs(10));
    let key: Key = "montage/never-published.fits".into();

    // Warm: dial the connection, grow every ring/scratch buffer to its
    // high-water mark, populate the breaker map and the call-slot slab.
    for _ in 0..2000 {
        let resp = transport.call(SiteId(0), RegistryRequest::Get { key: key.clone() });
        assert!(matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::NotFound
            }
        ));
    }

    let ops = 5000u64;
    let n = allocs_during(|| {
        for _ in 0..ops {
            let resp = transport.call(SiteId(0), RegistryRequest::Get { key: key.clone() });
            std::hint::black_box(&resp);
        }
    });
    assert_eq!(
        n,
        0,
        "loopback echo call must not allocate in steady state: \
         {n} allocs over {ops} ops ({:.3}/op)",
        n as f64 / ops as f64
    );

    drop(transport);
    runtime.shutdown();
}

#[test]
fn zero_allocs_per_op_steady_state() {
    gate_cache_get();
    gate_codec_round_trip();
    gate_loopback_echo();
}
