//! The client transport has no thread of its own: calls and casts are
//! written, and responses read, by the threads that make them. A file of
//! one test, so that it is alone in its process and `/proc/self/task`
//! counts nothing but the test harness and the mock server around it.

#![cfg(target_os = "linux")]

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_net::frame::{CallHeader, Fill, FrameReader, MODE_CAST};
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_transport_spawns_no_thread() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        // Answers calls with `Ack` and reports how many casts it saw.
        let server = scope.spawn(move || -> usize {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let mut casts = 0;
            loop {
                match reader.next_frame().expect("well-framed traffic") {
                    Some(body) if body[0] == MODE_CAST => casts += 1,
                    Some(body) => {
                        let (header, _) = CallHeader::parse(&body).expect("call frame");
                        let mut resp = header.seq.to_le_bytes().to_vec();
                        resp.extend_from_slice(&RegistryResponse::Ack.encode());
                        let mut wire = (resp.len() as u32).to_le_bytes().to_vec();
                        wire.extend_from_slice(&resp);
                        stream.write_all(&wire).expect("respond");
                    }
                    None => match reader.fill(&mut stream) {
                        Ok(Fill::Eof) | Err(_) => return casts,
                        Ok(_) => {}
                    },
                }
            }
        });

        let before = threads();
        let addrs = std::iter::once((SiteId(0), addr)).collect();
        let transport = TcpClientTransport::new(addrs, Duration::from_secs(10));
        transport.cast(SiteId(0), RegistryRequest::DeltaPull { since: 0 });
        let resp = transport.call(SiteId(0), RegistryRequest::Status);
        assert!(matches!(resp, RegistryResponse::Ack), "got {resp:?}");
        assert_eq!(threads(), before, "the transport started a thread");
        drop(transport);
        assert_eq!(server.join().expect("server"), 1, "the cast arrived");
    });
}
