//! The daemon's HTTP surface, exercised over real sockets.

use rwc_serve::{Daemon, HttpServer, ServeConfig};
use rwc_telemetry::{FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::time::SimDuration;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply.split(' ').nth(1).unwrap().parse::<u16>().unwrap();
    let body = reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn http_surface_serves_ingest_metrics_capacity_and_shutdown() {
    let fleet = FleetConfig {
        seed: 77,
        n_fibers: 2,
        wavelengths_per_fiber: 4,
        horizon: SimDuration::from_days(7),
        ..FleetConfig::paper()
    };
    let mut cfg = ServeConfig::for_fleet(fleet.clone());
    cfg.n_shards = 2;
    let table = cfg.controller.table.clone();
    let shutdown = Arc::new(AtomicBool::new(false));
    cfg.shutdown = Some(shutdown.clone());
    let n_links = 8;

    let daemon = Daemon::start(cfg).unwrap();
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = Arc::new(daemon);
    let server_thread = {
        let daemon = Arc::clone(&daemon);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || server.run(&daemon, &shutdown))
    };

    let (status, body) = request(&addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    let (status, body) = request(&addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"));
    assert!(body.contains(&format!("\"links_total\":{n_links}")));
    assert!(body.contains("\"shard\":1"));

    // Capacity before any work: known link is 404 (not yet analysed),
    // unknown link is 404 (outside fleet), junk is 400.
    assert_eq!(request(&addr, "GET", "/capacity/0", "").0, 404);
    assert_eq!(request(&addr, "GET", "/capacity/999", "").0, 404);
    assert_eq!(request(&addr, "GET", "/capacity/x", "").0, 400);

    let (status, body) = request(&addr, "POST", "/ingest", "0-3 4 5 6 7");
    assert_eq!(status, 200);
    assert!(body.contains("\"accepted\":8"), "got {body}");
    let (_, body) = request(&addr, "POST", "/ingest", "0-7");
    assert!(body.contains("\"duplicates\":8"), "got {body}");
    assert_eq!(request(&addr, "POST", "/ingest", "nonsense").0, 400);

    let start = Instant::now();
    loop {
        let (_, body) = request(&addr, "GET", "/readyz", "");
        if body.contains(&format!("\"links_completed\":{n_links}")) {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(20), "fleet did not complete");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Every served capacity is the direct analysis of the link, bit for
    // bit, through the JSON body too.
    let gen = FleetGenerator::new(fleet.clone());
    let mut kernel = FleetKernel::new();
    for link in 0..n_links {
        let (status, body) = request(&addr, "GET", &format!("/capacity/{link}"), "");
        assert_eq!(status, 200);
        let served: f64 = body
            .split_once("\"feasible_gbps\":")
            .and_then(|(_, v)| v.trim_end_matches('}').parse().ok())
            .unwrap_or_else(|| panic!("got {body}"));
        let direct = kernel.analyze_generated(&gen, link, &table).feasible_capacity.value();
        assert_eq!(served.to_bits(), direct.to_bits(), "link {link}");
    }

    let (status, body) = request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"serve.links_completed\":8"), "got {body}");
    assert!(body.contains("\"serve.http_requests\":"));
    assert!(body.contains("\"fleet.links\":8"));

    assert_eq!(request(&addr, "GET", "/nope", "").0, 404);

    let (status, body) = request(&addr, "POST", "/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "{\"draining\":true}"));
    server_thread.join().unwrap();
    assert!(shutdown.load(Ordering::Acquire));

    let daemon = Arc::into_inner(daemon).expect("server thread released its handle");
    let report = daemon.drain().unwrap();
    assert_eq!(report.links_completed, n_links as u64);
    assert_eq!(report.counter("serve.duplicates"), 8);
}

/// What a hostile client saw: the reply's status, or a close without one.
#[derive(Debug, PartialEq)]
enum Outcome {
    Status(u16),
    Closed,
}
use Outcome::{Closed, Status};

/// Reads until the server closes. A client-side timeout means the server
/// left the connection hanging, which no case may do.
fn outcome(stream: &mut TcpStream, case: &str) -> Outcome {
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("{case}: the server neither answered nor closed")
            }
            Err(_) => break, // reset by the server: closed
        }
    }
    let reply = String::from_utf8_lossy(&reply);
    match reply.strip_prefix("HTTP/1.1 ").and_then(|r| r.get(..3)).map(str::parse) {
        Some(Ok(status)) => Status(status),
        _ => {
            assert!(reply.is_empty(), "{case}: unparseable reply {reply:?}");
            Closed
        }
    }
}

/// How one hostile case drives its connection.
enum Wire {
    /// Write the bytes, half-close, read the outcome.
    Send(Vec<u8>),
    /// Write the bytes and keep the connection open and silent.
    Stall(Vec<u8>),
    /// Write one endless header line until the server stops reading.
    Flood,
    /// One byte every 50 ms, never finishing the header block.
    Trickle,
}

fn send(request: &[u8]) -> Wire {
    Wire::Send(request.to_vec())
}

fn ingest(body: &str) -> Wire {
    let head = format!("POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    Wire::Send((head + body).into_bytes())
}

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";

/// ROADMAP 6d: every hostile input gets a typed 4xx or a clean close within
/// the request deadline, never a panic or a wedged accept thread, and the
/// server answers `/healthz` right afterwards.
#[test]
fn hostile_wire_input_gets_a_typed_refusal_and_never_wedges_the_server() {
    // The server's whole-request deadline is 500 ms; every case must be
    // settled comfortably inside this.
    let settle = Duration::from_secs(3);
    let mut cfg = ServeConfig::for_fleet(FleetConfig {
        seed: 78,
        n_fibers: 2,
        wavelengths_per_fiber: 4,
        horizon: SimDuration::from_days(7),
        ..FleetConfig::paper()
    });
    cfg.n_shards = 1;
    let daemon = Daemon::start(cfg).unwrap();
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = AtomicBool::new(false);

    let short_body = b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n0 1";
    let cases: Vec<(&str, Wire, &[Outcome])> = vec![
        (
            "header block that never ends",
            Wire::Stall(b"GET /healthz HTTP/1.1\r\nX-Pad: 1\r\n".to_vec()),
            &[Status(408)],
        ),
        ("header block over MAX_REQUEST_BYTES", Wire::Flood, &[Status(413), Closed]),
        ("Content-Length larger than the body, peer gives up", send(short_body), &[Status(400)]),
        (
            "Content-Length larger than the body, peer waits",
            Wire::Stall(short_body.to_vec()),
            &[Status(408)],
        ),
        (
            "Content-Length not a number",
            send(b"POST /ingest HTTP/1.1\r\nContent-Length: ten\r\n\r\n0 1"),
            &[Status(400)],
        ),
        (
            "Content-Length negative",
            send(b"POST /ingest HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            &[Status(400)],
        ),
        (
            "Content-Length over 1 MiB",
            send(b"POST /ingest HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n"),
            &[Status(413)],
        ),
        (
            "Content-Length overflows usize",
            send(b"POST /ingest HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            &[Status(400)],
        ),
        (
            "pipelined garbage after a valid request",
            send(&[HEALTHZ, b"\x00\xff\xfeGET GET GET\r\n\r\n"].concat()),
            &[Status(200), Closed],
        ),
        ("no request line", send(b"\r\n\r\n"), &[Status(400)]),
        ("request line without a path", send(b"GET\r\n\r\n"), &[Status(400)]),
        ("header block that is not UTF-8", send(b"GET /\xff\xfe HTTP/1.1\r\n\r\n"), &[Status(400)]),
        ("connect and say nothing", send(b""), &[Closed]),
        ("slow-loris", Wire::Trickle, &[Status(408)]),
        ("ingest range up to usize::MAX", ingest("0-18446744073709551615"), &[Status(400)]),
        ("ingest range past usize::MAX", ingest("0-18446744073709551616"), &[Status(400)]),
        ("ingest range without an end", ingest("5-"), &[Status(400)]),
        ("ingest range without a start", ingest("-5"), &[Status(400)]),
        ("ingest range backwards", ingest("9-3"), &[Status(400)]),
        ("ingest ranges adding up past the cap", ingest("0-999999 0-999999"), &[Status(400)]),
        ("ingest id past usize::MAX", ingest("18446744073709551616"), &[Status(400)]),
    ];

    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(&daemon, &shutdown));
        let mut exercised = 0;
        for (case, wire, allowed) in cases {
            let started = Instant::now();
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.set_read_timeout(Some(settle)).unwrap();
            stream.set_write_timeout(Some(settle)).unwrap();
            // The slow-loris case also has a request waiting behind it.
            let mut behind = None;
            match wire {
                Wire::Send(bytes) => {
                    stream.write_all(&bytes).unwrap();
                    stream.shutdown(Shutdown::Write).unwrap();
                }
                Wire::Stall(bytes) => stream.write_all(&bytes).unwrap(),
                Wire::Flood => {
                    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
                    // Ends when the server refuses (reset, broken pipe) —
                    // long before these 4 MiB if the 1 MiB cap holds.
                    let line = [b'x'; 64];
                    for _ in 0..(4 << 20) / line.len() {
                        if stream.write_all(&line).is_err() {
                            break;
                        }
                    }
                }
                Wire::Trickle => {
                    let mut queued = TcpStream::connect(&addr).expect("connect behind the loris");
                    queued.set_read_timeout(Some(settle)).unwrap();
                    queued.write_all(HEALTHZ).unwrap();
                    behind = Some(queued);
                    // Refused after ten of these bytes or so; sending all
                    // of them would take 2 s.
                    for byte in &HEALTHZ[..HEALTHZ.len() - 1] {
                        if stream.write_all(&[*byte]).is_err() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            let got = outcome(&mut stream, case);
            assert!(allowed.contains(&got), "{case}: got {got:?}, allowed {allowed:?}");
            if let Some(mut queued) = behind {
                // Served as soon as the loris was refused.
                assert_eq!(outcome(&mut queued, case), Status(200), "{case}: queued request");
            }
            assert!(started.elapsed() < settle, "{case}: took {:?}", started.elapsed());
            assert_eq!(request(&addr, "GET", "/healthz", "").0, 200, "{case}: server dead");
            exercised += 1;
        }
        println!("hostile wire cases exercised: {exercised}");
        assert_eq!(exercised, 21);
        shutdown.store(true, Ordering::Release);
        run.join().expect("accept thread survived every case");
    });
    // Nothing hostile reached the daemon.
    let report = daemon.drain().unwrap();
    assert_eq!(report.counter("serve.ingested"), 0);
}
