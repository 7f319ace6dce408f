//! Minimal hand-rolled HTTP/1.1 surface over `std::net`.
//!
//! One request per connection, `Connection: close`, JSON bodies. This is
//! an operational endpoint for a single-daemon deployment, not a general
//! web server: requests are parsed just far enough to route
//!
//! | route | method | body |
//! |---|---|---|
//! | `/healthz` | GET | liveness |
//! | `/readyz` | GET | per-shard health; 503 once any shard is unhealthy |
//! | `/metrics` | GET | merged pipeline + `serve.*` snapshot (`--obs-json` schema) |
//! | `/capacity/<link>` | GET | a completed link's feasible capacity |
//! | `/ingest` | POST | whitespace-separated link ids / `a-b` ranges |
//! | `/shutdown` | POST | raises the shutdown flag; `run` returns |
//!
//! ## Accept path
//!
//! [`HttpServer::run`] serves whatever is already pending and otherwise
//! *blocks* in `accept()`: nothing sleeps between a connection arriving
//! and its handler, and an idle server never wakes. One thread accepts
//! and handles, so a request is bounded by a single deadline measured
//! from its accept (`REQUEST_DEADLINE`, 500 ms) — a peer that trickles
//! bytes gets a 408 when it runs out, not the accept thread.
//!
//! ## Wake on shutdown
//!
//! The server stops on a shared [`AtomicBool`] — the same
//! SIGINT/SIGTERM-equivalent hook the shard supervisors watch — so
//! `/shutdown`, Ctrl-C handling in the binary, and tests all stop it the
//! same way. `/shutdown` raises the flag on the accept thread itself and
//! `run` returns straight from the handler. A flag flipped from outside
//! cannot interrupt a blocked `accept()`, so the first time `run` goes
//! idle it starts a watcher thread (scoped inside `run`, joined before it
//! returns) that re-reads the flag every `SHUTDOWN_POLL` (5 ms) and, once
//! it is up, wakes the accept with a loopback connection to the server's
//! own port. Connections still pending when `run` returns — that wake-up,
//! or a client that raced the flag — are closed unanswered.

use crate::daemon::Daemon;
use crate::error::ServeError;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the shutdown watcher re-reads the flag while `run` is idle.
/// Off the request path: it bounds how long an *external* shutdown takes
/// to be noticed, nothing else.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);
/// Back-off after `accept()` fails for a reason other than "nothing
/// pending" (out of descriptors, aborted handshake), so a persistent error
/// cannot spin the thread.
const ACCEPT_ERROR_WAIT: Duration = Duration::from_millis(5);
/// A whole request — line, headers and body — must arrive within this
/// long of its accept.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);
/// Largest request (line + headers + body) we will read.
const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Most link ids one `/ingest` body may expand to.
const MAX_INGEST_LINKS: usize = 1_000_000;

/// A bound listener serving one [`Daemon`].
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    /// Returns from the blocking `accept()`, so a test can show that an
    /// idle server is never woken.
    #[cfg(test)]
    accept_wakeups: std::sync::atomic::AtomicU64,
}

impl HttpServer {
    /// Binds the listener. It is kept non-blocking between blocking
    /// accepts so `run` can tell "nothing pending" from a connection.
    pub fn bind(addr: &str) -> Result<Self, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("set_nonblocking: {e}")))?;
        Ok(Self {
            listener,
            #[cfg(test)]
            accept_wakeups: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The bound address (use with port 0 in tests).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// Serves until `shutdown` flips true (via `/shutdown` or externally).
    /// Returns when the flag is observed; the caller then drains the
    /// daemon. May be called again afterwards.
    pub fn run(&self, daemon: &Daemon, shutdown: &AtomicBool) {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut watcher = None;
            while !shutdown.load(Ordering::Acquire) {
                let accepted = match self.listener.accept() {
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        // Idle. The watcher is started only now, so a
                        // connection that was already waiting (the first
                        // request after start-up) never pays for it.
                        watcher
                            .get_or_insert_with(|| scope.spawn(|| self.watch(shutdown, &done)));
                        self.accept_blocking()
                    }
                    other => other,
                };
                match accepted {
                    // Woken for shutdown (or raced it): closed unanswered.
                    Ok(_) if shutdown.load(Ordering::Acquire) => {}
                    Ok((stream, _)) => handle_connection(daemon, stream, shutdown),
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_WAIT),
                }
            }
            done.store(true, Ordering::Release);
            if let Some(watcher) = watcher {
                watcher.thread().unpark();
            }
        });
        // Whatever is still pending — the watcher's wake-up, a client that
        // raced the flag — is closed rather than left for a later `run`.
        while self.listener.accept().is_ok() {}
    }

    /// One blocking `accept()`; the listener is non-blocking again after.
    fn accept_blocking(&self) -> std::io::Result<(TcpStream, SocketAddr)> {
        self.listener.set_nonblocking(false)?;
        let accepted = self.listener.accept();
        #[cfg(test)]
        self.accept_wakeups.fetch_add(1, Ordering::Relaxed);
        self.listener.set_nonblocking(true)?;
        accepted
    }

    /// The shutdown watcher: waits for the flag, then connects to the
    /// server's own port so the blocked `accept()` returns. Ends early when
    /// `run` is already on its way out (`done`, with an unpark).
    fn watch(&self, shutdown: &AtomicBool, done: &AtomicBool) {
        while !done.load(Ordering::Acquire) {
            if shutdown.load(Ordering::Acquire) && self.wake_accept() {
                return;
            }
            std::thread::park_timeout(SHUTDOWN_POLL);
        }
    }

    fn wake_accept(&self) -> bool {
        let Ok(mut addr) = self.listener.local_addr() else {
            return false;
        };
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A connect that takes longer than a poll means the backlog is
        // full, in which case `accept()` is not blocked in the first place.
        TcpStream::connect_timeout(&addr, SHUTDOWN_POLL).is_ok()
    }
}

/// Why a connection got no routed answer.
enum Refusal {
    /// The peer closed before sending a byte: nothing to answer.
    Gone,
    /// 400.
    Malformed,
    /// 408: the request did not arrive within [`REQUEST_DEADLINE`].
    TimedOut,
    /// 413: more than [`MAX_REQUEST_BYTES`].
    TooLarge,
}

fn handle_connection(daemon: &Daemon, mut stream: TcpStream, shutdown: &AtomicBool) {
    let accepted = Instant::now();
    stream.set_nonblocking(false).ok();
    route(daemon, &mut stream, shutdown, accepted + REQUEST_DEADLINE);
    daemon.note_http_handled(accepted.elapsed());
}

fn route(daemon: &Daemon, stream: &mut TcpStream, shutdown: &AtomicBool, deadline: Instant) {
    let (method, path, body) = match read_request(stream, deadline) {
        Ok(request) => request,
        Err(Refusal::Gone) => return,
        Err(Refusal::Malformed) => {
            return respond(stream, 400, "{\"error\":\"malformed request\"}")
        }
        Err(Refusal::TimedOut) => {
            return respond(stream, 408, "{\"error\":\"request timed out\"}")
        }
        Err(Refusal::TooLarge) => {
            return respond(stream, 413, "{\"error\":\"request too large\"}")
        }
    };
    daemon.note_http_request();
    match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => respond(stream, 200, "{\"ok\":true}"),
        ("GET", "/readyz") => {
            let status = if daemon.is_ready() { 200 } else { 503 };
            respond(stream, status, &daemon.readyz_json());
        }
        ("GET", "/metrics") => respond(stream, 200, &daemon.metrics_json()),
        ("GET", p) if p.starts_with("/capacity/") => {
            match p["/capacity/".len()..].parse::<usize>() {
                Err(_) => respond(stream, 400, "{\"error\":\"bad link id\"}"),
                Ok(link) if link >= daemon.n_links() => {
                    respond(stream, 404, "{\"error\":\"link outside fleet\"}")
                }
                Ok(link) => match daemon.capacity(link) {
                    Some(gbps) => respond(
                        stream,
                        200,
                        &format!("{{\"link\":{link},\"feasible_gbps\":{gbps}}}"),
                    ),
                    None => respond(stream, 404, "{\"error\":\"not yet analysed\"}"),
                },
            }
        }
        ("POST", "/ingest") => match parse_links(&body) {
            None => respond(stream, 400, "{\"error\":\"bad link list\"}"),
            Some(links) => match daemon.ingest(&links) {
                Ok(r) => respond(
                    stream,
                    200,
                    &format!(
                        "{{\"accepted\":{},\"rejected\":{},\"duplicates\":{},\"shed\":{},\"invalid\":{}}}",
                        r.accepted, r.rejected, r.duplicates, r.shed, r.invalid
                    ),
                ),
                Err(e) => respond(stream, 503, &format!("{{\"error\":{:?}}}", e.to_string())),
            },
        },
        ("POST", "/shutdown") => {
            respond(stream, 200, "{\"draining\":true}");
            shutdown.store(true, Ordering::Release);
        }
        _ => respond(stream, 404, "{\"error\":\"no such route\"}"),
    }
}

/// One `read` into `buf`, given no longer than what is left until
/// `deadline`.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, deadline: Instant) -> Result<(), Refusal> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
        return Err(Refusal::TimedOut);
    }
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) if buf.is_empty() => Err(Refusal::Gone),
        Ok(0) => Err(Refusal::Malformed),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(Refusal::TimedOut)
        }
        Err(_) => Err(Refusal::Gone),
    }
}

/// Reads one request: `(method, path, body)`, all of it before `deadline`.
fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(String, String, String), Refusal> {
    let mut buf = Vec::new();
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf, scanned) {
            break pos;
        }
        scanned = buf.len();
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(Refusal::TooLarge);
        }
        read_more(stream, &mut buf, deadline)?;
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| Refusal::Malformed)?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split(' ');
    let (Some(method), Some(path)) = (request_line.next(), request_line.next()) else {
        return Err(Refusal::Malformed);
    };
    let content_length = match lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        None => 0,
        Some((_, v)) => v.trim().parse::<usize>().map_err(|_| Refusal::Malformed)?,
    };
    if content_length > MAX_REQUEST_BYTES {
        return Err(Refusal::TooLarge);
    }
    let (method, path) = (method.to_string(), path.to_string());
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        read_more(stream, &mut buf, deadline)?;
    }
    let body = String::from_utf8_lossy(&buf[body_start..body_start + content_length]).into_owned();
    Ok((method, path, body))
}

/// Position of the first `\r\n\r\n` in `buf`, given that `buf[..scanned]`
/// holds none: only the tail appended since (and the three bytes a
/// terminator could straddle) is searched.
fn find_header_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    buf[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|pos| from + pos)
}

/// Parses a whitespace-separated list of link ids, with `a-b` inclusive
/// ranges (`"0-9 40 41"`). `None` for anything else, and for a list that
/// expands past [`MAX_INGEST_LINKS`] ids.
fn parse_links(body: &str) -> Option<Vec<usize>> {
    let mut links = Vec::new();
    for token in body.split_whitespace() {
        if let Some((a, b)) = token.split_once('-') {
            let (a, b) = (a.parse::<usize>().ok()?, b.parse::<usize>().ok()?);
            if b < a || b - a >= MAX_INGEST_LINKS - links.len() {
                return None;
            }
            links.extend(a..=b);
        } else {
            links.push(token.parse::<usize>().ok()?);
        }
        if links.len() > MAX_INGEST_LINKS {
            return None;
        }
    }
    Some(links)
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes()).ok();
    stream.flush().ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;

    #[test]
    fn link_lists_parse_ids_and_ranges() {
        assert_eq!(parse_links("0 1 2"), Some(vec![0, 1, 2]));
        assert_eq!(parse_links("0-3 9"), Some(vec![0, 1, 2, 3, 9]));
        assert_eq!(parse_links(""), Some(vec![]));
        assert!(parse_links("3-1").is_none());
        assert!(parse_links("x").is_none());
    }

    #[test]
    fn link_lists_are_bounded_in_total() {
        let max = MAX_INGEST_LINKS;
        assert_eq!(parse_links(&format!("0-{}", max - 1)).map(|l| l.len()), Some(max));
        assert!(parse_links(&format!("0-{max}")).is_none());
        assert!(parse_links(&format!("0-{} 7", max - 1)).is_none());
        assert!(parse_links(&format!("0-{} 0-{}", max / 2, max / 2)).is_none());
        assert!(parse_links(&format!("0-{}", usize::MAX)).is_none());
        assert!(parse_links(&format!("1-{}", usize::MAX)).is_none());
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody", 0), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n", 0), None);
        // Resumed scans find a terminator that straddles the old tail, at
        // every split, and never look behind it.
        let buf = b"GET / HTTP/1.1\r\n\r\n";
        for scanned in 0..=17 {
            assert_eq!(find_header_end(buf, scanned), Some(14), "scanned {scanned}");
        }
        assert_eq!(find_header_end(b"\r\n\r\nGET / HTTP/1.1\r\n", 7), None);
    }

    fn fixture() -> (Daemon, HttpServer, SocketAddr) {
        let mut cfg = ServeConfig::small();
        cfg.n_shards = 1;
        let daemon = Daemon::start(cfg).unwrap();
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        (daemon, server, addr)
    }

    fn connect_and_send(addr: SocketAddr, method: &str, path: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(stream, "{method} {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        stream
    }

    /// Everything the server sent before it closed; panics if it did
    /// neither within the client's read timeout.
    fn read_reply(mut stream: TcpStream) -> String {
        let mut reply = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("server neither replied nor closed: {e}")
                }
                Err(_) => break, // reset: closed
            }
        }
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn external_flag_stops_an_idle_server_within_50_ms_and_run_restarts() {
        let (daemon, server, addr) = fixture();
        let shutdown = AtomicBool::new(false);
        // The same server is run again and again; a loaded box may delay
        // one wake-up, so the 50 ms bound must hold for one of five and no
        // attempt may come anywhere near hanging.
        let mut fastest = Duration::MAX;
        for _ in 0..5 {
            shutdown.store(false, Ordering::Release);
            std::thread::scope(|scope| {
                let run = scope.spawn(|| server.run(&daemon, &shutdown));
                let reply = read_reply(connect_and_send(addr, "GET", "/healthz"));
                assert!(reply.starts_with("HTTP/1.1 200 "), "got {reply:?}");
                let flipped = Instant::now();
                shutdown.store(true, Ordering::Release);
                run.join().unwrap();
                let took = flipped.elapsed();
                assert!(took < Duration::from_secs(5), "run took {took:?} to notice the flag");
                fastest = fastest.min(took);
            });
            if fastest < Duration::from_millis(50) {
                break;
            }
        }
        assert!(fastest < Duration::from_millis(50), "fastest stop took {fastest:?}");
    }

    #[test]
    fn shutdown_route_returns_from_the_handler_and_closes_what_is_pending() {
        let (daemon, server, addr) = fixture();
        let shutdown = AtomicBool::new(false);
        // Both connections sit in the backlog before `run` starts, so the
        // second one is pending at the moment `/shutdown` is handled.
        let stopper = connect_and_send(addr, "POST", "/shutdown");
        let bystander = connect_and_send(addr, "GET", "/healthz");
        server.run(&daemon, &shutdown);
        assert!(shutdown.load(Ordering::Acquire));
        assert!(read_reply(stopper).ends_with("{\"draining\":true}"));
        assert_eq!(read_reply(bystander), "", "a pending client is closed, not left hanging");
        // No watcher was ever needed: `run` never went idle.
        assert_eq!(server.accept_wakeups.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn idle_server_is_never_woken() {
        let (daemon, server, addr) = fixture();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let run = scope.spawn(|| server.run(&daemon, &shutdown));
            let reply = read_reply(connect_and_send(addr, "GET", "/healthz"));
            assert!(reply.starts_with("HTTP/1.1 200 "), "got {reply:?}");
            let before = server.accept_wakeups.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(200));
            let after = server.accept_wakeups.load(Ordering::Relaxed);
            assert_eq!(after, before, "accept() returned while nothing connected");
            shutdown.store(true, Ordering::Release);
            run.join().unwrap();
            assert_eq!(
                server.accept_wakeups.load(Ordering::Relaxed),
                before + 1,
                "shutdown costs exactly one wake-up"
            );
        });
    }
}
