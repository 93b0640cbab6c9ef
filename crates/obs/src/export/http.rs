//! A minimal std-only HTTP/1.1 exporter.
//!
//! [`ObsServer`] serves four fixed GET routes from a
//! `std::net::TcpListener` accept loop on one background thread:
//!
//! | route          | body                                            |
//! |----------------|-------------------------------------------------|
//! | `/metrics`     | Prometheus text exposition of the registry      |
//! | `/healthz`     | `{"status":"ok"}`                               |
//! | `/events?n=N`  | last `N` journal events as a JSON array         |
//! | `/snapshot`    | the registry snapshot as JSON                   |
//!
//! Requests are read with the shared HTTP/1.1 reader
//! ([`crate::export::httpcore`]) — the same module `fdc-serve` builds
//! its worker-pool server on, so the two network surfaces cannot drift
//! apart in how they parse a request. Connections are served
//! sequentially, one request each (every response says `Connection:
//! close`), with short read timeouts — this is a scrape endpoint, not a
//! web server. Shutdown sets a flag and wakes the accept loop by
//! connecting to the listener's own port.

use crate::events::{journal, Event};
use crate::export::httpcore::{read_request, split_target, write_response};
use crate::export::prom::encode_prometheus;
use crate::metrics::registry;
use crate::names;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default number of events returned by `/events` without a `n=` query.
const DEFAULT_EVENT_COUNT: usize = 64;

/// The running exporter. Dropping (or calling [`ObsServer::shutdown`])
/// stops the accept loop and joins its thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// starts serving on a background thread.
    pub fn bind(port: u16) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fdc-obs-http".to_string())
            .spawn(move || accept_loop(listener, &stop_flag))?;
        journal().publish(Event::ServeStart {
            addr: addr.to_string(),
        });
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = serve_connection(stream);
    }
}

/// Parses `n=<count>` out of a query string, tolerating other params.
fn parse_event_count(query: &str) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_EVENT_COUNT)
}

fn serve_connection(mut stream: TcpStream) -> std::io::Result<()> {
    // The exporter accepts no bodies; 1 KiB covers any scrape head.
    let request = match read_request(&mut stream, 1024, Duration::from_millis(500)) {
        Ok(r) => r,
        Err(_) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "malformed request\n",
                &[],
            );
        }
    };
    if request.method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
            &[("Allow", "GET")],
        );
    }
    let (path, query) = split_target(&request.target);
    // One bounded-cardinality label: the route (or "other" for misses).
    let route = match path {
        "/metrics" | "/healthz" | "/events" | "/snapshot" => path,
        _ => "other",
    };
    registry()
        .counter_with(names::OBS_HTTP_REQUESTS, &[("path", route)])
        .incr();

    match path {
        "/metrics" => {
            let body = encode_prometheus(&registry().snapshot());
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
                &[],
            )
        }
        "/healthz" => write_response(
            &mut stream,
            "200 OK",
            "application/json",
            "{\"status\":\"ok\"}\n",
            &[],
        ),
        "/events" => {
            let n = parse_event_count(query);
            let body = journal().recent_json(n);
            write_response(&mut stream, "200 OK", "application/json", &body, &[])
        }
        "/snapshot" => {
            let body = registry().snapshot().to_json();
            write_response(&mut stream, "200 OK", "application/json", &body, &[])
        }
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "not found\n",
            &[],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Raw one-shot HTTP GET against the server, returning the full
    /// response (head + body).
    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_404() {
        let server = ObsServer::bind(0).unwrap();
        let addr = server.addr();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("{\"status\":\"ok\"}"), "{health}");
        let missing = get(addr, "/no-such-route");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn parse_event_count_tolerates_garbage() {
        assert_eq!(parse_event_count(""), DEFAULT_EVENT_COUNT);
        assert_eq!(parse_event_count("n=12"), 12);
        assert_eq!(parse_event_count("a=b&n=3"), 3);
        assert_eq!(parse_event_count("n=x"), DEFAULT_EVENT_COUNT);
    }
}
