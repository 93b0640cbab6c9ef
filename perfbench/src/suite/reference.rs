//! Reference work: what the machine is worth right now.
//!
//! The baseline box is two virtual CPUs of a shared host. A fixed
//! single-threaded kernel takes 570 µs or 900 µs on it from one tenth of
//! a second to the next, and the same binary on the same inputs serves
//! 20–40 % slower for a minute and then recovers, with no stolen time to
//! show for it. A regression gate cannot see a 15 % change through that.
//! So the workloads' timings are followed closely by a short piece of
//! *reference work* that uses the machine the way the workload does but
//! runs no program code — round trips to a null HTTP server after every
//! segment of a network workload; a fixed parsing-and-smoothing kernel
//! after every segment of `embed-fig9b` and after every op of the
//! workloads whose ops take a tenth of a second themselves — and are
//! scaled by `nominal / measured` of that reference. A reported
//! microsecond is a microsecond of the box in its nominal state. The
//! reference is benchmark code only, so no change to the program can
//! move it.

use crate::suite::client::Client;
use crate::suite::stats::{median, percentile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// p50 of a null round trip with two clients on the baseline box when
/// it is calm.
pub const NET_NOMINAL_US: f64 = 95.0;
/// One [`cpu_kernel`] call on the baseline box when it is calm and the
/// other virtual CPU idle (with that one busy it takes 900 µs).
pub const CPU_NOMINAL_US: f64 = 600.0;

/// Null round trips per network reference sample (≈ 40 ms).
const NET_ROUND_TRIPS: usize = 400;
/// Kernel calls per CPU reference sample (≈ 8 ms).
const CPU_CALLS: usize = 9;

const STATEMENT: &str =
    "SELECT time, SUM(value) FROM facts WHERE region = 'L2V3' AND city = 'L1V27' \
                         GROUP BY time AS OF now() + '4 steps'";
const ANSWER: &str =
    "{\"rows\":[{\"node\":1042,\"values\":[[48,101.25],[49,99.5],[50,103.75],[51,98.125]]}]}";

/// A fixed piece of single-threaded work shaped like the engine's:
/// tokenise a statement into owned strings, count them in an ordered
/// map, run a smoothing recurrence over a season of points.
pub fn cpu_kernel() -> f64 {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut acc = 0.0;
    for i in 0..200usize {
        let tokens = STATEMENT
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
            .map(|t| format!("{t}{}", i % 7));
        for token in tokens {
            *seen.entry(token).or_insert(0) += 1;
        }
        let (mut level, mut trend) = (1.0f64, 0.0f64);
        for k in 0..48usize {
            let y = ((i * 48 + k) as f64 * 0.37).sin() + 2.0;
            let previous = level;
            level = 0.3 * y + 0.7 * (level + trend);
            trend = 0.1 * (level - previous) + 0.9 * trend;
        }
        acc += level + trend;
    }
    acc + seen.len() as f64
}

/// `nominal / measured` for in-process work: the median of a few timed
/// kernel calls on the calling thread.
pub fn cpu_scale() -> f64 {
    let times: Vec<f64> = (0..CPU_CALLS)
        .map(|_| {
            let started = Instant::now();
            black_box(cpu_kernel());
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    CPU_NOMINAL_US / median(&times).expect("CPU_CALLS > 0")
}

/// Accept → queue → worker → close, like the program's servers, with no
/// program code behind it: the worker reads one framed request, hashes
/// it and answers a fixed body with `Connection: close`.
pub struct NullServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NullServer {
    /// Starts the server on an ephemeral loopback port with two workers.
    pub fn start() -> io::Result<NullServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let rx = Arc::new(Mutex::new(rx));
            let workers: Vec<JoinHandle<()>> = (0..2)
                .map(|_| {
                    let rx = Arc::clone(&rx);
                    std::thread::spawn(move || loop {
                        let next = rx.lock().expect("no worker panics holding it").recv();
                        match next {
                            // A client that hangs up early only fails its own op.
                            Ok(stream) => drop(answer(stream)),
                            Err(_) => return,
                        }
                    })
                })
                .collect();
            for stream in listener.incoming().flatten() {
                if stopping.load(Ordering::SeqCst) || tx.send(stream).is_err() {
                    break;
                }
            }
            drop(tx);
            for worker in workers {
                worker.join().expect("null-server worker panicked");
            }
        });
        Ok(NullServer {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Where it listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for NullServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn answer(mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut request = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        request.extend_from_slice(&chunk[..n]);
        let Some(head_end) = request.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let body_len = std::str::from_utf8(&request[..head_end])
            .ok()
            .and_then(|head| {
                head.lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
            })
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if request.len() >= head_end + 4 + body_len {
            break;
        }
    }
    let digest = request.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    black_box(digest);
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{ANSWER}",
        ANSWER.len()
    );
    stream.write_all(response.as_bytes())
}

/// `nominal / measured` for network work: the p50 of a burst of null
/// round trips from the calling client thread. The workloads' client
/// threads call it at the same moment, so the reference sees the same
/// concurrency the segment before it saw.
pub fn net_scale(null: &mut Client) -> io::Result<f64> {
    let body = format!("{{\"sql\":\"{STATEMENT}\"}}");
    let mut ns = Vec::with_capacity(NET_ROUND_TRIPS);
    for _ in 0..NET_ROUND_TRIPS {
        let response = null.post("/query", &body)?;
        if response.status != 200 || response.body != ANSWER.as_bytes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "the null server answered wrongly",
            ));
        }
        ns.push(response.timing.total_ns());
    }
    ns.sort_unstable();
    let p50_us = percentile(&ns, 0.50).expect("NET_ROUND_TRIPS > 0") as f64 / 1e3;
    Ok(NET_NOMINAL_US / p50_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_server_answers_and_stops() {
        let server = NullServer::start().unwrap();
        let mut client = Client::new(server.addr());
        let scale = net_scale(&mut client).unwrap();
        assert!(scale.is_finite() && scale > 0.0);
        drop(server);
    }

    #[test]
    fn kernel_repeats_exactly() {
        assert_eq!(cpu_kernel().to_bits(), cpu_kernel().to_bits());
        assert!(cpu_scale() > 0.0);
    }
}
