//! The std-only export plane: Prometheus text exposition, a minimal
//! HTTP/1.1 endpoint, and a Chrome `trace_event` span exporter.
//!
//! * [`prom::encode_prometheus`] renders a [`crate::Snapshot`] in the
//!   Prometheus text format — one encoder shared by the shell's
//!   `\metrics` command and the HTTP `/metrics` route.
//! * [`httpcore`] is the shared std-only HTTP/1.1 layer — request
//!   reader and response writer, the persistent-connection worker-pool
//!   server behind `fdc-serve` and `fdc-router`, and the one pooled
//!   client; [`http::ObsServer`] uses its one-request forms.
//! * [`http::ObsServer`] serves `/metrics`, `/healthz`, `/events` and
//!   `/snapshot` from a `std::net::TcpListener` accept loop — no HTTP
//!   library, because the request surface is four fixed GET routes.
//! * [`trace::TraceCollector`] is a [`crate::SpanSubscriber`] that
//!   records every span close as a Chrome `trace_event` complete event;
//!   the resulting JSON loads directly into Perfetto / `chrome://tracing`.

pub mod http;
pub mod httpcore;
pub mod prom;
pub mod trace;
