//! The std-only export plane: Prometheus text exposition, the shared
//! HTTP/1.1 layer, and a Chrome `trace_event` span exporter.
//!
//! * [`prom::encode_prometheus`] renders a [`crate::Snapshot`] in the
//!   Prometheus text format — one encoder shared by the shell's
//!   `\metrics` command and the servers' `GET /metrics` routes, sent
//!   under the one [`prom::CONTENT_TYPE`].
//! * [`httpcore`] is the shared std-only HTTP/1.1 layer — request
//!   reader and response writer, the persistent-connection worker-pool
//!   server behind `fdc-serve` and `fdc-router`, and the one pooled
//!   client. A process listens once: a shard answers `/metrics`,
//!   `/events` and `/snapshot` on its forecast port.
//! * [`trace::TraceCollector`] is a [`crate::SpanSubscriber`] that
//!   records every span close as a Chrome `trace_event` complete event;
//!   the resulting JSON loads directly into Perfetto / `chrome://tracing`.

pub mod httpcore;
pub mod prom;
pub mod trace;
