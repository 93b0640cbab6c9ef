//! Distributed trace context — the W3C-`traceparent`-style identity
//! that ties spans from different processes into one timeline.
//!
//! A [`TraceContext`] is a 128-bit trace id, a 64-bit span id and a
//! sampling flag. `fdc-serve` mints one at request ingress (or adopts
//! the caller's from a `traceparent` header), activates it on the
//! worker thread, and every [`crate::span!`] opened while it is active
//! mints a child span id under the same trace id. Outbound hops (the
//! replica's `/wal/fetch` poll, promotion's tail replay, a future
//! router fan-out) re-serialize the active context as a `traceparent`
//! header, so the downstream process's spans join the same trace and a
//! textual merge of the per-process Chrome-trace exports yields one
//! Perfetto timeline.
//!
//! Wire format (the W3C trace-context `traceparent` header, version 00):
//!
//! ```text
//! 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//! ^^ ^^^^^^^^ 32 hex: trace id ^^^^^^ ^16 hex: span id^ ^^ flags
//! ```
//!
//! Flags bit 0 is the sampled flag. Malformed headers are *ignored* —
//! the parser returns `None` and the server mints a fresh root — never
//! an error: a bad caller must not be able to break ingress.
//!
//! Ids come from per-thread SplitMix64 streams seeded once from wall
//! clock ⊕ pid ⊕ a process counter: unique enough across two processes
//! on one machine without any shared state, `std`-only, and cheap
//! enough to mint on every request.

use fdc_codec::hash::splitmix64;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The `traceparent` header name (always sent/matched lowercase).
pub const TRACEPARENT_HEADER: &str = "traceparent";

/// A propagated trace identity: which trace this work belongs to, which
/// span is its immediate parent, and whether the trace is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, shared by every span in the trace.
    pub trace_id: u128,
    /// 64-bit id of the current (parent) span.
    pub span_id: u64,
    /// Whether spans under this context should be recorded/exported.
    pub sampled: bool,
}

thread_local! {
    /// Per-thread SplitMix64 state; 0 = not yet seeded.
    static ID_STATE: Cell<u64> = const { Cell::new(0) };
}

/// Mints a fresh 64-bit id (never zero). Each thread seeds a SplitMix64
/// stream once — wall clock ⊕ pid ⊕ a process-wide counter — and steps
/// it per call, so minting costs a few arithmetic ops instead of a
/// clock read per id (ingress mints a root context on *every* request).
/// Streams stay collision-resistant across the two processes of a
/// primary/follower pair without shared state.
pub fn mint_id() -> u64 {
    ID_STATE.with(|slot| {
        let mut state = slot.get();
        if state == 0 {
            static THREADS: AtomicU64 = AtomicU64::new(0);
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            state = nanos
                ^ (u64::from(std::process::id())).rotate_left(32)
                ^ THREADS.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
            if state == 0 {
                state = 0x5EED_F2DB;
            }
        }
        let id = loop {
            let id = splitmix64(&mut state);
            if id != 0 {
                break id;
            }
        };
        slot.set(state);
        id
    })
}

/// Mints a fresh 128-bit trace id (never zero).
pub fn mint_trace_id() -> u128 {
    (u128::from(mint_id()) << 64) | u128::from(mint_id())
}

impl TraceContext {
    /// Mints a new root context (fresh trace id and span id).
    pub fn root(sampled: bool) -> TraceContext {
        TraceContext {
            trace_id: mint_trace_id(),
            span_id: mint_id(),
            sampled,
        }
    }

    /// A child context: same trace id and sampling, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: mint_id(),
            sampled: self.sampled,
        }
    }

    /// Serializes as a version-00 `traceparent` header value.
    pub fn traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// Parses a `traceparent` header value. Returns `None` for anything
    /// malformed (wrong shape, bad hex, all-zero ids, unknown version) —
    /// callers fall back to minting a fresh root.
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let value = value.trim();
        let mut parts = value.split('-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let flags_hex = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        if version.len() != 2
            || trace_hex.len() != 32
            || span_hex.len() != 16
            || flags_hex.len() != 2
        {
            return None;
        }
        // Version ff is explicitly invalid in the spec; we only speak 00
        // but accept forward versions with the same prefix layout.
        u8::from_str_radix(version, 16)
            .ok()
            .filter(|v| *v != 0xff)?;
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(span_hex, 16).ok()?;
        let flags = u8::from_str_radix(flags_hex, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: flags & 1 == 1,
        })
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context active on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// The active context's `(trace_id, span_id)` — only when sampled.
/// The shape embedded into WAL records and journal events.
pub fn current_sampled_pair() -> Option<(u128, u64)> {
    current()
        .filter(|c| c.sampled)
        .map(|c| (c.trace_id, c.span_id))
}

/// Replaces this thread's active context (used by span guards; prefer
/// [`activate`] elsewhere). Returns the previous context.
pub fn swap_current(ctx: Option<TraceContext>) -> Option<TraceContext> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Activates `ctx` on this thread for the guard's lifetime; the
/// previous context (if any) is restored on drop.
pub fn activate(ctx: TraceContext) -> ContextGuard {
    ContextGuard {
        prev: swap_current(Some(ctx)),
    }
}

/// RAII guard restoring the previously active context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        self.prev = swap_current(self.prev.take());
    }
}

/// Deterministic head sampling: returns true for roughly `rate` of
/// calls (process-wide counter stride, not random — reproducible under
/// test and free of rand dependencies). `rate >= 1.0` always samples,
/// `rate <= 0.0` never does.
pub fn should_sample(rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    static TICK: AtomicU64 = AtomicU64::new(0);
    let n = TICK.fetch_add(1, Ordering::Relaxed);
    // Sample when the fractional accumulator crosses 1: floor((n+1)*r)
    // > floor(n*r) picks ⌈rate·N⌉ of every N calls, evenly spread.
    let scaled = |k: u64| ((k as f64) * rate) as u64;
    scaled(n + 1) > scaled(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext {
            trace_id: 0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736,
            span_id: 0x00f0_67aa_0ba9_02b7,
            sampled: true,
        };
        let header = ctx.traceparent();
        assert_eq!(
            header,
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
        );
        assert_eq!(TraceContext::parse_traceparent(&header), Some(ctx));
        let unsampled = TraceContext {
            sampled: false,
            ..ctx
        };
        assert_eq!(
            TraceContext::parse_traceparent(&unsampled.traceparent()),
            Some(unsampled)
        );
    }

    #[test]
    fn malformed_traceparent_is_ignored() {
        for bad in [
            "",
            "garbage",
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929dXe0e4736-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let id = mint_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
        assert_ne!(mint_trace_id(), 0);
    }

    #[test]
    fn child_keeps_trace_id_and_sampling() {
        let root = TraceContext::root(true);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert!(child.sampled);
    }

    #[test]
    fn activation_nests_and_restores() {
        assert_eq!(current(), None);
        let a = TraceContext::root(true);
        let b = a.child();
        {
            let _ga = activate(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = activate(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
            assert_eq!(current_sampled_pair(), Some((a.trace_id, a.span_id)));
        }
        assert_eq!(current(), None);
        assert_eq!(current_sampled_pair(), None);
    }

    #[test]
    fn unsampled_context_yields_no_pair() {
        let _g = activate(TraceContext::root(false));
        assert_eq!(current_sampled_pair(), None);
    }

    #[test]
    fn should_sample_extremes_and_rate() {
        assert!(should_sample(1.0));
        assert!(should_sample(2.0));
        assert!(!should_sample(0.0));
        assert!(!should_sample(-1.0));
        let hits = (0..1000).filter(|_| should_sample(0.25)).count();
        // Other tests share the counter, so allow slack around 250.
        assert!((200..=300).contains(&hits), "hits={hits}");
    }
}
