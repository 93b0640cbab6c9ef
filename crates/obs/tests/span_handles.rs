//! What a request path pays for its metrics: spans on a path the thread
//! has closed before, and the `counter!`/`histogram!` call-site handles.
//!
//! Runs as its own process (a counting allocator is installed, and the
//! global span switch is toggled); the tests take turns behind one lock
//! because they share that switch, the subscriber slot and the registry.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use fdc_obs::{registry, set_spans_enabled, span, FlameCollector};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

static TURN: Mutex<()> = Mutex::new(());

fn span_count(path: &str) -> u64 {
    registry()
        .histogram(&format!("span.{path}.ns"))
        .snapshot()
        .count
}

#[test]
fn nested_spans_on_two_threads_close_into_one_slash_path() {
    let _turn = TURN.lock().unwrap();
    // Both threads are inside `a` before either opens `b`: each builds
    // its own `a/b` and both close into the one `span.a/b.ns`.
    let both_open = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let _a = span!("two_threads.a");
                both_open.wait();
                for _ in 0..3 {
                    let _b = span!("b");
                }
            });
        }
    });
    assert_eq!(span_count("two_threads.a/b"), 6);
    assert_eq!(span_count("two_threads.a"), 2);
    // `b` at the root is another path than `b` under `a`.
    {
        let _b = span!("b");
    }
    assert_eq!(span_count("b"), 1);
    assert_eq!(span_count("two_threads.a/b"), 6);
}

#[test]
fn a_span_on_a_known_path_allocates_only_what_its_histogram_record_does() {
    let _turn = TURN.lock().unwrap();
    // The first close learns the path, resolves the histogram and makes
    // its first record. From then on a close must add nothing of its
    // own — no path string, no `span.<path>.ns` name for a registry
    // lookup. Zero is not the number to compare with, though: every
    // histogram keeps a t-digest whose buffer grows and is compacted as
    // samples arrive, whoever records them. So the same number of
    // samples goes straight into a histogram in the same state, and the
    // two counts must be equal.
    const CLOSES: u64 = 1000;
    let direct = fdc_obs::histogram("alloc_test.direct.ns");
    direct.record_duration(Duration::from_nanos(1));
    let before = allocations();
    for _ in 0..CLOSES {
        direct.record_duration(Duration::from_nanos(1));
    }
    let recording_alone = allocations() - before;

    {
        let _outer = span!("alloc_test.outer");
        let _inner = span!("inner");
    }
    let before = allocations();
    for _ in 0..CLOSES {
        let _outer = span!("alloc_test.outer");
        let _inner = span!("inner");
    }
    let spans = allocations() - before;
    assert_eq!(span_count("alloc_test.outer/inner"), CLOSES + 1);
    // Two spans close per round, each with its own histogram.
    assert_eq!(spans, 2 * recording_alone);
    // A path string and a metric name per close would be thousands.
    assert!(spans < 64, "{spans} allocations in {CLOSES} rounds");
}

#[test]
fn call_site_handles_resolve_once_and_follow_a_registry_reset() {
    let _turn = TURN.lock().unwrap();
    let hit = || fdc_obs::counter!("handle_test.hits").incr();
    let observe = |v| fdc_obs::histogram!("handle_test.sizes").record(v);
    hit();
    observe(7);
    let before = allocations();
    for _ in 0..1000 {
        hit();
    }
    assert_eq!(allocations() - before, 0, "a resolved counter allocates");
    // The handle is the registry's own metric, not a copy of it.
    assert_eq!(fdc_obs::counter("handle_test.hits").get(), 1001);
    assert_eq!(fdc_obs::histogram("handle_test.sizes").snapshot().count, 1);

    {
        let _g = span!("handle_test.span");
    }
    registry().reset();
    assert_eq!(fdc_obs::counter("handle_test.hits").get(), 0);
    assert_eq!(span_count("handle_test.span"), 0);
    // What the call sites and the thread's span paths kept still
    // points at what the registry exports.
    hit();
    observe(9);
    {
        let _g = span!("handle_test.span");
    }
    assert_eq!(fdc_obs::counter("handle_test.hits").get(), 1);
    let sizes = fdc_obs::histogram("handle_test.sizes").snapshot();
    assert_eq!((sizes.count, sizes.max), (1, 9));
    assert_eq!(span_count("handle_test.span"), 1);
}

#[test]
fn the_flame_summary_and_the_span_switch_behave_as_before() {
    let _turn = TURN.lock().unwrap();
    let collector = FlameCollector::new();
    fdc_obs::set_subscriber(collector.clone());
    for _ in 0..2 {
        let _root = span!("flame_test.root");
        let _leaf = span!("leaf");
    }
    set_spans_enabled(false);
    {
        // Known path or not, a disabled span records nothing.
        let _root = span!("flame_test.root");
        let _leaf = span!("leaf");
        let _new = span!("flame_test.never");
    }
    set_spans_enabled(true);
    {
        let _root = span!("flame_test.root");
    }
    let installed = fdc_obs::take_subscriber();
    assert!(installed.is_some());
    {
        // Closed after the subscriber left: recorded, not reported.
        let _root = span!("flame_test.root");
    }

    let summary = collector.summary();
    let line = |name: &str| {
        summary
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no line for {name} in\n{summary}"))
            .to_string()
    };
    let count = |line: &str| line.split_whitespace().nth(1).unwrap().to_string();
    assert_eq!(count(&line("flame_test.root")), "3", "{summary}");
    assert!(line("leaf").starts_with("  leaf"), "{summary}");
    assert_eq!(count(&line("leaf")), "2", "{summary}");
    assert!(!summary.contains("never"), "{summary}");
    assert_eq!(span_count("flame_test.root"), 4);
    assert_eq!(span_count("flame_test.root/leaf"), 2);
    assert!(!fdc_obs::snapshot()
        .histograms
        .iter()
        .any(|(name, _)| name.contains("flame_test.never")));
}

#[test]
fn a_timed_span_records_once_into_its_callers_histogram() {
    let _turn = TURN.lock().unwrap();
    let collector = FlameCollector::new();
    fdc_obs::set_subscriber(collector.clone());
    let latency = fdc_obs::histogram("timed_test.latency.ns");
    // Collected or not, a finished span records its one duration into
    // the given histogram and hands it back.
    let mut handed_back = [Duration::ZERO; 3];
    for (enabled, slot) in [true, false].into_iter().zip(&mut handed_back) {
        set_spans_enabled(enabled);
        let span = fdc_obs::SpanGuard::timed("timed_test.work");
        std::thread::sleep(Duration::from_millis(1));
        *slot = span.finish(&latency);
        assert!(*slot >= Duration::from_millis(1), "{slot:?}");
    }
    set_spans_enabled(true);
    {
        // Unsampled: timed, not collected.
        let _ctx = fdc_obs::trace::activate(fdc_obs::TraceContext::root(false));
        handed_back[2] = fdc_obs::SpanGuard::timed("timed_test.work").finish(&latency);
    }
    let recorded = latency.snapshot();
    assert_eq!(recorded.count, 3);
    let sum: Duration = handed_back.iter().sum();
    assert_eq!(u128::from(recorded.sum), sum.as_nanos());
    // Only the collected span was reported, with the recorded duration.
    assert_eq!(collector.total("timed_test.work"), (1, handed_back[0]));

    // Dropped unfinished, it closes for the subscriber and records
    // nothing; a plain span nested in it sees the timed one's path.
    {
        let _span = fdc_obs::SpanGuard::timed("timed_test.work");
        let _inner = span!("inner");
    }
    assert_eq!(collector.total("timed_test.work").0, 2);
    assert_eq!(collector.total("timed_test.work/inner").0, 1);
    assert_eq!(latency.snapshot().count, 3);
    assert_eq!(span_count("timed_test.work/inner"), 1);
    fdc_obs::take_subscriber();
    assert!(!fdc_obs::snapshot()
        .histograms
        .iter()
        .any(|(name, _)| name == "span.timed_test.work.ns"));
}

#[test]
fn a_timed_span_on_a_known_path_allocates_only_what_its_record_does() {
    let _turn = TURN.lock().unwrap();
    const CLOSES: u64 = 1000;
    let direct = fdc_obs::histogram("timed_alloc_test.direct.ns");
    let timed = fdc_obs::histogram("timed_alloc_test.timed.ns");
    direct.record_duration(Duration::from_nanos(1));
    fdc_obs::SpanGuard::timed("timed_alloc_test.span").finish(&timed);
    let before = allocations();
    for _ in 0..CLOSES {
        direct.record_duration(Duration::from_nanos(1));
    }
    let recording_alone = allocations() - before;
    let before = allocations();
    for _ in 0..CLOSES {
        fdc_obs::SpanGuard::timed("timed_alloc_test.span").finish(&timed);
    }
    assert_eq!(allocations() - before, recording_alone);
}
