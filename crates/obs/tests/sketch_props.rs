//! Seeded property tests of the t-digest against an exact sorted
//! oracle: uniform and lognormal streams, adversarial sorted/reversed
//! streams, merge associativity, and the acceptance bound the ISSUE
//! pins — p99/p999 of a seeded lognormal latency stream within 0.5%
//! rank error of the exact quantile.
//!
//! "Property test" here means deterministic seeded exploration (the
//! workspace is std-only): each property runs over a grid of seeds and
//! stream shapes via `fdc_rng::Rng`, so failures reproduce exactly.

use fdc_obs::TDigest;
use fdc_rng::Rng;

/// Rank error of estimate `est` for target quantile `q` against the
/// sorted exact stream: how far (as a fraction of n) the estimate's
/// position is from where the true quantile sits.
fn rank_error(sorted: &[f64], est: f64, q: f64) -> f64 {
    let below = sorted.partition_point(|&x| x < est);
    let above = sorted.partition_point(|&x| x <= est);
    // `est` may fall inside a run of equal values; the closest rank in
    // that run is the fair one to charge.
    let target = q * sorted.len() as f64;
    let rank = (target.clamp(below as f64, above as f64) - target).abs();
    rank / sorted.len() as f64
}

fn lognormal_stream(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| (8.0 + 0.75 * rng.standard_normal()).exp())
        .collect()
}

fn uniform_stream(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.f64_range(0.0, 1.0e6)).collect()
}

fn digest_of(values: &[f64], compression: f64) -> TDigest {
    let mut d = TDigest::new(compression);
    for &v in values {
        d.insert(v);
    }
    d.flush();
    d
}

fn assert_stream_tracks_oracle(values: &[f64], compression: f64, tol: f64, what: &str) {
    let d = digest_of(values, compression);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
        let err = rank_error(&sorted, d.quantile(q), q);
        assert!(
            err <= tol,
            "{what}: q={q} rank error {err:.5} > {tol} (n={}, centroids={})",
            values.len(),
            d.centroid_count()
        );
    }
}

#[test]
fn uniform_streams_track_the_exact_oracle() {
    for seed in [1u64, 42, 0xDEAD] {
        for n in [100usize, 5_000, 50_000] {
            let mut rng = Rng::seed_from_u64(seed);
            let values = uniform_stream(&mut rng, n);
            assert_stream_tracks_oracle(&values, 200.0, 0.01, "uniform");
        }
    }
}

#[test]
fn lognormal_streams_track_the_exact_oracle() {
    for seed in [7u64, 99, 0xBEEF] {
        let mut rng = Rng::seed_from_u64(seed);
        let values = lognormal_stream(&mut rng, 50_000);
        assert_stream_tracks_oracle(&values, 200.0, 0.01, "lognormal");
    }
}

/// The acceptance bound: on a seeded lognormal latency stream the
/// digest's p99 and p999 sit within 0.5% rank error of the exact
/// quantile — the tail accuracy the log-bucketed histograms cannot give.
#[test]
fn lognormal_tail_quantiles_within_half_percent_rank_error() {
    let mut rng = Rng::seed_from_u64(0x01A7_E9C5);
    let values = lognormal_stream(&mut rng, 100_000);
    let d = digest_of(&values, 200.0);
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    for q in [0.99, 0.999] {
        let est = d.quantile(q);
        let err = rank_error(&sorted, est, q);
        assert!(
            err <= 0.005,
            "q={q}: digest {est:.2} has rank error {err:.5} > 0.005"
        );
    }
}

/// Adversarial insertion orders: a fully sorted and a fully reversed
/// stream stress the buffer/compress path (every flush sees monotone
/// runs), but must not distort the quantiles.
#[test]
fn sorted_and_reversed_streams_are_not_adversarial() {
    let n = 30_000usize;
    let asc: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let desc: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
    assert_stream_tracks_oracle(&asc, 200.0, 0.01, "sorted ascending");
    assert_stream_tracks_oracle(&desc, 200.0, 0.01, "sorted descending");
    // Both orders summarize the same multiset: quantiles agree tightly.
    let da = digest_of(&asc, 200.0);
    let dd = digest_of(&desc, 200.0);
    for q in [0.1, 0.5, 0.9, 0.99] {
        let (a, b) = (da.quantile(q), dd.quantile(q));
        assert!(
            (a - b).abs() <= 0.02 * n as f64,
            "q={q}: ascending {a} vs descending {b}"
        );
    }
}

/// Merging must be associative up to the accuracy bound: merging 8
/// partial digests in left-to-right, pairwise-tree, and reversed order
/// yields the same quantiles within tolerance, and every merge order
/// tracks the pooled oracle.
#[test]
fn merge_is_associative_up_to_rank_error() {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let parts: Vec<Vec<f64>> = (0..8)
        .map(|s| {
            let mut r = rng.fork(s);
            lognormal_stream(&mut r, 5_000)
        })
        .collect();
    let digests: Vec<TDigest> = parts.iter().map(|p| digest_of(p, 200.0)).collect();

    let fold = |order: &[usize]| {
        let mut acc = TDigest::new(200.0);
        for &i in order {
            acc.merge(&digests[i]);
        }
        acc.flush();
        acc
    };
    let left_to_right = fold(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let reversed = fold(&[7, 6, 5, 4, 3, 2, 1, 0]);
    // Pairwise tree: (01)(23)(45)(67) then ((01)(23))((45)(67)).
    let pair = |a: &TDigest, b: &TDigest| {
        let mut m = a.clone();
        m.merge(b);
        m.flush();
        m
    };
    let tree = pair(
        &pair(
            &pair(&digests[0], &digests[1]),
            &pair(&digests[2], &digests[3]),
        ),
        &pair(
            &pair(&digests[4], &digests[5]),
            &pair(&digests[6], &digests[7]),
        ),
    );

    let mut pooled: Vec<f64> = parts.iter().flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    for d in [&left_to_right, &reversed, &tree] {
        assert_eq!(d.count(), pooled.len() as u64);
        for q in [0.05, 0.5, 0.95, 0.99, 0.999] {
            let err = rank_error(&pooled, d.quantile(q), q);
            // The tails keep the single digest's 0.5 % through a merge.
            let tol = if q >= 0.99 { 0.005 } else { 0.01 };
            assert!(err <= tol, "merge order broke q={q}: rank error {err:.5}");
        }
    }
    // And the orders agree with each other within the same bound.
    for q in [0.5, 0.99] {
        for (a, b) in [
            (left_to_right.quantile(q), reversed.quantile(q)),
            (left_to_right.quantile(q), tree.quantile(q)),
        ] {
            let err = rank_error(&pooled, a, rank_of(&pooled, b));
            assert!(err <= 0.01, "orders disagree at q={q}: {a} vs {b}");
        }
    }
}

/// Exact rank of `v` in `sorted` as a fraction of n.
fn rank_of(sorted: &[f64], v: f64) -> f64 {
    sorted.partition_point(|&x| x <= v) as f64 / sorted.len() as f64
}

/// Merging partials built from disjoint slices tracks the oracle as
/// well as one digest fed the whole stream — the per-thread shard
/// story behind `Histogram`'s striped digests.
#[test]
fn merged_partials_match_single_digest_accuracy() {
    let mut rng = Rng::seed_from_u64(2026);
    let values = uniform_stream(&mut rng, 40_000);
    let whole = digest_of(&values, 100.0);
    let mut merged = TDigest::new(100.0);
    for chunk in values.chunks(10_000) {
        merged.merge(&digest_of(chunk, 100.0));
    }
    merged.flush();
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(merged.count(), whole.count());
    for q in [0.5, 0.95, 0.99] {
        assert!(rank_error(&sorted, whole.quantile(q), q) <= 0.01);
        assert!(rank_error(&sorted, merged.quantile(q), q) <= 0.01);
    }
}
