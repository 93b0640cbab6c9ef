//! Rendezvous (highest-random-weight) placement.
//!
//! Every placement decision hashes `(key, shard id)` and picks the
//! shard with the highest score. The function is pure — no state, no
//! ring to persist — so any process (router, shard, test harness, a
//! re-started router with no memory of the last one) computes the
//! *same* owner for a key given the same shard id set. Adding or
//! removing one shard only moves the keys whose new/old owner is that
//! shard: an expected `K/N` of `K` keys across `N` shards, the
//! consistent-hashing bound.
//!
//! The hash is FNV-1a over `key`, a separator, and the shard id,
//! finished with a splitmix64 avalanche so short ids (`s0`, `s1`)
//! still produce well-mixed scores. Ties (astronomically unlikely,
//! but the determinism contract must not depend on luck) break toward
//! the lexicographically smallest shard id.

use fdc_codec::hash::{fnv1a, splitmix64, FNV_OFFSET};

/// The rendezvous score of placing `key` on `shard_id`. Deterministic
/// across processes, platforms and runs.
pub fn score(key: &str, shard_id: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, key.as_bytes());
    // A separator byte that cannot appear in UTF-8 text keeps
    // ("ab", "c") and ("a", "bc") from colliding.
    let h = fnv1a(h, &[0xff]);
    let mut h = fnv1a(h, shard_id.as_bytes());
    splitmix64(&mut h)
}

/// Picks the owner of `key` among `shard_ids`: highest [`score`],
/// ties toward the smallest id. Returns `None` only for an empty set.
pub fn place<'a>(key: &str, shard_ids: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    shard_ids.into_iter().max_by(|a, b| {
        score(key, a)
            .cmp(&score(key, b))
            // `max_by` keeps the *last* maximum; ordering ids
            // descending as the secondary criterion makes the
            // smallest id win ties.
            .then_with(|| b.cmp(a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_is_deterministic_and_spread() {
        assert_eq!(score("Germany", "s0"), score("Germany", "s0"));
        assert_ne!(score("Germany", "s0"), score("Germany", "s1"));
        assert_ne!(score("Germany", "s0"), score("France", "s0"));
        // Concatenation ambiguity is broken by the separator.
        assert_ne!(score("ab", "c"), score("a", "bc"));
    }

    #[test]
    fn place_is_stable_under_unrelated_removal() {
        let all = ["s0", "s1", "s2", "s3"];
        let keys: Vec<String> = (0..500).map(|i| format!("key-{i}")).collect();
        let mut moved = 0;
        for key in &keys {
            let owner = place(key, all).unwrap();
            if owner == "s3" {
                continue; // its keys must move somewhere, obviously
            }
            let without: Vec<&str> = all.iter().copied().filter(|s| *s != "s3").collect();
            let owner_after = place(key, without).unwrap();
            if owner_after != owner {
                moved += 1;
            }
        }
        // Keys not owned by the removed shard never move.
        assert_eq!(moved, 0);
    }

    #[test]
    fn placement_balances_roughly() {
        let shards = ["s0", "s1", "s2"];
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            let key = format!("cell-{i}");
            let owner = place(&key, shards).unwrap();
            counts[shards.iter().position(|s| *s == owner).unwrap()] += 1;
        }
        for c in counts {
            // Each shard gets 1000 ± 30% of a uniform split.
            assert!((700..=1300).contains(&c), "skewed placement: {counts:?}");
        }
    }
}
