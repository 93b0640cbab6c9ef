//! Derivation schemes and weights (§II-C, Eq. 1–3).
//!
//! A target node `t` can compute its forecasts from any set of source
//! nodes `S` as
//!
//! ```text
//! x̂_t = k_{S→t} · Σ_{s∈S} x̂_s       with    k_{S→t} = h_t / Σ_{s∈S} h_s
//! ```
//!
//! where `h_v` is the sum over the history of node `v` — the
//! historical-share weighting Gross & Sohl found most effective \[16\].
//! The advisor sums the training prefix, the catalog the whole history.
//! The three special cases the paper illustrates (Fig. 3) fall out of the
//! formula: *direct* (`S = {t}`, `k = 1`), *aggregation* (`S` = children
//! of `t`, `k = 1` for consistent SUM data) and *disaggregation*
//! (`S` = {parent}, `k` = the target's share of the parent).
//!
//! [`weight`] and [`derived_point`] are the only places these two
//! formulas are written: the advisor's split, its indicator kernel, the
//! catalog's weights and every served derivation call them.

use crate::dataset::Dataset;
use crate::graph::NodeId;

/// Classification of a derivation scheme relative to the graph structure
/// (Fig. 3), mainly for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The node uses the model at its own node.
    Direct,
    /// The node aggregates forecasts of a full hyperedge of children.
    Aggregation,
    /// The node scales down the forecast of an ancestor.
    Disaggregation,
    /// Any other source combination (siblings, partial sets, multi-source).
    General,
}

/// Classifies the scheme `sources → target` against the graph.
pub fn classify_scheme(dataset: &Dataset, sources: &[NodeId], target: NodeId) -> SchemeKind {
    let g = dataset.graph();
    if sources == [target] {
        return SchemeKind::Direct;
    }
    if let [s] = sources {
        // Ancestor: target's base descendants are a subset of the source's.
        if g.coord(*s).matches_base(g.coord(target))
            || g.base_descendants(target)
                .iter()
                .all(|b| g.coord(*s).matches_base(g.coord(*b)))
        {
            return SchemeKind::Disaggregation;
        }
    }
    // Aggregation: sources equal the children of one hyperedge of target.
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    for edge in g.edges(target) {
        if edge.children == sorted {
            return SchemeKind::Aggregation;
        }
    }
    SchemeKind::General
}

/// The derivation weight `k_{S→t} = h_t / Σ_s h_s` of Eq. (2)/(3) from
/// the target's history sum `h_target` and the sources' summed history
/// `h_sources`; 0 when the sources' history sums to (nearly) zero. Each
/// caller sums its own histories (the training prefix, or the whole
/// history as it grows); this is the one place the ratio is taken.
#[inline]
pub fn weight(h_target: f64, h_sources: f64) -> f64 {
    if h_sources.abs() < f64::EPSILON {
        0.0
    } else {
        h_target / h_sources
    }
}

/// One derived value of Eq. (1): the source values summed in order from
/// `0.0`, times `k`, i.e. `(0.0 + v₁ + v₂ …) · k`. Every derived point —
/// served, scored or used as an indicator — is formed here.
#[inline]
pub fn derived_point(values: impl IntoIterator<Item = f64>, k: f64) -> f64 {
    values.into_iter().fold(0.0, |acc, v| acc + v) * k
}

/// Combines source forecasts into the target forecast per Eq. (1): the
/// [`derived_point`] of the source forecasts at every step.
pub fn derive_forecast(source_forecasts: &[&[f64]], weight: f64) -> Vec<f64> {
    let h = source_forecasts.first().map_or(0, |f| f.len());
    debug_assert!(
        source_forecasts.iter().all(|f| f.len() == h),
        "source horizons must match"
    );
    (0..h)
        .map(|i| derived_point(source_forecasts.iter().map(|f| f[i]), weight))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Coord, STAR};
    use crate::schema::{Dimension, FunctionalDependency, Schema};
    use fdc_forecast::{Granularity, TimeSeries};

    /// Two regions of two cities each; single product dimension omitted.
    fn dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                Dimension::new(
                    "city",
                    vec!["C1".into(), "C2".into(), "C3".into(), "C4".into()],
                ),
                Dimension::new("region", vec!["R1".into(), "R2".into()]),
            ],
            vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
        )
        .unwrap();
        let region_of = [0u32, 0, 1, 1];
        // City i contributes a constant share: values (i+1) * (t+1).
        let base = (0..4u32)
            .map(|city| {
                let values: Vec<f64> = (0..8)
                    .map(|t| (city as f64 + 1.0) * (t as f64 + 1.0))
                    .collect();
                (
                    Coord::new(vec![city, region_of[city as usize]]),
                    TimeSeries::new(values, Granularity::Monthly),
                )
            })
            .collect();
        Dataset::from_base(schema, base).unwrap()
    }

    fn node(ds: &Dataset, vals: Vec<u32>) -> NodeId {
        ds.graph().node(&Coord::new(vals)).unwrap()
    }

    /// The weight over the whole history, summed as the catalog sums it.
    fn full_weight(ds: &Dataset, sources: &[NodeId], target: NodeId) -> f64 {
        let h_s = sources.iter().map(|&s| ds.series(s).history_sum()).sum();
        weight(ds.series(target).history_sum(), h_s)
    }

    #[test]
    fn direct_weight_is_one() {
        let ds = dataset();
        let t = node(&ds, vec![0, 0]);
        assert!((full_weight(&ds, &[t], t) - 1.0).abs() < 1e-12);
        assert_eq!(classify_scheme(&ds, &[t], t), SchemeKind::Direct);
    }

    #[test]
    fn aggregation_weight_is_one_for_full_children() {
        let ds = dataset();
        let r1 = node(&ds, vec![STAR, 0]);
        let c1 = node(&ds, vec![0, 0]);
        let c2 = node(&ds, vec![1, 0]);
        let k = full_weight(&ds, &[c1, c2], r1);
        assert!((k - 1.0).abs() < 1e-12);
        assert_eq!(classify_scheme(&ds, &[c1, c2], r1), SchemeKind::Aggregation);
    }

    #[test]
    fn disaggregation_weight_is_child_share() {
        let ds = dataset();
        let r1 = node(&ds, vec![STAR, 0]);
        let c1 = node(&ds, vec![0, 0]); // share 1/(1+2) of region R1
        let k = full_weight(&ds, &[r1], c1);
        assert!((k - 1.0 / 3.0).abs() < 1e-12, "k = {k}");
        assert_eq!(classify_scheme(&ds, &[r1], c1), SchemeKind::Disaggregation);
    }

    #[test]
    fn sibling_scheme_is_general() {
        let ds = dataset();
        let c1 = node(&ds, vec![0, 0]);
        let c2 = node(&ds, vec![1, 0]);
        assert_eq!(classify_scheme(&ds, &[c2], c1), SchemeKind::General);
        // C2 has twice C1's values → k = 1/2.
        assert!((full_weight(&ds, &[c2], c1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weight_guards_only_a_vanishing_source_sum() {
        for h_s in [0.0, -0.0, f64::EPSILON / 2.0, -f64::EPSILON / 2.0] {
            assert_eq!(weight(7.0, h_s).to_bits(), 0.0f64.to_bits(), "{h_s}");
        }
        // From ε on the ratio is taken, whatever the signs.
        assert_eq!(weight(1.0, f64::EPSILON), 1.0 / f64::EPSILON);
        assert_eq!(weight(3.0, -4.0), -0.75);
        assert_eq!(weight(-3.0, -4.0), 0.75);
        assert_eq!(weight(1.0, 3.0), 1.0 / 3.0);
        assert_eq!(weight(0.0, 5.0), 0.0);
        assert_eq!(weight(6.0, 6.0), 1.0);
    }

    #[test]
    fn derived_point_is_derive_forecast_bit_for_bit() {
        let (a, b) = ([1.5, -0.0, -0.0, 0.1, -2.25], [-0.0, -0.0, 3.0, 0.2, 2.25]);
        let c = [0.7, -0.0, -1e-300, 0.3, 1e300];
        let cases: [&[&[f64]]; 4] = [&[&a], &[&a, &b], &[&b, &a, &c], &[&b, &b]];
        for k in [0.37, 1.0, 0.0, -0.0, -2.5] {
            for sources in cases {
                // The stored form: zeros, each source added in, then × k.
                let mut stored = vec![0.0; a.len()];
                for fc in sources {
                    for (o, v) in stored.iter_mut().zip(*fc) {
                        *o += v;
                    }
                }
                stored.iter_mut().for_each(|o| *o *= k);
                let derived = derive_forecast(sources, k);
                for (i, v) in stored.iter().enumerate() {
                    let point = derived_point(sources.iter().map(|f| f[i]), k);
                    assert_eq!(point.to_bits(), v.to_bits(), "k {k} step {i}");
                    assert_eq!(derived[i].to_bits(), v.to_bits(), "k {k} step {i}");
                }
            }
            // No sources: an empty forecast and a zero point.
            assert!(derive_forecast(&[], k).is_empty());
            assert_eq!(derived_point([], k).to_bits(), (0.0 * k).to_bits());
        }
    }

    #[test]
    fn derive_forecast_applies_weight_to_sum() {
        let fc = derive_forecast(&[&[1.0, 2.0], &[3.0, 4.0]], 0.5);
        assert_eq!(fc, vec![2.0, 3.0]);
        assert!(derive_forecast(&[], 1.0).is_empty());
    }
}
