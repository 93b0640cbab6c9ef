//! Versioned binary codec for persisting an [`ApproxPlane`].
//!
//! The plane lives in a sidecar file next to the F²DB catalog (the
//! catalog bytes themselves never change when approximation is enabled
//! — exact results stay byte-identical). Written and read with the
//! workspace's byte-codec kit (`fdc-codec`); specs and model states use
//! the one encoding `fdc-forecast` defines for them.
//!
//! Layout (v1):
//!
//! ```text
//! "FDCA" | version u16
//! options: strata, samples_per_stratum, seed, min_population, max_nodes (u64 each), confidence f64
//! spec: model-spec tag (+ spec fields)
//! strata bounds: len-prefixed f64s
//! nodes: count, then per node: id u64, strata count, then per stratum:
//!        cap, population, member count, (priority u64, cell u64)*
//! models: count, then per model: cell u64, model state
//!         (spec tag + fields, params, state, observations)
//! ```
//!
//! Fit options are *not* persisted: a restored plane refits (via
//! [`ApproxPlane::add_cell`]) with the caller's current options, which is
//! what a process restart wants anyway.

use crate::plane::{ApproxOptions, ApproxPlane};
use crate::sampler::{NodeSample, ScaleStrata, StratumReservoir};
use crate::{ApproxError, Result};
use fdc_codec::{DecodeError, Reader, Writer};
use fdc_cube::NodeId;
use fdc_forecast::model::restore_model;
use fdc_forecast::{ForecastModel, ModelSpec, ModelState};
use std::collections::HashMap;

impl From<DecodeError> for ApproxError {
    fn from(e: DecodeError) -> Self {
        ApproxError::Codec(e.to_string())
    }
}

/// Magic bytes identifying a plane file.
pub const MAGIC: &[u8; 4] = b"FDCA";
/// On-disk format version.
pub const VERSION: u16 = 1;

/// Serializes a plane.
pub fn encode_plane(plane: &ApproxPlane) -> Vec<u8> {
    let (options, spec, strata, nodes, models) = plane.parts();
    let mut w = Writer::with_capacity(4096);
    w.header(MAGIC, VERSION);

    w.len(options.strata);
    w.len(options.samples_per_stratum);
    w.u64(options.seed);
    w.len(options.min_population);
    w.len(options.max_nodes);
    w.f64(options.confidence);

    spec.encode_into(&mut w);
    w.f64s(strata.bounds());

    // Deterministic node order so equal planes encode to equal bytes.
    let mut node_ids: Vec<NodeId> = nodes.keys().copied().collect();
    node_ids.sort_unstable();
    w.len(node_ids.len());
    for id in node_ids {
        let ns = &nodes[&id];
        w.u64(id as u64);
        w.len(ns.strata().len());
        for s in ns.strata() {
            w.len(s.cap());
            w.u64(s.population());
            w.len(s.members().len());
            for &(priority, cell) in s.members() {
                w.u64(priority);
                w.u64(cell as u64);
            }
        }
    }

    let mut cells: Vec<NodeId> = models.keys().copied().collect();
    cells.sort_unstable();
    w.len(cells.len());
    for cell in cells {
        w.u64(cell as u64);
        models[&cell].state().encode_into(&mut w);
    }
    w.finish()
}

/// Restores a plane. The caller supplies the fit options the restored
/// plane should use for future refits (not persisted — see module docs).
pub fn decode_plane(bytes: &[u8], fit: fdc_forecast::FitOptions) -> Result<ApproxPlane> {
    let mut r = Reader::new(bytes);
    r.header(MAGIC, VERSION..=VERSION)?;

    let strata_opt = r.u64()? as usize;
    let samples_per_stratum = r.u64()? as usize;
    let seed = r.u64()?;
    let min_population = r.u64()? as usize;
    let max_nodes = r.u64()? as usize;
    let confidence = r.f64()?;

    let spec = ModelSpec::decode(&mut r)?;
    let strata = ScaleStrata::from_bounds(r.f64s()?);

    // Smallest encodings: a node is its id and an empty strata list, a
    // stratum its cap, population and an empty member list, a member
    // its priority and cell.
    let node_count = r.count(8 + 8)?;
    let mut nodes = HashMap::with_capacity(node_count);
    for _ in 0..node_count {
        let id = r.u64()? as NodeId;
        let stratum_count = r.count(8 + 8 + 8)?;
        let mut reservoirs = Vec::with_capacity(stratum_count);
        for _ in 0..stratum_count {
            let cap = r.u64()? as usize;
            let population = r.u64()?;
            let member_count = r.count(8 + 8)?;
            let mut members = Vec::with_capacity(member_count);
            for _ in 0..member_count {
                members.push((r.u64()?, r.u64()? as NodeId));
            }
            if !members.windows(2).all(|w| w[0] <= w[1]) {
                return Err(ApproxError::Codec("reservoir members out of order".into()));
            }
            reservoirs.push(StratumReservoir::from_parts(cap, population, members));
        }
        // A node's population is the sum of its strata's.
        reservoirs
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.population()))
            .ok_or_else(|| ApproxError::Codec("stratum populations overflow".into()))?;
        nodes.insert(id, NodeSample::from_strata(reservoirs));
    }

    let model_count = r.count(8 + ModelState::MIN_ENCODED_BYTES)?;
    let mut models: HashMap<NodeId, Box<dyn ForecastModel>> = HashMap::with_capacity(model_count);
    for _ in 0..model_count {
        let cell = r.u64()? as NodeId;
        let state = ModelState::decode(&mut r)?;
        let model =
            restore_model(&state).map_err(|e| ApproxError::Codec(format!("cell {cell}: {e}")))?;
        models.insert(cell, model);
    }
    r.finish()?;

    let options = ApproxOptions {
        strata: strata_opt,
        samples_per_stratum,
        seed,
        confidence,
        spec: Some(spec.clone()),
        fit,
        min_population,
        max_nodes,
    };
    Ok(ApproxPlane::from_parts(
        options, spec, strata, nodes, models,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::ApproxQuerySpec;
    use fdc_datagen::{generate_highcard, HighCardSpec};
    use fdc_forecast::FitOptions;

    fn plane() -> (fdc_cube::Dataset, ApproxPlane) {
        let ds = generate_highcard(&HighCardSpec {
            base_cells: 400,
            groups: 20,
            length: 16,
            ..HighCardSpec::new(400, 33)
        })
        .dataset;
        let plane = ApproxPlane::build(
            &ds,
            None,
            ApproxOptions {
                strata: 4,
                samples_per_stratum: 16,
                min_population: 100,
                ..ApproxOptions::default()
            },
        )
        .unwrap();
        (ds, plane)
    }

    #[test]
    fn round_trip_preserves_estimates_bit_for_bit() {
        let (ds, original) = plane();
        let bytes = encode_plane(&original);
        let restored = decode_plane(&bytes, FitOptions::default()).unwrap();

        assert_eq!(original.registered_nodes(), restored.registered_nodes());
        assert_eq!(original.sampled_cell_count(), restored.sampled_cell_count());
        assert_eq!(original.strata().bounds(), restored.strata().bounds());

        let top = ds.graph().top_node();
        let spec = ApproxQuerySpec::default();
        let a = original.estimate(top, 4, &spec).unwrap();
        let b = restored.estimate(top, 4, &spec).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(bits(&a.ci_half), bits(&b.ci_half));
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (_, a) = plane();
        let (_, b) = plane();
        assert_eq!(encode_plane(&a), encode_plane(&b));
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        let (_, p) = plane();
        let bytes = encode_plane(&p);
        assert!(decode_plane(b"nope", FitOptions::default()).is_err());
        assert!(decode_plane(&bytes[..bytes.len() / 2], FitOptions::default()).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_plane(&bad_magic, FitOptions::default()).is_err());
    }
}
