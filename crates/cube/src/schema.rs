//! Dimension schema with functional dependencies.
//!
//! A data set has categorical dimensions (besides time and the measure);
//! some of them may be functionally dependent on others — the paper's
//! running example has *city → region* (§II-A). The schema owns the
//! dimension value domains and the dependency mappings, and provides the
//! coordinate canonicalization that lets the hyper graph "explicitly
//! encode functional dependencies" (property 3 of the graph).

use crate::{CubeError, Result};
use std::hash::{BuildHasher, RandomState};

/// A categorical dimension: a name plus its value domain.
#[derive(Debug, Clone)]
pub struct Dimension {
    name: String,
    values: Vec<String>,
    /// Hash index over `values`, so [`Dimension::value_index`] is one
    /// hash and (nearly always) one comparison — a query resolves one
    /// label per predicate, an `/insert` one per dimension per row. An
    /// open-addressing table of value indices, at most half full, a
    /// power of two long: 8 bytes a label, where a map keyed by copies
    /// of the labels took 90. A repeated label keeps its first index.
    slots: Vec<u32>,
    /// Randomly keyed, as for any map over strings from outside.
    hasher: RandomState,
}

const EMPTY: u32 = u32::MAX;

/// The index is derived from the values and keyed per instance.
impl PartialEq for Dimension {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.values == other.values
    }
}

impl Eq for Dimension {}

impl Dimension {
    /// Creates a dimension from a name and value labels.
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Self {
        let mut dimension = Dimension {
            name: name.into(),
            slots: vec![EMPTY; (values.len() * 2).next_power_of_two()],
            values,
            hasher: RandomState::new(),
        };
        for i in 0..dimension.values.len() {
            let at = dimension.slot_of(&dimension.values[i]);
            if dimension.slots[at] == EMPTY {
                dimension.slots[at] = i as u32;
            }
        }
        dimension
    }

    /// Where `label`'s index is, or the empty slot where it would go.
    fn slot_of(&self, label: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(label) as usize & mask;
        while self.slots[at] != EMPTY && self.values[self.slots[at] as usize] != label {
            at = (at + 1) & mask;
        }
        at
    }

    /// Dimension name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Value labels in index order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Index of a value label (the first, should a label repeat).
    pub fn value_index(&self, label: &str) -> Option<u32> {
        Some(self.slots[self.slot_of(label)]).filter(|&index| index != EMPTY)
    }
}

/// A functional dependency `determinant → dependent`: every value of the
/// determinant dimension maps to exactly one value of the dependent
/// dimension (each city lies in exactly one region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalDependency {
    /// Index of the determining dimension (e.g. city).
    pub determinant: usize,
    /// Index of the determined dimension (e.g. region).
    pub dependent: usize,
    /// `mapping[v]` is the dependent value index for determinant value `v`.
    pub mapping: Vec<u32>,
}

impl FunctionalDependency {
    /// Creates a dependency with an explicit value mapping.
    pub fn new(determinant: usize, dependent: usize, mapping: Vec<u32>) -> Self {
        FunctionalDependency {
            determinant,
            dependent,
            mapping,
        }
    }
}

/// The full dimension schema: dimensions plus functional dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    dimensions: Vec<Dimension>,
    dependencies: Vec<FunctionalDependency>,
}

impl Schema {
    /// Creates and validates a schema.
    ///
    /// Validation checks: at least one dimension, non-empty value domains,
    /// dependency indices in range, mapping lengths and targets in range,
    /// no dimension determined by two different dependencies, and no
    /// dependency cycles (chains like *city → region → country* are fine).
    pub fn new(
        dimensions: Vec<Dimension>,
        dependencies: Vec<FunctionalDependency>,
    ) -> Result<Self> {
        if dimensions.is_empty() {
            return Err(CubeError::InvalidSchema(
                "a schema needs at least one categorical dimension".into(),
            ));
        }
        for (i, d) in dimensions.iter().enumerate() {
            if d.values.is_empty() {
                return Err(CubeError::InvalidSchema(format!(
                    "dimension {i} ({}) has an empty value domain",
                    d.name
                )));
            }
        }
        let n = dimensions.len();
        let mut determined = vec![false; n];
        for fd in &dependencies {
            if fd.determinant >= n || fd.dependent >= n {
                return Err(CubeError::InvalidSchema(format!(
                    "dependency {} -> {} references a missing dimension",
                    fd.determinant, fd.dependent
                )));
            }
            if fd.determinant == fd.dependent {
                return Err(CubeError::InvalidSchema(
                    "a dimension cannot determine itself".into(),
                ));
            }
            if determined[fd.dependent] {
                return Err(CubeError::InvalidSchema(format!(
                    "dimension {} is determined by more than one dependency",
                    dimensions[fd.dependent].name
                )));
            }
            determined[fd.dependent] = true;
            if fd.mapping.len() != dimensions[fd.determinant].cardinality() {
                return Err(CubeError::InvalidSchema(format!(
                    "dependency mapping for {} has {} entries, expected {}",
                    dimensions[fd.determinant].name,
                    fd.mapping.len(),
                    dimensions[fd.determinant].cardinality()
                )));
            }
            let target_card = dimensions[fd.dependent].cardinality() as u32;
            if fd.mapping.iter().any(|&v| v >= target_card) {
                return Err(CubeError::InvalidSchema(format!(
                    "dependency mapping for {} targets a value outside {}",
                    dimensions[fd.determinant].name, dimensions[fd.dependent].name
                )));
            }
        }
        // Cycle check: follow determinant → dependent edges.
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut cur = start;
            loop {
                if seen[cur] {
                    return Err(CubeError::InvalidSchema(
                        "functional dependencies form a cycle".into(),
                    ));
                }
                seen[cur] = true;
                match dependencies.iter().find(|fd| fd.determinant == cur) {
                    Some(fd) => cur = fd.dependent,
                    None => break,
                }
            }
        }
        Ok(Schema {
            dimensions,
            dependencies,
        })
    }

    /// Convenience constructor for schemas without dependencies.
    pub fn flat(dimensions: Vec<Dimension>) -> Result<Self> {
        Schema::new(dimensions, Vec::new())
    }

    /// The dimensions in index order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Number of dimensions.
    pub fn dim_count(&self) -> usize {
        self.dimensions.len()
    }

    /// The functional dependencies.
    pub fn dependencies(&self) -> &[FunctionalDependency] {
        &self.dependencies
    }

    /// Index of the dimension with the given name.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d.name == name)
    }

    /// Whether `dim` is the dependent side of some dependency.
    pub fn is_determined(&self, dim: usize) -> bool {
        self.dependencies.iter().any(|fd| fd.dependent == dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_region_schema() -> Schema {
        let city = Dimension::new(
            "city",
            vec!["C1".into(), "C2".into(), "C3".into(), "C4".into()],
        );
        let region = Dimension::new("region", vec!["R1".into(), "R2".into()]);
        let product = Dimension::new("product", vec!["P1".into(), "P2".into()]);
        Schema::new(
            vec![city, region, product],
            vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
        )
        .unwrap()
    }

    #[test]
    fn value_index_agrees_with_a_scan_on_unsorted_and_repeated_labels() {
        let labels = ["m", "b", "z", "b", "a", "m", ""];
        let d = Dimension::new("d", labels.iter().map(|l| l.to_string()).collect());
        for probe in ["a", "b", "m", "z", "", "c", "zz"] {
            let scan = labels.iter().position(|l| *l == probe).map(|i| i as u32);
            assert_eq!(d.value_index(probe), scan, "{probe:?}");
        }
    }

    #[test]
    fn valid_schema_accessors() {
        let s = city_region_schema();
        assert_eq!(s.dim_count(), 3);
        assert_eq!(s.dim_index("region"), Some(1));
        assert_eq!(s.dim_index("missing"), None);
        assert!(s.is_determined(1));
        assert!(!s.is_determined(0));
        assert_eq!(s.dimensions()[0].value_index("C3"), Some(2));
        assert_eq!(s.dimensions()[0].value_index("C9"), None);
        assert_eq!(s.dimensions()[1].cardinality(), 2);
    }

    #[test]
    fn rejects_empty_schema_and_empty_domains() {
        assert!(Schema::flat(vec![]).is_err());
        assert!(Schema::flat(vec![Dimension::new("d", vec![])]).is_err());
    }

    #[test]
    fn rejects_self_dependency() {
        let d = Dimension::new("d", vec!["a".into()]);
        assert!(Schema::new(vec![d], vec![FunctionalDependency::new(0, 0, vec![0])]).is_err());
    }

    #[test]
    fn rejects_out_of_range_dependency() {
        let d = Dimension::new("d", vec!["a".into()]);
        assert!(Schema::new(vec![d], vec![FunctionalDependency::new(0, 5, vec![0])]).is_err());
    }

    #[test]
    fn rejects_bad_mapping_length_and_target() {
        let a = Dimension::new("a", vec!["x".into(), "y".into()]);
        let b = Dimension::new("b", vec!["u".into()]);
        // Wrong length.
        assert!(Schema::new(
            vec![a.clone(), b.clone()],
            vec![FunctionalDependency::new(0, 1, vec![0])]
        )
        .is_err());
        // Target out of range.
        assert!(Schema::new(
            vec![a, b],
            vec![FunctionalDependency::new(0, 1, vec![0, 7])]
        )
        .is_err());
    }

    #[test]
    fn rejects_double_determination() {
        let a = Dimension::new("a", vec!["x".into()]);
        let b = Dimension::new("b", vec!["y".into()]);
        let c = Dimension::new("c", vec!["z".into()]);
        assert!(Schema::new(
            vec![a, b, c],
            vec![
                FunctionalDependency::new(0, 2, vec![0]),
                FunctionalDependency::new(1, 2, vec![0]),
            ]
        )
        .is_err());
    }

    #[test]
    fn rejects_cycles_but_allows_chains() {
        let a = Dimension::new("a", vec!["x".into()]);
        let b = Dimension::new("b", vec!["y".into()]);
        let c = Dimension::new("c", vec!["z".into()]);
        // Chain a → b → c is fine.
        assert!(Schema::new(
            vec![a.clone(), b.clone(), c.clone()],
            vec![
                FunctionalDependency::new(0, 1, vec![0]),
                FunctionalDependency::new(1, 2, vec![0]),
            ]
        )
        .is_ok());
        // Cycle a → b → a is rejected.
        assert!(Schema::new(
            vec![a, b, c],
            vec![
                FunctionalDependency::new(0, 1, vec![0]),
                FunctionalDependency::new(1, 0, vec![0]),
            ]
        )
        .is_err());
    }
}
