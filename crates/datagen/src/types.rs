//! Dataset record types matching §3.1 of the paper.

use genbase_linalg::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// One row of the patient metadata table:
/// `(patient_id, age, gender, zipcode, disease_id, drug_response)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatientRecord {
    /// Patient id (row index into the microarray).
    pub id: u32,
    /// Age in years.
    pub age: i64,
    /// Gender code: 0 = female, 1 = male.
    pub gender: i64,
    /// US-style 5-digit zipcode.
    pub zipcode: i64,
    /// Disease code, 1..=21 (the paper's 21 diseases).
    pub disease_id: i64,
    /// Measured response to the disease's drug.
    pub drug_response: f64,
}

/// One row of the gene metadata table:
/// `(gene_id, target, position, length, function)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneRecord {
    /// Gene id (column index into the microarray).
    pub id: u32,
    /// Id of the gene targeted by this gene's protein.
    pub target: i64,
    /// Base pairs from chromosome start.
    pub position: i64,
    /// Gene length in base pairs.
    pub length: i64,
    /// Function code (the paper filters `function < 250`).
    pub function: i64,
}

/// Gene-ontology membership: for each GO term, the sorted gene ids that
/// belong to it. The relational form `(gene_id, go_id, 0/1)` is derived on
/// demand; only the 1-entries are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneOntology {
    /// Number of genes in the universe.
    pub n_genes: usize,
    /// `members[t]` = sorted gene ids belonging to GO term `t`.
    pub members: Vec<Vec<u32>>,
}

impl GeneOntology {
    /// Number of GO terms.
    pub fn n_terms(&self) -> usize {
        self.members.len()
    }

    /// Membership test.
    pub fn contains(&self, term: usize, gene: u32) -> bool {
        self.members[term].binary_search(&gene).is_ok()
    }

    /// Dense 0/1 mask of one term over the gene universe.
    pub fn term_mask(&self, term: usize) -> Vec<bool> {
        let mut mask = vec![false; self.n_genes];
        for &g in &self.members[term] {
            mask[g as usize] = true;
        }
        mask
    }
}

/// What the generator planted; used by tests and examples to validate query
/// output, never consulted by the engines themselves.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Gene modules: each is a sorted list of co-expressed gene ids.
    pub modules: Vec<Vec<u32>>,
    /// GO terms aligned with modules (`aligned_terms[i]` is enriched for
    /// `modules[i]`).
    pub aligned_terms: Vec<usize>,
    /// Causal genes for drug response with their true weights.
    pub causal_genes: Vec<(u32, f64)>,
    /// True intercept of the drug-response model.
    pub response_intercept: f64,
    /// Rows (patients) of the planted bicluster.
    pub bicluster_patients: Vec<u32>,
    /// Columns (genes) of the planted bicluster.
    pub bicluster_genes: Vec<u32>,
    /// Disease id whose patients carry the module signal most strongly
    /// (Query 2 filters on this disease).
    pub focus_disease: i64,
}

/// Identity of a generated [`Dataset`]: unique per [`crate::generate()`] call
/// within the process, shared only by clones. State derived from a dataset
/// (the SQL engines' loaded base tables) records it to refuse any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetId(u64);

impl DatasetId {
    /// The next unused id.
    pub(crate) fn fresh() -> DatasetId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        DatasetId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The four benchmark datasets plus the planted ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which generation this is (see [`DatasetId`]). Private: a dataset is
    /// only ever built by the generator, so the id cannot be forged.
    pub(crate) id: DatasetId,
    /// Microarray: patients (rows) x genes (columns).
    pub expression: Matrix,
    /// Patient metadata, index = patient id.
    pub patients: Vec<PatientRecord>,
    /// Gene metadata, index = gene id.
    pub genes: Vec<GeneRecord>,
    /// GO membership.
    pub ontology: GeneOntology,
    /// Planted-signal record.
    pub truth: GroundTruth,
}

impl Dataset {
    /// This dataset's identity.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// Number of patients (microarray rows).
    pub fn n_patients(&self) -> usize {
        self.expression.rows()
    }

    /// Number of genes (microarray columns).
    pub fn n_genes(&self) -> usize {
        self.expression.cols()
    }

    /// Approximate in-memory footprint of the microarray in bytes.
    pub fn microarray_bytes(&self) -> u64 {
        self.expression.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ontology_membership() {
        let go = GeneOntology {
            n_genes: 6,
            members: vec![vec![0, 2, 4], vec![1, 5]],
        };
        assert_eq!(go.n_terms(), 2);
        assert!(go.contains(0, 2));
        assert!(!go.contains(0, 3));
        assert_eq!(
            go.term_mask(1),
            vec![false, true, false, false, false, true]
        );
    }
}
