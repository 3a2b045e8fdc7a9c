//! Query identifiers, parameters and typed outputs.

use genbase_bicluster::ChengChurchConfig;
use genbase_datagen::{Dataset, GeneRecord, PatientRecord};
use genbase_util::{Error, Result};

/// The five benchmark queries (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Query 1: predictive modeling (linear regression on drug response).
    Regression,
    /// Query 2: gene×gene covariance with top-pair selection.
    Covariance,
    /// Query 3: Cheng–Church biclustering.
    Biclustering,
    /// Query 4: Lanczos SVD, top eigenpairs.
    Svd,
    /// Query 5: statistics / GO-term enrichment via Wilcoxon rank-sum.
    Statistics,
}

impl Query {
    /// All five queries in paper order.
    pub const ALL: [Query; 5] = [
        Query::Regression,
        Query::Covariance,
        Query::Biclustering,
        Query::Svd,
        Query::Statistics,
    ];

    /// Short name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Query::Regression => "regression",
            Query::Covariance => "covariance",
            Query::Biclustering => "biclustering",
            Query::Svd => "svd",
            Query::Statistics => "statistics",
        }
    }

    /// Inverse of [`Query::name`] (cell keys, wire protocol).
    pub fn from_name(name: &str) -> Option<Query> {
        Query::ALL.into_iter().find(|q| q.name() == name)
    }

    /// Figure title fragment from the paper.
    pub fn title(&self) -> &'static str {
        match self {
            Query::Regression => "Linear Regression",
            Query::Covariance => "Covariance",
            Query::Biclustering => "Biclustering",
            Query::Svd => "SVD",
            Query::Statistics => "Statistics",
        }
    }
}

/// Parameters for all five queries, fixed per dataset so every engine
/// answers exactly the same question.
#[derive(Debug, Clone)]
pub struct QueryParams {
    /// Query 1/4 gene filter: keep genes with `function < function_threshold`.
    pub function_threshold: i64,
    /// Query 2 patient filter: keep patients with this disease.
    pub disease_id: i64,
    /// Query 3 patient filter: gender code to keep (1 = male).
    pub gender: i64,
    /// Query 3 patient filter: strict age upper bound.
    pub max_age: i64,
    /// Query 5: fraction of patients to sample (paper: 0.25%).
    pub patient_sample_frac: f64,
    /// Query 5: minimum sampled patients (keeps tiny datasets meaningful).
    pub min_sampled_patients: usize,
    /// Query 2: fraction of gene pairs to keep (paper example: top 10%).
    pub top_pair_fraction: f64,
    /// Query 4: eigenpair count (paper: 50; clamped to the filtered width).
    pub svd_k: usize,
    /// Query 3 algorithm configuration.
    pub bicluster: ChengChurchConfig,
    /// Seed for sampling and iterative analytics (identical across engines
    /// so outputs verify).
    pub seed: u64,
}

impl QueryParams {
    /// Paper-faithful parameters adapted to a dataset's size.
    pub fn for_dataset(data: &Dataset) -> QueryParams {
        let delta = {
            // δ tuned to the generator's planted bicluster noise (0.05² cell
            // noise): tight enough to find structure, loose enough to stop.
            0.02
        };
        QueryParams {
            function_threshold: genbase_datagen::generate::FUNCTION_FILTER,
            disease_id: data.truth.focus_disease,
            gender: 1,
            max_age: 40,
            patient_sample_frac: 0.0025,
            min_sampled_patients: 12.min(data.n_patients()),
            top_pair_fraction: 0.10,
            svd_k: 50,
            bicluster: ChengChurchConfig {
                delta,
                alpha: 1.2,
                max_biclusters: 1,
                min_rows: 2,
                min_cols: 2,
                seed: 0xb1c1,
                node_addition: true,
            },
            seed: 0x6e55,
        }
    }

    /// Number of patients Query 5 samples from a population of `n`.
    pub fn sample_count(&self, n_patients: usize) -> usize {
        ((n_patients as f64 * self.patient_sample_frac).round() as usize)
            .max(self.min_sampled_patients)
            .min(n_patients)
    }

    /// Whether the Query 1/4 gene filter keeps `gene`.
    pub fn selects_gene(&self, gene: &GeneRecord) -> bool {
        gene.function < self.function_threshold
    }

    /// Whether `query`'s patient filter keeps `patient`: the disease for
    /// Query 2, gender and age for Query 3.
    pub fn selects_patient(&self, query: Query, patient: &PatientRecord) -> bool {
        match query {
            Query::Covariance => patient.disease_id == self.disease_id,
            _ => patient.gender == self.gender && patient.age < self.max_age,
        }
    }

    /// Refuse a filter result `query`'s kernel cannot run on: `n` is the
    /// number of genes (Queries 1/4) or patients (Queries 2/3) selected.
    /// Every lowering calls this on its own filter's output, so they all
    /// refuse the same selections with the same error.
    pub fn check_selection(&self, query: Query, n: usize) -> Result<()> {
        let refusal = match query {
            Query::Regression | Query::Svd if n == 0 => "gene filter selected nothing",
            Query::Covariance if n < 2 => "disease filter selected < 2 patients",
            Query::Biclustering if n < self.bicluster.min_rows => {
                "age/gender filter selected too few patients"
            }
            _ => return Ok(()),
        };
        Err(Error::invalid(refusal))
    }

    /// Ids of the genes [`QueryParams::selects_gene`] keeps, ascending,
    /// checked for `query` (the lowerings that filter `data`'s own records).
    pub fn selected_genes(&self, query: Query, data: &Dataset) -> Result<Vec<usize>> {
        let genes = data.genes.iter().filter(|g| self.selects_gene(g));
        let ids: Vec<usize> = genes.map(|g| g.id as usize).collect();
        self.check_selection(query, ids.len())?;
        Ok(ids)
    }

    /// Ids of the patients `query` reads, ascending: the ones
    /// [`QueryParams::selects_patient`] keeps, checked — or, for Query 5,
    /// the seeded sample (identical on every engine and node).
    pub fn selected_patients(&self, query: Query, data: &Dataset) -> Result<Vec<usize>> {
        if query == Query::Statistics {
            let n = data.n_patients();
            return Ok(crate::analytics::sample_patients(
                n,
                self.sample_count(n),
                self.seed,
            ));
        }
        let patients = data.patients.iter();
        let patients = patients.filter(|p| self.selects_patient(query, p));
        let ids: Vec<usize> = patients.map(|p| p.id as usize).collect();
        self.check_selection(query, ids.len())?;
        Ok(ids)
    }
}

/// One bicluster in engine-output form (global ids, not matrix positions).
#[derive(Debug, Clone, PartialEq)]
pub struct BiclusterOut {
    /// Patient ids in the bicluster.
    pub patient_ids: Vec<i64>,
    /// Gene ids in the bicluster.
    pub gene_ids: Vec<i64>,
    /// Mean squared residue.
    pub msr: f64,
}

/// Typed result of one query; engines must agree on these (see
/// [`QueryOutput::consistency_error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Query 1: fitted model.
    Regression {
        /// Intercept term.
        intercept: f64,
        /// `(gene_id, coefficient)` sorted by gene id.
        coefficients: Vec<(i64, f64)>,
        /// Training R².
        r_squared: f64,
    },
    /// Query 2: thresholded covariance pairs with gene metadata.
    Covariance {
        /// Threshold on |cov| that realizes the top fraction.
        threshold: f64,
        /// `(gene_a, gene_b, cov, function_a, function_b)` sorted by
        /// descending |cov| then ids; metadata columns come from the final
        /// join in the query plan.
        pairs: Vec<(i64, i64, f64, i64, i64)>,
    },
    /// Query 3: discovered biclusters.
    Biclusters(Vec<BiclusterOut>),
    /// Query 4: top eigenvalues of the filtered Gram matrix, descending.
    Svd {
        /// Eigenvalues, descending.
        eigenvalues: Vec<f64>,
    },
    /// Query 5: per-GO-term test results.
    Enrichment {
        /// `(go_term, z, p)` sorted by term index.
        per_term: Vec<(usize, f64, f64)>,
    },
}

impl QueryOutput {
    /// Which query this output answers.
    pub fn query(&self) -> Query {
        match self {
            QueryOutput::Regression { .. } => Query::Regression,
            QueryOutput::Covariance { .. } => Query::Covariance,
            QueryOutput::Biclusters(_) => Query::Biclustering,
            QueryOutput::Svd { .. } => Query::Svd,
            QueryOutput::Enrichment { .. } => Query::Statistics,
        }
    }

    /// One-line human summary for harness output.
    pub fn summary(&self) -> String {
        match self {
            QueryOutput::Regression {
                coefficients,
                r_squared,
                ..
            } => format!("{} coefficients, R^2 = {r_squared:.4}", coefficients.len()),
            QueryOutput::Covariance { pairs, threshold } => {
                format!("{} pairs over |cov| >= {threshold:.4}", pairs.len())
            }
            QueryOutput::Biclusters(bcs) => {
                let cells: usize = bcs
                    .iter()
                    .map(|b| b.patient_ids.len() * b.gene_ids.len())
                    .sum();
                format!("{} bicluster(s) covering {cells} cells", bcs.len())
            }
            QueryOutput::Svd { eigenvalues } => format!(
                "top {} eigenvalues, largest = {:.4}",
                eigenvalues.len(),
                eigenvalues.first().copied().unwrap_or(0.0)
            ),
            QueryOutput::Enrichment { per_term } => {
                let significant = per_term.iter().filter(|&&(_, _, p)| p < 0.01).count();
                format!(
                    "{} terms tested, {significant} with p < 0.01",
                    per_term.len()
                )
            }
        }
    }

    /// `None` when two engines' outputs agree within numerical tolerance;
    /// otherwise a description of the first mismatch. `rel_tol` covers
    /// floating-point drift between algebraically identical computations
    /// (e.g. QR vs normal equations, serial vs allreduce ordering).
    pub fn consistency_error(&self, other: &QueryOutput, rel_tol: f64) -> Option<String> {
        let close = |a: f64, b: f64| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= rel_tol * scale
        };
        match (self, other) {
            (
                QueryOutput::Regression {
                    intercept: i1,
                    coefficients: c1,
                    r_squared: r1,
                },
                QueryOutput::Regression {
                    intercept: i2,
                    coefficients: c2,
                    r_squared: r2,
                },
            ) => {
                if !close(*i1, *i2) {
                    return Some(format!("intercept {i1} vs {i2}"));
                }
                if !close(*r1, *r2) {
                    return Some(format!("R^2 {r1} vs {r2}"));
                }
                if c1.len() != c2.len() {
                    return Some(format!("{} vs {} coefficients", c1.len(), c2.len()));
                }
                for ((g1, v1), (g2, v2)) in c1.iter().zip(c2) {
                    if g1 != g2 {
                        return Some(format!("coefficient genes {g1} vs {g2}"));
                    }
                    if !close(*v1, *v2) {
                        return Some(format!("gene {g1} coefficient {v1} vs {v2}"));
                    }
                }
                None
            }
            (
                QueryOutput::Covariance {
                    threshold: t1,
                    pairs: p1,
                },
                QueryOutput::Covariance {
                    threshold: t2,
                    pairs: p2,
                },
            ) => {
                if !close(*t1, *t2) {
                    return Some(format!("threshold {t1} vs {t2}"));
                }
                if p1.len() != p2.len() {
                    return Some(format!("{} vs {} pairs", p1.len(), p2.len()));
                }
                for (a, b) in p1.iter().zip(p2) {
                    if a.0 != b.0 || a.1 != b.1 {
                        return Some(format!("pair ({},{}) vs ({},{})", a.0, a.1, b.0, b.1));
                    }
                    if !close(a.2, b.2) {
                        return Some(format!("pair ({},{}) cov {} vs {}", a.0, a.1, a.2, b.2));
                    }
                    if a.3 != b.3 || a.4 != b.4 {
                        return Some(format!("pair ({},{}) metadata mismatch", a.0, a.1));
                    }
                }
                None
            }
            (QueryOutput::Biclusters(b1), QueryOutput::Biclusters(b2)) => {
                if b1.len() != b2.len() {
                    return Some(format!("{} vs {} biclusters", b1.len(), b2.len()));
                }
                for (x, y) in b1.iter().zip(b2) {
                    if x.patient_ids != y.patient_ids {
                        return Some("bicluster patient sets differ".into());
                    }
                    if x.gene_ids != y.gene_ids {
                        return Some("bicluster gene sets differ".into());
                    }
                    if !close(x.msr, y.msr) {
                        return Some(format!("bicluster msr {} vs {}", x.msr, y.msr));
                    }
                }
                None
            }
            (QueryOutput::Svd { eigenvalues: e1 }, QueryOutput::Svd { eigenvalues: e2 }) => {
                if e1.len() != e2.len() {
                    return Some(format!("{} vs {} eigenvalues", e1.len(), e2.len()));
                }
                for (i, (a, b)) in e1.iter().zip(e2).enumerate() {
                    if !close(*a, *b) {
                        return Some(format!("eigenvalue {i}: {a} vs {b}"));
                    }
                }
                None
            }
            (
                QueryOutput::Enrichment { per_term: t1 },
                QueryOutput::Enrichment { per_term: t2 },
            ) => {
                if t1.len() != t2.len() {
                    return Some(format!("{} vs {} terms", t1.len(), t2.len()));
                }
                for ((g1, z1, p1), (g2, z2, p2)) in t1.iter().zip(t2) {
                    if g1 != g2 {
                        return Some(format!("terms {g1} vs {g2}"));
                    }
                    if !close(*z1, *z2) {
                        return Some(format!("term {g1} z {z1} vs {z2}"));
                    }
                    if !close(*p1, *p2) {
                        return Some(format!("term {g1} p {p1} vs {p2}"));
                    }
                }
                None
            }
            _ => Some("different query kinds".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_names_and_order() {
        assert_eq!(Query::ALL.len(), 5);
        assert_eq!(Query::ALL[0].name(), "regression");
        assert_eq!(Query::ALL[4].title(), "Statistics");
    }

    #[test]
    fn sample_count_bounds() {
        let data = genbase_datagen::generate(&genbase_datagen::GeneratorConfig::new(
            genbase_datagen::SizeSpec::tiny(),
        ))
        .unwrap();
        let p = QueryParams::for_dataset(&data);
        // 0.25% of 50 rounds to 0; the minimum keeps it meaningful.
        assert_eq!(p.sample_count(50), 12);
        assert_eq!(p.sample_count(100_000), 250);
        assert_eq!(p.sample_count(4), 4);
    }

    #[test]
    fn consistency_detects_matches_and_mismatches() {
        let a = QueryOutput::Svd {
            eigenvalues: vec![10.0, 5.0, 1.0],
        };
        let b = QueryOutput::Svd {
            eigenvalues: vec![10.0 + 1e-9, 5.0, 1.0],
        };
        assert!(a.consistency_error(&b, 1e-6).is_none());
        let c = QueryOutput::Svd {
            eigenvalues: vec![10.1, 5.0, 1.0],
        };
        assert!(a.consistency_error(&c, 1e-6).is_some());
        let d = QueryOutput::Enrichment { per_term: vec![] };
        assert!(a.consistency_error(&d, 1e-6).is_some());
    }

    #[test]
    fn summaries_render() {
        let out = QueryOutput::Regression {
            intercept: 1.0,
            coefficients: vec![(3, 0.5)],
            r_squared: 0.95,
        };
        assert!(out.summary().contains("R^2"));
        assert_eq!(out.query(), Query::Regression);
    }
}
