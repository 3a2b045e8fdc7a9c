//! The generator itself.

use crate::spec::SizeSpec;
use crate::types::{Dataset, DatasetId, GeneOntology, GeneRecord, GroundTruth, PatientRecord};
use genbase_linalg::Matrix;
use genbase_util::{Error, Pcg64, Result};

/// Number of diseases in the patient table (fixed by the paper).
pub const N_DISEASES: i64 = 21;

/// Function-code threshold used by Queries 1 and 4 (`function < 250` out of
/// codes 0..1000 selects roughly a quarter of the genes).
pub const FUNCTION_FILTER: i64 = 250;

/// Upper bound (exclusive) of gene function codes.
pub const FUNCTION_CODES: i64 = 1000;

/// Knobs for [`generate`]. The defaults produce data with enough planted
/// signal for every query to return a meaningful, testable answer.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Dataset dimensions.
    pub spec: SizeSpec,
    /// Master seed; every dataset derives its own stream from it.
    pub seed: u64,
    /// Standard deviation of per-cell measurement noise.
    pub noise_sd: f64,
    /// Number of co-expression modules (0 = auto: ~genes/30, min 2).
    pub module_count: usize,
    /// Genes per module (0 = auto: ~genes/(4·modules), min 4).
    pub module_size: usize,
    /// Number of causal genes in the drug-response model (0 = auto).
    pub causal_genes: usize,
    /// Mean expression shift added to module genes (drives Query 5
    /// enrichment: shifted genes rank high).
    pub module_mean_shift: f64,
    /// Standard deviation of drug-response noise.
    pub response_noise_sd: f64,
}

impl GeneratorConfig {
    /// Default configuration for a size spec.
    pub fn new(spec: SizeSpec) -> GeneratorConfig {
        GeneratorConfig {
            spec,
            seed: 0x9e6b,
            noise_sd: 0.5,
            module_count: 0,
            module_size: 0,
            causal_genes: 0,
            module_mean_shift: 1.2,
            response_noise_sd: 0.5,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn resolved_modules(&self) -> (usize, usize) {
        let genes = self.spec.genes;
        let count = if self.module_count > 0 {
            self.module_count
        } else {
            (genes / 30).clamp(2, 64)
        };
        let size = if self.module_size > 0 {
            self.module_size
        } else {
            (genes / (4 * count)).clamp(4, 200)
        };
        (count, size)
    }

    fn resolved_causal(&self) -> usize {
        if self.causal_genes > 0 {
            self.causal_genes
        } else {
            (self.spec.genes / 16).clamp(3, 12)
        }
    }
}

/// Generate the four benchmark datasets.
pub fn generate(config: &GeneratorConfig) -> Result<Dataset> {
    let spec = config.spec;
    let (n_genes, n_patients) = (spec.genes, spec.patients);
    if n_genes < 16 || n_patients < 16 {
        return Err(Error::invalid("need at least 16 genes and 16 patients"));
    }
    if spec.go_terms < 2 {
        return Err(Error::invalid("need at least 2 GO terms"));
    }
    let (module_count, module_size) = config.resolved_modules();
    if module_count * module_size > n_genes / 2 {
        return Err(Error::invalid(
            "modules would cover more than half the genes; shrink module_count/size",
        ));
    }
    let n_causal = config.resolved_causal().min(n_genes / 4);

    let mut root = Pcg64::new(config.seed);
    let mut gene_rng = root.fork(1);
    let mut patient_rng = root.fork(2);
    let mut expr_rng = root.fork(3);
    let mut go_rng = root.fork(4);
    let mut truth_rng = root.fork(5);

    // ---- planted structure ---------------------------------------------
    // Disjoint gene modules, then causal genes disjoint from modules.
    let mut gene_pool: Vec<u32> = (0..n_genes as u32).collect();
    truth_rng.shuffle(&mut gene_pool);
    let mut modules: Vec<Vec<u32>> = Vec::with_capacity(module_count);
    let mut cursor = 0;
    for _ in 0..module_count {
        let mut m: Vec<u32> = gene_pool[cursor..cursor + module_size].to_vec();
        m.sort_unstable();
        modules.push(m);
        cursor += module_size;
    }
    let mut causal: Vec<(u32, f64)> = gene_pool[cursor..cursor + n_causal]
        .iter()
        .map(|&g| {
            let w = truth_rng.range_f64(0.5, 2.0) * if truth_rng.chance(0.4) { -1.0 } else { 1.0 };
            (g, w)
        })
        .collect();
    cursor += n_causal;
    causal.sort_unstable_by_key(|&(g, _)| g);
    let response_intercept = truth_rng.range_f64(1.0, 4.0);
    let focus_disease = truth_rng.range_i64(1, N_DISEASES);

    // Bicluster: ~20% of patients x ~15% of genes (genes disjoint from the
    // modules/causal set so signals do not interfere).
    let bic_gene_count = (n_genes / 7).clamp(6, 400);
    let bic_gene_count = bic_gene_count.min(n_genes - cursor);
    let mut bicluster_genes: Vec<u32> = gene_pool[cursor..cursor + bic_gene_count].to_vec();
    bicluster_genes.sort_unstable();
    let bic_patient_count = (n_patients / 5).clamp(6, 2000);
    let bicluster_patients: Vec<u32> = truth_rng
        .sample_indices(n_patients, bic_patient_count)
        .into_iter()
        .map(|p| p as u32)
        .collect();

    // ---- gene metadata ---------------------------------------------------
    let mut genes = Vec::with_capacity(n_genes);
    for g in 0..n_genes as u32 {
        let target = gene_rng.next_below(n_genes as u64) as i64;
        let position = gene_rng.range_i64(0, 250_000_000);
        let length = gene_rng.range_i64(200, 2_000_000);
        let function = gene_rng.range_i64(0, FUNCTION_CODES - 1);
        genes.push(GeneRecord {
            id: g,
            target,
            position,
            length,
            function,
        });
    }
    // Causal genes must survive the Query 1/4 function filter.
    for &(g, _) in &causal {
        let rec = &mut genes[g as usize];
        if rec.function >= FUNCTION_FILTER {
            rec.function = gene_rng.range_i64(0, FUNCTION_FILTER - 1);
        }
    }

    // ---- patient metadata (drug response filled after expressions) ------
    let mut patients = Vec::with_capacity(n_patients);
    for p in 0..n_patients as u32 {
        patients.push(PatientRecord {
            id: p,
            age: patient_rng.range_i64(18, 95),
            gender: patient_rng.range_i64(0, 1),
            zipcode: patient_rng.range_i64(10_000, 99_999),
            disease_id: patient_rng.range_i64(1, N_DISEASES),
            drug_response: 0.0,
        });
    }
    // Query 3 filters "male patients less than 40"; the planted bicluster
    // must survive that filter, so force its patients to match.
    for &p in &bicluster_patients {
        let rec = &mut patients[p as usize];
        rec.gender = 1;
        if rec.age >= 40 {
            rec.age = patient_rng.range_i64(18, 39);
        }
    }

    // ---- expression matrix ----------------------------------------------
    // Per-gene baseline; module genes get a mean shift (enrichment signal).
    let mut gene_base: Vec<f64> = (0..n_genes)
        .map(|_| expr_rng.normal_with(5.0, 1.0))
        .collect();
    let mut module_of_gene: Vec<Option<usize>> = vec![None; n_genes];
    for (mi, module) in modules.iter().enumerate() {
        for &g in module {
            gene_base[g as usize] += config.module_mean_shift;
            module_of_gene[g as usize] = Some(mi);
        }
    }
    // Per-module loading for each member gene.
    let mut loading: Vec<f64> = vec![0.0; n_genes];
    for module in &modules {
        for &g in module {
            loading[g as usize] = expr_rng.range_f64(0.6, 1.4);
        }
    }

    let mut expression = Matrix::zeros(n_patients, n_genes);
    let mut factors = vec![0.0; module_count];
    for p in 0..n_patients {
        // Latent module factors per patient; the focus disease expresses
        // them more strongly (covariance signal survives Query 2's filter).
        let strength = if patients[p].disease_id == focus_disease {
            1.6
        } else {
            1.0
        };
        for f in factors.iter_mut() {
            *f = expr_rng.normal() * strength;
        }
        let row = expression.row_mut(p);
        for g in 0..n_genes {
            let mut v = gene_base[g] + expr_rng.normal() * config.noise_sd;
            if let Some(mi) = module_of_gene[g] {
                v += loading[g] * factors[mi];
            }
            row[g] = v;
        }
    }
    // Overwrite the bicluster cells with a clean additive pattern
    // (row-offset + col-offset + tiny noise => near-zero mean squared
    // residue, discoverable by Cheng-Church).
    let row_shift: Vec<f64> = bicluster_patients
        .iter()
        .map(|_| expr_rng.range_f64(-1.0, 1.0))
        .collect();
    let col_shift: Vec<f64> = bicluster_genes
        .iter()
        .map(|_| expr_rng.range_f64(-1.0, 1.0))
        .collect();
    for (pi, &p) in bicluster_patients.iter().enumerate() {
        let row = expression.row_mut(p as usize);
        for (gi, &g) in bicluster_genes.iter().enumerate() {
            row[g as usize] = 8.0 + row_shift[pi] + col_shift[gi] + expr_rng.normal() * 0.05;
        }
    }

    // ---- drug response ----------------------------------------------------
    for p in 0..n_patients {
        let row = expression.row(p);
        let mut resp = response_intercept;
        for &(g, w) in &causal {
            resp += w * row[g as usize];
        }
        patients[p].drug_response = resp + expr_rng.normal() * config.response_noise_sd;
    }

    // ---- gene ontology ----------------------------------------------------
    // First `module_count` terms align with the modules (plus a little
    // noise); the rest are random categories.
    let n_terms = spec.go_terms.max(module_count + 2);
    let mut members: Vec<Vec<u32>> = Vec::with_capacity(n_terms);
    let mut aligned_terms = Vec::with_capacity(module_count);
    for module in &modules {
        let mut m: Vec<u32> = module.clone();
        // ~10% extra random genes blur the term without killing the signal.
        let extra = (module.len() / 10).max(1);
        for _ in 0..extra {
            m.push(go_rng.next_below(n_genes as u64) as u32);
        }
        m.sort_unstable();
        m.dedup();
        aligned_terms.push(members.len());
        members.push(m);
    }
    while members.len() < n_terms {
        let size = go_rng.range_i64(5, (n_genes / 10).max(6) as i64) as usize;
        let size = size.min(n_genes - 1);
        let m: Vec<u32> = go_rng
            .sample_indices(n_genes, size)
            .into_iter()
            .map(|g| g as u32)
            .collect();
        members.push(m);
    }
    let ontology = GeneOntology { n_genes, members };

    Ok(Dataset {
        id: DatasetId::fresh(),
        expression,
        patients,
        genes,
        ontology,
        truth: GroundTruth {
            modules,
            aligned_terms,
            causal_genes: causal,
            response_intercept,
            bicluster_patients,
            bicluster_genes,
            focus_disease,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SizeSpec;
    use genbase_stats_shim::*;

    /// Minimal stats helpers local to these tests (the datagen crate does not
    /// depend on genbase-stats to keep the dependency graph a DAG).
    mod genbase_stats_shim {
        pub fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
        pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
            let (ma, mb) = (mean(a), mean(b));
            let mut num = 0.0;
            let mut da = 0.0;
            let mut db = 0.0;
            for (x, y) in a.iter().zip(b) {
                num += (x - ma) * (y - mb);
                da += (x - ma) * (x - ma);
                db += (y - mb) * (y - mb);
            }
            num / (da * db).sqrt()
        }
    }

    fn tiny_dataset() -> Dataset {
        generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap()
    }

    #[test]
    fn shapes_match_spec() {
        let d = tiny_dataset();
        assert_eq!(d.n_patients(), 50);
        assert_eq!(d.n_genes(), 60);
        assert_eq!(d.patients.len(), 50);
        assert_eq!(d.genes.len(), 60);
        assert!(d.ontology.n_terms() >= 8);
        assert_eq!(d.ontology.n_genes, 60);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&GeneratorConfig::new(SizeSpec::tiny()).with_seed(5)).unwrap();
        let b = generate(&GeneratorConfig::new(SizeSpec::tiny()).with_seed(5)).unwrap();
        assert_eq!(a.expression, b.expression);
        assert_eq!(a.patients, b.patients);
        assert_eq!(a.genes, b.genes);
        assert_eq!(a.ontology, b.ontology);
        let c = generate(&GeneratorConfig::new(SizeSpec::tiny()).with_seed(6)).unwrap();
        assert_ne!(a.expression, c.expression);
    }

    #[test]
    fn metadata_ranges_valid() {
        let d = tiny_dataset();
        for p in &d.patients {
            assert!((18..=95).contains(&p.age));
            assert!((0..=1).contains(&p.gender));
            assert!((10_000..=99_999).contains(&p.zipcode));
            assert!((1..=N_DISEASES).contains(&p.disease_id));
            assert!(p.drug_response.is_finite());
        }
        for g in &d.genes {
            assert!((0..FUNCTION_CODES).contains(&g.function));
            assert!(g.length >= 200);
            assert!((0..d.n_genes() as i64).contains(&g.target));
        }
    }

    #[test]
    fn causal_genes_pass_function_filter() {
        let d = tiny_dataset();
        for &(g, _) in &d.truth.causal_genes {
            assert!(
                d.genes[g as usize].function < FUNCTION_FILTER,
                "causal gene {g} would be filtered out of Query 1"
            );
        }
    }

    #[test]
    fn bicluster_patients_survive_query3_filter() {
        let d = tiny_dataset();
        for &p in &d.truth.bicluster_patients {
            let rec = &d.patients[p as usize];
            assert_eq!(rec.gender, 1, "bicluster patient must be male");
            assert!(rec.age < 40, "bicluster patient must be under 40");
        }
    }

    #[test]
    fn planted_bicluster_has_low_residue() {
        let d = tiny_dataset();
        let rows: Vec<usize> = d
            .truth
            .bicluster_patients
            .iter()
            .map(|&p| p as usize)
            .collect();
        let cols: Vec<usize> = d
            .truth
            .bicluster_genes
            .iter()
            .map(|&g| g as usize)
            .collect();
        // Compute MSR directly.
        let sub = d.expression.select_rows(&rows).select_cols(&cols);
        let (nr, nc) = sub.shape();
        let total: f64 = sub.data().iter().sum();
        let overall = total / (nr * nc) as f64;
        let row_means: Vec<f64> = (0..nr)
            .map(|r| sub.row(r).iter().sum::<f64>() / nc as f64)
            .collect();
        let col_means: Vec<f64> = (0..nc)
            .map(|c| (0..nr).map(|r| sub.get(r, c)).sum::<f64>() / nr as f64)
            .collect();
        let mut msr = 0.0;
        for r in 0..nr {
            for c in 0..nc {
                let resid = sub.get(r, c) - row_means[r] - col_means[c] + overall;
                msr += resid * resid;
            }
        }
        msr /= (nr * nc) as f64;
        assert!(msr < 0.01, "planted bicluster MSR {msr} too high");
    }

    #[test]
    fn module_genes_are_correlated() {
        let d = tiny_dataset();
        let module = &d.truth.modules[0];
        assert!(module.len() >= 4);
        let g0 = d.expression.col(module[0] as usize);
        let g1 = d.expression.col(module[1] as usize);
        let r = correlation(&g0, &g1);
        assert!(r > 0.4, "module genes should co-express, r = {r}");
        // An unrelated (non-module, non-causal, non-bicluster) gene pair
        // should be much less correlated.
        let in_structure = |g: u32| {
            d.truth.modules.iter().any(|m| m.contains(&g))
                || d.truth.causal_genes.iter().any(|&(c, _)| c == g)
                || d.truth.bicluster_genes.contains(&g)
        };
        let free: Vec<u32> = (0..d.n_genes() as u32)
            .filter(|&g| !in_structure(g))
            .collect();
        let f0 = d.expression.col(free[0] as usize);
        let f1 = d.expression.col(free[1] as usize);
        let r_free = correlation(&f0, &f1).abs();
        assert!(
            r_free < 0.4,
            "free genes should be ~uncorrelated, r = {r_free}"
        );
    }

    #[test]
    fn drug_response_has_linear_signal() {
        let d = tiny_dataset();
        // Reconstruct the noiseless response and correlate with the stored
        // one; must be strongly related.
        let recon: Vec<f64> = (0..d.n_patients())
            .map(|p| {
                let row = d.expression.row(p);
                d.truth.response_intercept
                    + d.truth
                        .causal_genes
                        .iter()
                        .map(|&(g, w)| w * row[g as usize])
                        .sum::<f64>()
            })
            .collect();
        let actual: Vec<f64> = d.patients.iter().map(|p| p.drug_response).collect();
        let r = correlation(&recon, &actual);
        assert!(r > 0.9, "drug response should be mostly linear, r = {r}");
    }

    #[test]
    fn aligned_go_terms_cover_modules() {
        let d = tiny_dataset();
        for (mi, &term) in d.truth.aligned_terms.iter().enumerate() {
            for &g in &d.truth.modules[mi] {
                assert!(
                    d.ontology.contains(term, g),
                    "module {mi} gene {g} missing from aligned term {term}"
                );
            }
        }
    }

    #[test]
    fn go_terms_nonempty_and_proper_subsets() {
        let d = tiny_dataset();
        for t in 0..d.ontology.n_terms() {
            let len = d.ontology.members[t].len();
            assert!(len >= 1, "term {t} empty");
            assert!(len < d.n_genes(), "term {t} covers all genes");
            // sorted unique
            assert!(d.ontology.members[t].windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rejects_too_small_spec() {
        let cfg = GeneratorConfig::new(SizeSpec::custom(4, 4, 4));
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn function_filter_selects_reasonable_fraction() {
        let d = generate(&GeneratorConfig::new(SizeSpec::custom(400, 50, 10))).unwrap();
        let selected = d
            .genes
            .iter()
            .filter(|g| g.function < FUNCTION_FILTER)
            .count();
        let frac = selected as f64 / 400.0;
        assert!(
            (0.15..0.45).contains(&frac),
            "function filter keeps {frac} of genes"
        );
    }
}
