//! Shared analytics kernels and the hand-offs around them.
//!
//! Every engine funnels its (differently produced) matrices through these
//! functions, so cross-engine output consistency is guaranteed by
//! construction and the performance differences stay where the paper puts
//! them: in the data-management plumbing, the thread counts, and the
//! export/serialization paths. The same holds, by the same construction,
//! for the rest of a query's meaning: which records a filter keeps and
//! which selections are refused ([`QueryParams`]), which kernel a plan
//! runs on which inputs ([`dense_kernel`]), and how Query 1's fit and
//! Query 2's pairs become output ([`regression_output`],
//! [`covariance_output`]). A lowering owns its physical work and nothing
//! of the question.

use crate::plan::{Kernel, PlanSlot};
use crate::query::{BiclusterOut, QueryOutput, QueryParams};
use genbase_bicluster::{find_biclusters, ChengChurchConfig};
use genbase_datagen::Dataset;
use genbase_linalg::covariance::{quantile_abs_threshold, top_pairs_by_threshold};
use genbase_linalg::{
    covariance, lanczos_topk, ExecOpts, GramOp, LinearRegression, Matrix, RegressionMethod,
};
use genbase_stats::wilcoxon_rank_sum_par;
use genbase_util::{Error, Pcg64, Result};
use std::collections::HashMap;

/// Covariance-query intermediate: the threshold plus the qualifying
/// `(row, col, covariance)` pairs as matrix-column indices.
pub type CovPairs = (f64, Vec<(usize, usize, f64)>);

/// Deterministic Query 5 patient sample: `count` distinct patient indices
/// drawn from `0..n`, ascending. Identical on every engine and node.
pub fn sample_patients(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Pcg64::new(seed ^ 0x51a7_15e1);
    rng.sample_indices(n, count.min(n))
}

/// Query 1 analytics: fit drug response on the selected genes' expression.
pub fn fit_regression(
    x: &Matrix,
    y: &[f64],
    gene_ids: &[i64],
    method: RegressionMethod,
    opts: &ExecOpts,
) -> Result<QueryOutput> {
    if gene_ids.len() != x.cols() {
        return Err(Error::invalid("gene id list must match matrix width"));
    }
    let model = LinearRegression::fit(x, y, method, opts)?;
    let coefficients = gene_ids
        .iter()
        .copied()
        .zip(model.coefficients.iter().copied())
        .collect();
    Ok(QueryOutput::Regression {
        intercept: model.intercept,
        coefficients,
        r_squared: model.r_squared,
    })
}

/// Query 2 analytics: covariance matrix, top-fraction threshold, and the
/// qualifying pairs as matrix-column indices (the caller joins metadata).
pub fn covariance_pairs(mat: &Matrix, fraction: f64, opts: &ExecOpts) -> Result<CovPairs> {
    let cov = covariance(mat, opts)?;
    Ok(pairs_from_cov(&cov, fraction))
}

/// Threshold + pair extraction from an already-computed covariance matrix
/// (used by the distributed and MapReduce paths).
pub fn pairs_from_cov(cov: &Matrix, fraction: f64) -> (f64, Vec<(usize, usize, f64)>) {
    let threshold = quantile_abs_threshold(cov, fraction);
    let pairs = top_pairs_by_threshold(cov, threshold)
        .into_iter()
        .map(|p| (p.a, p.b, p.value))
        .collect();
    (threshold, pairs)
}

/// Query 3 analytics: Cheng–Church on the filtered matrix; positions are
/// translated to global patient/gene ids.
pub fn bicluster_output(
    mat: &Matrix,
    patient_ids: &[i64],
    gene_ids: &[i64],
    config: &ChengChurchConfig,
    opts: &ExecOpts,
) -> Result<QueryOutput> {
    let found = find_biclusters(mat, config, opts)?;
    Ok(QueryOutput::Biclusters(
        found
            .into_iter()
            .map(|bc| BiclusterOut {
                patient_ids: bc.rows.iter().map(|&r| patient_ids[r]).collect(),
                gene_ids: bc.cols.iter().map(|&c| gene_ids[c]).collect(),
                msr: bc.msr,
            })
            .collect(),
    ))
}

/// Query 4 analytics: top-`k` eigenvalues of `AᵀA` for the filtered
/// expression matrix via Lanczos (never materializing the Gram matrix).
pub fn svd_output(mat: &Matrix, k: usize, seed: u64, opts: &ExecOpts) -> Result<QueryOutput> {
    let k = k.min(mat.cols()).max(1);
    let res = lanczos_topk(&GramOp::new(mat), k, 0, seed, opts)?;
    Ok(QueryOutput::Svd {
        eigenvalues: res.eigenvalues,
    })
}

/// Query 5 analytics: given per-gene aggregated expression over the sampled
/// patients, run the Wilcoxon rank-sum test per GO term, R-script style:
/// each term extracts its two value vectors and ranks them fresh (this
/// per-term re-ranking is what the paper's scripts do and is the dominant
/// analytics cost of the statistics task). Terms are independent, so they
/// run in parallel on the shared runtime under `opts.threads`; per-term
/// order is preserved, making results thread-count invariant.
pub fn enrichment_output(
    gene_scores: &[f64],
    memberships: &[Vec<u32>],
    opts: &ExecOpts,
) -> Result<QueryOutput> {
    let n = gene_scores.len();
    // When there are fewer terms than threads, the leftover budget goes to
    // the per-test ranking sort (wilcoxon_rank_sum_par); with many terms
    // the term axis soaks up all threads and each test sorts serially.
    let inner_threads = (opts.threads / memberships.len().max(1)).max(1);
    let tested = genbase_util::parallel_map(
        opts.threads,
        memberships.len(),
        |term| -> Result<Option<(usize, f64, f64)>> {
            // Every task checks: one task is one term (the serial loop
            // checked every 16 iterations, but here a skipped check would
            // mean a whole uncancellable test past the cutoff).
            opts.budget.check("enrichment tests")?;
            let members = &memberships[term];
            if members.is_empty() || members.len() >= n {
                return Ok(None); // degenerate term: no test possible
            }
            let mut in_group = vec![false; n];
            for &g in members {
                if (g as usize) < n {
                    in_group[g as usize] = true;
                }
            }
            let group1: Vec<f64> = (0..n)
                .filter(|&g| in_group[g])
                .map(|g| gene_scores[g])
                .collect();
            let group2: Vec<f64> = (0..n)
                .filter(|&g| !in_group[g])
                .map(|g| gene_scores[g])
                .collect();
            let res = wilcoxon_rank_sum_par(&group1, &group2, inner_threads)?;
            Ok(Some((term, res.z, res.p_value)))
        },
    );
    let mut per_term = Vec::with_capacity(memberships.len());
    for t in tested {
        if let Some(entry) = t? {
            per_term.push(entry);
        }
    }
    Ok(QueryOutput::Enrichment { per_term })
}

/// What the executed prefix of a plan hands its dense kernel; each kernel
/// reads the fields its query's plan produced and ignores the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelInput<'a> {
    /// The restructured patients × genes matrix (Queries 1–4).
    pub mat: Option<&'a Matrix>,
    /// Drug response per matrix row (Query 1).
    pub y: &'a [f64],
    /// How Query 1 solves its least squares (QR unless the engine says
    /// otherwise).
    pub method: RegressionMethod,
    /// Patient id per matrix row (Query 3).
    pub patient_ids: &'a [i64],
    /// Gene id per matrix column (Queries 1 and 3).
    pub gene_ids: &'a [i64],
    /// Per-gene aggregate over the sample (Query 5).
    pub scores: &'a [f64],
    /// Gene indices per GO term (Query 5).
    pub memberships: &'a [Vec<u32>],
}

/// The one mapping from a plan's [`Kernel`] to the function that runs it,
/// for every lowering that holds a dense matrix. The result lands in
/// `slot` — Query 2's pairs wait there for their metadata join — together
/// with the thread budget the kernel ran under.
pub fn dense_kernel(
    kernel: Kernel,
    input: &KernelInput,
    params: &QueryParams,
    opts: &ExecOpts,
    slot: &mut PlanSlot,
) -> Result<()> {
    slot.kernel_threads = Some(opts.threads);
    let missing = || Error::invalid("restructure did not run before analytics");
    let mat = input.mat.ok_or_else(missing);
    let output = match kernel {
        Kernel::Regression => fit_regression(mat?, input.y, input.gene_ids, input.method, opts)?,
        Kernel::Covariance => {
            slot.cov = Some(covariance_pairs(mat?, params.top_pair_fraction, opts)?);
            return Ok(());
        }
        Kernel::Biclustering => bicluster_output(
            mat?,
            input.patient_ids,
            input.gene_ids,
            &params.bicluster,
            opts,
        )?,
        Kernel::Svd => svd_output(mat?, params.svd_k, params.seed, opts)?,
        Kernel::Enrichment => enrichment_output(input.scores, input.memberships, opts)?,
    };
    slot.output = Some(output);
    Ok(())
}

/// `gene_id -> function` straight from the dataset's gene records (the
/// lowerings whose gene metadata is not in a store of their own).
pub fn gene_functions(data: &Dataset) -> HashMap<i64, i64> {
    let genes = data.genes.iter();
    genes.map(|g| (g.id as i64, g.function)).collect()
}

/// Query 2's final join: covariance pairs (matrix-column indices into
/// `gene_ids`) back to gene ids and their function codes.
pub fn covariance_output(
    (threshold, idx_pairs): CovPairs,
    gene_ids: &[i64],
    functions: &HashMap<i64, i64>,
) -> Result<QueryOutput> {
    let function = |gene: i64| {
        let found = functions.get(&gene).copied();
        found.ok_or_else(|| Error::invalid(format!("no metadata for gene {gene}")))
    };
    let pairs = idx_pairs
        .into_iter()
        .map(|(a, b, v)| {
            let (ga, gb) = (gene_ids[a], gene_ids[b]);
            Ok((ga, gb, v, function(ga)?, function(gb)?))
        })
        .collect::<Result<_>>()?;
    Ok(QueryOutput::Covariance { threshold, pairs })
}

/// Sufficient statistics of a fitted regression, summable across row
/// bands: `[ss_res, Σy, Σy², m]`.
pub type FitStats = [f64; 4];

/// Add one observation to `stats`: `beta` is `[intercept, coefficients..]`.
pub fn accumulate_fit(stats: &mut FitStats, beta: &[f64], features: &[f64], y: f64) {
    let pred = beta[0] + genbase_linalg::matrix::dot(features, &beta[1..]);
    stats[0] += (y - pred) * (y - pred);
    stats[1] += y;
    stats[2] += y * y;
    stats[3] += 1.0;
}

/// Query 1 output from a solved `beta` (`[intercept, coefficients..]` in
/// `gene_ids` order) and the fit's summed statistics.
pub fn regression_output(beta: &[f64], gene_ids: &[i64], stats: &FitStats) -> QueryOutput {
    let [ss_res, sum_y, sum_y2, m] = *stats;
    let ss_tot = sum_y2 - sum_y * sum_y / m;
    let coefficients = gene_ids.iter().copied().zip(beta[1..].iter().copied());
    QueryOutput::Regression {
        intercept: beta[0],
        coefficients: coefficients.collect(),
        r_squared: if ss_tot <= 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_sorted() {
        let a = sample_patients(100, 10, 7);
        let b = sample_patients(100, 10, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = sample_patients(100, 10, 8);
        assert_ne!(a, c);
        assert_eq!(sample_patients(5, 10, 1).len(), 5);
    }

    #[test]
    fn regression_output_keys_by_gene_id() {
        let mut rng = Pcg64::new(151);
        let x = Matrix::from_fn(40, 3, |_, _| rng.normal());
        let y: Vec<f64> = (0..40)
            .map(|r| 1.0 + 2.0 * x.get(r, 0) - x.get(r, 2))
            .collect();
        let out = fit_regression(
            &x,
            &y,
            &[10, 20, 30],
            RegressionMethod::Qr,
            &ExecOpts::serial(),
        )
        .unwrap();
        let QueryOutput::Regression {
            intercept,
            coefficients,
            r_squared,
        } = out
        else {
            panic!("wrong variant")
        };
        assert!((intercept - 1.0).abs() < 1e-9);
        assert_eq!(coefficients[0].0, 10);
        assert!((coefficients[0].1 - 2.0).abs() < 1e-9);
        assert!((coefficients[1].1).abs() < 1e-9);
        assert!((r_squared - 1.0).abs() < 1e-9);
        assert!(fit_regression(&x, &y, &[1], RegressionMethod::Qr, &ExecOpts::serial()).is_err());
    }

    #[test]
    fn covariance_pairs_fraction() {
        let mut rng = Pcg64::new(152);
        let mat = Matrix::from_fn(60, 12, |_, _| rng.normal());
        let (threshold, pairs) = covariance_pairs(&mat, 0.10, &ExecOpts::serial()).unwrap();
        assert!(threshold > 0.0);
        let total = 12 * 11 / 2;
        let expect = (total as f64 * 0.10).ceil() as usize;
        assert!(pairs.len() >= expect && pairs.len() <= expect + 2);
        // Sorted by descending |cov|.
        assert!(pairs
            .windows(2)
            .all(|w| w[0].2.abs() >= w[1].2.abs() - 1e-12));
    }

    #[test]
    fn svd_output_descending() {
        let mut rng = Pcg64::new(153);
        let mat = Matrix::from_fn(50, 10, |_, _| rng.normal());
        let QueryOutput::Svd { eigenvalues } = svd_output(&mat, 5, 7, &ExecOpts::serial()).unwrap()
        else {
            panic!("wrong variant")
        };
        assert_eq!(eigenvalues.len(), 5);
        assert!(eigenvalues.windows(2).all(|w| w[0] >= w[1] - 1e-9));
        assert!(eigenvalues.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn enrichment_detects_planted_term() {
        // Genes 0..5 score high; term 0 = those genes; term 1 = random.
        let mut scores = vec![0.0; 50];
        for (g, s) in scores.iter_mut().enumerate().take(5) {
            *s = 100.0 + g as f64;
        }
        for (g, s) in scores.iter_mut().enumerate().skip(5) {
            *s = g as f64 * 0.01;
        }
        let memberships = vec![vec![0u32, 1, 2, 3, 4], vec![7, 19, 33], vec![]];
        let QueryOutput::Enrichment { per_term } =
            enrichment_output(&scores, &memberships, &ExecOpts::serial()).unwrap()
        else {
            panic!("wrong variant")
        };
        assert_eq!(per_term.len(), 2, "empty term skipped");
        let (t0, z0, p0) = per_term[0];
        assert_eq!(t0, 0);
        assert!(z0 > 3.0, "planted term must rank at the top, z = {z0}");
        assert!(p0 < 0.01);
        let (_, _, p1) = per_term[1];
        assert!(p1 > 0.05, "random term insignificant, p = {p1}");
    }

    #[test]
    fn covariance_output_attaches_function_codes() {
        let functions = HashMap::from([(5i64, 100i64), (9, 200)]);
        let pairs = || (0.4, vec![(0, 1, 0.5)]);
        let out = covariance_output(pairs(), &[5, 9], &functions).unwrap();
        let expect = QueryOutput::Covariance {
            threshold: 0.4,
            pairs: vec![(5, 9, 0.5, 100, 200)],
        };
        assert_eq!(out, expect);
        assert!(covariance_output(pairs(), &[5, 7], &functions).is_err());
    }

    #[test]
    fn bicluster_output_maps_ids() {
        let mut rng = Pcg64::new(154);
        let mut mat = Matrix::from_fn(20, 16, |_, _| rng.normal() * 3.0);
        for r in (0..20).step_by(2) {
            for c in (0..16).step_by(2) {
                mat.set(r, c, 8.0);
            }
        }
        let patient_ids: Vec<i64> = (0..20).map(|i| 1000 + i).collect();
        let gene_ids: Vec<i64> = (0..16).map(|i| 2000 + i).collect();
        let config = ChengChurchConfig { delta: 0.05 };
        let QueryOutput::Biclusters(bcs) =
            bicluster_output(&mat, &patient_ids, &gene_ids, &config, &ExecOpts::serial()).unwrap()
        else {
            panic!("wrong variant")
        };
        assert_eq!(bcs.len(), 1);
        assert!(bcs[0]
            .patient_ids
            .iter()
            .all(|&p| (1000..1020).contains(&p)));
        assert!(bcs[0].gene_ids.iter().all(|&g| (2000..2016).contains(&g)));
    }
}
