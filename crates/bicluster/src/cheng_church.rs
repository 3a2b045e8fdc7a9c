//! Cheng–Church δ-biclustering.
//!
//! Greedy algorithm from Cheng & Church (ISMB 2000), the classic microarray
//! biclustering method, run once on the caller's matrix:
//!
//! 1. **Multiple node deletion** — while `H > δ`, drop every row/column whose
//!    mean residue exceeds [`ALPHA`]` · H` (fast coarse phase on large
//!    matrices).
//! 2. **Single node deletion** — while `H > δ`, drop the single worst
//!    row or column.
//! 3. **Node addition** — add back every column, then every row, whose
//!    residue against the current means does not exceed `H`.
//!
//! Adding nodes that fit never raises `H` (the mean residue is the
//! least-squares additive fit, which the added nodes can only improve on
//! average), so a bicluster whose deletion reached δ is reported within
//! δ. The paper's addition step also admits a row whose *mirror image*
//! fits; a mirrored row scored as a plain row can raise `H` far past δ,
//! and nothing downstream tracks row signs, so this kernel does not.
//!
//! GenBase's Query 3 takes the first bicluster, so the paper's fourth step
//! (mask the found cells with noise and repeat for further biclusters) is
//! not implemented, and δ is the one setting: α and the minimum size are
//! the constants below.
//!
//! Phases 1 and 2 use `opts.threads`: they run on one runtime team
//! ([`genbase_util::runtime::team`]), every pass of the residue engine a
//! round over fixed row bands, with the leader folding the bands and
//! picking the node to delete between rounds. One member or several, the
//! rounds and the result bits are the same; inputs under
//! `TEAM_MIN_CELLS` (2^17) run on the caller alone.

use crate::msr::{ResidueBlock, SubmatrixStats};
use genbase_linalg::{ExecOpts, Matrix};
use genbase_util::runtime::{team, Team};
use genbase_util::{Error, Result};
use std::collections::HashSet;

/// Multiple-deletion aggressiveness α (the paper's 1.2): phase 1 drops the
/// nodes whose mean residue exceeds `ALPHA · H`.
pub const ALPHA: f64 = 1.2;

/// Minimum rows a bicluster keeps (deletion never goes below).
pub const MIN_ROWS: usize = 2;

/// Minimum columns a bicluster keeps.
pub const MIN_COLS: usize = 2;

/// Input cells below which the deletion sweep runs on the caller alone:
/// under this, a step's passes are too short for a helper to pay for its
/// hand-offs. Wall time only. Measured on top-left blocks of the Large
/// Query 3 input, 2-core host, best of 15, alone vs with one helper:
/// 150×300 1.4 vs 1.9 ms, 200×400 3.5–4.5 vs 3.4–3.7, 250×500 7.5 vs 6.2,
/// 310×720 13.5 vs 11.4.
const TEAM_MIN_CELLS: usize = 1 << 17;

/// One discovered bicluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Bicluster {
    /// Selected row indices (ascending).
    pub rows: Vec<usize>,
    /// Selected column indices (ascending).
    pub cols: Vec<usize>,
    /// Final mean squared residue.
    pub msr: f64,
}

/// The one setting of [`find_biclusters`].
#[derive(Debug, Clone)]
pub struct ChengChurchConfig {
    /// Residue ceiling δ: deletion stops once `H <= δ`.
    pub delta: f64,
}

/// Run Cheng–Church on `data` and return its one bicluster (a one-element
/// `Vec`). The input is untouched. Fails with `Error::Numerical` on a
/// non-finite cell, which the residue comparisons cannot order.
pub fn find_biclusters(
    data: &Matrix,
    config: &ChengChurchConfig,
    opts: &ExecOpts,
) -> Result<Vec<Bicluster>> {
    let (m, n) = data.shape();
    if m < MIN_ROWS || n < MIN_COLS {
        return Err(Error::invalid("matrix smaller than minimum bicluster"));
    }
    if config.delta < 0.0 {
        return Err(Error::invalid("delta must be >= 0"));
    }
    if data.data().iter().any(|v| !v.is_finite()) {
        return Err(Error::Numerical(
            "biclustering input has a non-finite cell".into(),
        ));
    }
    opts.budget.check("biclustering")?;

    let mut rows: Vec<usize> = (0..m).collect();
    let mut cols: Vec<usize> = (0..n).collect();

    // Phases 1 and 2 run their passes as team rounds over row bands: one
    // pool job for the whole deletion sweep, the same rounds (and bits) at
    // every member count.
    let threads = if m * n < TEAM_MIN_CELLS {
        1
    } else {
        opts.threads
    };
    team(threads, |team| {
        delete_nodes(data, config.delta, opts, &mut rows, &mut cols, team)
    })?;

    // Phase 3: node addition.
    let mut grown = true;
    while grown {
        opts.budget.check("biclustering: addition")?;
        grown = false;
        let stats = SubmatrixStats::compute(data, &rows, &cols);
        // Columns first (as in the original Algorithm 3).
        let col_set: HashSet<usize> = cols.iter().copied().collect();
        for c in 0..n {
            if !col_set.contains(&c) && stats.candidate_col_residue(data, c, &rows) <= stats.msr {
                cols.push(c);
                grown = true;
            }
        }
        if grown {
            cols.sort_unstable();
            continue;
        }
        let row_set: HashSet<usize> = rows.iter().copied().collect();
        for r in 0..m {
            if !row_set.contains(&r) && stats.candidate_row_residue(data, r, &cols) <= stats.msr {
                rows.push(r);
                grown = true;
            }
        }
        if grown {
            rows.sort_unstable();
        }
    }

    rows.sort_unstable();
    cols.sort_unstable();
    let msr = SubmatrixStats::compute(data, &rows, &cols).msr;
    Ok(vec![Bicluster { rows, cols, msr }])
}

/// Phases 1 and 2 on the selection `(rows, cols)` of `data`: multiple
/// node deletion (only worthwhile above ~100 nodes, matching the original
/// paper's heuristic), then single node deletion in place on the block.
fn delete_nodes(
    data: &Matrix,
    delta: f64,
    opts: &ExecOpts,
    rows: &mut Vec<usize>,
    cols: &mut Vec<usize>,
    team: &Team<'_>,
) -> Result<()> {
    // Phase 1: multiple node deletion.
    let mut block = ResidueBlock::gather(data, rows, cols, team);
    loop {
        opts.budget.check("biclustering: multiple deletion")?;
        if block.stats().msr <= delta {
            break;
        }
        let mut changed = false;
        if rows.len() > MIN_ROWS.max(100) {
            let threshold = ALPHA * block.stats().msr;
            let keep = within(rows, &block.stats().row_residues, threshold);
            if keep.len() >= MIN_ROWS && keep.len() < rows.len() {
                *rows = keep;
                changed = true;
                block.regather(data, rows, cols, team);
            }
        }
        if cols.len() > MIN_COLS.max(100) {
            let threshold = ALPHA * block.stats().msr;
            let keep = within(cols, &block.stats().col_residues, threshold);
            if keep.len() >= MIN_COLS && keep.len() < cols.len() {
                *cols = keep;
                changed = true;
                block.regather(data, rows, cols, team);
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 2: single node deletion, in place on the block.
    while block.stats().msr > delta {
        opts.budget.check("biclustering: single deletion")?;
        let (ri, rd) = worst(&block.stats().row_residues);
        let (ci, cd) = worst(&block.stats().col_residues);
        let can_drop_row = rows.len() > MIN_ROWS;
        let can_drop_col = cols.len() > MIN_COLS;
        if can_drop_row && (rd >= cd || !can_drop_col) {
            rows.remove(ri);
            block.delete_row(ri, team);
        } else if can_drop_col {
            cols.remove(ci);
            block.delete_col(ci, team);
        } else {
            break; // at minimum size on both axes
        }
    }

    Ok(())
}

/// The members whose residue does not exceed `threshold`.
fn within(members: &[usize], residues: &[f64], threshold: f64) -> Vec<usize> {
    members
        .iter()
        .zip(residues)
        .filter_map(|(&i, &d)| (d <= threshold).then_some(i))
        .collect()
}

/// Position and value of the largest residue (the last one among equals).
fn worst(residues: &[f64]) -> (usize, f64) {
    residues
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("selection is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::mean_squared_residue;
    use genbase_util::Pcg64;

    /// Matrix of noise with a planted constant block.
    fn planted(
        m: usize,
        n: usize,
        block_rows: &[usize],
        block_cols: &[usize],
        seed: u64,
    ) -> Matrix {
        let mut rng = Pcg64::new(seed);
        let mut mat = Matrix::from_fn(m, n, |_, _| rng.normal() * 3.0);
        for &r in block_rows {
            for &c in block_cols {
                mat.set(r, c, 8.0);
            }
        }
        mat
    }

    /// What the reference computes: the bicluster, whether deletion
    /// reached δ, and `H` before each node-addition round and at the end.
    struct Reference {
        rows: Vec<usize>,
        cols: Vec<usize>,
        reached_delta: bool,
        addition_h: Vec<f64>,
    }

    /// Phases 1-3 written against the textbook two-pass statistics, one
    /// full rescan per deletion: what `find_biclusters` must agree with.
    fn reference_bicluster(data: &Matrix, delta: f64) -> Reference {
        use crate::msr::tests::reference_stats;
        let (m, n) = data.shape();
        let mut rows: Vec<usize> = (0..m).collect();
        let mut cols: Vec<usize> = (0..n).collect();
        let mut stats = reference_stats(data, &rows, &cols);
        while stats.msr > delta {
            let mut changed = false;
            if rows.len() > MIN_ROWS.max(100) {
                let keep = within(&rows, &stats.row_residues, ALPHA * stats.msr);
                if keep.len() >= MIN_ROWS && keep.len() < rows.len() {
                    rows = keep;
                    changed = true;
                    stats = reference_stats(data, &rows, &cols);
                }
            }
            if cols.len() > MIN_COLS.max(100) {
                let keep = within(&cols, &stats.col_residues, ALPHA * stats.msr);
                if keep.len() >= MIN_COLS && keep.len() < cols.len() {
                    cols = keep;
                    changed = true;
                    stats = reference_stats(data, &rows, &cols);
                }
            }
            if !changed {
                break;
            }
        }
        while stats.msr > delta {
            let (ri, rd) = worst(&stats.row_residues);
            let (ci, cd) = worst(&stats.col_residues);
            let can_drop_col = cols.len() > MIN_COLS;
            if rows.len() > MIN_ROWS && (rd >= cd || !can_drop_col) {
                rows.remove(ri);
            } else if can_drop_col {
                cols.remove(ci);
            } else {
                break;
            }
            stats = reference_stats(data, &rows, &cols);
        }
        let reached_delta = stats.msr <= delta;
        let mut addition_h = Vec::new();
        loop {
            let stats = reference_stats(data, &rows, &cols);
            addition_h.push(stats.msr);
            let before = (rows.len(), cols.len());
            for c in 0..n {
                if !cols.contains(&c) && stats.candidate_col_residue(data, c, &rows) <= stats.msr {
                    cols.push(c);
                }
            }
            if cols.len() == before.1 {
                for r in 0..m {
                    if !rows.contains(&r)
                        && stats.candidate_row_residue(data, r, &cols) <= stats.msr
                    {
                        rows.push(r);
                    }
                }
            }
            rows.sort_unstable();
            cols.sort_unstable();
            if (rows.len(), cols.len()) == before {
                return Reference {
                    rows,
                    cols,
                    reached_delta,
                    addition_h,
                };
            }
        }
    }

    fn assert_same_sets_as_reference(data: &Matrix, delta: f64, what: &str) {
        let found = find_biclusters(data, &ChengChurchConfig { delta }, &ExecOpts::serial());
        let found = found.unwrap();
        assert_eq!(found.len(), 1, "{what}: one bicluster");
        let Reference { rows, cols, .. } = reference_bicluster(data, delta);
        assert_eq!(found[0].rows, rows, "{what}: rows");
        assert_eq!(found[0].cols, cols, "{what}: cols");
        let msr = crate::msr::tests::reference_stats(data, &rows, &cols).msr;
        assert!(
            (found[0].msr - msr).abs() <= 1e-12 * msr,
            "{what}: msr {} vs {msr}",
            found[0].msr
        );
    }

    /// Seed `seed`'s input of the property tier below: 10–60 rows × 6–46
    /// columns of noise in three kinds — noise alone, a planted additive
    /// block, and a planted block with mirrored rows.
    fn tier_input(seed: u64) -> Matrix {
        let mut rng = Pcg64::new(seed);
        let m = 10 + rng.next_below(51) as usize;
        let n = 6 + rng.next_below(41) as usize;
        let mut data = Matrix::from_fn(m, n, |_, _| rng.range_f64(-5.0, 5.0));
        if !seed.is_multiple_of(3) {
            let (h, w) = (
                3 + rng.next_below(m as u64 / 2),
                3 + rng.next_below(n as u64 / 2),
            );
            let rows = rng.sample_indices(m, h as usize);
            let cols = rng.sample_indices(n, w as usize);
            let row_effect: Vec<f64> = rows.iter().map(|_| rng.range_f64(-3.0, 3.0)).collect();
            let col_effect: Vec<f64> = cols.iter().map(|_| rng.range_f64(-3.0, 3.0)).collect();
            for (ri, &r) in rows.iter().enumerate() {
                // Kind 2 mirrors every other planted row.
                let sign = if seed % 3 == 2 && ri % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                for (ci, &c) in cols.iter().enumerate() {
                    data.set(r, c, row_effect[ri] + sign * col_effect[ci]);
                }
            }
        }
        data
    }

    #[test]
    fn addition_never_lifts_h_past_delta_on_seeded_inputs() {
        let delta = 0.02;
        let mut reached = 0;
        for seed in 0..420u64 {
            let data = tier_input(seed);
            // Exact additive blocks put residues at rounding level, where
            // the kernel's one-pass statistics and the reference's two-pass
            // ones may order a tie differently; the bound holds for both.
            let found = serial(&data, delta).unwrap();
            let reference = reference_bicluster(&data, delta);
            if !reference.reached_delta {
                continue;
            }
            reached += 1;
            assert!(
                found[0].msr <= delta,
                "seed {seed}: msr {} > δ",
                found[0].msr
            );
            // Mathematically H never rises; at rounding level it may, by
            // ~1e-31 on exact blocks, so the bound allows 1e-12·δ.
            for (round, h) in reference.addition_h.windows(2).enumerate() {
                assert!(
                    h[1] <= h[0] + 1e-12 * delta,
                    "seed {seed}: H rose in addition round {round}: {h:?}"
                );
            }
        }
        assert!(reached >= 400, "only {reached} inputs reached δ");
    }

    #[test]
    fn a_planted_additive_block_stays_within_delta() {
        // 30×30 noise with a 5×5 additive block. Node addition once took
        // rows whose mirror image fit and then scored them as plain rows:
        // 8×2 at msr 0.526 against δ = 0.02.
        let mut rng = Pcg64::new(117);
        let mut data = Matrix::from_fn(30, 30, |_, _| rng.normal() * 5.0);
        let rows = [2usize, 8, 14, 20, 26];
        let cols = [1usize, 7, 13, 19, 25];
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                data.set(r, c, ri as f64 * 2.0 + ci as f64);
            }
        }
        let found = serial(&data, 0.02).unwrap();
        assert!(found[0].msr <= 0.02, "msr {}", found[0].msr);
    }

    #[test]
    fn same_sets_as_reference_on_planted_cases() {
        let evens: Vec<usize> = (0..20).step_by(2).collect();
        let odds: Vec<usize> = (1..16).step_by(2).collect();
        let cases = [
            (planted(20, 16, &evens, &odds, 111), 0.05),
            (
                planted(30, 30, &[1, 2, 3, 4, 5], &[10, 11, 12, 13], 112),
                0.5,
            ),
            (
                planted(40, 40, &[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 5], 113),
                0.05,
            ),
            // Large enough for multiple node deletion on both axes.
            (planted(150, 130, &evens, &odds, 119), 0.1),
        ];
        for (i, (data, delta)) in cases.iter().enumerate() {
            assert_same_sets_as_reference(data, *delta, &format!("case {i}"));
        }
    }

    #[test]
    fn same_sets_as_reference_on_generated_data() {
        use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
        // Query 3 as the harness runs it: men under 40, all genes, the
        // generator-tuned delta, at the benchmark's scale.
        for class in [SizeClass::Small, SizeClass::Medium] {
            let size = SizeSpec::scaled(class, 0.048);
            let d = generate(&GeneratorConfig::new(size).with_seed(1)).unwrap();
            let men: Vec<usize> = (0..d.n_patients())
                .filter(|&p| d.patients[p].gender == 1 && d.patients[p].age < 40)
                .collect();
            let data = d.expression.select_rows(&men);
            assert_same_sets_as_reference(&data, 0.02, &format!("{class:?}"));
        }
    }

    /// Cheng–Church at `delta`, serially.
    fn serial(data: &Matrix, delta: f64) -> Result<Vec<Bicluster>> {
        find_biclusters(data, &ChengChurchConfig { delta }, &ExecOpts::serial())
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = planted(15, 12, &[1, 3, 5], &[2, 4, 6], 120);
            data.set(7, 3, bad);
            let err = serial(&data, 0.1).unwrap_err();
            assert!(matches!(err, Error::Numerical(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn finds_planted_block() {
        // The block must dominate the matrix for greedy deletion to find it
        // reliably; small planted blocks can lose to low-residue noise
        // pockets (a known Cheng-Church failure mode).
        let block_rows: Vec<usize> = (0..20).filter(|r| r % 2 == 0).collect();
        let block_cols: Vec<usize> = (0..16).filter(|c| c % 2 == 1).collect();
        let data = planted(20, 16, &block_rows, &block_cols, 111);
        let found = serial(&data, 0.05).unwrap();
        assert_eq!(found.len(), 1);
        let bc = &found[0];
        assert!(bc.msr <= 0.05, "msr {}", bc.msr);
        // The planted block must be contained in the result.
        for r in &block_rows {
            assert!(bc.rows.contains(r), "missing planted row {r}");
        }
        for c in &block_cols {
            assert!(bc.cols.contains(c), "missing planted col {c}");
        }
    }

    #[test]
    fn respects_delta() {
        let data = planted(30, 30, &[1, 2, 3, 4, 5], &[10, 11, 12, 13], 112);
        for delta in [0.01, 0.1, 0.5] {
            let found = serial(&data, delta).unwrap();
            assert!(
                found[0].msr <= delta + 1e-9,
                "delta {delta}: msr {}",
                found[0].msr
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = planted(25, 25, &[3, 6, 9, 12], &[2, 4, 8, 16], 114);
        assert_eq!(serial(&data, 0.1).unwrap(), serial(&data, 0.1).unwrap());
    }

    #[test]
    fn indices_sorted_and_in_bounds() {
        let data = planted(15, 12, &[1, 3, 5], &[2, 4, 6], 115);
        let found = serial(&data, 0.1).unwrap();
        assert_eq!(found.len(), 1);
        let bc = &found[0];
        assert!(bc.rows.windows(2).all(|w| w[0] < w[1]));
        assert!(bc.cols.windows(2).all(|w| w[0] < w[1]));
        assert!(bc.rows.iter().all(|&r| r < 15));
        assert!(bc.cols.iter().all(|&c| c < 12));
        assert!(bc.rows.len() * bc.cols.len() >= MIN_ROWS * MIN_COLS);
    }

    #[test]
    fn input_not_mutated() {
        let data = planted(15, 15, &[1, 2, 3], &[4, 5, 6], 116);
        let copy = data.clone();
        let _ = serial(&data, 0.1).unwrap();
        assert_eq!(data, copy);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(serial(&Matrix::zeros(10, 10), -1.0).is_err());
        assert!(serial(&Matrix::zeros(1, 1), 0.1).is_err());
    }

    #[test]
    fn shifted_pattern_found_not_just_constant() {
        // Additive pattern block: a_ij = r_i + c_j has zero residue even
        // though values differ cell to cell. Like a constant block, it must
        // dominate the matrix for greedy deletion to find it.
        let mut rng = Pcg64::new(117);
        let mut data = Matrix::from_fn(20, 16, |_, _| rng.normal() * 5.0);
        let rows: Vec<usize> = (0..20).step_by(2).collect();
        let cols: Vec<usize> = (1..16).step_by(2).collect();
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                data.set(r, c, ri as f64 * 2.0 + ci as f64);
            }
        }
        assert!(mean_squared_residue(&data, &rows, &cols) < 1e-20);
        let found = serial(&data, 0.02).unwrap();
        assert!(found[0].msr <= 0.02);
        // With node addition the found bicluster is the whole pattern.
        assert_eq!(found[0].rows, rows);
        assert_eq!(found[0].cols, cols);
    }

    #[test]
    fn budget_timeout_propagates() {
        use genbase_util::Budget;
        use std::time::Duration;
        let data = planted(50, 50, &[1, 2, 3], &[1, 2, 3], 118);
        let budget = Budget::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let opts = ExecOpts::serial().with_budget(budget);
        let err = find_biclusters(&data, &ChengChurchConfig { delta: 0.1 }, &opts).unwrap_err();
        assert!(err.is_infinite_result());
    }
}
