//! Cheng–Church δ-biclustering.
//!
//! Greedy algorithm from Cheng & Church (ISMB 2000), the classic microarray
//! biclustering method:
//!
//! 1. **Multiple node deletion** — while `H > δ`, drop every row/column whose
//!    mean residue exceeds `α · H` (fast coarse phase on large matrices).
//! 2. **Single node deletion** — while `H > δ`, drop the single worst
//!    row or column.
//! 3. **Node addition** — add back any row/column (including *inverted*
//!    rows) whose residue does not exceed the final `H`.
//! 4. **Masking** — overwrite the found bicluster's cells with uniform noise
//!    and repeat to extract further biclusters.

use crate::msr::{ResidueBlock, SubmatrixStats};
use genbase_linalg::{ExecOpts, Matrix};
use genbase_util::progress::{f64s_from_hex, f64s_to_hex};
use genbase_util::{Error, Json, Pcg64, Result};
use std::borrow::Cow;

/// Kernel name Cheng–Church snapshots are filed under in a progress sink.
pub const CHENG_CHURCH_KERNEL: &str = "cheng_church";

/// One discovered bicluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Bicluster {
    /// Selected row indices (ascending).
    pub rows: Vec<usize>,
    /// Selected column indices (ascending).
    pub cols: Vec<usize>,
    /// Final mean squared residue.
    pub msr: f64,
    /// Rows included in inverted (mirror-image) orientation.
    pub inverted_rows: Vec<usize>,
}

impl Bicluster {
    /// Number of cells covered.
    pub fn area(&self) -> usize {
        self.rows.len() * self.cols.len()
    }
}

/// Tuning parameters for [`find_biclusters`].
#[derive(Debug, Clone)]
pub struct ChengChurchConfig {
    /// Residue ceiling δ: deletion stops once `H <= δ`.
    pub delta: f64,
    /// Multiple-deletion aggressiveness α (paper default 1.2).
    pub alpha: f64,
    /// How many biclusters to extract.
    pub max_biclusters: usize,
    /// Minimum rows a bicluster must keep (deletion never goes below).
    pub min_rows: usize,
    /// Minimum columns a bicluster must keep.
    pub min_cols: usize,
    /// Seed for mask noise and tie-free determinism.
    pub seed: u64,
    /// Enable the node-addition phase (step 3).
    pub node_addition: bool,
}

impl Default for ChengChurchConfig {
    fn default() -> Self {
        ChengChurchConfig {
            delta: 0.1,
            alpha: 1.2,
            max_biclusters: 5,
            min_rows: 2,
            min_cols: 2,
            seed: 0xb1c1,
            node_addition: true,
        }
    }
}

/// Run Cheng–Church on `data`, returning up to `config.max_biclusters`
/// biclusters ordered by discovery. The input is untouched: masking works
/// on a copy made when the first mask is applied, so a single-bicluster
/// run copies nothing. Fails with `Error::Numerical` on a non-finite cell.
pub fn find_biclusters(
    data: &Matrix,
    config: &ChengChurchConfig,
    opts: &ExecOpts,
) -> Result<Vec<Bicluster>> {
    let (m, n) = data.shape();
    if m < config.min_rows || n < config.min_cols {
        return Err(Error::invalid("matrix smaller than minimum bicluster"));
    }
    if config.delta < 0.0 || config.alpha < 1.0 {
        return Err(Error::invalid("delta must be >= 0 and alpha >= 1"));
    }
    // Mask noise spans the observed data range, as in the original paper.
    let (lo, hi) = data_range(data)?;
    let mut work = Cow::Borrowed(data);
    let mut rng = Pcg64::new(config.seed);
    let mut mask = |work: &mut Cow<'_, Matrix>, bc: &Bicluster| {
        let work = work.to_mut();
        for &r in &bc.rows {
            for &c in &bc.cols {
                work.set(r, c, rng.range_f64(lo, hi));
            }
        }
    };
    let mut found: Vec<Bicluster> = Vec::with_capacity(config.max_biclusters);

    // Resume: the RNG is consumed *only* by masking, in discovery order, so
    // replaying the saved bicluster list over a fresh matrix and RNG lands
    // both in exactly the state an uninterrupted run would have reached.
    if let Some(saved) = opts
        .progress
        .as_ref()
        .and_then(|p| p.restore(CHENG_CHURCH_KERNEL))
        .and_then(|s| restore_cc_state(&s, m, n, config.max_biclusters))
    {
        for bc in saved {
            mask(&mut work, &bc);
            found.push(bc);
        }
    }

    for round in found.len()..config.max_biclusters {
        opts.budget.check("biclustering")?;
        let bc = single_bicluster(&work, data, config, opts)?;
        if bc.rows.len() <= config.min_rows && bc.cols.len() <= config.min_cols && !found.is_empty()
        {
            // Degenerate leftover; stop early.
            break;
        }
        // Mask the discovered cells so the next round finds something else.
        if round + 1 < config.max_biclusters {
            mask(&mut work, &bc);
        }
        found.push(bc);
        if let Some(progress) = &opts.progress {
            progress.save(CHENG_CHURCH_KERNEL, &snapshot_cc_state(m, n, &found))?;
        }
    }
    Ok(found)
}

fn snapshot_cc_state(m: usize, n: usize, found: &[Bicluster]) -> Json {
    let indices = |v: &[usize]| Json::Arr(v.iter().map(|&i| Json::from(i)).collect());
    let mut state = Json::obj();
    state.set("rows", Json::from(m));
    state.set("cols", Json::from(n));
    state.set(
        "found",
        Json::Arr(
            found
                .iter()
                .map(|bc| {
                    let mut o = Json::obj();
                    o.set("rows", indices(&bc.rows));
                    o.set("cols", indices(&bc.cols));
                    o.set("inverted", indices(&bc.inverted_rows));
                    o.set("msr", Json::from(f64s_to_hex(&[bc.msr])));
                    o
                })
                .collect(),
        ),
    );
    state
}

/// Decode and validate a snapshot; `None` (fresh start) on any mismatch.
fn restore_cc_state(state: &Json, m: usize, n: usize, max: usize) -> Option<Vec<Bicluster>> {
    if state.get("rows").and_then(Json::as_u64) != Some(m as u64)
        || state.get("cols").and_then(Json::as_u64) != Some(n as u64)
    {
        return None;
    }
    let indices = |v: &Json, bound: usize| -> Option<Vec<usize>> {
        v.as_arr()?
            .iter()
            .map(|i| i.as_u64().map(|i| i as usize).filter(|&i| i < bound))
            .collect()
    };
    let found: Vec<Bicluster> = state
        .get("found")
        .and_then(Json::as_arr)?
        .iter()
        .map(|bc| {
            Some(Bicluster {
                rows: indices(bc.get("rows")?, m)?,
                cols: indices(bc.get("cols")?, n)?,
                msr: *f64s_from_hex(bc.get("msr").and_then(Json::as_str)?)
                    .ok()?
                    .first()?,
                inverted_rows: indices(bc.get("inverted")?, m)?,
            })
        })
        .collect::<Option<_>>()?;
    (found.len() <= max).then_some(found)
}

/// One full deletion + addition pass on the (masked) working matrix.
/// Addition re-checks candidates against the *original* data.
fn single_bicluster(
    work: &Matrix,
    original: &Matrix,
    config: &ChengChurchConfig,
    opts: &ExecOpts,
) -> Result<Bicluster> {
    let (m, n) = work.shape();
    let mut rows: Vec<usize> = (0..m).collect();
    let mut cols: Vec<usize> = (0..n).collect();

    // Phase 1: multiple node deletion (only worthwhile above ~100 nodes,
    // matching the original paper's heuristic).
    let mut block = ResidueBlock::gather(work, &rows, &cols);
    loop {
        opts.budget.check("biclustering: multiple deletion")?;
        if block.stats().msr <= config.delta {
            break;
        }
        let mut changed = false;
        if rows.len() > config.min_rows.max(100) {
            let threshold = config.alpha * block.stats().msr;
            let keep = within(&rows, &block.stats().row_residues, threshold);
            if keep.len() >= config.min_rows && keep.len() < rows.len() {
                rows = keep;
                changed = true;
                block.regather(work, &rows, &cols);
            }
        }
        if cols.len() > config.min_cols.max(100) {
            let threshold = config.alpha * block.stats().msr;
            let keep = within(&cols, &block.stats().col_residues, threshold);
            if keep.len() >= config.min_cols && keep.len() < cols.len() {
                cols = keep;
                changed = true;
                block.regather(work, &rows, &cols);
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 2: single node deletion, in place on the compacted block.
    while block.stats().msr > config.delta {
        opts.budget.check("biclustering: single deletion")?;
        let (ri, rd) = worst(&block.stats().row_residues);
        let (ci, cd) = worst(&block.stats().col_residues);
        let can_drop_row = rows.len() > config.min_rows;
        let can_drop_col = cols.len() > config.min_cols;
        if can_drop_row && (rd >= cd || !can_drop_col) {
            rows.remove(ri);
            block.delete_row(ri);
        } else if can_drop_col {
            cols.remove(ci);
            block.delete_col(ci);
        } else {
            break; // at minimum size on both axes
        }
    }

    // Phase 3: node addition against the original (unmasked) data.
    let mut inverted_rows = Vec::new();
    if config.node_addition {
        let mut grown = true;
        while grown {
            opts.budget.check("biclustering: addition")?;
            grown = false;
            let stats = SubmatrixStats::compute(original, &rows, &cols);
            // Columns first (as in the original Algorithm 3).
            let col_set: std::collections::HashSet<usize> = cols.iter().copied().collect();
            for c in 0..n {
                if !col_set.contains(&c)
                    && stats.candidate_col_residue(original, c, &rows) <= stats.msr
                {
                    cols.push(c);
                    grown = true;
                }
            }
            if grown {
                cols.sort_unstable();
                continue;
            }
            let row_set: std::collections::HashSet<usize> = rows.iter().copied().collect();
            for r in 0..m {
                if row_set.contains(&r) {
                    continue;
                }
                if stats.candidate_row_residue(original, r, &cols, false) <= stats.msr {
                    rows.push(r);
                    grown = true;
                } else if stats.candidate_row_residue(original, r, &cols, true) <= stats.msr {
                    rows.push(r);
                    inverted_rows.push(r);
                    grown = true;
                }
            }
            if grown {
                rows.sort_unstable();
            }
        }
    }

    rows.sort_unstable();
    cols.sort_unstable();
    inverted_rows.sort_unstable();
    let final_stats = SubmatrixStats::compute(work, &rows, &cols);
    Ok(Bicluster {
        rows,
        cols,
        msr: final_stats.msr,
        inverted_rows,
    })
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

/// `(min, max)` over every cell, `(0, 1)` for a constant matrix; rejects
/// non-finite cells, which the residue comparisons cannot order.
fn data_range(data: &Matrix) -> Result<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut finite = true;
    for &v in data.data() {
        finite &= v.is_finite();
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !finite {
        return Err(Error::Numerical(
            "biclustering input has a non-finite cell".into(),
        ));
    }
    Ok(if lo < hi { (lo, hi) } else { (0.0, 1.0) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::mean_squared_residue;

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

    /// Phases 1-3 written against the textbook two-pass statistics, one
    /// full rescan per deletion: what `single_bicluster` must agree with.
    fn reference_bicluster(data: &Matrix, config: &ChengChurchConfig) -> (Vec<usize>, Vec<usize>) {
        use crate::msr::tests::reference_stats;
        let (m, n) = data.shape();
        let mut rows: Vec<usize> = (0..m).collect();
        let mut cols: Vec<usize> = (0..n).collect();
        let mut stats = reference_stats(data, &rows, &cols);
        while stats.msr > config.delta {
            let mut changed = false;
            if rows.len() > config.min_rows.max(100) {
                let keep = within(&rows, &stats.row_residues, config.alpha * stats.msr);
                if keep.len() >= config.min_rows && keep.len() < rows.len() {
                    rows = keep;
                    changed = true;
                    stats = reference_stats(data, &rows, &cols);
                }
            }
            if cols.len() > config.min_cols.max(100) {
                let keep = within(&cols, &stats.col_residues, config.alpha * stats.msr);
                if keep.len() >= config.min_cols && keep.len() < cols.len() {
                    cols = keep;
                    changed = true;
                    stats = reference_stats(data, &rows, &cols);
                }
            }
            if !changed {
                break;
            }
        }
        while stats.msr > config.delta {
            let (ri, rd) = worst(&stats.row_residues);
            let (ci, cd) = worst(&stats.col_residues);
            let can_drop_col = cols.len() > config.min_cols;
            if rows.len() > config.min_rows && (rd >= cd || !can_drop_col) {
                rows.remove(ri);
            } else if can_drop_col {
                cols.remove(ci);
            } else {
                break;
            }
            stats = reference_stats(data, &rows, &cols);
        }
        loop {
            let stats = reference_stats(data, &rows, &cols);
            let before = (rows.len(), cols.len());
            for c in 0..n {
                if !cols.contains(&c) && stats.candidate_col_residue(data, c, &rows) <= stats.msr {
                    cols.push(c);
                }
            }
            if cols.len() == before.1 {
                for r in 0..m {
                    if !rows.contains(&r)
                        && (stats.candidate_row_residue(data, r, &cols, false) <= stats.msr
                            || stats.candidate_row_residue(data, r, &cols, true) <= stats.msr)
                    {
                        rows.push(r);
                    }
                }
            }
            rows.sort_unstable();
            cols.sort_unstable();
            if (rows.len(), cols.len()) == before {
                return (rows, cols);
            }
        }
    }

    fn assert_same_sets_as_reference(data: &Matrix, config: &ChengChurchConfig, what: &str) {
        let found = find_biclusters(data, config, &ExecOpts::serial()).unwrap();
        let (rows, cols) = reference_bicluster(data, config);
        assert_eq!(found[0].rows, rows, "{what}: rows");
        assert_eq!(found[0].cols, cols, "{what}: cols");
        let msr = crate::msr::tests::reference_stats(data, &rows, &cols).msr;
        assert!(
            (found[0].msr - msr).abs() <= 1e-12 * msr,
            "{what}: msr {} vs {msr}",
            found[0].msr
        );
    }

    #[test]
    fn same_sets_as_reference_on_planted_cases() {
        let first = |delta: f64| ChengChurchConfig {
            delta,
            max_biclusters: 1,
            ..Default::default()
        };
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
            assert_same_sets_as_reference(data, &first(*delta), &format!("case {i}"));
        }
    }

    #[test]
    fn same_sets_as_reference_on_generated_data() {
        use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
        // Query 3 as the harness runs it: men under 40, all genes, the
        // generator-tuned delta, at the benchmark's scale.
        let config = ChengChurchConfig {
            delta: 0.02,
            max_biclusters: 1,
            ..Default::default()
        };
        for class in [SizeClass::Small, SizeClass::Medium] {
            let size = SizeSpec::scaled(class, 0.048);
            let d = generate(&GeneratorConfig::new(size).with_seed(1)).unwrap();
            let men: Vec<usize> = (0..d.n_patients())
                .filter(|&p| d.patients[p].gender == 1 && d.patients[p].age < 40)
                .collect();
            let data = d.expression.select_rows(&men);
            assert_same_sets_as_reference(&data, &config, &format!("{class:?}"));
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = planted(15, 12, &[1, 3, 5], &[2, 4, 6], 120);
            data.set(7, 3, bad);
            let err = find_biclusters(&data, &ChengChurchConfig::default(), &ExecOpts::serial())
                .unwrap_err();
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
        let config = ChengChurchConfig {
            delta: 0.05,
            max_biclusters: 1,
            ..Default::default()
        };
        let found = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
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
            let config = ChengChurchConfig {
                delta,
                max_biclusters: 1,
                ..Default::default()
            };
            let found = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
            assert!(
                found[0].msr <= delta + 1e-9,
                "delta {delta}: msr {}",
                found[0].msr
            );
        }
    }

    #[test]
    fn multiple_biclusters_are_distinct() {
        let mut data = planted(40, 40, &[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 5], 113);
        // Second block with a different constant.
        for r in 20..28 {
            for c in 20..27 {
                data.set(r, c, -6.0);
            }
        }
        let config = ChengChurchConfig {
            delta: 0.05,
            max_biclusters: 2,
            ..Default::default()
        };
        let found = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
        assert_eq!(found.len(), 2);
        // The two biclusters should not cover the same block.
        let overlap: usize = found[0]
            .rows
            .iter()
            .filter(|r| found[1].rows.contains(r))
            .count();
        assert!(
            overlap < found[0].rows.len().min(found[1].rows.len()),
            "biclusters should differ"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = planted(25, 25, &[3, 6, 9, 12], &[2, 4, 8, 16], 114);
        let config = ChengChurchConfig::default();
        let a = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
        let b = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resume_replays_masks_bit_identically() {
        use genbase_util::progress::MemoryProgress;
        use genbase_util::ProgressHandle;
        use std::sync::Arc;

        let mut data = planted(40, 40, &[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 5], 113);
        for r in 20..28 {
            for c in 20..27 {
                data.set(r, c, -6.0);
            }
        }
        let config = ChengChurchConfig {
            delta: 0.05,
            max_biclusters: 2,
            ..Default::default()
        };
        let reference = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
        assert_eq!(reference.len(), 2);

        // Snapshot the state after the first bicluster (a run capped at 1
        // leaves exactly that state behind), then resume the 2-bicluster
        // run from it: the second discovery must match bit for bit.
        let sink = Arc::new(MemoryProgress::new());
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(sink.clone())));
        let one = ChengChurchConfig {
            max_biclusters: 1,
            ..config.clone()
        };
        let first = find_biclusters(&data, &one, &opts).unwrap();
        assert_eq!(first.as_slice(), &reference[..1]);
        assert_eq!(sink.saves(), 1);

        let resumed_sink = Arc::new(MemoryProgress::with_state(
            CHENG_CHURCH_KERNEL,
            sink.latest(CHENG_CHURCH_KERNEL).unwrap(),
        ));
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(resumed_sink)));
        let resumed = find_biclusters(&data, &config, &opts).unwrap();
        assert_eq!(resumed, reference);

        // A snapshot for a different matrix shape is ignored, not resumed.
        let mismatched = Arc::new(MemoryProgress::with_state(
            CHENG_CHURCH_KERNEL,
            sink.latest(CHENG_CHURCH_KERNEL).unwrap(),
        ));
        let small = planted(25, 25, &[3, 6, 9, 12], &[2, 4, 8, 16], 114);
        let opts = ExecOpts::serial().with_progress(Some(ProgressHandle::new(mismatched)));
        let got = find_biclusters(&small, &ChengChurchConfig::default(), &opts).unwrap();
        let want =
            find_biclusters(&small, &ChengChurchConfig::default(), &ExecOpts::serial()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn indices_sorted_and_in_bounds() {
        let data = planted(15, 12, &[1, 3, 5], &[2, 4, 6], 115);
        let found =
            find_biclusters(&data, &ChengChurchConfig::default(), &ExecOpts::serial()).unwrap();
        for bc in &found {
            assert!(bc.rows.windows(2).all(|w| w[0] < w[1]));
            assert!(bc.cols.windows(2).all(|w| w[0] < w[1]));
            assert!(bc.rows.iter().all(|&r| r < 15));
            assert!(bc.cols.iter().all(|&c| c < 12));
            assert!(bc.area() >= 4);
        }
    }

    #[test]
    fn input_not_mutated() {
        let data = planted(15, 15, &[1, 2, 3], &[4, 5, 6], 116);
        let copy = data.clone();
        let _ = find_biclusters(&data, &ChengChurchConfig::default(), &ExecOpts::serial()).unwrap();
        assert_eq!(data, copy);
    }

    #[test]
    fn rejects_bad_config() {
        let data = Matrix::zeros(10, 10);
        let bad_delta = ChengChurchConfig {
            delta: -1.0,
            ..Default::default()
        };
        assert!(find_biclusters(&data, &bad_delta, &ExecOpts::serial()).is_err());
        let bad_alpha = ChengChurchConfig {
            alpha: 0.5,
            ..Default::default()
        };
        assert!(find_biclusters(&data, &bad_alpha, &ExecOpts::serial()).is_err());
        let tiny = Matrix::zeros(1, 1);
        assert!(
            find_biclusters(&tiny, &ChengChurchConfig::default(), &ExecOpts::serial()).is_err()
        );
    }

    #[test]
    fn shifted_pattern_found_not_just_constant() {
        // Additive pattern block: a_ij = r_i + c_j has zero residue even
        // though values differ cell to cell.
        let mut rng = Pcg64::new(117);
        let mut data = Matrix::from_fn(30, 30, |_, _| rng.normal() * 5.0);
        let rows: Vec<usize> = vec![2, 8, 14, 20, 26];
        let cols: Vec<usize> = vec![1, 7, 13, 19, 25];
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                data.set(r, c, ri as f64 * 2.0 + ci as f64);
            }
        }
        assert!(mean_squared_residue(&data, &rows, &cols) < 1e-20);
        let config = ChengChurchConfig {
            delta: 0.02,
            max_biclusters: 1,
            node_addition: false,
            ..Default::default()
        };
        let found = find_biclusters(&data, &config, &ExecOpts::serial()).unwrap();
        assert!(found[0].msr <= 0.02);
    }

    #[test]
    fn budget_timeout_propagates() {
        use genbase_util::Budget;
        use std::time::Duration;
        let data = planted(50, 50, &[1, 2, 3], &[1, 2, 3], 118);
        let budget = Budget::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let opts = ExecOpts::serial().with_budget(budget);
        let err = find_biclusters(&data, &ChengChurchConfig::default(), &opts).unwrap_err();
        assert!(err.is_infinite_result());
    }
}
