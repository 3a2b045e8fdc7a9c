//! Ranking with average ranks for ties (the convention the Wilcoxon test
//! requires, matching R's `rank(..., ties.method = "average")`).
//!
//! One sort gives the order, the ranks and the tie groups: each value is
//! packed with its index as a `(u64 key, u32 index)` pair whose integer
//! order is the stable float-comparator order (value, then index), and the
//! pairs are sorted with `sort_unstable` (they are distinct, so stability
//! cannot matter). The sort is serial: at the largest input any query or
//! rung ranks (184 320 values) it beat the chunked merge sort it replaced
//! at 2 threads as well as at 1.

use genbase_util::{Error, Result};

/// Order-preserving integer image of a non-NaN `x`: a positive value's bits
/// with the sign bit set, a negative value's bits inverted. `x + 0.0`
/// turns −0.0 into +0.0, so the two zeros tie, as `partial_cmp` says.
#[inline]
fn key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// `(key, index)` for every value, sorted ascending: by value, ties by
/// index. A NaN is `Error::Numerical`.
fn sorted_keys(values: &[f64]) -> Result<Vec<(u64, u32)>> {
    if u32::try_from(values.len()).is_err() {
        return Err(Error::invalid("ranking input over u32::MAX values"));
    }
    let mut keyed = Vec::with_capacity(values.len());
    for (i, &x) in values.iter().enumerate() {
        if x.is_nan() {
            return Err(Error::Numerical(format!("NaN at ranking position {i}")));
        }
        keyed.push((key(x), i as u32));
    }
    keyed.sort_unstable();
    Ok(keyed)
}

const NAN_FREE: &str = "ranking input must be NaN-free and hold at most u32::MAX values";

/// Indices that sort `values` ascending, ties by index (the stable sort's
/// order). Panics on a NaN.
pub fn rank_sort_indices(values: &[f64]) -> Vec<usize> {
    let keyed = sorted_keys(values).expect(NAN_FREE);
    keyed.into_iter().map(|(_, i)| i as usize).collect()
}

/// 1-based ranks with ties receiving the average of the ranks they span.
/// Panics on a NaN.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    ranks_and_ties(values).expect(NAN_FREE).0
}

/// [`average_ranks`] under the kernels' thread-budget signature. `threads`
/// is ignored: the serial keyed sort beat the parallel merge sort it
/// replaced at every thread count.
pub fn average_ranks_par(values: &[f64], _threads: usize) -> Vec<f64> {
    average_ranks(values)
}

/// Average ranks of `values` and the sizes of their tie groups (lengths >
/// 1, in ascending value order: the rank-sum variance's tie correction),
/// from one sort and one walk over it. A NaN is `Error::Numerical`.
pub(crate) fn ranks_and_ties(values: &[f64]) -> Result<(Vec<f64>, Vec<usize>)> {
    let keyed = sorted_keys(values)?;
    let n = keyed.len();
    let mut ranks = vec![0.0; n];
    let mut ties = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && keyed[j + 1].0 == keyed[i].0 {
            j += 1;
        }
        // Positions i..=j share the same value; average rank is the midpoint
        // of (i+1)..=(j+1).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &(_, k) in &keyed[i..=j] {
            ranks[k as usize] = avg;
        }
        if j > i {
            ties.push(j - i + 1);
        }
        i = j + 1;
    }
    Ok((ranks, ties))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wilcoxon::{finish, wilcoxon_rank_sum_par};
    use genbase_util::Pcg64;

    /// The sort the keyed one replaced: a stable sort through the float
    /// comparator, ties by index.
    fn comparator_order(values: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .expect("NaN in ranking input")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The two-sort path it replaced, walked off [`comparator_order`] (which
    /// it ran once for the ranks and again for the tie groups): the spans
    /// of equal values by `==`, average ranks and the sizes of spans > 1.
    fn two_sort_ranks_and_ties(values: &[f64]) -> (Vec<f64>, Vec<usize>) {
        let order = comparator_order(values);
        let (mut ranks, mut ties) = (vec![0.0; values.len()], Vec::new());
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &order[i..=j] {
                ranks[k] = avg;
            }
            if j > i {
                ties.push(j - i + 1);
            }
            i = j + 1;
        }
        (ranks, ties)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded inputs over sizes 0–5000: heavy ties from small integer sets,
    /// both zeros, both infinities, subnormals, repeated `f64::MIN`/`MAX`
    /// and continuous values, alone and mixed.
    fn tier_inputs() -> Vec<Vec<f64>> {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0,
            -1.0,
        ];
        let mut rng = Pcg64::new(0x7a2c);
        let mut out = Vec::new();
        for n in [0usize, 1, 2, 3, 4, 7, 16, 63, 256, 1000, 1440, 4097, 5000] {
            for mix in 0..4 {
                let v = (0..n)
                    .map(|_| match mix {
                        0 => rng.next_below(3) as f64,
                        1 => rng.next_below(17) as f64 - 8.0,
                        2 => specials[rng.next_below(specials.len() as u64) as usize],
                        _ => match rng.next_below(4) {
                            0 => specials[rng.next_below(specials.len() as u64) as usize],
                            1 => rng.next_below(5) as f64,
                            _ => rng.normal(),
                        },
                    })
                    .collect();
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn keyed_sort_matches_the_comparator_sort_and_the_two_sort_path() {
        for values in tier_inputs() {
            let n = values.len();
            assert_eq!(
                rank_sort_indices(&values),
                comparator_order(&values),
                "n={n}"
            );
            let (ranks, ties) = ranks_and_ties(&values).unwrap();
            let (want_ranks, want_ties) = two_sort_ranks_and_ties(&values);
            assert_eq!(bits(&ranks), bits(&want_ranks), "n={n}");
            assert_eq!(ties, want_ties, "n={n}");
            assert_eq!(bits(&average_ranks(&values)), bits(&want_ranks), "n={n}");
            let splits = [1, n / 3, n / 2, n.saturating_sub(1)];
            for n1 in splits.into_iter().filter(|&n1| 0 < n1 && n1 < n) {
                let (g1, g2) = values.split_at(n1);
                let w: f64 = want_ranks[..n1].iter().sum();
                let want = finish(w, n1, n - n1, &want_ties);
                let got = wilcoxon_rank_sum_par(g1, g2, 2).unwrap();
                let wuzp = |r: crate::WilcoxonResult| bits(&[r.w, r.u, r.z, r.p_value]);
                assert_eq!(wuzp(got), wuzp(want), "n={n} n1={n1}");
            }
        }
    }

    #[test]
    fn simple_ranks() {
        let r = average_ranks(&[10.0, 30.0, 20.0]);
        assert_eq!(r, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn tied_ranks_averaged() {
        // values: 5, 5, 1, 9 -> ranks of the 5s span 2 and 3 => 2.5 each
        let r = average_ranks(&[5.0, 5.0, 1.0, 9.0]);
        assert_eq!(r, vec![2.5, 2.5, 1.0, 4.0]);
    }

    #[test]
    fn all_tied() {
        let r = average_ranks(&[7.0; 5]);
        assert!(r.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn ranks_sum_invariant() {
        // Σ ranks must always equal n(n+1)/2 regardless of ties.
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 2.0, 2.0, 5.0],
            vec![9.0, -1.0, 9.0, 9.0, 0.0, 0.0],
        ];
        for v in cases {
            let n = v.len() as f64;
            let sum: f64 = average_ranks(&v).iter().sum();
            assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sort_indices_stable_for_ties() {
        let idx = rank_sort_indices(&[3.0, 1.0, 3.0, 1.0]);
        assert_eq!(idx, vec![1, 3, 0, 2]);
        // The zeros tie: index order, whatever their signs.
        assert_eq!(rank_sort_indices(&[0.0, -0.0, -1.0, 0.0]), vec![2, 0, 1, 3]);
    }

    #[test]
    fn tie_groups_detected() {
        let ties = |v: &[f64]| ranks_and_ties(v).unwrap().1;
        assert!(ties(&[1.0, 2.0, 3.0]).is_empty());
        assert_eq!(ties(&[2.0, 2.0, 2.0, 5.0, 5.0]), vec![3, 2]);
        assert_eq!(ties(&[5.0, -0.0, 2.0, 0.0, 5.0]), vec![2, 2]);
    }

    #[test]
    fn empty_input() {
        assert!(average_ranks(&[]).is_empty());
        assert_eq!(ranks_and_ties(&[]).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn a_nan_is_a_numerical_error() {
        let err = ranks_and_ties(&[1.0, f64::NAN, 2.0]).unwrap_err();
        assert!(matches!(err, Error::Numerical(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "NaN-free")]
    fn average_ranks_panics_on_nan_naming_the_invariant() {
        average_ranks(&[f64::NAN]);
    }
}
