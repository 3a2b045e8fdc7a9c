//! Property tests for the export bridge's text codec (`genbase_util::csv`):
//! hostile text must come back as an error or a rectangular matrix, never a
//! panic, and whatever the writers print must parse back bit for bit — every
//! finite double including `-0.0`, every `i64`.

use genbase_util::csv::{self, CsvField};
use proptest::prelude::*;

/// Bytes biased towards what CSV is made of, so that a good share of cases
/// get past the first field, with raw bytes (NUL, `\r`, invalid UTF-8) mixed
/// in; decoded lossily because the codec's input type is `&str`.
fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
    const SHAPED: &[u8] = b"0123456789,,,\n\n\r.-+e \t";
    proptest::collection::vec(0usize..512, 0..max_len).prop_map(|codes| {
        let bytes: Vec<u8> = codes
            .into_iter()
            .map(|c| match c.checked_sub(256) {
                Some(shaped) => SHAPED[shaped % SHAPED.len()],
                None => c as u8,
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Any finite double, uniform over bit patterns (the 1 in 2048 that are not
/// finite become `-0.0`).
fn arb_finite() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            -0.0
        }
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `parse_matrix` and `for_each_row` on `text`: no panic, a rectangular
/// result, and the row-at-a-time scan sees exactly the matrix's rows.
fn assert_total(text: &str) {
    let mut seen = Vec::new();
    let mut widths = Vec::new();
    let scanned = csv::for_each_row(text, |row| {
        widths.push(row.len());
        seen.extend_from_slice(row);
    });
    match (csv::parse_matrix(text), scanned) {
        (Ok((data, rows, cols)), Ok(shape)) => {
            assert_eq!(data.len(), rows * cols, "rectangular");
            assert_eq!(shape, (rows, cols));
            assert_eq!(widths, vec![cols; rows]);
            assert_eq!(bits(&seen), bits(&data));
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("parse_matrix {a:?} but for_each_row {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_is_an_error_or_a_rectangle(text in arb_text(200)) {
        assert_total(&text);
    }

    #[test]
    fn arbitrary_lines_never_panic_parse_row(
        line in arb_text(60),
        mask in proptest::collection::vec(proptest::bool::ANY, 0..6),
    ) {
        let mut out = Vec::new();
        if csv::parse_row(&line, &mask, &mut out).is_ok() {
            prop_assert_eq!(out.len(), mask.len());
            for (field, is_float) in out.iter().zip(&mask) {
                prop_assert_eq!(matches!(field, CsvField::Float(_)), *is_float);
            }
        }
    }

    #[test]
    fn matrices_of_any_finite_doubles_round_trip_bit_exactly(
        values in proptest::collection::vec(arb_finite(), 1..40),
        cols in 1usize..8,
    ) {
        let rows = values.len() / cols;
        prop_assume!(rows > 0);
        let mut values = values;
        values.truncate(rows * cols);
        // The one finite value an integer shortcut in the writer can corrupt.
        values[0] = -0.0;
        let text = csv::write_matrix(&values, rows, cols);
        let (back, r, c) = csv::parse_matrix(&text).unwrap();
        prop_assert_eq!((r, c), (rows, cols));
        prop_assert_eq!(bits(&back), bits(&values), "{}", text);
    }

    #[test]
    fn rows_of_any_ints_and_finite_doubles_round_trip_bit_exactly(
        ints in proptest::collection::vec(i64::MIN..i64::MAX, 1..5),
        floats in proptest::collection::vec(arb_finite(), 1..5),
    ) {
        let fields: Vec<CsvField> = (ints.iter().map(|&i| CsvField::Int(i)))
            .chain(floats.iter().map(|&v| CsvField::Float(v)))
            .chain([CsvField::Int(i64::MIN), CsvField::Int(i64::MAX), CsvField::Float(-0.0)])
            .collect();
        let mask: Vec<bool> = fields.iter().map(|f| matches!(f, CsvField::Float(_))).collect();
        let mut text = String::new();
        csv::write_row(&mut text, &fields);
        let mut back = Vec::new();
        csv::parse_row(text.trim_end_matches('\n'), &mask, &mut back).unwrap();
        prop_assert_eq!(back.len(), fields.len());
        for (got, want) in back.iter().zip(&fields) {
            match (got, want) {
                (CsvField::Int(a), CsvField::Int(b)) => prop_assert_eq!(a, b),
                (CsvField::Float(a), CsvField::Float(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", text)
                }
                _ => panic!("field kind changed: {got:?} vs {want:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ten_kilobyte_fields_are_parsed_or_rejected(
        fill in 0usize..256,
        len in 9_000usize..11_000,
        tail in arb_text(40),
    ) {
        let field = String::from_utf8_lossy(&vec![fill as u8; len]).into_owned();
        assert_total(&format!("1,{field},2\n{tail}"));
        assert_total(&format!("{field}\n{field}\n"));
        let mut out = Vec::new();
        let _ = csv::parse_row(&format!("1,{field}"), &[false, true], &mut out);
    }
}

/// The exact population the bridge prints — a generated Small dataset's
/// expression values — comes out as `{:?}` would print it, integral values
/// below 1e15 as plain integers.
#[test]
fn small_dataset_expression_values_print_as_debug_does() {
    use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
    let data = generate(&GeneratorConfig::new(SizeSpec::bench_scale(
        SizeClass::Small,
    )))
    .unwrap();
    let m = &data.expression;
    let text = csv::write_matrix(m.data(), m.rows(), m.cols());
    let mut fields = text.lines().flat_map(|line| line.split(','));
    for &v in m.data() {
        let want = if v == v.trunc() && v.abs() < 1e15 && v.to_bits() != (-0.0f64).to_bits() {
            format!("{}", v as i64)
        } else {
            format!("{v:?}")
        };
        assert_eq!(fields.next(), Some(want.as_str()));
    }
    assert_eq!(fields.next(), None);
}
