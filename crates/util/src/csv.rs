//! Minimal CSV codec.
//!
//! This is not a general-purpose CSV library; it exists to make the paper's
//! "export data from the DBMS, reformat, and load it into R" path a *real*
//! cost. Engines that bridge a store and an external analytics runtime
//! serialize matrices/tables to text through these routines and parse them
//! back, paying the same O(N)-with-a-large-constant conversion the paper
//! measures.

use crate::dtoa;
use crate::error::{Error, Result};

/// Serialize a dense row-major matrix to CSV text (no header).
pub fn write_matrix(data: &[f64], rows: usize, cols: usize) -> String {
    assert_eq!(data.len(), rows * cols, "shape mismatch");
    // ~18 bytes per numeric field is typical for full-precision floats.
    let mut out = String::with_capacity(rows * cols * 18 + rows);
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text produced by [`write_matrix`] back into a row-major buffer.
/// Returns `(data, rows, cols)`.
pub fn parse_matrix(text: &str) -> Result<(Vec<f64>, usize, usize)> {
    scan_rows(text, |_| {})
}

/// Scan CSV text once, handing each non-empty line's fields to `f` as
/// doubles, for a reader that consumes rows as they parse instead of
/// staging the whole matrix. Returns `(rows, cols)`; a bad field or a row
/// whose width differs from the first row's is an error (rows before it
/// have already been handed over).
pub fn for_each_row(text: &str, mut f: impl FnMut(&[f64])) -> Result<(usize, usize)> {
    let (_, rows, cols) = scan_rows(text, |row| {
        f(row);
        row.clear();
    })?;
    Ok((rows, cols))
}

/// The one scanner: append each non-empty line's fields to a buffer, check
/// the line's width against the first line's, then let `end_row` keep the
/// fields (a matrix) or consume them (a row at a time). Returns
/// `(buffer, rows, cols)`.
fn scan_rows(
    text: &str,
    mut end_row: impl FnMut(&mut Vec<f64>),
) -> Result<(Vec<f64>, usize, usize)> {
    let mut data = Vec::new();
    let mut cols = None;
    let mut rows = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let start = data.len();
        // `,` is ASCII, so every byte offset found here is a char boundary.
        let mut rest = line;
        loop {
            let end = rest.bytes().position(|b| b == b',');
            data.push(parse_field(&rest[..end.unwrap_or(rest.len())])?);
            match end {
                Some(comma) => rest = &rest[comma + 1..],
                None => break,
            }
        }
        let width = data.len() - start;
        match cols {
            None => cols = Some(width),
            Some(c) if c != width => {
                return Err(Error::invalid(format!(
                    "ragged CSV: row {rows} has {width} fields, expected {c}"
                )))
            }
            _ => {}
        }
        end_row(&mut data);
        rows += 1;
    }
    Ok((data, rows, cols.unwrap_or(0)))
}

/// One numeric field as a double. The id columns of exported triples (and
/// integral values, which [`write_matrix`] prints compactly) are short digit
/// strings; they skip the general float parser. `#[inline]`: both
/// instantiations of [`scan_rows`] call it, and left to itself the compiler
/// then inlines it into neither (+5 % on `parse_matrix`).
#[inline]
fn parse_field(field: &str) -> Result<f64> {
    if let Some(v) = parse_small_int(field.as_bytes()) {
        return Ok(v);
    }
    field
        .trim()
        .parse()
        .map_err(|_| Error::invalid(format!("bad numeric field {field:?}")))
}

/// An optional `-` plus 1–15 ASCII digits, as the `f64` `str::parse` would
/// return: below 2^53 every integer converts exactly. Anything else —
/// padding, `+`, exponents, longer digit strings, and `-0` (whose sign an
/// integer cannot carry) — is `None`, left to the general parser.
fn parse_small_int(field: &[u8]) -> Option<f64> {
    let (negative, digits) = match field.split_first() {
        Some((b'-', digits)) => (true, digits),
        _ => (false, field),
    };
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    let mut n: i64 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n * 10 + i64::from(d - b'0');
    }
    match (negative, n) {
        (true, 0) => None,
        (true, n) => Some(-n as f64),
        (false, n) => Some(n as f64),
    }
}

/// Serialize rows of mixed integer/float fields (as produced by relational
/// exports). Each row is a slice of [`CsvField`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CsvField {
    /// 64-bit signed integer field.
    Int(i64),
    /// 64-bit float field.
    Float(f64),
}

/// Append one row of fields to `out` in CSV form.
pub fn write_row(out: &mut String, fields: &[CsvField]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match f {
            CsvField::Int(v) => dtoa::push_i64(out, *v),
            CsvField::Float(v) => push_f64(out, *v),
        }
    }
    out.push('\n');
}

/// Parse a line written by [`write_row`], with a caller-provided column kind
/// mask: `true` means float, `false` means int.
pub fn parse_row(line: &str, float_mask: &[bool], out: &mut Vec<CsvField>) -> Result<()> {
    let mut n = 0;
    for field in line.split(',') {
        let Some(&is_float) = float_mask.get(n) else {
            return Err(Error::invalid(format!(
                "row has more than {} fields",
                float_mask.len()
            )));
        };
        let t = field.trim();
        if is_float {
            out.push(CsvField::Float(
                t.parse()
                    .map_err(|_| Error::invalid(format!("bad float field {t:?}")))?,
            ));
        } else {
            out.push(CsvField::Int(
                t.parse()
                    .map_err(|_| Error::invalid(format!("bad int field {t:?}")))?,
            ));
        }
        n += 1;
    }
    if n != float_mask.len() {
        return Err(Error::invalid(format!(
            "row has {n} fields, expected {}",
            float_mask.len()
        )));
    }
    Ok(())
}

fn push_f64(out: &mut String, v: f64) {
    // Full round-trip precision, like R's write.csv defaults with digits=17
    // when needed; integers print compactly — except -0.0, whose sign an
    // integer cannot carry (`parse_small_int` refuses `-0` for the same reason).
    if v == v.trunc() && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
        dtoa::push_i64(out, v as i64);
    } else {
        dtoa::push_f64(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip() {
        let data = vec![1.0, 2.5, -3.125, 0.1, 1e-9, 123456.0];
        let text = write_matrix(&data, 2, 3);
        let (parsed, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(cols, 3);
        assert_eq!(parsed, data);
    }

    #[test]
    fn matrix_full_precision_round_trip() {
        let mut rng = crate::Pcg64::new(11);
        let data: Vec<f64> = (0..100).map(|_| rng.normal() * 1e3).collect();
        let text = write_matrix(&data, 10, 10);
        let (parsed, _, _) = parse_matrix(&text).unwrap();
        for (a, b) in data.iter().zip(&parsed) {
            assert_eq!(a, b, "bit-exact round trip expected");
        }
    }

    /// The parser as it was before the integer fast path and the byte
    /// scan: the bit-for-bit reference for [`parse_matrix`].
    fn reference_parse(text: &str) -> Result<(Vec<f64>, usize, usize)> {
        let mut data = Vec::new();
        let mut cols = None;
        let mut rows = 0;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let start = data.len();
            for field in line.split(',') {
                let v: f64 = field
                    .trim()
                    .parse()
                    .map_err(|_| Error::invalid(format!("bad numeric field {field:?}")))?;
                data.push(v);
            }
            let width = data.len() - start;
            match cols {
                None => cols = Some(width),
                Some(c) if c != width => {
                    return Err(Error::invalid(format!(
                        "ragged CSV: row {rows} has {width} fields, expected {c}"
                    )))
                }
                _ => {}
            }
            rows += 1;
        }
        Ok((data, rows, cols.unwrap_or(0)))
    }

    /// Same shape and same bits on success, same message on error.
    fn assert_matches_reference(text: &str) {
        match (parse_matrix(text), reference_parse(text)) {
            (Ok((got, gr, gc)), Ok((want, wr, wc))) => {
                assert_eq!((gr, gc), (wr, wc), "shape of {text:?}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "values of {text:?}");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("{text:?}: parsed {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn fast_path_matches_reference_on_edge_fields() {
        let fields = [
            "0",
            "-0",
            "-00",
            "+5",
            "007",
            "-42",
            "999999999999999", // 15 digits: the last fast-path length
            "-999999999999999",
            "9007199254740993", // 16 digits, above 2^53: general parser
            "1234567890123456",
            "123456789012345678901234567890",
            " 12 ",
            "12 ",
            "\t7",
            "1e3",
            "1.5",
            ".5",
            "5.",
            "nan",
            "inf",
            "-inf",
            "-",
            "+",
            "--1",
            "1-",
            "1_0",
            "0x10",
            "١٢", // non-ASCII digits
            "",
        ];
        for f in fields {
            assert_matches_reference(f);
            assert_matches_reference(&format!("{f}\n"));
            assert_matches_reference(&format!("1,{f},2.5\n3,{f},4\n"));
            assert_matches_reference(&format!("{f},{f}\r\n{f},{f}\r\n"));
        }
        // Ragged rows, blank lines, trailing commas, bare `\r`.
        for text in [
            "1,2\n3\n",
            "1\n2,3\n",
            "1,2\n\n3,4\n",
            "1,2,\n",
            ",\n",
            "1,2\r",
            "\r\n",
            "1,2\n3,4",
        ] {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn fast_path_matches_reference_on_exported_triples() {
        // The export bridge's text: two dense integer ids and a full-precision
        // value per row (plus the integral values `push_f64` prints compactly).
        let mut rng = crate::Pcg64::new(7);
        let mut text = String::new();
        for p in 0..60i64 {
            for g in 0..40i64 {
                let v = if (p + g) % 17 == 0 {
                    (p - g) as f64
                } else {
                    rng.normal() * 3.0
                };
                write_row(
                    &mut text,
                    &[CsvField::Int(g), CsvField::Int(p), CsvField::Float(v)],
                );
            }
        }
        assert_matches_reference(&text);
        let (_, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!((rows, cols), (2400, 3));
    }

    #[test]
    fn ragged_rejected() {
        assert!(parse_matrix("1,2\n3\n").is_err());
    }

    #[test]
    fn bad_field_rejected() {
        assert!(parse_matrix("1,zap\n").is_err());
    }

    #[test]
    fn empty_matrix() {
        let (d, r, c) = parse_matrix("").unwrap();
        assert!(d.is_empty());
        assert_eq!((r, c), (0, 0));
    }

    #[test]
    fn row_round_trip() {
        let mut text = String::new();
        write_row(
            &mut text,
            &[CsvField::Int(-42), CsvField::Float(2.75), CsvField::Int(7)],
        );
        let mask = [false, true, false];
        let mut out = Vec::new();
        parse_row(text.trim_end(), &mask, &mut out).unwrap();
        assert_eq!(
            out,
            vec![CsvField::Int(-42), CsvField::Float(2.75), CsvField::Int(7)]
        );
    }

    #[test]
    fn row_width_mismatch_rejected() {
        let mut out = Vec::new();
        assert!(parse_row("1,2,3", &[false, false], &mut out).is_err());
        out.clear();
        assert!(parse_row("1", &[false, false], &mut out).is_err());
    }

    #[test]
    fn i64_formatting_edge_cases() {
        let mut text = String::new();
        write_row(
            &mut text,
            &[
                CsvField::Int(0),
                CsvField::Int(i64::MIN),
                CsvField::Int(i64::MIN + 1),
                CsvField::Int(i64::MAX),
            ],
        );
        assert_eq!(
            text.trim_end(),
            format!("0,{},{},{}", i64::MIN, i64::MIN + 1, i64::MAX)
        );
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = write_matrix(&[-0.0, 0.0, -1.0], 1, 3);
        assert_eq!(text, "-0.0,0,-1\n");
        let (parsed, _, _) = parse_matrix(&text).unwrap();
        assert_eq!(parsed[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(parsed[1].to_bits(), 0.0f64.to_bits());
    }
}
