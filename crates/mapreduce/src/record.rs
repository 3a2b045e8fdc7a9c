//! Byte-level record codecs (the Hadoop `Writable` analogue).
//!
//! Every key and value crossing a map/shuffle/reduce boundary goes through
//! these encoders — that serialization traffic is a core part of the
//! MapReduce cost profile the benchmark measures.
//!
//! The codec has two halves. [`Encode`] is what an emitter needs, and a
//! borrowed record has it: `[T]` and `&T` write exactly the bytes their
//! owned forms do, so a mapper can forward a row it reads in place. The
//! decode half, [`Writable::read`], is what a reducer or a reader of a job's
//! output needs, and only owned types have it.

use genbase_util::{Error, Result};

/// The encode half: a value that can append its encoding to a buffer.
pub trait Encode {
    /// Append the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);
}

/// A type that can serialize itself to bytes and back.
pub trait Writable: Encode + Sized {
    /// Decode from the front of `input`, advancing it past the record.
    fn read(input: &mut &[u8]) -> Result<Self>;
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::invalid("truncated record"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Fixed-width scalars: their little-endian bytes (an `f64` as its bit
/// pattern).
macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Writable for $t {
            fn read(input: &mut &[u8]) -> Result<Self> {
                let b = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

le_scalar!(i64, u64, u8, f64);

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
}

impl<A: Writable, B: Writable> Writable for (A, B) {
    fn read(input: &mut &[u8]) -> Result<Self> {
        Ok((A::read(input)?, B::read(input)?))
    }
}

/// A borrowed value encodes as the value.
impl<T: Encode + ?Sized> Encode for &T {
    fn write(&self, out: &mut Vec<u8>) {
        (**self).write(out);
    }
}

/// A slice encodes exactly as the `Vec` holding the same elements.
impl<T: Encode> Encode for [T] {
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).write(out);
        for v in self {
            v.write(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        self.as_slice().write(out);
    }
}

impl<T: Writable> Writable for Vec<T> {
    fn read(input: &mut &[u8]) -> Result<Self> {
        let n = u64::read(input)? as usize;
        // Guard against corrupt lengths blowing up allocation.
        if n > input.len() {
            return Err(Error::invalid("vector length exceeds remaining bytes"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read(input)?);
        }
        Ok(out)
    }
}

/// Encode a single record to a fresh buffer (test helper / convenience).
pub fn encode<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.write(&mut out);
    out
}

/// Decode a single record, requiring all bytes to be consumed.
pub fn decode<T: Writable>(mut bytes: &[u8]) -> Result<T> {
    let v = T::read(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(Error::invalid("trailing bytes after record"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(decode::<i64>(&encode(&-42i64)).unwrap(), -42);
        assert_eq!(decode::<u64>(&encode(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode::<u8>(&encode(&7u8)).unwrap(), 7);
        assert_eq!(decode::<f64>(&encode(&2.75f64)).unwrap(), 2.75);
        let nan = decode::<f64>(&encode(&f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn tuple_and_vec_round_trips() {
        let pair = (3i64, 4.5f64);
        assert_eq!(decode::<(i64, f64)>(&encode(&pair)).unwrap(), pair);
        let v = vec![1.0f64, -2.0, 3.5];
        assert_eq!(decode::<Vec<f64>>(&encode(&v)).unwrap(), v);
        let nested = (9i64, vec![1.0f64, 2.0]);
        assert_eq!(decode::<(i64, Vec<f64>)>(&encode(&nested)).unwrap(), nested);
        let empty: Vec<i64> = vec![];
        assert_eq!(decode::<Vec<i64>>(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn borrowed_forms_encode_as_owned_ones() {
        let v = vec![1.5f64, -2.0];
        assert_eq!(encode(v.as_slice()), encode(&v));
        assert_eq!(encode(&(7u8, v.as_slice())), encode(&(7u8, v.clone())));
        assert_eq!(encode(&(&3i64, &v)), encode(&(3i64, v)));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&12345i64);
        assert!(decode::<i64>(&bytes[..4]).is_err());
        let v = encode(&vec![1.0f64, 2.0]);
        assert!(decode::<Vec<f64>>(&v[..v.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = encode(&1i64);
        bytes.push(0);
        assert!(decode::<i64>(&bytes).is_err());
    }

    #[test]
    fn corrupt_vec_length_rejected() {
        let mut bytes = Vec::new();
        (u64::MAX).write(&mut bytes); // absurd length prefix
        assert!(decode::<Vec<f64>>(&bytes).is_err());
    }

    #[test]
    fn streams_concatenate() {
        let mut buf = Vec::new();
        (1i64, 2.0f64).write(&mut buf);
        (3i64, 4.0f64).write(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(<(i64, f64)>::read(&mut slice).unwrap(), (1, 2.0));
        assert_eq!(<(i64, f64)>::read(&mut slice).unwrap(), (3, 4.0));
        assert!(slice.is_empty());
    }
}
