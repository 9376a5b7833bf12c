//! The wire codec: the one byte format in which regions, fragments and
//! message payloads move between simulated address spaces.
//!
//! Inter-locality transfers move *bytes*, not Rust objects — this is what
//! enforces the address-space separation demanded by the paper's data
//! model (`D ⊆ M × D × E`, Def 2.9): a fragment present on locality A is a
//! distinct allocation from its replica on locality B, and all movement is
//! observable and billable by the network model.
//!
//! The encoding is little-endian fixed-width for all primitives (`usize`
//! travels as `u64`, `char` as `u32`, `bool` as one 0/1 byte), with `u64`
//! length prefixes for sequences, maps and strings, a 0/1 tag byte before
//! an `Option`'s payload, and `u32` variant indices for enums. Struct
//! fields, tuples and arrays are written back to back. It is not
//! self-describing: the reader must know the type.
//!
//! Encoded lengths bill transfers and encoded bytes feed every fingerprint
//! and checksum, so the format is part of every virtual result; the
//! `wire_golden` integration test pins it.

use std::collections::BTreeMap;
use std::fmt;

/// Errors arising during decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Eof,
    /// A tag, variant index, length or character was out of range.
    InvalidData(String),
    /// Trailing bytes remained after a complete top-level value.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::InvalidData(m) => write!(f, "invalid data: {m}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a wire encoding.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it past the
    /// consumed bytes.
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// Encode `value` into a fresh byte vector.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

/// Decode a value of type `T` from `bytes`, requiring full consumption.
pub fn decode<T: Wire>(mut bytes: &[u8]) -> Result<T, WireError> {
    let v = T::decode_from(&mut bytes)?;
    if bytes.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes(bytes.len()))
    }
}

/// Split the first `n` bytes off `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Eof);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Read a one-byte 0/1 tag (a `bool` or an `Option`'s presence flag).
fn get_flag(input: &mut &[u8], what: &str) -> Result<bool, WireError> {
    match take(input, 1)?[0] {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::InvalidData(format!("invalid {what} {b}"))),
    }
}

/// The error for an enum variant index the decoder does not know.
pub(crate) fn bad_variant(index: u32) -> WireError {
    WireError::InvalidData(format!("invalid variant index {index}"))
}

macro_rules! wire_prim {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
                let b = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("took exactly the width")))
            }
        }
    )*};
}

wire_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

// Also the `u64` length prefix of sequences, maps and strings.
impl Wire for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let raw = u64::decode_from(input)?;
        usize::try_from(raw).map_err(|_| WireError::InvalidData(format!("{raw} exceeds usize")))
    }
}

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        get_flag(input, "bool byte")
    }
}

impl Wire for char {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u32).encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let raw = u32::decode_from(input)?;
        char::from_u32(raw).ok_or_else(|| WireError::InvalidData(format!("invalid char {raw:#x}")))
    }
}

impl Wire for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode_from(input)?;
        let s = std::str::from_utf8(take(input, len)?)
            .map_err(|e| WireError::InvalidData(format!("invalid utf-8: {e}")))?;
        Ok(s.to_owned())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        for v in self {
            v.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode_from(input)?;
        // Reserve no more slots than the input has bytes left, so a
        // corrupted length cannot reserve unbounded memory.
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(T::decode_from(input)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        if get_flag(input, "option tag")? {
            T::decode_from(input).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        T::decode_from(input).map(Box::new)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut a = [T::default(); N];
        for slot in &mut a {
            *slot = T::decode_from(input)?;
        }
        Ok(a)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        for (k, v) in self {
            k.encode_into(out);
            v.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode_from(input)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode_from(input)?;
            map.insert(k, V::decode_from(input)?);
        }
        Ok(map)
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(self.$i.encode_into(out);)+
            }
            fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($t::decode_from(input)?,)+))
            }
        }
    )*};
}

wire_tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: &T) {
        let back: T = decode(&encode(v)).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&-42i8);
        round_trip(&0x1234u16);
        round_trip(&-7_000_000i32);
        round_trip(&u64::MAX);
        round_trip(&3.25f32);
        round_trip(&-1e300f64);
        round_trip(&'λ');
        round_trip(&String::from("hello, wire"));
    }

    #[test]
    fn collections() {
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&(1u8, String::from("x"), vec![9.5f64]));
        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_string());
        m.insert(1, "one".to_string());
        round_trip(&m);
        round_trip(&Some(17u64));
        round_trip(&Option::<u64>::None);
    }

    #[derive(PartialEq, Debug)]
    struct Particle {
        pos: [f64; 3],
        vel: [f64; 3],
        charge: f64,
        id: u64,
    }

    impl Wire for Particle {
        fn encode_into(&self, out: &mut Vec<u8>) {
            self.pos.encode_into(out);
            self.vel.encode_into(out);
            self.charge.encode_into(out);
            self.id.encode_into(out);
        }
        fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Particle {
                pos: Wire::decode_from(input)?,
                vel: Wire::decode_from(input)?,
                charge: Wire::decode_from(input)?,
                id: Wire::decode_from(input)?,
            })
        }
    }

    #[derive(PartialEq, Debug)]
    enum Msg {
        Ping,
        Data { from: u32, body: Vec<u8> },
        Pair(u16, u16),
        Wrapped(Box<Particle>),
    }

    impl Wire for Msg {
        fn encode_into(&self, out: &mut Vec<u8>) {
            match self {
                Msg::Ping => 0u32.encode_into(out),
                Msg::Data { from, body } => {
                    1u32.encode_into(out);
                    from.encode_into(out);
                    body.encode_into(out);
                }
                Msg::Pair(a, b) => (2u32, *a, *b).encode_into(out),
                Msg::Wrapped(p) => {
                    3u32.encode_into(out);
                    p.encode_into(out);
                }
            }
        }
        fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
            match u32::decode_from(input)? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Data {
                    from: Wire::decode_from(input)?,
                    body: Wire::decode_from(input)?,
                }),
                2 => Ok(Msg::Pair(
                    Wire::decode_from(input)?,
                    Wire::decode_from(input)?,
                )),
                3 => Wire::decode_from(input).map(Msg::Wrapped),
                i => Err(bad_variant(i)),
            }
        }
    }

    #[test]
    fn structs_and_enums() {
        round_trip(&Particle {
            pos: [1.0, 2.0, 3.0],
            vel: [-0.5, 0.25, 0.0],
            charge: -1.0,
            id: 99,
        });
        round_trip(&Msg::Ping);
        round_trip(&Msg::Data {
            from: 4,
            body: vec![1, 2, 3, 4, 5],
        });
        round_trip(&Msg::Pair(10, 20));
        round_trip(&Msg::Wrapped(Box::new(Particle {
            pos: [0.0; 3],
            vel: [0.0; 3],
            charge: 1.0,
            id: 1,
        })));
        let r: Result<Msg, _> = decode(&4u32.to_le_bytes());
        assert!(matches!(r, Err(WireError::InvalidData(_))));
    }

    #[test]
    fn nested_vectors() {
        round_trip(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&5u32);
        bytes.push(0xFF);
        let r: Result<u32, _> = decode(&bytes);
        assert_eq!(r, Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode(&12345u64);
        let r: Result<u64, _> = decode(&bytes[..4]);
        assert_eq!(r, Err(WireError::Eof));
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool, _> = decode(&[7]);
        assert!(matches!(r, Err(WireError::InvalidData(_))));
        let r: Result<Option<u8>, _> = decode(&[2, 0]);
        assert!(matches!(r, Err(WireError::InvalidData(_))));
    }

    #[test]
    fn corrupted_lengths_are_rejected_without_huge_allocations() {
        // A length beyond the remaining input fails with Eof instead of
        // reserving memory for it.
        let r: Result<Vec<f64>, _> = decode(&u64::MAX.to_le_bytes());
        assert_eq!(r, Err(WireError::Eof));
        let r: Result<String, _> = decode(&(1u64 << 40).to_le_bytes());
        assert_eq!(r, Err(WireError::Eof));
    }

    #[test]
    fn fixed_width_encoding_is_stable() {
        // The codec is part of the simulated ABI; sizes must not drift.
        assert_eq!(encode(&1u64).len(), 8);
        assert_eq!(encode(&1u8).len(), 1);
        assert_eq!(encode(&vec![0u8; 10]).len(), 18);
        assert_eq!(encode(&"ab".to_string()).len(), 10);
        assert_eq!(encode(&Some(2.0f64)).len(), 9);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [f64::MIN_POSITIVE, f64::MAX, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let back: f64 = decode(&encode(&v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }
}
