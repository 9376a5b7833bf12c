//! Property-based tests of the wire codec: arbitrary nested values must
//! round-trip exactly, and the encoding must be a prefix-free function of
//! the value (deterministic, no trailing garbage accepted).

use proptest::prelude::*;
use std::collections::BTreeMap;

use allscale_region::wire::{decode, encode, Wire, WireError};

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    id: u64,
    weight: f64,
    tag: Option<String>,
}

impl Wire for Inner {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.weight.encode_into(out);
        self.tag.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Inner {
            id: Wire::decode_from(input)?,
            weight: Wire::decode_from(input)?,
            tag: Wire::decode_from(input)?,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(i32),
    Pair(Box<Node>, Box<Node>),
    Tagged { name: String, value: u16 },
    Nothing,
}

impl Wire for Node {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf(v) => (0u32, *v).encode_into(out),
            Node::Pair(a, b) => {
                1u32.encode_into(out);
                a.encode_into(out);
                b.encode_into(out);
            }
            Node::Tagged { name, value } => {
                2u32.encode_into(out);
                name.encode_into(out);
                value.encode_into(out);
            }
            Node::Nothing => 3u32.encode_into(out),
        }
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        match u32::decode_from(input)? {
            0 => Wire::decode_from(input).map(Node::Leaf),
            1 => Ok(Node::Pair(
                Wire::decode_from(input)?,
                Wire::decode_from(input)?,
            )),
            2 => Ok(Node::Tagged {
                name: Wire::decode_from(input)?,
                value: Wire::decode_from(input)?,
            }),
            3 => Ok(Node::Nothing),
            i => Err(WireError::InvalidData(format!("invalid variant index {i}"))),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Outer {
    items: Vec<Inner>,
    lookup: BTreeMap<u32, Vec<u8>>,
    tree: Node,
    flags: (bool, bool, char),
}

impl Wire for Outer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.items.encode_into(out);
        self.lookup.encode_into(out);
        self.tree.encode_into(out);
        self.flags.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Outer {
            items: Wire::decode_from(input)?,
            lookup: Wire::decode_from(input)?,
            tree: Wire::decode_from(input)?,
            flags: Wire::decode_from(input)?,
        })
    }
}

fn arb_inner() -> impl Strategy<Value = Inner> {
    (any::<u64>(), any::<f64>(), proptest::option::of(".{0,12}")).prop_map(|(id, weight, tag)| {
        Inner {
            id,
            // NaN breaks PartialEq-based comparison, not the codec; keep
            // comparable values here (bit-exactness of NaN is covered by
            // the unit tests in the wire module).
            weight: if weight.is_nan() { 0.0 } else { weight },
            tag,
        }
    })
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(Node::Leaf),
        Just(Node::Nothing),
        (".{0,8}", any::<u16>()).prop_map(|(name, value)| Node::Tagged { name, value }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Node::Pair(Box::new(a), Box::new(b)))
    })
}

fn arb_outer() -> impl Strategy<Value = Outer> {
    (
        prop::collection::vec(arb_inner(), 0..6),
        prop::collection::btree_map(
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..16),
            0..4,
        ),
        arb_node(),
        (any::<bool>(), any::<bool>(), any::<char>()),
    )
        .prop_map(|(items, lookup, tree, flags)| Outer {
            items,
            lookup,
            tree,
            flags,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn round_trip(v in arb_outer()) {
        let bytes = encode(&v);
        let back: Outer = decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn encoding_is_deterministic(v in arb_outer()) {
        prop_assert_eq!(encode(&v), encode(&v));
    }

    #[test]
    fn trailing_bytes_always_rejected(v in arb_outer(), junk in 1u8..=255) {
        let mut bytes = encode(&v);
        bytes.push(junk);
        let r: Result<Outer, _> = decode(&bytes);
        prop_assert!(matches!(r, Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn truncation_never_panics(v in arb_outer(), cut in 0usize..64) {
        let bytes = encode(&v);
        if cut < bytes.len() {
            // Any truncation either fails cleanly or — if the prefix
            // happens to decode — must not be accepted with leftovers.
            let r: Result<Outer, _> = decode(&bytes[..bytes.len() - cut - 1]);
            if cut < bytes.len() {
                prop_assert!(r.is_err());
            }
        }
    }

    #[test]
    fn primitive_vectors_round_trip(v in prop::collection::vec(any::<f64>(), 0..64)) {
        let clean: Vec<f64> = v.into_iter().map(|x| if x.is_nan() { 0.0 } else { x }).collect();
        let bytes = encode(&clean);
        let back: Vec<f64> = decode(&bytes).unwrap();
        prop_assert_eq!(back, clean);
    }
}
