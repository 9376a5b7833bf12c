//! Property-based tests: every region scheme's algebra is checked against
//! a brute-force element-set oracle on randomized inputs, and the
//! fragment laws are checked against randomized edit scripts.

use proptest::prelude::*;
use std::collections::BTreeSet;

use allscale_region::{
    check_laws, BitmaskTreeRegion, BoxRegion, Fragment, GridBox, GridFragment, Point, Region,
    TreePath, TreeRegion,
};

// ------------------------------------------------------------- box regions

fn arb_box2() -> impl Strategy<Value = GridBox<2>> {
    (0i64..12, 0i64..12, 1i64..6, 1i64..6).prop_map(|(x, y, w, h)| {
        GridBox::new(Point([x, y]), Point([x + w, y + h])).expect("non-empty")
    })
}

fn arb_box_region() -> impl Strategy<Value = BoxRegion<2>> {
    prop::collection::vec(arb_box2(), 0..5).prop_map(BoxRegion::from_boxes)
}

fn box_oracle(r: &BoxRegion<2>) -> BTreeSet<[i64; 2]> {
    r.points().map(|p| p.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn box_region_laws(a in arb_box_region(), b in arb_box_region()) {
        check_laws(&a, &b, box_oracle);
    }

    #[test]
    fn box_region_boxes_stay_disjoint(a in arb_box_region(), b in arb_box_region()) {
        for r in [a.union(&b), a.intersect(&b), a.difference(&b)] {
            let boxes = r.boxes();
            for i in 0..boxes.len() {
                for j in i + 1..boxes.len() {
                    prop_assert!(boxes[i].intersect(&boxes[j]).is_none());
                }
            }
        }
    }

    #[test]
    fn box_region_cardinality_is_inclusion_exclusion(
        a in arb_box_region(),
        b in arb_box_region()
    ) {
        let u = a.union(&b).cardinality();
        let i = a.intersect(&b).cardinality();
        prop_assert_eq!(u + i, a.cardinality() + b.cardinality());
    }

    #[test]
    fn box_region_dilate_contains_original(a in arb_box_region()) {
        let universe = GridBox::<2>::from_shape([64, 64]).unwrap();
        let clipped = a.intersect(&BoxRegion::from_box(universe));
        let d = clipped.dilate_within(1, &universe);
        prop_assert!(clipped.is_subset_of(&d));
    }
}

// ------------------------------------------------------------ tree regions

fn arb_path(max_depth: u8) -> impl Strategy<Value = TreePath> {
    prop::collection::vec(any::<bool>(), 0..=max_depth as usize)
        .prop_map(|steps| TreePath::from_steps(&steps))
}

fn arb_tree_region() -> impl Strategy<Value = TreeRegion> {
    (
        prop::collection::vec(arb_path(3), 0..3),
        prop::collection::vec(arb_path(4), 0..3),
    )
        .prop_map(|(inc, exc)| TreeRegion::from_include_exclude(&inc, &exc))
}

const ORACLE_HEIGHT: u8 = 5;

fn tree_oracle(r: &TreeRegion) -> BTreeSet<TreePath> {
    r.paths(ORACLE_HEIGHT).into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_region_laws(a in arb_tree_region(), b in arb_tree_region()) {
        check_laws(&a, &b, tree_oracle);
    }

    #[test]
    fn tree_region_cardinality_matches_enumeration(a in arb_tree_region()) {
        prop_assert_eq!(a.cardinality(ORACLE_HEIGHT) as usize, tree_oracle(&a).len());
    }
}

// --------------------------------------------------------- bitmask regions

fn arb_bitmask(h: u8) -> impl Strategy<Value = BitmaskTreeRegion> {
    let bits = (1usize << h) + 1;
    prop::collection::vec(any::<bool>(), bits).prop_map(move |bs| {
        let mut r = BitmaskTreeRegion::new(h);
        r.set_root_block(bs[0]);
        for (i, &b) in bs[1..].iter().enumerate() {
            r.set_subtree(i, b);
        }
        r
    })
}

fn bitmask_oracle(r: &BitmaskTreeRegion) -> BTreeSet<TreePath> {
    let mut out = BTreeSet::new();
    let mut stack = vec![TreePath::ROOT];
    while let Some(p) = stack.pop() {
        if r.contains(&p) {
            out.insert(p);
        }
        if p.depth() + 1 < ORACLE_HEIGHT {
            stack.push(p.left());
            stack.push(p.right());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitmask_region_laws(a in arb_bitmask(3), b in arb_bitmask(3)) {
        check_laws(&a, &b, bitmask_oracle);
    }

    #[test]
    fn bitmask_agrees_with_tree_region(a in arb_bitmask(2)) {
        let t = a.to_tree_region(ORACLE_HEIGHT);
        let mut stack = vec![TreePath::ROOT];
        while let Some(p) = stack.pop() {
            prop_assert_eq!(a.contains(&p), t.contains(&p), "path {:?}", p);
            if p.depth() + 1 < ORACLE_HEIGHT {
                stack.push(p.left());
                stack.push(p.right());
            }
        }
    }
}

// ---------------------------------------------------------- fragment laws

#[derive(Debug, Clone)]
enum Edit {
    Insert(GridBox<2>, i64),
    Remove(GridBox<2>),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (arb_box2(), -100i64..100).prop_map(|(b, v)| Edit::Insert(b, v)),
        arb_box2().prop_map(Edit::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Apply a random edit script to both a fragment and a plain map
    /// oracle; they must agree on coverage and values throughout.
    #[test]
    fn fragment_tracks_map_oracle(edits in prop::collection::vec(arb_edit(), 1..10)) {
        let mut frag = GridFragment::<i64, 2>::empty();
        let mut oracle: std::collections::BTreeMap<[i64; 2], i64> = Default::default();
        for e in &edits {
            match e {
                Edit::Insert(bx, v) => {
                    let mut piece = GridFragment::new(&BoxRegion::from_box(*bx));
                    piece.for_each_mut(|_, slot| *slot = *v);
                    frag.insert(&piece);
                    for p in bx.points() {
                        oracle.insert(p.0, *v);
                    }
                }
                Edit::Remove(bx) => {
                    frag.remove(&BoxRegion::from_box(*bx));
                    for p in bx.points() {
                        oracle.remove(&p.0);
                    }
                }
            }
        }
        // Same coverage and values.
        prop_assert_eq!(frag.len(), oracle.len());
        frag.for_each(|p, v| {
            assert_eq!(oracle.get(&p.0), Some(v), "at {p:?}");
        });
    }

    /// `extract` then `insert` into an empty fragment reproduces exactly
    /// the intersected data.
    #[test]
    fn fragment_extract_insert_round_trip(b1 in arb_box2(), b2 in arb_box2()) {
        let mut src = GridFragment::<i64, 2>::new(&BoxRegion::from_box(b1));
        src.for_each_mut(|p, v| *v = p[0] * 1000 + p[1]);
        let piece = src.extract(&BoxRegion::from_box(b2));
        prop_assert_eq!(piece.region(), BoxRegion::from_box(b1).intersect(&BoxRegion::from_box(b2)));
        let mut dst = GridFragment::<i64, 2>::empty();
        dst.insert(&piece);
        dst.for_each(|p, v| assert_eq!(*v, p[0] * 1000 + p[1]));
    }
}
