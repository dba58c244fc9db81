//! Property tests for [`ClockVector`] against a naive `Vec<u64>`
//! reference model, concentrated on the inline→spill boundary.
//!
//! The production vector keeps up to [`INLINE_SLOTS`] slots in a fixed
//! array and transparently spills to the heap for the 9th thread; the
//! contract is that the spill is *invisible* — every operator behaves
//! as if the vector were a plain `Vec<u64>` whose physical length (and
//! significant trailing zeros) match the naive model's. The model here
//! re-implements union/leq/intersect/set/get in the most obvious way
//! possible and the properties drive both through the same random
//! operation streams, biased so vectors straddle slots 7, 8, and 9.
//!
//! Like `tests/properties.rs`, cases are generated with the
//! workspace's seeded generator (`c11tester_core::rng`), so any failure
//! reproduces exactly by seed.

use c11tester_core::rng::Xoshiro256StarStar;
use c11tester_core::{ClockVector, ThreadId, INLINE_SLOTS};

const CASES: u64 = 512;

/// The naive reference: a growable `Vec<u64>` with the same
/// physical-length semantics (trailing zeros up to `len` are
/// significant for equality).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct NaiveCv(Vec<u64>);

impl NaiveCv {
    fn get(&self, ix: usize) -> u64 {
        self.0.get(ix).copied().unwrap_or(0)
    }

    fn set(&mut self, ix: usize, v: u64) {
        if self.0.len() <= ix {
            self.0.resize(ix + 1, 0);
        }
        self.0[ix] = v;
    }

    fn union_with(&mut self, other: &NaiveCv) -> bool {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        let mut changed = false;
        for (d, &o) in self.0.iter_mut().zip(&other.0) {
            if o > *d {
                *d = o;
                changed = true;
            }
        }
        changed
    }

    fn leq(&self, other: &NaiveCv) -> bool {
        (0..self.0.len().max(other.0.len())).all(|ix| self.get(ix) <= other.get(ix))
    }

    fn intersect(&self, other: &NaiveCv) -> NaiveCv {
        let n = self.0.len().min(other.0.len());
        NaiveCv((0..n).map(|ix| self.get(ix).min(other.get(ix))).collect())
    }
}

fn t(ix: usize) -> ThreadId {
    ThreadId::from_index(ix)
}

/// Asserts the production vector and the model agree on every
/// observable: physical length, every slot, and the exposed slice.
fn assert_agrees(cv: &ClockVector, model: &NaiveCv, ctx: &str) {
    assert_eq!(cv.len(), model.0.len(), "{ctx}: physical length");
    assert_eq!(cv.as_slice(), &model.0[..], "{ctx}: slice");
    // `get` past the physical length reads 0 on both sides.
    for ix in 0..model.0.len() + 3 {
        assert_eq!(cv.get(t(ix)), model.get(ix), "{ctx}: slot {ix}");
    }
    assert_eq!(
        cv.is_empty(),
        model.0.iter().all(|&v| v == 0),
        "{ctx}: is_empty"
    );
}

/// Draws a slot index biased toward the spill boundary: most writes
/// land on slots 6..=9 so vectors constantly cross `INLINE_SLOTS`.
fn boundary_slot(rng: &mut Xoshiro256StarStar) -> usize {
    if rng.gen_range(0..4u64) == 0 {
        rng.gen_range(0..INLINE_SLOTS + 4)
    } else {
        rng.gen_range(INLINE_SLOTS - 2..INLINE_SLOTS + 2)
    }
}

/// Builds a random (production, model) pair with `writes` random sets.
fn random_pair(rng: &mut Xoshiro256StarStar, writes: usize) -> (ClockVector, NaiveCv) {
    let mut cv = ClockVector::new();
    let mut model = NaiveCv::default();
    for _ in 0..writes {
        let ix = boundary_slot(rng);
        // Zero values are legal and exercise significant trailing zeros.
        let v = rng.gen_range(0..5u64);
        cv.set(t(ix), v);
        model.set(ix, v);
    }
    (cv, model)
}

#[test]
fn set_get_tracks_the_model_across_the_spill_boundary() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(seed);
        let n_cv = rng.gen_range(0..12usize);
        let (mut cv, mut model) = random_pair(&mut rng, n_cv);
        assert_agrees(&cv, &model, &format!("seed {seed} after build"));
        // A targeted walk across the boundary: slot 7, then 8, then 9.
        for ix in [INLINE_SLOTS - 1, INLINE_SLOTS, INLINE_SLOTS + 1] {
            let v = rng.gen_range(1..100u64);
            cv.set(t(ix), v);
            model.set(ix, v);
            assert_agrees(&cv, &model, &format!("seed {seed} slot {ix}"));
        }
        assert!(cv.is_spilled(), "slot {INLINE_SLOTS} must spill");
    }
}

#[test]
fn union_with_matches_the_model_and_its_changed_flag() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x5EED ^ seed);
        let n_a = rng.gen_range(0..10usize);
        let (mut a, mut ma) = random_pair(&mut rng, n_a);
        let n_b = rng.gen_range(0..10usize);
        let (b, mb) = random_pair(&mut rng, n_b);
        let changed = a.union_with(&b);
        let model_changed = ma.union_with(&mb);
        assert_eq!(changed, model_changed, "seed {seed}: changed flag");
        assert_agrees(&a, &ma, &format!("seed {seed} after union"));
        // Union is idempotent and reports no change the second time.
        assert!(!a.union_with(&b), "seed {seed}: idempotent union");
        // Both inputs are ≤ the union.
        assert!(b.leq(&a), "seed {seed}: rhs ≤ union");
    }
}

#[test]
fn leq_and_eq_match_the_model() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xAB1E ^ seed);
        let n_a = rng.gen_range(0..10usize);
        let (a, ma) = random_pair(&mut rng, n_a);
        let n_b = rng.gen_range(0..10usize);
        let (b, mb) = random_pair(&mut rng, n_b);
        assert_eq!(a.leq(&b), ma.leq(&mb), "seed {seed}: a ≤ b");
        assert_eq!(b.leq(&a), mb.leq(&ma), "seed {seed}: b ≤ a");
        // PartialEq compares physical slices — length included.
        assert_eq!(a == b, ma == mb, "seed {seed}: equality");
        assert!(a.leq(&a), "seed {seed}: reflexive");
    }
}

#[test]
fn intersect_matches_the_model() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x1234 ^ seed);
        let n_a = rng.gen_range(0..10usize);
        let (a, ma) = random_pair(&mut rng, n_a);
        let n_b = rng.gen_range(0..10usize);
        let (b, mb) = random_pair(&mut rng, n_b);
        let i = a.intersect(&b);
        let mi = ma.intersect(&mb);
        assert_agrees(&i, &mi, &format!("seed {seed} intersection"));
        // The intersection is ≤ both inputs.
        assert!(i.leq(&a) && i.leq(&b), "seed {seed}: lower bound");
    }
}

#[test]
fn clear_and_release_preserve_the_model_semantics() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xC1EA ^ seed);
        let n_a = rng.gen_range(0..12usize);
        let (mut a, _) = random_pair(&mut rng, n_a);
        let spilled = a.is_spilled();
        let mut b = a.clone();
        // `clear` keeps backing storage; `release` drops the spill.
        a.clear();
        b.release();
        assert_eq!(a.len(), 0, "seed {seed}: clear zeroes length");
        assert_eq!(b.len(), 0, "seed {seed}: release zeroes length");
        assert_eq!(a.is_spilled(), spilled, "seed {seed}: clear keeps heap");
        assert!(!b.is_spilled(), "seed {seed}: release returns inline");
        assert_eq!(a, b, "seed {seed}: both are logically empty");
        // Repopulating after either works identically.
        let ix = boundary_slot(&mut rng);
        let v = rng.gen_range(1..50u64);
        a.set(t(ix), v);
        b.set(t(ix), v);
        assert_eq!(a, b, "seed {seed}: repopulated equal");
        assert_eq!(a.get(t(ix)), v, "seed {seed}: repopulated value");
    }
}

#[test]
fn iter_nonzero_matches_the_model() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x17E4 ^ seed);
        let n_a = rng.gen_range(0..12usize);
        let (a, ma) = random_pair(&mut rng, n_a);
        let got: Vec<(usize, u64)> = a.iter_nonzero().map(|(tid, v)| (tid.index(), v)).collect();
        let want: Vec<(usize, u64)> =
            ma.0.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0)
                .map(|(ix, &v)| (ix, v))
                .collect();
        assert_eq!(got, want, "seed {seed}: nonzero iteration");
    }
}
