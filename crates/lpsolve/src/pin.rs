//! Bit-identity pins for the simplex.
//!
//! Each case solves one LP and checks its status and an FNV-1a hash over
//! the bits of every primal value. The generated cases are Fig. 5
//! relaxations shaped like the `synth-wide` benchmark views (14 candidates
//! with nested or overlapping covers, `k = 5`, `θ = 0.75`, `m` up to 500
//! groups); the rest are the small Fig. 5 instances of the unit tests.
//! Any change to the pivot sequence or to the floating-point operations
//! behind `b` moves a hash, so a rewrite of the solver's bookkeeping must
//! leave every pin untouched.

use table::bitset::BitSet;

use crate::cover::tests::{inst, uncovered_group};
use crate::cover::{relaxation_problem, CoverInstance};
use crate::simplex::tests::fig5_two_by_three;
use crate::simplex::{solve, LpProblem, LpStatus};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: a self-contained seeded stream, so the pinned instances do
/// not depend on any RNG crate's output.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Candidate count of a `synth-wide` view.
const L: usize = 14;

/// The cover shape of a `synth-wide` view: a laminar family of 2 halves,
/// 4 quarters and 8 eighths of the groups (14 candidates, each nested in
/// the one above it), split at jittered points and laid over a seeded
/// permutation of the groups. The weights sit in a narrow band, as the
/// explainability of near-identical treatments does.
fn laminar(m: usize, seed: u64) -> CoverInstance {
    let mut rng = SplitMix(seed);
    let mut perm: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut ranges = vec![(0, m)];
    let mut covers = Vec::with_capacity(L);
    for _ in 0..3 {
        let mut next = Vec::with_capacity(2 * ranges.len());
        for (lo, hi) in ranges {
            let mid = lo + ((hi - lo) as f64 * (0.4 + 0.2 * rng.unit())).round() as usize;
            next.extend([(lo, mid), (mid, hi)]);
        }
        for &(lo, hi) in &next {
            let mut c = BitSet::new(m);
            for &i in &perm[lo..hi] {
                c.insert(i);
            }
            covers.push(c);
        }
        ranges = next;
    }
    let weights = (0..L).map(|_| 11.0 + 0.3 * (rng.unit() - 0.5)).collect();
    instance(m, covers, weights)
}

/// Overlapping covers without structure: each candidate covers each group
/// independently with its own density in `[0.1, 0.5)`.
fn scattered(m: usize, seed: u64) -> CoverInstance {
    let mut rng = SplitMix(seed);
    let covers = (0..L)
        .map(|_| {
            let density = 0.1 + 0.4 * rng.unit();
            let mut c = BitSet::new(m);
            for i in 0..m {
                if rng.unit() < density {
                    c.insert(i);
                }
            }
            c
        })
        .collect();
    let weights = (0..L).map(|_| 0.5 + 10.0 * rng.unit()).collect();
    instance(m, covers, weights)
}

/// The default selection settings: `k = 5`, `θ = 0.75`.
fn instance(m: usize, covers: Vec<BitSet>, weights: Vec<f64>) -> CoverInstance {
    CoverInstance {
        weights,
        covers,
        m,
        k: 5,
        theta: 0.75,
    }
}

/// The four-pattern instance of the cover unit tests, with `(k, θ)`.
fn four_by_four(k: usize, theta: f64) -> CoverInstance {
    CoverInstance { k, theta, ..inst() }
}

fn check(name: &str, p: &LpProblem, status: LpStatus, hash: u64) {
    let s = solve(p);
    let got = fnv1a(&s.x);
    assert!(
        s.status == status && got == hash,
        "{name}: got ({:?}, {got:#018x}), pinned ({status:?}, {hash:#018x})",
        s.status
    );
}

#[test]
fn fig5_instances_are_pinned() {
    let cases: [(&str, LpProblem, LpStatus, u64); 5] = [
        (
            "4x4 k=2 θ=1",
            relaxation_problem(&four_by_four(2, 1.0)),
            LpStatus::Optimal,
            0xa937ce86cf890d85,
        ),
        (
            "4x4 k=1 θ=1",
            relaxation_problem(&four_by_four(1, 1.0)),
            LpStatus::Infeasible,
            0xb9b23f3a46fd0825,
        ),
        (
            "4x4 k=2 θ=0",
            relaxation_problem(&four_by_four(2, 0.0)),
            LpStatus::Optimal,
            0x907c7375dd6d5385,
        ),
        (
            "uncovered group",
            relaxation_problem(&uncovered_group()),
            LpStatus::Infeasible,
            0xa09d945a1cd8d6e5,
        ),
        (
            "2x3 k=1 θ=1",
            fig5_two_by_three(),
            LpStatus::Infeasible,
            0x40d69e0cf0f65c45,
        ),
    ];
    for (name, p, status, hash) in &cases {
        check(name, p, *status, *hash);
    }
}

#[test]
fn synth_wide_shaped_instances_are_pinned() {
    let pins: [(usize, u64, LpStatus, u64); 9] = [
        (20, 1, LpStatus::Optimal, 0x50819c10c127e145),
        (20, 2, LpStatus::Optimal, 0x0e3b312e0f6134a5),
        (20, 3, LpStatus::Optimal, 0x021494d1034c5323),
        (200, 1, LpStatus::Optimal, 0x078f3435dc9fc648),
        (200, 2, LpStatus::Optimal, 0xc0ecc8ca52975fb8),
        (200, 3, LpStatus::Optimal, 0x470583ef66539020),
        (500, 1, LpStatus::Optimal, 0xa7f4db5468452326),
        (500, 2, LpStatus::Optimal, 0x27231741a39c2f9e),
        (500, 3, LpStatus::Optimal, 0xcf70e7c6f6bbf2dc),
    ];
    for (m, seed, status, hash) in pins {
        let p = relaxation_problem(&laminar(m, seed));
        check(&format!("laminar m={m} seed={seed}"), &p, status, hash);
    }
}

#[test]
fn scattered_cover_instances_are_pinned() {
    let pins: [(usize, u64, LpStatus, u64); 4] = [
        (20, 1, LpStatus::Optimal, 0x224f6a087e43ba1c),
        (20, 2, LpStatus::Optimal, 0x707fe1214d5ec3ec),
        (200, 1, LpStatus::Optimal, 0x7cdfa2b614ea2856),
        (200, 2, LpStatus::Optimal, 0x636661dce04266db),
    ];
    for (m, seed, status, hash) in pins {
        let p = relaxation_problem(&scattered(m, seed));
        check(&format!("scattered m={m} seed={seed}"), &p, status, hash);
    }
}
