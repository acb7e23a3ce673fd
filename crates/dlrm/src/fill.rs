//! The fill behind [`crate::embedding::EmbeddingTable::random`]: the
//! vendored `StdRng::seed_from_u64(seed)` stream of `gen::<f32>() - 0.5`,
//! bit for bit, written eight lanes at a time where the CPU has AVX-512F.
//!
//! One draw is a short chain of dependent integer operations, so a scalar
//! fill is bound by that chain's latency, not by the memory it writes
//! (paper-size tables are 32 M draws: most of a cold start). Eight streams
//! advanced side by side fill the vector unit instead. Each chunk of
//! [`CHUNK`] values is cut into eight consecutive runs of [`LANE_LEN`], and
//! lane `l` starts where lane `l − 1`'s run ends: [`LANE_LEN`] steps further
//! down the same stream, reached with xoshiro's jump ([`JUMP_2_16`]). Lane 7
//! ends where the next chunk starts. The tail (less than one chunk) and
//! CPUs without AVX-512F take the scalar loop from wherever the lanes left
//! the stream.
//!
//! No bit can differ from the scalar stream: the generator is the vendored
//! one step for step (pinned by test), and the conversion is exact at every
//! step — `r >> 40` is below 2²⁴, scaling it by 2⁻²⁴ is exact, and so is
//! subtracting 0.5 from `k / 2²⁴`.

/// Values per lane per chunk: lane `l` starts this many steps after lane
/// `l − 1`.
const LANE_LEN: usize = 1 << 16;
/// Streams advanced side by side: one 512-bit register per state word.
const LANES: usize = 8;
/// Values per chunk of the lane fill.
pub(crate) const CHUNK: usize = LANES * LANE_LEN;
/// Steps taken per lane before the lanes are written back, so each lane
/// writes `STEPS` consecutive values at once.
const STEPS: usize = 8;

/// `x^(2^16)` modulo the characteristic polynomial of xoshiro256's linear
/// engine: bit `i` (word `i / 64`, bit `i % 64`) is the coefficient of
/// `x^i`. [`Xoshiro::jump`] over it advances a state by exactly
/// [`LANE_LEN`] steps. The test module derives it from the generator's own
/// output, along with the reference `JUMP` (`2^128`) and `LONG_JUMP`
/// (`2^192`) constants.
const JUMP_2_16: [u64; 4] = [
    0x7e89_ac5c_a2fb_f2c7,
    0x92ae_7ca3_70c0_bf6b,
    0xef43_beaa_06f0_2fb8,
    0xd87f_8ce2_3081_7a21,
];

/// xoshiro256** over `N` independent states, stored word-major (`s[w][l]`
/// is word `w` of lane `l`), so one step is element-wise work over `N`
/// lanes: one register per word at `N = 8` under AVX-512. At `N = 1` it is
/// the vendored `StdRng`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Xoshiro<const N: usize> {
    s: [[u64; N]; 4],
}

impl Xoshiro<1> {
    /// The vendored `StdRng::seed_from_u64`: SplitMix64 expands the seed
    /// into the four state words.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro {
            s: [[next()], [next()], [next()], [next()]],
        }
    }

    /// The next output of the stream.
    fn next_u64(&mut self) -> u64 {
        self.step()[0]
    }

    /// xoshiro's reference jump loop: advances the state by `n` steps,
    /// where bit `i` of `poly` is the coefficient of `x^i` in `x^n` modulo
    /// the characteristic polynomial.
    fn jump(&mut self, poly: &[u64; 4]) {
        let mut t = [0u64; 4];
        for &word in poly {
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    for (t, s) in t.iter_mut().zip(&self.s) {
                        *t ^= s[0];
                    }
                }
                self.step();
            }
        }
        self.s = t.map(|w| [w]);
    }
}

impl<const N: usize> Xoshiro<N> {
    /// One xoshiro256** step of every lane: the lanes' outputs. Written a
    /// whole word at a time, so each line is one vector operation; the
    /// output's `× 5` and `× 9` are shift-and-add, as AVX-512F has no
    /// 64-bit lane multiply.
    #[inline(always)]
    fn step(&mut self) -> [u64; N] {
        let [s0, s1, s2, s3] = &mut self.s;
        let (mut out, mut t) = ([0u64; N], [0u64; N]);
        for l in 0..N {
            let x = s1[l].wrapping_add(s1[l] << 2).rotate_left(7);
            out[l] = x.wrapping_add(x << 3);
            t[l] = s1[l] << 17;
        }
        xor_assign(s2, s0);
        xor_assign(s3, s1);
        xor_assign(s1, s2);
        xor_assign(s0, s3);
        xor_assign(s2, &t);
        for w in s3.iter_mut() {
            *w = w.rotate_left(45);
        }
        out
    }
}

/// `a[l] ^= b[l]` for every lane.
#[inline(always)]
fn xor_assign<const N: usize>(a: &mut [u64; N], b: &[u64; N]) {
    for (a, b) in a.iter_mut().zip(b) {
        *a ^= b;
    }
}

/// `gen::<f32>() - 0.5` of the vendored `StdRng` for the draw `r`. `r >> 40`
/// is below 2²⁴, so it converts through `i32` exactly (one vector convert;
/// AVX-512F has none from 64-bit lanes).
#[inline(always)]
fn centred_unit(r: u64) -> f32 {
    (r >> 40) as i32 as f32 * (1.0 / (1u64 << 24) as f32) - 0.5
}

/// Writes the `StdRng::seed_from_u64(seed)` stream of `gen::<f32>() - 0.5`
/// into `data`: whole chunks on the lanes where the CPU has AVX-512F, the
/// rest one draw at a time.
pub(crate) fn fill_centred_uniform(data: &mut [f32], seed: u64) {
    let mut rng = Xoshiro::seed_from_u64(seed);
    let done = fill_chunks(&mut rng, data);
    for x in &mut data[done..] {
        *x = centred_unit(rng.next_u64());
    }
}

/// Fills the whole [`CHUNK`]s at the head of `data` on AVX-512F lanes and
/// leaves `rng` where the next value's draw starts; returns how many values
/// it wrote (none without AVX-512F: an AVX2 build of the lanes is slower
/// than the scalar loop).
fn fill_chunks(rng: &mut Xoshiro<1>, data: &mut [f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx512_available() {
        // SAFETY: guarded by the runtime AVX-512F check above.
        return unsafe { fill_chunks_avx512(rng, data) };
    }
    // No lanes here: everything is the scalar loop's.
    let _ = (rng, data);
    0
}

/// [`fill_chunks_impl`] compiled with AVX-512F codegen.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: unsafe solely because of `#[target_feature(enable = "avx512f")]`
// — the body is safe Rust (bounds-checked slices, no raw pointers)
// recompiled under AVX-512F codegen. Sole precondition: the running CPU
// supports AVX-512F, verified by the one caller (`fill_chunks`) via
// `avx512_available()` (cached `is_x86_feature_detected!`) first.
unsafe fn fill_chunks_avx512(rng: &mut Xoshiro<1>, data: &mut [f32]) -> usize {
    fill_chunks_impl(rng, data)
}

/// Body of the lane fill; `inline(always)` so the `target_feature` wrapper
/// re-compiles it under AVX-512F codegen.
///
/// Per chunk: the lanes start where [`lane_starts`] puts them, step
/// [`STEPS`] times into a block, and each lane writes its `STEPS` values to
/// its own run.
#[inline(always)]
fn fill_chunks_impl(rng: &mut Xoshiro<1>, data: &mut [f32]) -> usize {
    let (chunks, _) = data.as_chunks_mut::<CHUNK>();
    for chunk in chunks.iter_mut() {
        let mut lanes = lane_starts(rng);
        let (runs, _) = chunk.as_chunks_mut::<LANE_LEN>();
        for i in (0..LANE_LEN).step_by(STEPS) {
            let mut block = [[0.0f32; LANES]; STEPS];
            for values in &mut block {
                let r = lanes.step();
                for (v, &r) in values.iter_mut().zip(&r) {
                    *v = centred_unit(r);
                }
            }
            for (l, run) in runs.iter_mut().enumerate() {
                for (x, values) in run[i..i + STEPS].iter_mut().zip(&block) {
                    *x = values[l];
                }
            }
        }
        // The last lane ran up to where the next chunk starts.
        rng.s = lanes.s.map(|word| [word[LANES - 1]]);
    }
    chunks.len() * CHUNK
}

/// The lanes of a chunk that starts at `rng`: lane 0 there, each next lane
/// one jump of [`LANE_LEN`] steps further.
///
/// Never inlined: in the lane loop's function, these seven scalar jump
/// loops keep LLVM from vectorizing the lanes under the release profile's
/// thin LTO. Five paper-size tables then took 31 ms to build, as with the
/// scalar loop; with the jumps out of line, 12.7 ms.
#[inline(never)]
fn lane_starts(rng: &Xoshiro<1>) -> Xoshiro<LANES> {
    let mut lanes = Xoshiro { s: [[0; LANES]; 4] };
    let mut start = *rng;
    for l in 0..LANES {
        if l > 0 {
            start.jump(&JUMP_2_16);
        }
        for (word, s) in lanes.s.iter_mut().zip(&start.s) {
            word[l] = s[0];
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    const SEEDS: [u64; 4] = [0, 1, 9, u64::MAX];

    #[test]
    fn the_replica_is_the_vendored_std_rng() {
        for seed in SEEDS {
            let mut ours = Xoshiro::seed_from_u64(seed);
            let mut theirs = StdRng::seed_from_u64(seed);
            for i in 0..1000 {
                assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed}, draw {i}");
            }
        }
    }

    #[test]
    fn the_jump_is_lane_len_single_steps() {
        let states = if cfg!(miri) { &SEEDS[..1] } else { &SEEDS[..] };
        for &seed in states {
            let mut jumped = Xoshiro::seed_from_u64(seed);
            // Start mid-stream too, not only at a freshly seeded state.
            for _ in 0..seed % 1000 {
                jumped.next_u64();
            }
            let mut stepped = jumped;
            jumped.jump(&JUMP_2_16);
            for _ in 0..LANE_LEN {
                stepped.next_u64();
            }
            assert_eq!(jumped, stepped, "seed {seed}");
        }
    }

    /// Connection polynomial `1 + c₁x + … + c_L x^L` (coefficients low to
    /// high) of the shortest LFSR that generates `bits`, over GF(2).
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let n = bits.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        (c[0], b[0]) = (1, 1);
        let (mut len, mut shift) = (0, 1);
        for i in 0..n {
            let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 0 {
                shift += 1;
                continue;
            }
            let previous = c.clone();
            for j in 0..=n - shift {
                c[j + shift] ^= b[j];
            }
            if 2 * len <= i {
                (len, b, shift) = (i + 1 - len, previous, 1);
            } else {
                shift += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    /// `x^(2^e)` modulo the monic `poly` (coefficients low to high): `e`
    /// squarings of `x`, as 64-bit words in the jump constants' order.
    fn x_to_the_2_to_the(e: u32, poly: &[u8]) -> [u64; 4] {
        let deg = poly.len() - 1;
        let mut r = vec![0u8; deg];
        r[1] = 1;
        for _ in 0..e {
            let mut sq = vec![0u8; 2 * deg - 1];
            for (i, &bit) in r.iter().enumerate() {
                sq[2 * i] = bit;
            }
            for top in (deg..sq.len()).rev() {
                if sq[top] == 1 {
                    for (j, &p) in poly.iter().enumerate() {
                        sq[top - deg + j] ^= p;
                    }
                }
            }
            sq.truncate(deg);
            r = sq;
        }
        std::array::from_fn(|w| (0..64).fold(0, |word, b| word | (r[w * 64 + b] as u64) << b))
    }

    #[test]
    fn the_jump_constant_is_derived_from_the_generator() {
        // Any one state bit is a linear sequence whose minimal polynomial
        // is the (primitive, degree-256) characteristic polynomial, so
        // 2 · 256 bits of it determine the polynomial.
        let mut rng = Xoshiro::seed_from_u64(1);
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let bit = (rng.s[0][0] & 1) as u8;
                rng.step();
                bit
            })
            .collect();
        let mut charpoly = berlekamp_massey(&bits);
        assert_eq!(charpoly.len(), 257, "degree 256");
        // The characteristic polynomial is the connection polynomial
        // reversed.
        charpoly.reverse();
        assert_eq!(x_to_the_2_to_the(16, &charpoly), JUMP_2_16);
        // The reference implementation's JUMP and LONG_JUMP.
        let jump = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let long_jump = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        if !cfg!(miri) {
            assert_eq!(x_to_the_2_to_the(128, &charpoly), jump);
            assert_eq!(x_to_the_2_to_the(192, &charpoly), long_jump);
        }
    }
}
