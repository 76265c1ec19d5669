//! (n,k) erasure coding over GF(2^8) for Slice coded block layouts.
//!
//! The paper's block service stops at mirroring (§2.2); this crate supplies
//! the arithmetic for the coded alternative: a systematic Reed-Solomon-style
//! code built from a Cauchy parity matrix, so every stripe of n shards
//! (k data + n−k parity) is decodable from *any* k survivors. The codec is
//! pure byte math with no dependencies; placement and transport live in the
//! storage and µproxy crates.
//!
//! Layout convention shared by the whole stack (see `CodedLayout`): a stripe
//! is one block-map block of `stripe_unit` bytes, split into k data shards
//! of `stripe_unit / k` bytes. Data shard j of stripe s holds the file bytes
//! `[s·U + j·S, s·U + (j+1)·S)` and is stored at those *same* object offsets
//! on its site, so clean reads are plain per-shard reads and an idle storage
//! node cannot tell a coded object from a striped one. Parity shard p of
//! stripe s is stored at object offsets `[s·U + p·S, s·U + (p+1)·S)` on its
//! own site; position q of every parity shard covers position q of every
//! data shard. Because the code is linear with zero constant term, holes
//! (never-written regions read as zeros) are self-consistent: zero data
//! encodes to zero parity.

// The workspace's one `unsafe` block is the call into the AVX2 kernel in
// `xor_scaled`; every other crate root says `forbid` (DESIGN.md §13).
#![deny(unsafe_code)]
#![warn(missing_docs)]

/// GF(2^8) log/antilog tables for the AES-adjacent polynomial 0x11d.
const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    (log, exp)
}

static TABLES: ([u8; 256], [u8; 512]) = build_tables();

/// Multiplies two field elements.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (log, exp) = (&TABLES.0, &TABLES.1);
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// Multiplicative inverse; panics on zero (no inverse exists).
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    let (log, exp) = (&TABLES.0, &TABLES.1);
    exp[255 - log[a as usize] as usize]
}

/// `dst ^= c * src`, element-wise — the inner loop of encode and decode.
///
/// Panics if the lengths differ: a shorter `src` would leave stale parity
/// behind the bytes it did cover. On an x86-64 host with AVX2 the work is
/// done by `xor_scaled_avx2`; everywhere else, and as the reference the
/// tests hold the kernel to, by `xor_scaled_scalar`. Same field, same
/// products: the bytes written do not depend on the host.
#[inline]
#[allow(unsafe_code)]
pub fn xor_scaled(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_scaled operands differ in length");
    #[cfg(target_arch = "x86_64")]
    if c != 0 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `xor_scaled_avx2` is a safe function whose only
        // requirement on its caller is the `avx2` target feature, and the
        // run-time detection on the line above has just confirmed this CPU
        // has it. It takes two slices and touches memory only through them.
        unsafe { xor_scaled_avx2(dst, c, src) };
        return;
    }
    xor_scaled_scalar(dst, c, src);
}

/// The portable log/exp loop: the only path on a host without AVX2, and
/// the definition of the right answer on one with it.
fn xor_scaled_scalar(dst: &mut [u8], c: u8, src: &[u8]) {
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let (log, exp) = (&TABLES.0, &TABLES.1);
    let lc = log[c as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s != 0 {
            *d ^= exp[lc + log[s as usize] as usize];
        }
    }
}

/// The split-nibble kernel (ISA-L; Plank et al., "Screaming Fast Galois
/// Field Arithmetic Using Intel SIMD Instructions"). Multiplication by a
/// constant is linear over GF(2), so `c·s = c·(s & 0x0f) ^ c·(s & 0xf0)`:
/// two 16-entry tables per coefficient, each small enough for `vpshufb`
/// to look up 32 bytes at a time. No table outlives the call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xor_scaled_avx2(dst: &mut [u8], c: u8, src: &[u8]) {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_extract_epi64, _mm256_set1_epi8, _mm256_set_epi64x,
        _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_xor_si256,
    };

    // Lane moves spelled with safe integer intrinsics; LLVM folds each
    // into one unaligned `vmovdqu`.
    #[target_feature(enable = "avx2")]
    fn load(b: &[u8]) -> __m256i {
        let q = |i: usize| i64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        _mm256_set_epi64x(q(3), q(2), q(1), q(0))
    }
    #[target_feature(enable = "avx2")]
    fn store(b: &mut [u8], v: __m256i) {
        b[0..8].copy_from_slice(&_mm256_extract_epi64::<0>(v).to_le_bytes());
        b[8..16].copy_from_slice(&_mm256_extract_epi64::<1>(v).to_le_bytes());
        b[16..24].copy_from_slice(&_mm256_extract_epi64::<2>(v).to_le_bytes());
        b[24..32].copy_from_slice(&_mm256_extract_epi64::<3>(v).to_le_bytes());
    }

    // `vpshufb` indexes within each 128-bit half, so both halves carry
    // the same 16 products.
    let mut lo = [0u8; 32];
    let mut hi = [0u8; 32];
    for i in 0..16 {
        lo[i] = gf_mul(c, i as u8);
        lo[i + 16] = lo[i];
        hi[i] = gf_mul(c, (i as u8) << 4);
        hi[i + 16] = hi[i];
    }
    let (lo, hi) = (load(&lo), load(&hi));
    let nibble = _mm256_set1_epi8(0x0f);

    let mut d32 = dst.chunks_exact_mut(32);
    let mut s32 = src.chunks_exact(32);
    for (d, s) in d32.by_ref().zip(s32.by_ref()) {
        let s = load(s);
        let low = _mm256_and_si256(s, nibble);
        let high = _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble);
        let product = _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high));
        let sum = _mm256_xor_si256(load(d), product);
        store(d, sum);
    }
    for (d, &s) in d32.into_remainder().iter_mut().zip(s32.remainder()) {
        *d ^= gf_mul(c, s);
    }
}

/// A systematic (n,k) codec: k data shards, n−k Cauchy parity shards.
///
/// The generator is `[I_k; C]` where `C[p][j] = 1 / (x_p + y_j)` with
/// `x_p = k + p`, `y_j = j`. Every square submatrix of a Cauchy matrix is
/// invertible, which makes every k×k row-submatrix of the generator
/// invertible — i.e. any k of the n shards reconstruct the stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codec {
    n: usize,
    k: usize,
    /// Parity rows: `(n-k) × k` coefficients.
    rows: Vec<Vec<u8>>,
}

impl Codec {
    /// Builds the codec; requires `0 < k < n ≤ 128`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n && n <= 128, "invalid (n,k)=({n},{k})");
        let rows = (0..n - k)
            .map(|p| {
                (0..k)
                    .map(|j| gf_inv((k + p) as u8 ^ j as u8))
                    .collect::<Vec<u8>>()
            })
            .collect();
        Codec { n, k, rows }
    }

    /// Total shard count n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data shard count k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The parity coefficient applied to data shard `j` in parity row `p`.
    pub fn coef(&self, p: usize, j: usize) -> u8 {
        self.rows[p][j]
    }

    /// Encodes parity shard `p` over `data` (k equal-length slices).
    pub fn parity_row(&self, p: usize, data: &[&[u8]]) -> Vec<u8> {
        assert_eq!(data.len(), self.k);
        let len = data[0].len();
        let mut out = vec![0u8; len];
        for (j, d) in data.iter().enumerate() {
            assert_eq!(d.len(), len);
            xor_scaled(&mut out, self.rows[p][j], d);
        }
        out
    }

    /// Encodes all n−k parity shards over `data`.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        (0..self.n - self.k)
            .map(|p| self.parity_row(p, data))
            .collect()
    }

    /// Incrementally folds a data-shard change into one parity shard:
    /// `parity ^= C[p][j] · (old ^ new)`, without the other k−1 data
    /// shards. Nothing in the stack calls it: the µproxy's partial write
    /// gathers k windows, decodes and re-encodes (`coded_write_phase1`),
    /// and moving it to delta parity would change the simulated leg
    /// pattern (DESIGN.md §13). It is kept as the arithmetic identity the
    /// tests and the benchmark's probe exercise.
    pub fn update_parity(&self, parity: &mut [u8], p: usize, j: usize, old: &[u8], new: &[u8]) {
        assert_eq!(old.len(), new.len());
        assert_eq!(parity.len(), new.len());
        let delta: Vec<u8> = old.iter().zip(new).map(|(&a, &b)| a ^ b).collect();
        xor_scaled(parity, self.rows[p][j], &delta);
    }

    /// The generator row for shard index `idx` (unit row for data shards,
    /// Cauchy row for parity shards), restricted to the k data columns.
    fn generator_row(&self, idx: usize) -> Vec<u8> {
        if idx < self.k {
            let mut r = vec![0u8; self.k];
            r[idx] = 1;
            r
        } else {
            self.rows[idx - self.k].clone()
        }
    }

    /// Recovers the k data shards from any k present shards.
    ///
    /// `shards` has one slot per shard index 0..n; exactly the `Some`
    /// entries are used (the first k of them, so passing precisely k
    /// selects the subset). Returns `None` if fewer than k are present or
    /// lengths disagree.
    pub fn decode(&self, shards: &[Option<&[u8]>]) -> Option<Vec<Vec<u8>>> {
        assert_eq!(shards.len(), self.n);
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .take(self.k)
            .collect();
        if present.len() < self.k {
            return None;
        }
        let len = shards[present[0]]?.len();
        if present
            .iter()
            .any(|&i| shards[i].map(<[u8]>::len) != Some(len))
        {
            return None;
        }
        let m: Vec<Vec<u8>> = present.iter().map(|&i| self.generator_row(i)).collect();
        let inv = invert(m)?;
        let out = (0..self.k)
            .map(|j| {
                let mut shard = vec![0u8; len];
                for (r, &i) in present.iter().enumerate() {
                    xor_scaled(&mut shard, inv[j][r], shards[i].unwrap());
                }
                shard
            })
            .collect();
        Some(out)
    }

    /// Rebuilds the single shard `idx` (data or parity) from any k present
    /// shards — the resync path for a recovering site.
    pub fn reconstruct_shard(&self, shards: &[Option<&[u8]>], idx: usize) -> Option<Vec<u8>> {
        assert!(idx < self.n);
        if let Some(s) = shards[idx] {
            return Some(s.to_vec());
        }
        let data = self.decode(shards)?;
        if idx < self.k {
            return Some(data[idx].clone());
        }
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        Some(self.parity_row(idx - self.k, &refs))
    }
}

/// Inverts a k×k matrix over GF(2^8) by Gauss-Jordan elimination.
fn invert(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let k = m.len();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let mut r = vec![0u8; k];
            r[i] = 1;
            r
        })
        .collect();
    for col in 0..k {
        let pivot = (col..k).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let pinv = gf_inv(m[col][col]);
        for x in 0..k {
            m[col][x] = gf_mul(m[col][x], pinv);
            inv[col][x] = gf_mul(inv[col][x], pinv);
        }
        for row in 0..k {
            if row == col || m[row][col] == 0 {
                continue;
            }
            let c = m[row][col];
            for x in 0..k {
                let (mc, ic) = (m[col][x], inv[col][x]);
                m[row][x] ^= gf_mul(c, mc);
                inv[row][x] ^= gf_mul(c, ic);
            }
        }
    }
    Some(inv)
}

/// Enumerates all k-element subsets of `0..n` in lexicographic order — the
/// checker walks these to prove every stripe decodable from every quorum.
pub fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Stripe geometry shared by the µproxy, coordinator, and checker.
///
/// One stripe is one `stripe_unit`-byte block of the file; data shard j of
/// stripe s covers file bytes `[s·U + j·S, s·U + (j+1)·S)` (stored at the
/// same object offsets on site `sites[j]`); parity shard p is stored at
/// object offsets `[s·U + p·S, s·U + (p+1)·S)` on site `sites[k+p]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedLayout {
    /// Total shards per stripe.
    pub n: u32,
    /// Data shards per stripe.
    pub k: u32,
    /// Stripe (block) size in bytes; must be divisible by k.
    pub stripe_unit: u64,
}

impl CodedLayout {
    /// Builds the layout; `stripe_unit` must divide evenly into k shards.
    pub fn new(n: u32, k: u32, stripe_unit: u64) -> Self {
        assert!(k > 0 && k < n, "invalid (n,k)=({n},{k})");
        // Parity shard p lives at object offsets [s·U + p·S, +S); with more
        // than k parity shards those offsets would spill past the stripe's
        // own extent and collide with neighbouring stripes on shared sites.
        assert!(n - k <= k, "(n,k)=({n},{k}) needs at most k parity shards");
        assert_eq!(
            stripe_unit % u64::from(k),
            0,
            "stripe unit not divisible by k"
        );
        CodedLayout { n, k, stripe_unit }
    }

    /// Shard size S = U / k.
    pub fn shard_size(&self) -> u64 {
        self.stripe_unit / u64::from(self.k)
    }

    /// The stripe (block) index containing file offset `off`.
    pub fn stripe_of(&self, off: u64) -> u64 {
        off / self.stripe_unit
    }

    /// The object offset of position `pos` of shard `idx` in stripe `s`
    /// (identical formula for data and parity shards: both live at
    /// `s·U + role·S + pos` where role is j for data, p for parity).
    pub fn shard_obj_offset(&self, s: u64, idx: u32, pos: u64) -> u64 {
        let role = if idx < self.k { idx } else { idx - self.k };
        s * self.stripe_unit + u64::from(role) * self.shard_size() + pos
    }

    /// Intersects file range `[off, off+len)` with data shard `j` of
    /// stripe `s`: returns the local position window `[lo, hi)` within the
    /// shard, empty (`lo == hi`) if disjoint.
    pub fn data_window(&self, s: u64, j: u32, off: u64, len: u64) -> (u64, u64) {
        let size = self.shard_size();
        let base = s * self.stripe_unit + u64::from(j) * size;
        let lo = off.max(base).min(base + size);
        let hi = (off + len).max(base).min(base + size);
        (lo - base, hi - base)
    }

    /// The parity position window (hull) touched by file range
    /// `[off, off+len)` within stripe `s`: the union of the touched data
    /// shards' local windows, widened to an interval.
    pub fn parity_window(&self, s: u64, off: u64, len: u64) -> (u64, u64) {
        let mut lo = self.shard_size();
        let mut hi = 0;
        for j in 0..self.k {
            let (a, b) = self.data_window(s, j, off, len);
            if a < b {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        if lo >= hi {
            (0, 0)
        } else {
            (lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(2685821657736338717).max(1);
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    fn shards_for(codec: &Codec, len: usize) -> Vec<Vec<u8>> {
        let data: Vec<Vec<u8>> = (0..codec.k()).map(|j| pattern(j as u64 + 1, len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = codec.encode(&refs);
        data.into_iter().chain(parity).collect()
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        for a in [3u8, 7, 91, 200] {
            for b in [5u8, 17, 130, 255] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
            }
        }
    }

    /// `xor_scaled` against the scalar loop. On a host without AVX2 (or
    /// not x86-64) `xor_scaled` *is* the scalar loop and this compares the
    /// reference with itself; it still runs, so the suite is the same
    /// everywhere.
    #[test]
    fn xor_scaled_matches_scalar_reference_on_this_host() {
        let mut lens: Vec<usize> = (0..=97).collect();
        lens.extend([4095, 4096, 4097, 32768]);
        let src = pattern(7, 32768 + 3);
        let acc = pattern(8, 32768 + 3);
        // Sub-slice starts 0..4 misalign each operand against the 32-byte
        // step; the non-zero `acc` checks accumulation.
        for &len in &lens {
            for doff in 0..4 {
                for soff in 0..4 {
                    let s = &src[soff..soff + len];
                    for c in 0..=255u8 {
                        let mut got = acc[doff..doff + len].to_vec();
                        let mut want = got.clone();
                        xor_scaled(&mut got, c, s);
                        xor_scaled_scalar(&mut want, c, s);
                        assert_eq!(got, want, "c={c} len={len} doff={doff} soff={soff}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn xor_scaled_rejects_unequal_lengths() {
        // Also in release builds (CI runs this crate with `--release`):
        // zipping to the shorter slice would leave stale parity behind.
        xor_scaled(&mut [0u8; 64], 3, &[0u8; 63]);
    }

    fn fnv1a(shards: &[Vec<u8>]) -> u64 {
        shards
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Parity bytes pinned to the values the byte-at-a-time loop produced
    /// at 3a56c1e, before any SIMD path existed. A kernel that is wrong
    /// but linear still round-trips through its own decode (and through
    /// the oracles, which share this `Codec`); it cannot reproduce these.
    #[test]
    fn encode_output_is_pinned_to_history() {
        for (n, k, len, want) in [
            (4, 2, 32768, 0xf63a_6821_8d84_5dae_u64),
            (4, 2, 177, 0x49d0_7009_e9a0_7544),
            (6, 4, 32768, 0x116a_3bd3_63b4_d0c9),
            (6, 4, 177, 0xb680_f0ac_59b0_0b72),
        ] {
            let codec = Codec::new(n, k);
            let got = fnv1a(&shards_for(&codec, len)[k..]);
            assert_eq!(got, want, "({n},{k}) len {len}: parity hash {got:#018x}");
        }
    }

    #[test]
    fn every_k_subset_decodes_every_config() {
        for (n, k) in [(3, 2), (4, 2), (5, 3), (6, 4)] {
            let codec = Codec::new(n, k);
            let all = shards_for(&codec, 64);
            for subset in k_subsets(n, k) {
                let mut slots: Vec<Option<&[u8]>> = vec![None; n];
                for &i in &subset {
                    slots[i] = Some(all[i].as_slice());
                }
                let data = codec.decode(&slots).expect("k present shards decode");
                for j in 0..k {
                    assert_eq!(
                        data[j], all[j],
                        "(n,k)=({n},{k}) subset {subset:?} shard {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstructs_every_single_and_double_erasure() {
        for (n, k) in [(4, 2), (6, 4)] {
            let codec = Codec::new(n, k);
            let all = shards_for(&codec, 48);
            let mut patterns: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            for a in 0..n {
                for b in a + 1..n {
                    patterns.push(vec![a, b]);
                }
            }
            for erased in patterns {
                let mut slots: Vec<Option<&[u8]>> =
                    all.iter().map(|s| Some(s.as_slice())).collect();
                for &i in &erased {
                    slots[i] = None;
                }
                for &i in &erased {
                    let got = codec.reconstruct_shard(&slots, i).expect("reconstructible");
                    assert_eq!(got, all[i], "(n,k)=({n},{k}) erased {erased:?} shard {i}");
                }
            }
        }
    }

    #[test]
    fn too_few_shards_fail_cleanly() {
        let codec = Codec::new(4, 2);
        let all = shards_for(&codec, 16);
        let mut slots: Vec<Option<&[u8]>> = vec![None; 4];
        slots[3] = Some(all[3].as_slice());
        assert!(codec.decode(&slots).is_none());
        assert!(codec.reconstruct_shard(&slots, 0).is_none());
    }

    #[test]
    fn incremental_parity_update_matches_reencode() {
        let codec = Codec::new(6, 4);
        let len = 96;
        let mut data: Vec<Vec<u8>> = (0..4).map(|j| pattern(j + 10, len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = codec.encode(&refs);
        // Overwrite a window of shard 2 and fold the delta into parity.
        let old = data[2][17..61].to_vec();
        let new = pattern(99, 44);
        for (p, row) in parity.iter_mut().enumerate() {
            codec.update_parity(&mut row[17..61], p, 2, &old, &new);
        }
        data[2][17..61].copy_from_slice(&new);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        assert_eq!(parity, codec.encode(&refs), "incremental == full re-encode");
    }

    #[test]
    fn zero_data_encodes_zero_parity() {
        // Holes read as zeros; linearity keeps never-written regions
        // parity-consistent without any writes.
        let codec = Codec::new(6, 4);
        let zeros = vec![vec![0u8; 32]; 4];
        let refs: Vec<&[u8]> = zeros.iter().map(Vec::as_slice).collect();
        for p in codec.encode(&refs) {
            assert!(p.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn subset_enumeration_is_complete() {
        assert_eq!(k_subsets(4, 2).len(), 6);
        assert_eq!(k_subsets(6, 4).len(), 15);
        assert_eq!(k_subsets(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn layout_geometry() {
        let l = CodedLayout::new(6, 4, 64 * 1024);
        assert_eq!(l.shard_size(), 16 * 1024);
        assert_eq!(l.stripe_of(70_000), 1);
        // Data shard 1 of stripe 0 covers file bytes [16K, 32K) at the
        // same object offsets; parity shard index 4 (p=0) of stripe 1
        // lives at object offset 64K + 0.
        assert_eq!(l.shard_obj_offset(0, 1, 5), 16 * 1024 + 5);
        assert_eq!(l.shard_obj_offset(1, 4, 0), 64 * 1024);
        assert_eq!(l.shard_obj_offset(1, 5, 7), 64 * 1024 + 16 * 1024 + 7);
        // A write of [20K, 40K): shard 1 window [4K, 16K), shard 2
        // window [0, 8K), shards 0/3 untouched; parity hull [0, 16K).
        assert_eq!(
            l.data_window(0, 0, 20 * 1024, 20 * 1024),
            (16 * 1024, 16 * 1024)
        );
        assert_eq!(
            l.data_window(0, 1, 20 * 1024, 20 * 1024),
            (4 * 1024, 16 * 1024)
        );
        assert_eq!(l.data_window(0, 2, 20 * 1024, 20 * 1024), (0, 8 * 1024));
        assert_eq!(l.parity_window(0, 20 * 1024, 20 * 1024), (0, 16 * 1024));
        // Single-shard write: hull equals the shard window.
        assert_eq!(l.parity_window(0, 17 * 1024, 1024), (1024, 2 * 1024));
    }
}
