//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper's workload computes an MD5 hash of every record value as a
//! correctness check. No cryptographic crate is in the approved
//! dependency set, so the digest is implemented here; it is used for
//! integrity checking, not security.
//!
//! Every record of every job passes through here twice (map and reduce
//! UDF), so the compression function is fully unrolled over constant
//! tables and reads whole blocks straight from the caller's slice; only
//! the padded tail is staged, on the stack.
//!
//! One stream runs at the bound of its own dependency chain (each step
//! needs the last), so the hot callers hash records in pairs: [`md5x2`]
//! alternates two messages' steps through the same step macros, and the
//! second chain fills the first one's latency. Safe scalar Rust, no
//! intrinsics.

/// Per-step left-rotate amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// K[i] = floor(|sin(i + 1)| * 2^32), per RFC 1321.
const K: [u32; 64] = [
    0xd76a_a478,
    0xe8c7_b756,
    0x2420_70db,
    0xc1bd_ceee, //
    0xf57c_0faf,
    0x4787_c62a,
    0xa830_4613,
    0xfd46_9501, //
    0x6980_98d8,
    0x8b44_f7af,
    0xffff_5bb1,
    0x895c_d7be, //
    0x6b90_1122,
    0xfd98_7193,
    0xa679_438e,
    0x49b4_0821, //
    0xf61e_2562,
    0xc040_b340,
    0x265e_5a51,
    0xe9b6_c7aa, //
    0xd62f_105d,
    0x0244_1453,
    0xd8a1_e681,
    0xe7d3_fbc8, //
    0x21e1_cde6,
    0xc337_07d6,
    0xf4d5_0d87,
    0x455a_14ed, //
    0xa9e3_e905,
    0xfcef_a3f8,
    0x676f_02d9,
    0x8d2a_4c8a, //
    0xfffa_3942,
    0x8771_f681,
    0x6d9d_6122,
    0xfde5_380c, //
    0xa4be_ea44,
    0x4bde_cfa9,
    0xf6bb_4b60,
    0xbebf_bc70, //
    0x289b_7ec6,
    0xeaa1_27fa,
    0xd4ef_3085,
    0x0488_1d05, //
    0xd9d4_d039,
    0xe6db_99e5,
    0x1fa2_7cf8,
    0xc4ac_5665, //
    0xf429_2244,
    0x432a_ff97,
    0xab94_23a7,
    0xfc93_a039, //
    0x655b_59c3,
    0x8f0c_cc92,
    0xffef_f47d,
    0x8584_5dd1, //
    0x6fa8_7e4f,
    0xfe2c_e6e0,
    0xa301_4314,
    0x4e08_11a1, //
    0xf753_7e82,
    0xbd3a_f235,
    0x2ad7_d2bb,
    0xeb86_d391,
];

/// Message word read by step `i`: `i`, `5i + 1`, `3i + 5`, `7i` mod 16
/// in rounds 1–4.
const G: [usize; 64] = {
    let mut g = [0usize; 64];
    let mut i = 0;
    while i < 64 {
        g[i] = match i / 16 {
            0 => i,
            1 => (5 * i + 1) % 16,
            2 => (3 * i + 5) % 16,
            _ => (7 * i) % 16,
        };
        i += 1;
    }
    g
};

#[inline(always)]
fn f1(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn f2(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn f3(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn f4(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One step with a literal step index: the three table reads are
/// constant-folded.
macro_rules! step {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:ident, $i:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($f($b, $c, $d))
                .wrapping_add(K[$i])
                .wrapping_add($m[G[$i]])
                .rotate_left(S[$i]),
        )
    };
}

/// Four steps over each lane `(words, a, b, c, d)`, lanes alternating
/// step by step; the register roles rotate instead of the values.
macro_rules! four {
    ($f:ident, $i:expr, $(($m:ident, $a:ident, $b:ident, $c:ident, $d:ident)),+) => {
        $(step!($f, $a, $b, $c, $d, $m, $i);)+
        $(step!($f, $d, $a, $b, $c, $m, $i + 1);)+
        $(step!($f, $c, $d, $a, $b, $m, $i + 2);)+
        $(step!($f, $b, $c, $d, $a, $m, $i + 3);)+
    };
}

/// One 16-step round over each lane.
macro_rules! round {
    ($f:ident, $i:expr, $($lane:tt),+) => {
        four!($f, $i, $($lane),+);
        four!($f, $i + 4, $($lane),+);
        four!($f, $i + 8, $($lane),+);
        four!($f, $i + 12, $($lane),+);
    };
}

/// Folds one 64-byte block of each lane `(words, a, b, c, d)` into the
/// lane's state `a, b, c, d`.
macro_rules! compress {
    ($($lane:tt),+) => {
        round!(f1, 0, $($lane),+);
        round!(f2, 16, $($lane),+);
        round!(f3, 32, $($lane),+);
        round!(f4, 48, $($lane),+);
    };
}

const INIT: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

#[inline(always)]
fn words(block: &[u8; 64]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
        *w = u32::from_le_bytes(*bytes);
    }
    m
}

#[inline]
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let m = words(block);
    let [mut a, mut b, mut c, mut d] = *state;
    compress!((m, a, b, c, d));
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// [`compress`] on two independent messages at once.
#[inline]
fn compress2(sx: &mut [u32; 4], x: &[u8; 64], sy: &mut [u32; 4], y: &[u8; 64]) {
    let (m, n) = (words(x), words(y));
    let [mut a, mut b, mut c, mut d] = *sx;
    let [mut e, mut f, mut g, mut h] = *sy;
    compress!((m, a, b, c, d), (n, e, f, g, h));
    for (s, v) in sx
        .iter_mut()
        .chain(sy.iter_mut())
        .zip([a, b, c, d, e, f, g, h])
    {
        *s = s.wrapping_add(v);
    }
}

/// Stages the padded tail of `data` — its last partial block, 0x80,
/// zeros and the 64-bit little-endian bit length — and returns its block
/// count: one when the remainder leaves room for the nine bytes, else two.
#[inline(always)]
fn pad(tail: &mut [[u8; 64]; 2], data: &[u8]) -> usize {
    let rest = data.as_chunks::<64>().1;
    let flat = tail.as_flattened_mut();
    flat[..rest.len()].copy_from_slice(rest);
    flat[rest.len()] = 0x80;
    let padded = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    flat[padded - 8..padded].copy_from_slice(&bit_len.to_le_bytes());
    padded / 64
}

fn digest(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut state = INIT;
    for block in data.as_chunks::<64>().0 {
        compress(&mut state, block);
    }
    let mut tail = [[0u8; 64]; 2];
    let n = pad(&mut tail, data);
    for block in &tail[..n] {
        compress(&mut state, block);
    }
    digest(state)
}

/// `(md5(x), md5(y))`, with the blocks both messages have compressed
/// interleaved; the longer message finishes on one lane.
pub fn md5x2(x: &[u8], y: &[u8]) -> ([u8; 16], [u8; 16]) {
    let (mut tx, mut ty) = ([[0u8; 64]; 2], [[0u8; 64]; 2]);
    let (nx, ny) = (pad(&mut tx, x), pad(&mut ty, y));
    let (wx, wy) = (x.as_chunks::<64>().0, y.as_chunks::<64>().0);
    let both = (wx.len() + nx).min(wy.len() + ny);
    let mut bx = wx.iter().chain(&tx[..nx]);
    let mut by = wy.iter().chain(&ty[..ny]);
    let (mut sx, mut sy) = (INIT, INIT);
    for (p, q) in bx.by_ref().zip(by.by_ref()).take(both) {
        compress2(&mut sx, p, &mut sy, q);
    }
    bx.for_each(|p| compress(&mut sx, p));
    by.for_each(|q| compress(&mut sy, q));
    (digest(sx), digest(sy))
}

fn prefix(d: [u8; 16]) -> u64 {
    u64::from_le_bytes(d.as_chunks::<8>().0[0])
}

/// First 8 bytes of the MD5 digest as a little-endian u64 — a compact
/// per-record fingerprint for the workload's correctness accounting.
pub fn md5_u64(data: &[u8]) -> u64 {
    prefix(md5(data))
}

/// [`md5_u64`] of two messages, hashed by [`md5x2`].
pub fn md5_u64x2(x: &[u8], y: &[u8]) -> (u64, u64) {
    let (dx, dy) = md5x2(x, y);
    (prefix(dx), prefix(dy))
}

/// Hex rendering of a digest (for tests and reports).
pub fn to_hex(digest: &[u8; 16]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop-based implementation this module shipped with before the
    /// rounds were unrolled, kept as the by-value reference: `K` from
    /// the sine definition, the whole padded message staged in a `Vec`.
    fn md5_reference(data: &[u8]) -> [u8; 16] {
        let mut a0: u32 = 0x6745_2301;
        let mut b0: u32 = 0xefcd_ab89;
        let mut c0: u32 = 0x98ba_dcfe;
        let mut d0: u32 = 0x1032_5476;
        let mut k = [0u32; 64];
        for (i, v) in k.iter_mut().enumerate() {
            *v = (((i as f64 + 1.0).sin().abs()) * 4294967296.0) as u32;
        }

        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = Vec::with_capacity(data.len() + 72);
        msg.extend_from_slice(data);
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_le_bytes());

        for chunk in msg.chunks_exact(64) {
            let mut m = [0u32; 16];
            for (i, w) in m.iter_mut().enumerate() {
                *w = u32::from_le_bytes(chunk[i * 4..i * 4 + 4].try_into().unwrap());
            }
            let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f)
                        .wrapping_add(k[i])
                        .wrapping_add(m[g])
                        .rotate_left(S[i]),
                );
                a = tmp;
            }
            a0 = a0.wrapping_add(a);
            b0 = b0.wrapping_add(b);
            c0 = c0.wrapping_add(c);
            d0 = d0.wrapping_add(d);
        }

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&a0.to_le_bytes());
        out[4..8].copy_from_slice(&b0.to_le_bytes());
        out[8..12].copy_from_slice(&c0.to_le_bytes());
        out[12..16].copy_from_slice(&d0.to_le_bytes());
        out
    }

    /// Non-repeating bytes, so a block read at the wrong offset or a
    /// misplaced padding byte changes the digest.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(&to_hex(&md5(input.as_bytes())), expect, "md5({input:?})");
        }
    }

    /// Every length across the one-block/two-block padding boundaries
    /// (55/56, 63/64, 119/120, …) and several whole blocks, by value.
    #[test]
    fn matches_reference_at_every_length_to_260() {
        let data = pattern(260);
        for len in 0..=260 {
            assert_eq!(md5(&data[..len]), md5_reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn matches_reference_on_one_mebibyte() {
        let data = pattern(1 << 20);
        assert_eq!(md5(&data), md5_reference(&data));
    }

    /// Every length pair up to 130 bytes, so each lane crosses the 55/56
    /// and 119/120 padding boundaries against every block count of the
    /// other lane, plus a long message beside an empty one both ways.
    #[test]
    fn md5x2_equals_two_single_lanes() {
        let (x, y) = (pattern(130), pattern(131));
        let y = &y[1..];
        for lx in 0..=130 {
            for ly in 0..=130 {
                let (a, b) = (&x[..lx], &y[..ly]);
                assert_eq!(md5x2(a, b), (md5(a), md5(b)), "lengths ({lx}, {ly})");
            }
        }
        let long = pattern(1 << 20);
        assert_eq!(md5x2(&long, &[]), (md5(&long), md5(&[])));
        assert_eq!(md5x2(&[], &long), (md5(&[]), md5(&long)));
        assert_eq!(md5_u64x2(b"hello", b""), (md5_u64(b"hello"), md5_u64(b"")));
    }

    #[test]
    fn md5_u64_is_prefix() {
        let d = md5(b"hello");
        assert_eq!(
            md5_u64(b"hello"),
            u64::from_le_bytes(d[0..8].try_into().unwrap())
        );
    }
}
