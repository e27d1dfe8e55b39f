//! Batched complex slice primitives for the block kernels.
//!
//! These are the inner loops of the batched execution path: whole-run
//! operations over contiguous `[Complex64]` slices, written as plain
//! component-wise `f64` arithmetic so LLVM autovectorizes them on stable
//! Rust (no `std::simd`, no intrinsics — the `#[repr(C)]` two-`f64` layout
//! of [`Complex64`] is what makes the shuffle-free codegen possible).
//!
//! Both the qTask engine's block kernels and the baseline simulators'
//! flat kernels call these, so cross-simulator comparisons measure
//! scheduling and incrementality, not who vectorized their inner loop.

use crate::complex::Complex64;

/// `dst[i] *= z` for every element — the Diag run kernel.
///
/// Real and purely imaginary factors (Z, S, RZ at special angles, every
/// controlled phase of ±1/±i) take halved-FLOP fast paths. The fast paths
/// produce values `==`-equal to the general complex product (the elided
/// terms are exact ±0s), so policy-equivalence tests stay exact.
#[inline]
pub fn scale_slice(dst: &mut [Complex64], z: Complex64) {
    if z.im == 0.0 {
        for v in dst {
            v.re *= z.re;
            v.im *= z.re;
        }
    } else if z.re == 0.0 {
        for v in dst {
            let re = -v.im * z.im;
            v.im = v.re * z.im;
            v.re = re;
        }
    } else {
        for v in dst {
            let re = v.re * z.re - v.im * z.im;
            let im = v.re * z.im + v.im * z.re;
            v.re = re;
            v.im = im;
        }
    }
}

/// `dst[i] *= src[i]` element-wise. Panics if lengths differ.
/// General-purpose companion of [`scale_slice`] (element-wise diagonal
/// operators); no engine caller yet.
#[inline]
pub fn mul_assign_slice(dst: &mut [Complex64], src: &[Complex64]) {
    assert_eq!(dst.len(), src.len());
    for (v, s) in dst.iter_mut().zip(src) {
        let re = v.re * s.re - v.im * s.im;
        let im = v.re * s.im + v.im * s.re;
        v.re = re;
        v.im = im;
    }
}

/// Anti-diagonal butterfly over two runs: `a[i]' = a01 * b[i]`,
/// `b[i]' = a10 * a[i]` (X / Y / CNOT / RX(π) applied to whole runs).
/// Panics if lengths differ.
///
/// Unit coefficients (X, CNOT, CCX) reduce to a plain slice exchange and
/// real coefficients to a scaled exchange; like [`scale_slice`], the fast
/// paths are `==`-equal to the general product.
#[inline]
pub fn butterfly_slices(a: &mut [Complex64], b: &mut [Complex64], a01: Complex64, a10: Complex64) {
    assert_eq!(a.len(), b.len());
    if a01.im == 0.0 && a10.im == 0.0 {
        if a01.re == 1.0 && a10.re == 1.0 {
            a.swap_with_slice(b);
            return;
        }
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (xr, xi) = (x.re, x.im);
            x.re = a01.re * y.re;
            x.im = a01.re * y.im;
            y.re = a10.re * xr;
            y.im = a10.re * xi;
        }
        return;
    }
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (xr, xi) = (x.re, x.im);
        let (yr, yi) = (y.re, y.im);
        x.re = a01.re * yr - a01.im * yi;
        x.im = a01.re * yi + a01.im * yr;
        y.re = a10.re * xr - a10.im * xi;
        y.im = a10.re * xi + a10.im * xr;
    }
}

/// Dense 2×2 butterfly over two runs:
/// `(a[i]', b[i]') = M · (a[i], b[i])` with `M = [[m00, m01], [m10, m11]]`
/// — the batched form of [`crate::Mat2::apply`]. Panics if lengths differ.
#[inline]
pub fn mat2_butterfly_slices(
    a: &mut [Complex64],
    b: &mut [Complex64],
    m00: Complex64,
    m01: Complex64,
    m10: Complex64,
    m11: Complex64,
) {
    assert_eq!(a.len(), b.len());
    if m00.im == 0.0 && m01.im == 0.0 && m10.im == 0.0 && m11.im == 0.0 {
        // All-real matrix (H, RY): half the FLOPs, `==`-equal results.
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (xr, xi) = (x.re, x.im);
            let (yr, yi) = (y.re, y.im);
            x.re = m00.re * xr + m01.re * yr;
            x.im = m00.re * xi + m01.re * yi;
            y.re = m10.re * xr + m11.re * yr;
            y.im = m10.re * xi + m11.re * yi;
        }
        return;
    }
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (xr, xi) = (x.re, x.im);
        let (yr, yi) = (y.re, y.im);
        x.re = m00.re * xr - m00.im * xi + m01.re * yr - m01.im * yi;
        x.im = m00.re * xi + m00.im * xr + m01.re * yi + m01.im * yr;
        y.re = m10.re * xr - m10.im * xi + m11.re * yr - m11.im * yi;
        y.im = m10.re * xi + m10.im * xr + m11.re * yi + m11.im * yr;
    }
}

/// Fused accumulate `acc[i] += z * src[i]` (complex axpy). Panics if
/// lengths differ.
#[inline]
pub fn accumulate_scaled(acc: &mut [Complex64], src: &[Complex64], z: Complex64) {
    assert_eq!(acc.len(), src.len());
    for (a, s) in acc.iter_mut().zip(src) {
        a.re += z.re * s.re - z.im * s.im;
        a.im += z.re * s.im + z.im * s.re;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::mat::Mat2;

    fn sample(n: usize, seed: u64) -> Vec<Complex64> {
        // Deterministic, dependency-free pseudo-random amplitudes.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                c64(re, im)
            })
            .collect()
    }

    #[test]
    fn scale_matches_scalar() {
        let z = c64(0.3, -1.2);
        let mut batched = sample(37, 1);
        let scalar: Vec<_> = batched.iter().map(|v| *v * z).collect();
        scale_slice(&mut batched, z);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn mul_assign_matches_scalar() {
        let src = sample(23, 2);
        let mut batched = sample(23, 3);
        let scalar: Vec<_> = batched.iter().zip(&src).map(|(a, b)| *a * *b).collect();
        mul_assign_slice(&mut batched, &src);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn butterfly_matches_scalar() {
        let (a01, a10) = (c64(0.0, 1.0), c64(0.7, -0.2));
        let mut a = sample(19, 4);
        let mut b = sample(19, 5);
        let want_a: Vec<_> = b.iter().map(|y| a01 * *y).collect();
        let want_b: Vec<_> = a.iter().map(|x| a10 * *x).collect();
        butterfly_slices(&mut a, &mut b, a01, a10);
        assert_eq!(a, want_a);
        assert_eq!(b, want_b);
    }

    #[test]
    fn mat2_butterfly_matches_mat2_apply() {
        let m = Mat2::new(c64(0.6, 0.1), c64(-0.2, 0.8), c64(0.8, 0.2), c64(0.1, -0.6));
        let mut a = sample(31, 6);
        let mut b = sample(31, 7);
        let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| m.apply(*x, *y)).collect();
        mat2_butterfly_slices(
            &mut a,
            &mut b,
            m.at(0, 0),
            m.at(0, 1),
            m.at(1, 0),
            m.at(1, 1),
        );
        for (i, (wa, wb)) in want.into_iter().enumerate() {
            assert!(a[i].approx_eq(wa, 1e-15));
            assert!(b[i].approx_eq(wb, 1e-15));
        }
    }

    #[test]
    fn accumulate_matches_scalar() {
        let z = c64(-0.4, 0.9);
        let src = sample(29, 8);
        let mut acc = sample(29, 9);
        let want: Vec<_> = acc.iter().zip(&src).map(|(a, s)| *a + z * *s).collect();
        accumulate_scaled(&mut acc, &src, z);
        for (got, want) in acc.iter().zip(want) {
            assert!(got.approx_eq(want, 1e-15));
        }
    }

    #[test]
    fn empty_slices_are_noops() {
        scale_slice(&mut [], Complex64::I);
        mul_assign_slice(&mut [], &[]);
        butterfly_slices(&mut [], &mut [], Complex64::ONE, Complex64::ONE);
        accumulate_scaled(&mut [], &[], Complex64::ONE);
    }
}
