//! SIMD-vectorized geometry kernels over coordinate columns, with runtime
//! dispatch.
//!
//! The SoA layout (PR 6) made the hot loops stream dense `f64` columns; this
//! module cashes that in by executing the three kernel families those loops
//! reduce to with `core::arch::x86_64` vector intrinsics:
//!
//! * [`KernelDispatch::filter_within`] — the DBSCAN ε-neighbourhood scan:
//!   collect the ids of all bucketed points within a squared radius of a
//!   probe point, preserving bucket order.
//! * [`KernelDispatch::any_within`] / [`KernelDispatch::min_dist_sq_bounded`]
//!   — the directed-Hausdorff inner reductions: "does any point sit within
//!   the threshold" (bucketed and brute threshold tests) and "squared
//!   distance to the nearest point, with early exit below a bound" (exact
//!   directed distance).
//! * [`KernelDispatch::column_min_max`] / [`KernelDispatch::column_sum`] —
//!   the MBR and centroid column reductions.
//!
//! # Dispatch model
//!
//! Every kernel exists at three levels — [`SimdLevel::Scalar`] (plain Rust,
//! always available), [`SimdLevel::Sse2`] (128-bit, part of the x86-64
//! baseline) and [`SimdLevel::Avx2`] (256-bit, runtime-detected with
//! [`is_x86_feature_detected!`]).  A [`KernelDispatch`] is a table of
//! function pointers for one level; [`dispatch`] returns the process-wide
//! table, resolved once on first use from the `GPDT_SIMD` environment
//! variable (`auto`, `avx2`, `sse2`, `off`; default `auto` = best detected
//! level).  Requesting a level the CPU does not support falls back to the
//! best available one — the table for an undetected level is never handed
//! out, which is the safety argument for the intrinsic-calling wrappers.
//!
//! # Bit-identity guarantee
//!
//! All levels of a kernel produce **bit-identical** outputs on the same
//! (NaN-free) input.  This is a hard requirement — the engine's output must
//! not depend on which machine it ran on — and it shapes the kernels:
//!
//! * No FMA anywhere: `dx*dx + dy*dy` is evaluated as two IEEE-754 products
//!   and one sum at every level.  A fused multiply-add keeps the
//!   intermediate product unrounded and would change the low bits of
//!   distances, so the AVX2 kernels deliberately use `mul` + `add`.
//! * Comparisons against thresholds are exact at every level, so filtering
//!   and "any within" decisions cannot diverge, and `filter_within` pushes
//!   ids in bucket order at every level.
//! * Min/max reductions are order-independent on NaN-free input, and the
//!   scalar code mirrors the `MINPD`/`MAXPD` operand semantics exactly
//!   (`if a < b { a } else { b }`), so even signed zeros reduce identically.
//! * The associativity-sensitive accumulation — the centroid sum — uses one
//!   canonical operation order at every level: four striped partial sums
//!   (lane `j` accumulates elements `j, j+4, j+8, …`) reduced as
//!   `(s0+s2) + (s1+s3)`, with the tail added sequentially.  The scalar
//!   kernel performs that exact sequence, SSE2 emulates it with two
//!   two-lane accumulators, and AVX2 with one four-lane accumulator.
//!
//! The randomized `tests/simd_equivalence.rs` suite enforces all of this by
//! comparing raw output bits across every available level.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A kernel implementation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Plain Rust loops; always available, the reference semantics.
    Scalar,
    /// 128-bit SSE2 intrinsics (two `f64` lanes); x86-64 baseline.
    Sse2,
    /// 256-bit AVX2 intrinsics (four `f64` lanes); runtime-detected.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case name, matching the `GPDT_SIMD` values.
    pub fn label(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Below this many elements the dispatch methods run the scalar kernel
/// inline instead of going through the function pointer: the hot callers
/// (per-cell DBSCAN buckets, 3×3 Hausdorff probes) are usually a handful of
/// points, where vector setup and an indirect call cost more than the loop.
/// Never observable — every level is bit-identical by construction.
const INLINE_SCALAR_BELOW: usize = 8;

type FilterFn = fn(&[f64], &[f64], &[u32], f64, f64, f64, &mut Vec<u32>);
type AnyWithinFn = fn(&[f64], &[f64], f64, f64, f64) -> bool;
type MinDistFn = fn(&[f64], &[f64], f64, f64, f64) -> f64;
type MinMaxFn = fn(&[f64]) -> (f64, f64);
type SumFn = fn(&[f64]) -> f64;

/// A resolved kernel table: one implementation of every geometry kernel at a
/// fixed [`SimdLevel`].
///
/// Obtain the process-wide table with [`dispatch`] or a specific level's
/// table with [`KernelDispatch::for_level`] (used by the equivalence tests
/// and the `micro` benchmark to compare levels directly).
pub struct KernelDispatch {
    level: SimdLevel,
    filter_within: FilterFn,
    any_within: AnyWithinFn,
    min_dist_sq_bounded: MinDistFn,
    min_max: MinMaxFn,
    sum: SumFn,
}

impl KernelDispatch {
    /// The table for `level`, or `None` when the CPU does not support it.
    ///
    /// [`SimdLevel::Scalar`] always succeeds.  A table is only ever handed
    /// out for a supported level, so its kernels can be called safely.
    pub fn for_level(level: SimdLevel) -> Option<&'static KernelDispatch> {
        match level {
            SimdLevel::Scalar => Some(&SCALAR_TABLE),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => Some(&x86::SSE2_TABLE),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2").then_some(&x86::AVX2_TABLE),
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    /// The level this table implements.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// DBSCAN ε-scan: appends `ids[k]` to `out`, in order, for every `k`
    /// with `(xs[k]-px)² + (ys[k]-py)² ≤ r_sq`.
    ///
    /// # Panics
    ///
    /// Panics if the column slices differ in length.
    #[inline]
    pub fn filter_within(
        &self,
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        px: f64,
        py: f64,
        r_sq: f64,
        out: &mut Vec<u32>,
    ) {
        assert!(xs.len() == ys.len() && xs.len() == ids.len());
        if xs.len() < INLINE_SCALAR_BELOW {
            scalar::filter_within(xs, ys, ids, px, py, r_sq, out);
        } else {
            (self.filter_within)(xs, ys, ids, px, py, r_sq, out);
        }
    }

    /// Is any column point within `√r_sq` of `(px, py)`?
    ///
    /// # Panics
    ///
    /// Panics if the column slices differ in length.
    #[inline]
    pub fn any_within(&self, xs: &[f64], ys: &[f64], px: f64, py: f64, r_sq: f64) -> bool {
        assert_eq!(xs.len(), ys.len());
        if xs.len() < INLINE_SCALAR_BELOW {
            scalar::any_within(xs, ys, px, py, r_sq)
        } else {
            (self.any_within)(xs, ys, px, py, r_sq)
        }
    }

    /// Squared distance from `(px, py)` to the nearest column point
    /// (`f64::INFINITY` for empty columns), with early exit: once the
    /// running minimum is `≤ stop_below` the scan may stop and return it.
    ///
    /// When no early exit triggers the result is the exact minimum and
    /// bit-identical across levels; an early-exited result is only
    /// guaranteed to be `≤ stop_below` (callers treat such values as "below
    /// the bound", never using the exact value — which keeps the public
    /// Hausdorff results bit-identical anyway).
    ///
    /// # Panics
    ///
    /// Panics if the column slices differ in length.
    #[inline]
    pub fn min_dist_sq_bounded(
        &self,
        xs: &[f64],
        ys: &[f64],
        px: f64,
        py: f64,
        stop_below: f64,
    ) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.len() < INLINE_SCALAR_BELOW {
            scalar::min_dist_sq_bounded(xs, ys, px, py, stop_below)
        } else {
            (self.min_dist_sq_bounded)(xs, ys, px, py, stop_below)
        }
    }

    /// `(min, max)` of a coordinate column, `None` when empty.
    #[inline]
    pub fn column_min_max(&self, xs: &[f64]) -> Option<(f64, f64)> {
        if xs.is_empty() {
            None
        } else if xs.len() < INLINE_SCALAR_BELOW {
            Some(scalar::min_max(xs))
        } else {
            Some((self.min_max)(xs))
        }
    }

    /// Sum of a coordinate column in the canonical striped order (see the
    /// module docs); `0.0` when empty.
    #[inline]
    pub fn column_sum(&self, xs: &[f64]) -> f64 {
        if xs.len() < INLINE_SCALAR_BELOW {
            scalar::sum(xs)
        } else {
            (self.sum)(xs)
        }
    }
}

static SCALAR_TABLE: KernelDispatch = KernelDispatch {
    level: SimdLevel::Scalar,
    filter_within: scalar::filter_within,
    any_within: scalar::any_within,
    min_dist_sq_bounded: scalar::min_dist_sq_bounded,
    min_max: scalar::min_max,
    sum: scalar::sum,
};

/// The levels this machine can run, in increasing width; [`SimdLevel::Scalar`]
/// is always first.  The equivalence tests iterate this list.
pub fn available_levels() -> &'static [SimdLevel] {
    static LEVELS: OnceLock<Vec<SimdLevel>> = OnceLock::new();
    LEVELS.get_or_init(|| {
        let mut levels = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            levels.push(SimdLevel::Sse2);
            if is_x86_feature_detected!("avx2") {
                levels.push(SimdLevel::Avx2);
            }
        }
        levels
    })
}

/// The best level the machine supports (last entry of
/// [`available_levels`]).
pub fn best_level() -> SimdLevel {
    *available_levels().last().expect("scalar always available")
}

/// Resolves `GPDT_SIMD` to a level: `off`/`scalar` pin the scalar kernels,
/// `sse2`/`avx2` pin that level (clamped to the best available when the CPU
/// lacks it), anything else — including unset and `auto` — selects the best
/// detected level.
fn resolve_from_env() -> SimdLevel {
    let requested = std::env::var("GPDT_SIMD")
        .map(|v| v.trim().to_ascii_lowercase())
        .unwrap_or_default();
    match requested.as_str() {
        "off" | "scalar" | "0" => SimdLevel::Scalar,
        "sse2" if available_levels().contains(&SimdLevel::Sse2) => SimdLevel::Sse2,
        "avx2" if available_levels().contains(&SimdLevel::Avx2) => SimdLevel::Avx2,
        _ => best_level(),
    }
}

/// Forced-level override set by [`force_dispatch_level`]; `0` = no override,
/// otherwise `SimdLevel as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The process-wide kernel table: the `GPDT_SIMD` resolution, computed once
/// on first use.
pub fn dispatch() -> &'static KernelDispatch {
    match FORCED.load(Ordering::Relaxed) {
        1 => &SCALAR_TABLE,
        2 => KernelDispatch::for_level(SimdLevel::Sse2).unwrap_or(&SCALAR_TABLE),
        3 => KernelDispatch::for_level(SimdLevel::Avx2).unwrap_or(&SCALAR_TABLE),
        _ => {
            static RESOLVED: OnceLock<&'static KernelDispatch> = OnceLock::new();
            RESOLVED.get_or_init(|| {
                KernelDispatch::for_level(resolve_from_env()).unwrap_or(&SCALAR_TABLE)
            })
        }
    }
}

/// Test hook: forces [`dispatch`] to a specific level (`None` restores the
/// `GPDT_SIMD` resolution).  Used by the engine-level `GPDT_SIMD=off` vs
/// `auto` equivalence test to run both paths inside one process; levels the
/// machine lacks clamp to scalar.
#[doc(hidden)]
pub fn force_dispatch_level(level: Option<SimdLevel>) {
    let code = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Sse2) => 2,
        Some(SimdLevel::Avx2) => 3,
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// `MINPD` operand semantics: `if a < b { a } else { b }` (returns `b` on
/// ties, signed-zero ties and NaN).  The scalar reductions use this so their
/// results match the vector units bit-for-bit on any input.
#[inline]
fn min2(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `MAXPD` operand semantics, mirror of [`min2`].
#[inline]
fn max2(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The canonical striped sum over `n` elements produced by `f`: four partial
/// sums over lanes `i % 4`, reduced as `(s0+s2) + (s1+s3)`, tail sequential.
/// Every [`KernelDispatch::column_sum`] level reproduces this exact
/// operation order, as does [`crate::Point::centroid`] over interleaved
/// points — which is what keeps AoS and SoA centroids bit-identical.
#[inline]
pub(crate) fn sum_striped_by(n: usize, f: impl Fn(usize) -> f64) -> f64 {
    let n4 = n & !3;
    let mut acc = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        acc[0] += f(i);
        acc[1] += f(i + 1);
        acc[2] += f(i + 2);
        acc[3] += f(i + 3);
        i += 4;
    }
    let mut total = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for k in n4..n {
        total += f(k);
    }
    total
}

/// The scalar reference kernels.  Every other level must match these
/// bit-for-bit; they are also the inline fast path for tiny inputs.
mod scalar {
    use super::{max2, min2, sum_striped_by};

    pub(super) fn filter_within(
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        px: f64,
        py: f64,
        r_sq: f64,
        out: &mut Vec<u32>,
    ) {
        for k in 0..xs.len() {
            let dx = xs[k] - px;
            let dy = ys[k] - py;
            if dx * dx + dy * dy <= r_sq {
                out.push(ids[k]);
            }
        }
    }

    pub(super) fn any_within(xs: &[f64], ys: &[f64], px: f64, py: f64, r_sq: f64) -> bool {
        for k in 0..xs.len() {
            let dx = xs[k] - px;
            let dy = ys[k] - py;
            if dx * dx + dy * dy <= r_sq {
                return true;
            }
        }
        false
    }

    pub(super) fn min_dist_sq_bounded(
        xs: &[f64],
        ys: &[f64],
        px: f64,
        py: f64,
        stop_below: f64,
    ) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..xs.len() {
            let dx = xs[k] - px;
            let dy = ys[k] - py;
            let d = dx * dx + dy * dy;
            if d < best {
                best = d;
                if best <= stop_below {
                    return best;
                }
            }
        }
        best
    }

    /// Caller guarantees `xs` is non-empty.
    pub(super) fn min_max(xs: &[f64]) -> (f64, f64) {
        let n4 = xs.len() & !3;
        if n4 == 0 {
            let (mut mn, mut mx) = (xs[0], xs[0]);
            for &x in &xs[1..] {
                mn = min2(mn, x);
                mx = max2(mx, x);
            }
            return (mn, mx);
        }
        let mut mn = [xs[0], xs[1], xs[2], xs[3]];
        let mut mx = mn;
        let mut i = 4;
        while i < n4 {
            for j in 0..4 {
                mn[j] = min2(mn[j], xs[i + j]);
                mx[j] = max2(mx[j], xs[i + j]);
            }
            i += 4;
        }
        let mut lo = min2(min2(mn[0], mn[2]), min2(mn[1], mn[3]));
        let mut hi = max2(max2(mx[0], mx[2]), max2(mx[1], mx[3]));
        for &x in &xs[n4..] {
            lo = min2(lo, x);
            hi = max2(hi, x);
        }
        (lo, hi)
    }

    pub(super) fn sum(xs: &[f64]) -> f64 {
        sum_striped_by(xs.len(), |i| xs[i])
    }
}

/// The SSE2 and AVX2 kernels.
///
/// Every function here performs exactly the operations of its scalar
/// counterpart — same products, same sums, same comparison semantics, and
/// for the striped reductions the same lane-to-accumulator assignment — so
/// the outputs are bit-identical (module docs).  SSE2 processes the
/// canonical four-element block as two 128-bit halves to preserve the
/// four-lane accumulator order.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{KernelDispatch, SimdLevel};
    use core::arch::x86_64::*;

    pub(super) static SSE2_TABLE: KernelDispatch = KernelDispatch {
        level: SimdLevel::Sse2,
        filter_within: filter_within_sse2,
        any_within: any_within_sse2,
        min_dist_sq_bounded: min_dist_sq_bounded_sse2,
        min_max: min_max_sse2,
        sum: sum_sse2,
    };

    pub(super) static AVX2_TABLE: KernelDispatch = KernelDispatch {
        level: SimdLevel::Avx2,
        filter_within: filter_within_avx2,
        any_within: any_within_avx2,
        min_dist_sq_bounded: min_dist_sq_bounded_avx2,
        min_max: min_max_avx2,
        sum: sum_avx2,
    };

    // --- SSE2 -----------------------------------------------------------
    //
    // SSE2 is part of the x86-64 baseline, so these functions need no
    // runtime gate: the whole-body `unsafe` blocks are justified by that
    // (the intrinsics are statically available) plus the in-bounds pointer
    // loads, whose indices stay within the slice by construction of the
    // block loop.

    fn filter_within_sse2(
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        px: f64,
        py: f64,
        r_sq: f64,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: SSE2 is statically enabled on every x86_64 target and
        // every load index satisfies i + 1 < n2 <= xs.len() == ys.len()
        // (checked by the caller).
        unsafe {
            let n2 = xs.len() & !1;
            let vpx = _mm_set1_pd(px);
            let vpy = _mm_set1_pd(py);
            let vr = _mm_set1_pd(r_sq);
            let mut i = 0;
            while i < n2 {
                let dx = _mm_sub_pd(_mm_loadu_pd(xs.as_ptr().add(i)), vpx);
                let dy = _mm_sub_pd(_mm_loadu_pd(ys.as_ptr().add(i)), vpy);
                let d = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
                let mut m = _mm_movemask_pd(_mm_cmple_pd(d, vr)) as u32;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    out.push(ids[i + lane]);
                    m &= m - 1;
                }
                i += 2;
            }
            super::scalar::filter_within(&xs[n2..], &ys[n2..], &ids[n2..], px, py, r_sq, out);
        }
    }

    fn any_within_sse2(xs: &[f64], ys: &[f64], px: f64, py: f64, r_sq: f64) -> bool {
        // SAFETY: SSE2 is statically enabled on every x86_64 target and
        // every load index satisfies i + 1 < n2 <= xs.len() == ys.len()
        // (checked by the caller).
        unsafe {
            let n2 = xs.len() & !1;
            let vpx = _mm_set1_pd(px);
            let vpy = _mm_set1_pd(py);
            let vr = _mm_set1_pd(r_sq);
            let mut i = 0;
            while i < n2 {
                let dx = _mm_sub_pd(_mm_loadu_pd(xs.as_ptr().add(i)), vpx);
                let dy = _mm_sub_pd(_mm_loadu_pd(ys.as_ptr().add(i)), vpy);
                let d = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
                if _mm_movemask_pd(_mm_cmple_pd(d, vr)) != 0 {
                    return true;
                }
                i += 2;
            }
            super::scalar::any_within(&xs[n2..], &ys[n2..], px, py, r_sq)
        }
    }

    fn min_dist_sq_bounded_sse2(xs: &[f64], ys: &[f64], px: f64, py: f64, stop_below: f64) -> f64 {
        // SAFETY: SSE2 is statically enabled on every x86_64 target and
        // every load index satisfies i + 1 < n2 <= xs.len() == ys.len()
        // (checked by the caller).
        unsafe {
            let n2 = xs.len() & !1;
            let vpx = _mm_set1_pd(px);
            let vpy = _mm_set1_pd(py);
            let vstop = _mm_set1_pd(stop_below);
            let mut vbest = _mm_set1_pd(f64::INFINITY);
            let mut i = 0;
            while i < n2 {
                let dx = _mm_sub_pd(_mm_loadu_pd(xs.as_ptr().add(i)), vpx);
                let dy = _mm_sub_pd(_mm_loadu_pd(ys.as_ptr().add(i)), vpy);
                let d = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
                // `MINPD` returns its second operand when either is NaN: in this
                // order a NaN distance leaves the running minimum alone, as the
                // scalar `d < best` does.
                vbest = _mm_min_pd(d, vbest);
                if _mm_movemask_pd(_mm_cmple_pd(vbest, vstop)) != 0 {
                    return hmin_sd(vbest);
                }
                i += 2;
            }
            let mut best = hmin_sd(vbest);
            for k in n2..xs.len() {
                let dx = xs[k] - px;
                let dy = ys[k] - py;
                let d = dx * dx + dy * dy;
                if d < best {
                    best = d;
                    if best <= stop_below {
                        return best;
                    }
                }
            }
            best
        }
    }

    /// Horizontal min of both lanes with `MINSD` semantics.
    #[inline]
    fn hmin_sd(v: __m128d) -> f64 {
        // SAFETY: SSE2 is statically enabled on every x86_64 target.
        unsafe { _mm_cvtsd_f64(_mm_min_sd(v, _mm_unpackhi_pd(v, v))) }
    }

    /// Caller guarantees `xs` is non-empty (and here in practice ≥ the
    /// dispatch inline threshold, but the block loop tolerates any length).
    fn min_max_sse2(xs: &[f64]) -> (f64, f64) {
        let n4 = xs.len() & !3;
        if n4 == 0 {
            return super::scalar::min_max(xs);
        }
        // SAFETY: the first block exists (n4 >= 4) and every loop index
        // i + 3 < n4 <= xs.len().
        unsafe {
            // Two 128-bit halves emulate the canonical four-lane block:
            // `a` holds lanes 0-1, `b` lanes 2-3.
            let mut mn_a = _mm_loadu_pd(xs.as_ptr());
            let mut mn_b = _mm_loadu_pd(xs.as_ptr().add(2));
            let mut mx_a = mn_a;
            let mut mx_b = mn_b;
            let mut i = 4;
            while i < n4 {
                let a = _mm_loadu_pd(xs.as_ptr().add(i));
                let b = _mm_loadu_pd(xs.as_ptr().add(i + 2));
                mn_a = _mm_min_pd(mn_a, a);
                mn_b = _mm_min_pd(mn_b, b);
                mx_a = _mm_max_pd(mx_a, a);
                mx_b = _mm_max_pd(mx_b, b);
                i += 4;
            }
            // Reduce as (l0 ∧ l2, l1 ∧ l3) then lane0 ∧ lane1 — the same
            // order as the scalar and AVX2 reductions.
            let mn = _mm_min_pd(mn_a, mn_b);
            let mx = _mm_max_pd(mx_a, mx_b);
            let mut lo = _mm_cvtsd_f64(_mm_min_sd(mn, _mm_unpackhi_pd(mn, mn)));
            let mut hi = _mm_cvtsd_f64(_mm_max_sd(mx, _mm_unpackhi_pd(mx, mx)));
            for &x in &xs[n4..] {
                lo = super::min2(lo, x);
                hi = super::max2(hi, x);
            }
            (lo, hi)
        }
    }

    fn sum_sse2(xs: &[f64]) -> f64 {
        // SAFETY: SSE2 is statically enabled on every x86_64 target and
        // every load index satisfies i + 3 < n4 <= xs.len().
        unsafe {
            let n4 = xs.len() & !3;
            let mut acc_a = _mm_setzero_pd();
            let mut acc_b = _mm_setzero_pd();
            let mut i = 0;
            while i < n4 {
                acc_a = _mm_add_pd(acc_a, _mm_loadu_pd(xs.as_ptr().add(i)));
                acc_b = _mm_add_pd(acc_b, _mm_loadu_pd(xs.as_ptr().add(i + 2)));
                i += 4;
            }
            // (s0+s2, s1+s3) then lane0 + lane1 — the canonical striped order.
            let pair = _mm_add_pd(acc_a, acc_b);
            let mut total = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
            for &x in &xs[n4..] {
                total += x;
            }
            total
        }
    }

    // --- AVX2 -----------------------------------------------------------
    //
    // The table-entry wrappers are plain function pointers; each immediately
    // enters its `#[target_feature(enable = "avx2")]` body.
    //
    // SAFETY argument for all of them: `AVX2_TABLE` is only reachable
    // through `KernelDispatch::for_level` / `dispatch()`, both of which gate
    // it behind `is_x86_feature_detected!("avx2")`, so the target-feature
    // functions only ever execute on CPUs that support AVX2.

    fn filter_within_avx2(
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        px: f64,
        py: f64,
        r_sq: f64,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: see the AVX2 section comment.
        unsafe { filter_within_avx2_impl(xs, ys, ids, px, py, r_sq, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn filter_within_avx2_impl(
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        px: f64,
        py: f64,
        r_sq: f64,
        out: &mut Vec<u32>,
    ) {
        let n4 = xs.len() & !3;
        let vpx = _mm256_set1_pd(px);
        let vpy = _mm256_set1_pd(py);
        let vr = _mm256_set1_pd(r_sq);
        let mut i = 0;
        while i < n4 {
            // SAFETY: i + 3 < xs.len() == ys.len(), checked by the caller.
            let (dx, dy) = unsafe {
                (
                    _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), vpx),
                    _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), vpy),
                )
            };
            // No FMA: separate multiply and add keep the rounding identical
            // to the scalar kernel.
            let d = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
            let mut m = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d, vr)) as u32;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                out.push(ids[i + lane]);
                m &= m - 1;
            }
            i += 4;
        }
        super::scalar::filter_within(&xs[n4..], &ys[n4..], &ids[n4..], px, py, r_sq, out);
    }

    fn any_within_avx2(xs: &[f64], ys: &[f64], px: f64, py: f64, r_sq: f64) -> bool {
        // SAFETY: see the AVX2 section comment.
        unsafe { any_within_avx2_impl(xs, ys, px, py, r_sq) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn any_within_avx2_impl(xs: &[f64], ys: &[f64], px: f64, py: f64, r_sq: f64) -> bool {
        let n4 = xs.len() & !3;
        let vpx = _mm256_set1_pd(px);
        let vpy = _mm256_set1_pd(py);
        let vr = _mm256_set1_pd(r_sq);
        let mut i = 0;
        while i < n4 {
            // SAFETY: i + 3 < xs.len() == ys.len(), checked by the caller.
            let (dx, dy) = unsafe {
                (
                    _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), vpx),
                    _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), vpy),
                )
            };
            let d = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d, vr)) != 0 {
                return true;
            }
            i += 4;
        }
        super::scalar::any_within(&xs[n4..], &ys[n4..], px, py, r_sq)
    }

    fn min_dist_sq_bounded_avx2(xs: &[f64], ys: &[f64], px: f64, py: f64, stop_below: f64) -> f64 {
        // SAFETY: see the AVX2 section comment.
        unsafe { min_dist_sq_bounded_avx2_impl(xs, ys, px, py, stop_below) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn min_dist_sq_bounded_avx2_impl(
        xs: &[f64],
        ys: &[f64],
        px: f64,
        py: f64,
        stop_below: f64,
    ) -> f64 {
        let n4 = xs.len() & !3;
        let vpx = _mm256_set1_pd(px);
        let vpy = _mm256_set1_pd(py);
        let vstop = _mm256_set1_pd(stop_below);
        let mut vbest = _mm256_set1_pd(f64::INFINITY);
        let mut i = 0;
        while i < n4 {
            // SAFETY: i + 3 < xs.len() == ys.len(), checked by the caller.
            let (dx, dy) = unsafe {
                (
                    _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), vpx),
                    _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), vpy),
                )
            };
            let d = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
            // Operand order as in the SSE2 kernel: a NaN distance is skipped.
            vbest = _mm256_min_pd(d, vbest);
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(vbest, vstop)) != 0 {
                return hmin256(vbest);
            }
            i += 4;
        }
        let mut best = hmin256(vbest);
        for k in n4..xs.len() {
            let dx = xs[k] - px;
            let dy = ys[k] - py;
            let d = dx * dx + dy * dy;
            if d < best {
                best = d;
                if best <= stop_below {
                    return best;
                }
            }
        }
        best
    }

    /// Horizontal min of four lanes in the canonical `(l0∧l2, l1∧l3)` order.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn hmin256(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let pair = _mm_min_pd(lo, hi);
        _mm_cvtsd_f64(_mm_min_sd(pair, _mm_unpackhi_pd(pair, pair)))
    }

    fn min_max_avx2(xs: &[f64]) -> (f64, f64) {
        // SAFETY: see the AVX2 section comment.
        unsafe { min_max_avx2_impl(xs) }
    }

    /// Caller guarantees `xs` is non-empty.
    #[target_feature(enable = "avx2")]
    unsafe fn min_max_avx2_impl(xs: &[f64]) -> (f64, f64) {
        let n4 = xs.len() & !3;
        if n4 == 0 {
            return super::scalar::min_max(xs);
        }
        // SAFETY: the first block exists (n4 >= 4) and every loop index
        // i + 3 < n4 <= xs.len().
        unsafe {
            let mut mn = _mm256_loadu_pd(xs.as_ptr());
            let mut mx = mn;
            let mut i = 4;
            while i < n4 {
                let v = _mm256_loadu_pd(xs.as_ptr().add(i));
                mn = _mm256_min_pd(mn, v);
                mx = _mm256_max_pd(mx, v);
                i += 4;
            }
            let mn_pair = _mm_min_pd(_mm256_castpd256_pd128(mn), _mm256_extractf128_pd::<1>(mn));
            let mx_pair = _mm_max_pd(_mm256_castpd256_pd128(mx), _mm256_extractf128_pd::<1>(mx));
            let mut lo = _mm_cvtsd_f64(_mm_min_sd(mn_pair, _mm_unpackhi_pd(mn_pair, mn_pair)));
            let mut hi = _mm_cvtsd_f64(_mm_max_sd(mx_pair, _mm_unpackhi_pd(mx_pair, mx_pair)));
            for &x in &xs[n4..] {
                lo = super::min2(lo, x);
                hi = super::max2(hi, x);
            }
            (lo, hi)
        }
    }

    fn sum_avx2(xs: &[f64]) -> f64 {
        // SAFETY: see the AVX2 section comment.
        unsafe { sum_avx2_impl(xs) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sum_avx2_impl(xs: &[f64]) -> f64 {
        let n4 = xs.len() & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n4 {
            // SAFETY: i + 3 < n4 <= xs.len().
            unsafe {
                acc = _mm256_add_pd(acc, _mm256_loadu_pd(xs.as_ptr().add(i)));
            }
            i += 4;
        }
        // (s0+s2, s1+s3) then lane0 + lane1 — the canonical striped order.
        let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd::<1>(acc));
        let mut total = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
        for &x in &xs[n4..] {
            total += x;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert_eq!(available_levels()[0], SimdLevel::Scalar);
        assert!(KernelDispatch::for_level(SimdLevel::Scalar).is_some());
        assert!(available_levels().contains(&best_level()));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Sse2.label(), "sse2");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn dispatch_forcing_round_trips() {
        // Run sequentially inside one test to avoid cross-test interference
        // on the global override.
        force_dispatch_level(Some(SimdLevel::Scalar));
        assert_eq!(dispatch().level(), SimdLevel::Scalar);
        force_dispatch_level(None);
        assert!(available_levels().contains(&dispatch().level()));
    }

    #[test]
    fn filter_within_respects_order_and_radius() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ys = [0.0; 9];
        let ids: Vec<u32> = (0..9).collect();
        for level in available_levels() {
            let d = KernelDispatch::for_level(*level).unwrap();
            let mut out = Vec::new();
            d.filter_within(&xs, &ys, &ids, 4.0, 0.0, 4.0, &mut out);
            assert_eq!(out, vec![2, 3, 4, 5, 6], "{level:?}");
        }
    }

    #[test]
    fn reductions_match_reference_on_small_vectors() {
        let xs: Vec<f64> = (0..23).map(|i| (i as f64) * 0.37 - 4.0).collect();
        for level in available_levels() {
            let d = KernelDispatch::for_level(*level).unwrap();
            let (lo, hi) = d.column_min_max(&xs).unwrap();
            assert_eq!(lo.to_bits(), (-4.0f64).to_bits(), "{level:?}");
            assert_eq!(hi.to_bits(), (22.0f64 * 0.37 - 4.0).to_bits(), "{level:?}");
            assert_eq!(
                d.column_sum(&xs).to_bits(),
                sum_striped_by(xs.len(), |i| xs[i]).to_bits(),
                "{level:?}"
            );
        }
        assert!(dispatch().column_min_max(&[]).is_none());
        assert_eq!(dispatch().column_sum(&[]), 0.0);
    }

    #[test]
    fn min_dist_full_scan_is_exact() {
        let xs = [5.0, 1.0, -3.0, 2.0, 9.0, 1.5, 0.5, -2.0, 4.0];
        let ys = [1.0, -1.0, 2.0, 0.0, 3.0, 2.5, -0.5, 1.0, -4.0];
        for level in available_levels() {
            let d = KernelDispatch::for_level(*level).unwrap();
            let got = d.min_dist_sq_bounded(&xs, &ys, 0.0, 0.0, f64::NEG_INFINITY);
            let want = xs
                .iter()
                .zip(&ys)
                .map(|(&x, &y)| x * x + y * y)
                .fold(f64::INFINITY, min2);
            assert_eq!(got.to_bits(), want.to_bits(), "{level:?}");
            assert!(d.any_within(&xs, &ys, 0.0, 0.0, want));
            assert!(!d.any_within(&xs, &ys, 0.0, 0.0, want * 0.99));
        }
        assert_eq!(
            dispatch().min_dist_sq_bounded(&[], &[], 0.0, 0.0, f64::NEG_INFINITY),
            f64::INFINITY
        );
    }
}
