//! Runtime-dispatched SIMD kernels for the decision core.
//!
//! Every TIBFIT decision reduces to cumulative-trust folds over the dense
//! SoA weight slots of [`crate::trust::TrustTable`]. This module holds the
//! vector kernels behind those folds, the shared scalar fallbacks, and the
//! index arenas the batched decision path reuses across rounds.
//!
//! ## Dispatch tiers
//!
//! The kernels are selected at runtime by [`active_tier`]:
//!
//! * **Avx2** — 4-lane `f64`/`i64` blocks (`std::arch::x86_64`, gated by
//!   `is_x86_feature_detected!("avx2")`).
//! * **Sse2** — 2-lane blocks (baseline on `x86_64`).
//! * **Neon** — 2-lane blocks on `aarch64` (baseline there).
//! * **Scalar** — the portable chunked folds, shared verbatim with the
//!   non-batched [`TrustTable::cumulative_trust`] path, which also makes
//!   them the differential oracle for every vector tier.
//!
//! The tier can be forced — [`force_tier`] programmatically, or the
//! `TIBFIT_SIMD_TIER` environment variable (`scalar`, `sse2`, `avx2`,
//! `neon`, read once) for whole-process runs such as the CI
//! forced-fallback job. A forced tier the CPU cannot execute degrades to
//! `Scalar` rather than faulting.
//!
//! ## Bit-identity contract
//!
//! The f64 CTI fold is pinned **bitwise** to the sequential scalar fold
//! (float addition does not commute, and golden CSVs depend on the exact
//! bits), so the vector kernels never reorder additions *within* a group.
//! Instead the batched kernels run one group per SIMD lane — each lane
//! performs its own fold in exact group order — and the win comes from
//! interleaving the serial add-latency chains of several groups. Lanes
//! whose group is exhausted are padded with `-0.0`, which is bit-neutral
//! on a non-negative accumulator and sign-negative, so padding costs
//! neither bits nor reads. Q16.16 sums are integers and therefore
//! order-free: the fixed backend additionally vectorizes *within* a
//! group (vertical gathers) with exactly equal results.
//!
//! `ti_reads` accounting is preserved exactly: a lane counts one read per
//! sign-positive (f64) / non-sentinel (Q16.16) weight it folds, matching
//! the scalar rule that only non-quarantined members cost a read.
//!
//! [`TrustTable::cumulative_trust`]: crate::trust::TrustTable::cumulative_trust

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use tibfit_net::topology::NodeId;

use crate::fixed;
use crate::trust::is_quarantined_weight;

/// One cache line, in bytes — the alignment/padding quantum used by
/// [`AlignedSlab`] and the shard-side padding helpers.
pub const CACHE_LINE: usize = 64;

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

/// A kernel dispatch tier, from portable scalar up to the widest vector
/// unit the build knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tier {
    /// Portable chunked scalar folds (always available; also the
    /// differential oracle for the vector tiers).
    Scalar = 1,
    /// 2-lane `x86_64` kernels (SSE2 is baseline on `x86_64`).
    Sse2 = 2,
    /// 4-lane `x86_64` kernels (`is_x86_feature_detected!("avx2")`).
    Avx2 = 3,
    /// 2-lane `aarch64` kernels (NEON is baseline on `aarch64`).
    Neon = 4,
}

impl Tier {
    /// Every tier, widest last — for tests that sweep the dispatch space.
    pub const ALL: [Tier; 4] = [Tier::Scalar, Tier::Sse2, Tier::Avx2, Tier::Neon];

    /// Stable lowercase name (`scalar`, `sse2`, `avx2`, `neon`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }

    /// Whether the running CPU can execute this tier's kernels.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn from_u8(v: u8) -> Option<Tier> {
        match v {
            1 => Some(Tier::Scalar),
            2 => Some(Tier::Sse2),
            3 => Some(Tier::Avx2),
            4 => Some(Tier::Neon),
            _ => None,
        }
    }

    fn parse(s: &str) -> Option<Tier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Tier::Scalar),
            "sse2" => Some(Tier::Sse2),
            "avx2" => Some(Tier::Avx2),
            "neon" => Some(Tier::Neon),
            _ => None,
        }
    }
}

/// `0` means "no force"; otherwise the `repr` of the forced [`Tier`].
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent dispatch to `tier` (process-wide), or restores
/// detection (plus the `TIBFIT_SIMD_TIER` override) with `None`.
///
/// The fallback override hook used by the differential tests and the CI
/// forced-fallback job. A tier the CPU cannot execute degrades to
/// [`Tier::Scalar`] at dispatch time instead of faulting.
pub fn force_tier(tier: Option<Tier>) {
    FORCED.store(tier.map_or(0, |t| t as u8), Ordering::SeqCst);
}

fn env_tier() -> Option<Tier> {
    static ENV: OnceLock<Option<Tier>> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("TIBFIT_SIMD_TIER").ok().and_then(|s| Tier::parse(&s)))
}

fn detected_tier() -> Tier {
    static DETECTED: OnceLock<Tier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if Tier::Avx2.is_supported() {
            Tier::Avx2
        } else if Tier::Sse2.is_supported() {
            Tier::Sse2
        } else if Tier::Neon.is_supported() {
            Tier::Neon
        } else {
            Tier::Scalar
        }
    })
}

/// The tier the kernels will dispatch to right now: a [`force_tier`]
/// override first, then `TIBFIT_SIMD_TIER`, then CPU detection —
/// unsupported requests degrade to [`Tier::Scalar`].
#[must_use]
pub fn active_tier() -> Tier {
    let pick = |t: Tier| if t.is_supported() { t } else { Tier::Scalar };
    if let Some(t) = Tier::from_u8(FORCED.load(Ordering::SeqCst)) {
        return pick(t);
    }
    if let Some(t) = env_tier() {
        return pick(t);
    }
    detected_tier()
}

/// Space-separated list of the vector features detected on this CPU, for
/// the bench harness to print next to floor results (empty when none).
#[must_use]
pub fn cpu_features() -> String {
    let mut feats: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        feats.push("neon");
    }
    feats.join(" ")
}

// ---------------------------------------------------------------------------
// Shared scalar folds (the SIMD fallback and the differential oracle)
// ---------------------------------------------------------------------------

/// An index into the dense weight slots: both the `NodeId` groups of the
/// single-group path and the `u32` spans of a [`GroupArena`] resolve to
/// the same slot space.
pub trait WeightIndex: Copy {
    /// The dense weight-slot index.
    fn slot(self) -> usize;
}

impl WeightIndex for NodeId {
    #[inline]
    fn slot(self) -> usize {
        self.index()
    }
}

impl WeightIndex for u32 {
    #[inline]
    fn slot(self) -> usize {
        self as usize
    }
}

/// The sequential f64 CTI fold over dense weight slots: seeds `-0.0`
/// (like `Iterator::sum::<f64>`), adds strictly in group order, and
/// counts one read per sign-positive weight (quarantined slots hold
/// `-0.0`, whose addition is bit-neutral and whose sign marks "no
/// read"). Chunked by 4 to unroll the order-free gathers and read
/// counting; the additions themselves stay in order.
///
/// Returns `(sum, reads)`. This is the single source of truth the SIMD
/// tiers are pinned against bitwise.
///
/// # Panics
///
/// Panics if any index is out of range for `weights`.
#[inline]
pub fn fold_group_f64<I: WeightIndex>(weights: &[f64], group: &[I]) -> (f64, u64) {
    let mut sum = -0.0f64;
    let mut reads = 0u64;
    let mut chunks = group.chunks_exact(4);
    for c in chunks.by_ref() {
        let w0 = weights[c[0].slot()];
        let w1 = weights[c[1].slot()];
        let w2 = weights[c[2].slot()];
        let w3 = weights[c[3].slot()];
        reads += u64::from(w0.is_sign_positive())
            + u64::from(w1.is_sign_positive())
            + u64::from(w2.is_sign_positive())
            + u64::from(w3.is_sign_positive());
        sum += w0;
        sum += w1;
        sum += w2;
        sum += w3;
    }
    for n in chunks.remainder() {
        let w = weights[n.slot()];
        reads += u64::from(!is_quarantined_weight(w));
        sum += w;
    }
    (sum, reads)
}

/// The Q16.16 CTI fold: an all-integer branch-free pass. The quarantine
/// sentinel is `-1`, so `!(w >> 63)` is an all-ones mask exactly for
/// participating members — one AND folds the weight, one more counts the
/// read. Integer addition is exact and order-free, so this fold (unlike
/// the f64 one) may be freely re-associated by the vector tiers.
///
/// Returns `(sum, reads)`; convert with [`fixed::cti_sum_to_f64`].
///
/// # Panics
///
/// Panics if any index is out of range for `weights`.
#[inline]
pub fn fold_group_q16<I: WeightIndex>(weights: &[i64], group: &[I]) -> (i64, u64) {
    let mut sum = 0i64;
    let mut reads = 0u64;
    let mut chunks = group.chunks_exact(4);
    for c in chunks.by_ref() {
        let w0 = weights[c[0].slot()];
        let w1 = weights[c[1].slot()];
        let w2 = weights[c[2].slot()];
        let w3 = weights[c[3].slot()];
        let (m0, m1, m2, m3) = (!(w0 >> 63), !(w1 >> 63), !(w2 >> 63), !(w3 >> 63));
        sum += (w0 & m0) + (w1 & m1) + (w2 & m2) + (w3 & m3);
        reads += ((m0 & 1) + (m1 & 1) + (m2 & 1) + (m3 & 1)) as u64;
    }
    for n in chunks.remainder() {
        let w = weights[n.slot()];
        let m = !(w >> 63);
        sum += w & m;
        reads += (m & 1) as u64;
    }
    (sum, reads)
}

// ---------------------------------------------------------------------------
// Group arena: the reusable flattened-index layout the batch kernels run on
// ---------------------------------------------------------------------------

/// A reusable arena of flattened node-index groups — the input layout of
/// the batched CTI kernels.
///
/// Groups are pushed in decision order ([`GroupArena::push_group`]); the
/// arena stores their indices contiguously as `u32` plus cumulative end
/// offsets, and tracks the maximum index so the batch entry points can
/// validate the whole arena against the weight-slot count **once** and
/// let the kernels gather unchecked. [`GroupArena::clear`] keeps the
/// allocations, so a thread-local arena reaches steady-state zero
/// allocation across rounds.
#[derive(Debug, Default, Clone)]
pub struct GroupArena {
    /// Flattened group indices.
    idx: Vec<u32>,
    /// Cumulative end offset of each group in `idx`.
    ends: Vec<u32>,
    /// Scratch: group ids sorted longest-first for lane blocking.
    order: Vec<u32>,
    /// `order` is current for the groups held — set by
    /// [`GroupArena::sort_order_by_len`], invalidated by any mutation,
    /// so repeated batches over an unchanged arena sort exactly once.
    order_sorted: bool,
    /// Maximum index pushed since the last clear (0 when empty).
    max_index: u32,
}

impl GroupArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all groups but keeps the allocations for reuse.
    pub fn clear(&mut self) {
        self.idx.clear();
        self.ends.clear();
        self.order_sorted = false;
        self.max_index = 0;
    }

    /// Appends one group.
    ///
    /// # Panics
    ///
    /// Panics if a node index does not fit in `u32` (tables are far
    /// smaller) or the arena grows past `u32::MAX` total indices.
    pub fn push_group(&mut self, group: &[NodeId]) {
        for &n in group {
            let i = u32::try_from(n.index()).expect("node index exceeds u32 arena range");
            if i > self.max_index {
                self.max_index = i;
            }
            self.idx.push(i);
        }
        let end = u32::try_from(self.idx.len()).expect("arena exceeds u32 index range");
        self.ends.push(end);
        self.order_sorted = false;
    }

    /// Number of groups pushed since the last clear.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.ends.len()
    }

    /// `true` if no groups have been pushed since the last clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total flattened indices across all groups.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.idx.len()
    }

    /// The maximum index in the arena, `None` when no indices are held.
    #[must_use]
    pub fn max_index(&self) -> Option<usize> {
        if self.idx.is_empty() {
            None
        } else {
            Some(self.max_index as usize)
        }
    }

    /// `(start, end)` span of group `g` in the flattened index array.
    fn span(&self, g: usize) -> (usize, usize) {
        let end = self.ends[g] as usize;
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        (start, end)
    }

    /// Length of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group_len(&self, g: usize) -> usize {
        let (start, end) = self.span(g);
        end - start
    }

    /// The flattened indices of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group(&self, g: usize) -> &[u32] {
        let (start, end) = self.span(g);
        &self.idx[start..end]
    }

    /// Rebuilds `order` as the group ids sorted longest-first (ties by
    /// id, so the layout is fully deterministic). Blocking same-length
    /// groups into the same SIMD block maximizes the fully-vectorized
    /// common prefix of each block.
    fn sort_order_by_len(&mut self) {
        if self.order_sorted {
            return;
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.group_count() as u32);
        order.sort_unstable_by_key(|&g| (std::cmp::Reverse(self.group_len(g as usize)), g));
        self.order = order;
        self.order_sorted = true;
    }
}

// ---------------------------------------------------------------------------
// Batched CTI kernels
// ---------------------------------------------------------------------------

/// Batched f64 CTI: evaluates every group in `arena` in one pass,
/// writing each group's fold result (same bits and `-0.0` contract as
/// [`fold_group_f64`]) to `out[g]`, and returning the total reads to
/// charge against `ti_reads`. Dispatches on [`active_tier`].
///
/// # Panics
///
/// Panics if any arena index is out of range for `weights`.
pub fn cti_batch_f64(weights: &[f64], arena: &mut GroupArena, out: &mut Vec<f64>) -> u64 {
    cti_batch_f64_with_tier(active_tier(), weights, arena, out)
}

/// [`cti_batch_f64`] with an explicit dispatch tier — the entry point the
/// differential tests sweep. An unsupported tier degrades to scalar.
///
/// # Panics
///
/// Panics if any arena index is out of range for `weights`.
pub fn cti_batch_f64_with_tier(
    tier: Tier,
    weights: &[f64],
    arena: &mut GroupArena,
    out: &mut Vec<f64>,
) -> u64 {
    let tier = if tier.is_supported() { tier } else { Tier::Scalar };
    let n = arena.group_count();
    out.clear();
    out.resize(n, -0.0);
    if arena.total_len() == 0 {
        return 0;
    }
    // One range check covers every unchecked gather in the vector tiers.
    assert!(
        arena.max_index < weights.len() as u32,
        "arena index {} out of range for {} weight slots",
        arena.max_index,
        weights.len()
    );
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 | Tier::Avx2 => {
            // Safety: tier support was verified above and every arena
            // index was just range-checked against `weights`.
            unsafe { x86::f64_batch(tier, weights, arena, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            // Safety: NEON is baseline on aarch64; indices range-checked.
            unsafe { neon::f64_batch(weights, arena, out) }
        }
        _ => {
            let mut reads = 0u64;
            for (g, slot) in out.iter_mut().enumerate().take(n) {
                let (s, r) = fold_group_f64(weights, arena.group(g));
                *slot = s;
                reads += r;
            }
            reads
        }
    }
}

/// Batched Q16.16 CTI: like [`cti_batch_f64`] but over the integer
/// weight slots; each `out[g]` already carries the fixed backend's
/// `±0.0`/exact-division contract ([`fixed::cti_sum_to_f64`]).
///
/// # Panics
///
/// Panics if any arena index is out of range for `weights`.
pub fn cti_batch_q16(weights: &[i64], arena: &mut GroupArena, out: &mut Vec<f64>) -> u64 {
    cti_batch_q16_with_tier(active_tier(), weights, arena, out)
}

/// [`cti_batch_q16`] with an explicit dispatch tier — the entry point the
/// differential tests sweep. An unsupported tier degrades to scalar.
///
/// # Panics
///
/// Panics if any arena index is out of range for `weights`.
pub fn cti_batch_q16_with_tier(
    tier: Tier,
    weights: &[i64],
    arena: &mut GroupArena,
    out: &mut Vec<f64>,
) -> u64 {
    let tier = if tier.is_supported() { tier } else { Tier::Scalar };
    let n = arena.group_count();
    out.clear();
    out.resize(n, -0.0);
    if arena.total_len() == 0 {
        return 0;
    }
    assert!(
        arena.max_index < weights.len() as u32,
        "arena index {} out of range for {} weight slots",
        arena.max_index,
        weights.len()
    );
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 | Tier::Avx2 => {
            // Safety: tier support was verified above and every arena
            // index was just range-checked against `weights`.
            unsafe { x86::q16_batch(tier, weights, arena, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            // Safety: NEON is baseline on aarch64; indices range-checked.
            unsafe { neon::q16_batch(weights, arena, out) }
        }
        _ => {
            let mut reads = 0u64;
            for (g, slot) in out.iter_mut().enumerate().take(n) {
                let (s, r) = fold_group_q16(weights, arena.group(g));
                *slot = fixed::cti_sum_to_f64(s, r);
                reads += r;
            }
            reads
        }
    }
}

/// Minimum group size before the single-group Q16.16 fold switches to the
/// vertical gather kernel — below this the setup cost dominates.
const Q16_SINGLE_MIN: usize = 16;

/// Single-group Q16.16 CTI sum with vertical SIMD where profitable.
///
/// Integer sums are order-free, so (unlike f64) one group may be summed
/// with wide adds; the result is exactly equal to [`fold_group_q16`].
/// Returns `(sum, reads)`.
///
/// # Panics
///
/// Panics if any index is out of range for `weights` (the fallback fold
/// raises the standard slice-index panic).
pub fn cti_q16_single(weights: &[i64], group: &[NodeId]) -> (i64, u64) {
    cti_q16_single_with_tier(active_tier(), weights, group)
}

/// [`cti_q16_single`] with an explicit dispatch tier — for the
/// differential tests. Tiers without a vertical kernel use the scalar
/// fold (which is already exact).
///
/// # Panics
///
/// Panics if any index is out of range for `weights`.
pub fn cti_q16_single_with_tier(tier: Tier, weights: &[i64], group: &[NodeId]) -> (i64, u64) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && tier.is_supported() && group.len() >= Q16_SINGLE_MIN {
        // Safety: AVX2 support verified; the kernel range-checks its
        // gathered indices in-lane and reports out-of-range as `None`.
        if let Some(res) = unsafe { x86::q16_single_avx2(weights, group) } {
            return res;
        }
    }
    let _ = tier;
    fold_group_q16(weights, group)
}

// ---------------------------------------------------------------------------
// x86_64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fold_group_f64, fold_group_q16, GroupArena, Tier};
    use crate::fixed;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_si256, _mm256_andnot_si256,
        _mm256_castpd_si256, _mm256_cmpgt_epi64, _mm256_i32gather_epi64, _mm256_i32gather_pd,
        _mm256_i64gather_epi64, _mm256_movemask_epi8, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_set_epi64x, _mm256_setzero_si256,
        _mm256_storeu_pd, _mm256_storeu_si256, _mm256_sub_epi64, _mm_add_epi64, _mm_add_pd,
        _mm_loadu_si128, _mm_movemask_pd, _mm_set1_pd, _mm_set_epi32, _mm_set_epi64x, _mm_set_pd,
        _mm_setzero_si128, _mm_storeu_pd, _mm_storeu_si128,
    };

    /// Lane-blocked batched f64 fold.
    ///
    /// # Safety
    ///
    /// `tier` must be [`Tier::Sse2`] or [`Tier::Avx2`] and supported by
    /// the running CPU; every arena index must be `< weights.len()`.
    pub unsafe fn f64_batch(
        tier: Tier,
        weights: &[f64],
        arena: &mut GroupArena,
        out: &mut [f64],
    ) -> u64 {
        arena.sort_order_by_len();
        // The gather kernel takes signed 32-bit offsets; a weight table
        // past i32::MAX slots (16 GiB) falls back to the two-lane path.
        if tier == Tier::Avx2 && weights.len() <= i32::MAX as usize {
            return f64_batch_avx2(weights, arena, out);
        }
        f64_batch_tail(0, weights, arena, out)
    }

    /// The whole f64 batch in one AVX2-compiled body, so the four-lane
    /// block kernel inlines instead of paying a cross-feature call per
    /// block of four groups.
    ///
    /// # Safety
    ///
    /// Same as [`f64_block4`].
    #[target_feature(enable = "avx2")]
    unsafe fn f64_batch_avx2(weights: &[f64], arena: &GroupArena, out: &mut [f64]) -> u64 {
        let n = arena.order.len();
        let mut reads = 0u64;
        let mut i = 0;
        while i + 4 <= n {
            let blk = [
                arena.order[i],
                arena.order[i + 1],
                arena.order[i + 2],
                arena.order[i + 3],
            ];
            reads += f64_block4(weights, arena, blk, out);
            i += 4;
        }
        reads + f64_batch_tail(i, weights, arena, out)
    }

    /// Finishes a batch from position `i` of the sorted order: lane
    /// pairs, then a sequential remainder. The whole batch on SSE2,
    /// at most three groups after the AVX2 block loop.
    ///
    /// # Safety
    ///
    /// SSE2 must be supported (always true on `x86_64`); every arena
    /// index must be `< weights.len()`.
    unsafe fn f64_batch_tail(
        mut i: usize,
        weights: &[f64],
        arena: &GroupArena,
        out: &mut [f64],
    ) -> u64 {
        let n = arena.order.len();
        let mut reads = 0u64;
        while i + 2 <= n {
            let blk = [arena.order[i], arena.order[i + 1]];
            reads += f64_block2(weights, arena, blk, out);
            i += 2;
        }
        while i < n {
            let g = arena.order[i] as usize;
            let (s, r) = fold_group_f64(weights, arena.group(g));
            out[g] = s;
            reads += r;
            i += 1;
        }
        reads
    }

    /// Four groups, one per lane: each lane folds its group sequentially
    /// (bit-identical to the scalar fold); the four serial add chains
    /// interleave in one `vaddpd` stream. The four lanes' weights come
    /// in via one `vgatherdpd` per step — on gather-capable cores that
    /// beats four scalar loads plus the `vunpcklpd` merge chain a
    /// `_mm256_set_pd` compiles to, which is where the naive lane-build
    /// loses to the out-of-order scalar fold. Reads are counted in-lane
    /// from the sign bit (`bits > -1` as i64 ⇔ sign-positive).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f64_block4(
        weights: &[f64],
        arena: &GroupArena,
        blk: [u32; 4],
        out: &mut [f64],
    ) -> u64 {
        let spans = [
            arena.span(blk[0] as usize),
            arena.span(blk[1] as usize),
            arena.span(blk[2] as usize),
            arena.span(blk[3] as usize),
        ];
        let lens = [
            spans[0].1 - spans[0].0,
            spans[1].1 - spans[1].0,
            spans[2].1 - spans[2].0,
            spans[3].1 - spans[3].0,
        ];
        let min_len = lens[0].min(lens[1]).min(lens[2]).min(lens[3]);
        let idx = arena.idx.as_ptr();
        let w = weights.as_ptr();
        let mut acc = _mm256_set1_pd(-0.0);
        let mut rds = _mm256_setzero_si256();
        let minus1 = _mm256_set1_epi64x(-1);
        for t in 0..min_len {
            // The caller guarantees every index fits i32 (gather offsets
            // are signed), so the u32 → i32 cast cannot go negative.
            let iv = _mm_set_epi32(
                *idx.add(spans[3].0 + t) as i32,
                *idx.add(spans[2].0 + t) as i32,
                *idx.add(spans[1].0 + t) as i32,
                *idx.add(spans[0].0 + t) as i32,
            );
            let v = _mm256_i32gather_pd::<8>(w, iv);
            acc = _mm256_add_pd(acc, v);
            // All-ones (== -1) exactly in sign-positive lanes; subtracting
            // it increments that lane's read count.
            rds = _mm256_sub_epi64(rds, _mm256_cmpgt_epi64(_mm256_castpd_si256(v), minus1));
        }
        let mut sums = [0.0f64; 4];
        _mm256_storeu_pd(sums.as_mut_ptr(), acc);
        let mut counts = [0i64; 4];
        _mm256_storeu_si256(counts.as_mut_ptr().cast::<__m256i>(), rds);
        let mut total = 0u64;
        for lane in 0..4 {
            let (start, _) = spans[lane];
            let mut sum = sums[lane];
            let mut r = counts[lane] as u64;
            // Sequential finish for the lane's tail keeps group order.
            for t in min_len..lens[lane] {
                let wv = *w.add(*idx.add(start + t) as usize);
                r += u64::from(wv.is_sign_positive());
                sum += wv;
            }
            out[blk[lane] as usize] = sum;
            total += r;
        }
        total
    }

    /// Two groups, one per lane — the SSE2 variant of [`f64_block4`].
    #[target_feature(enable = "sse2")]
    unsafe fn f64_block2(
        weights: &[f64],
        arena: &GroupArena,
        blk: [u32; 2],
        out: &mut [f64],
    ) -> u64 {
        let spans = [arena.span(blk[0] as usize), arena.span(blk[1] as usize)];
        let lens = [spans[0].1 - spans[0].0, spans[1].1 - spans[1].0];
        let min_len = lens[0].min(lens[1]);
        let idx = arena.idx.as_ptr();
        let w = weights.as_ptr();
        let mut acc = _mm_set1_pd(-0.0);
        let mut r = [0u64; 2];
        for t in 0..min_len {
            let w0 = *w.add(*idx.add(spans[0].0 + t) as usize);
            let w1 = *w.add(*idx.add(spans[1].0 + t) as usize);
            let v = _mm_set_pd(w1, w0);
            acc = _mm_add_pd(acc, v);
            let m = _mm_movemask_pd(v) as u32;
            r[0] += u64::from(m & 1 == 0);
            r[1] += u64::from(m & 2 == 0);
        }
        let mut sums = [0.0f64; 2];
        _mm_storeu_pd(sums.as_mut_ptr(), acc);
        let mut total = 0u64;
        for lane in 0..2 {
            let (start, _) = spans[lane];
            let mut sum = sums[lane];
            let mut reads = r[lane];
            for t in min_len..lens[lane] {
                let wv = *w.add(*idx.add(start + t) as usize);
                reads += u64::from(wv.is_sign_positive());
                sum += wv;
            }
            out[blk[lane] as usize] = sum;
            total += reads;
        }
        total
    }

    /// Lane-blocked batched Q16.16 fold.
    ///
    /// # Safety
    ///
    /// Same contract as [`f64_batch`].
    pub unsafe fn q16_batch(
        tier: Tier,
        weights: &[i64],
        arena: &mut GroupArena,
        out: &mut [f64],
    ) -> u64 {
        // Integer sums are order-free, so AVX2 sums each group
        // *vertically*: one contiguous 128-bit load of four `u32`
        // indices plus one `vpgatherdq` per step, no cross-group lane
        // blocking (and no length sort) needed. Gather offsets are
        // signed 32-bit, so a weight table past `i32::MAX` slots
        // (16 GiB) falls back to the lane-pair path below.
        if tier == Tier::Avx2 && weights.len() <= i32::MAX as usize {
            return q16_batch_avx2(weights, arena, out);
        }
        arena.sort_order_by_len();
        let n = arena.order.len();
        let mut reads = 0u64;
        let mut i = 0;
        while i + 2 <= n {
            let blk = [arena.order[i], arena.order[i + 1]];
            reads += q16_block2(weights, arena, blk, out);
            i += 2;
        }
        while i < n {
            let g = arena.order[i] as usize;
            let (s, r) = fold_group_q16(weights, arena.group(g));
            out[g] = fixed::cti_sum_to_f64(s, r);
            reads += r;
            i += 1;
        }
        reads
    }

    /// The whole Q16.16 batch in one AVX2-compiled body, so the
    /// per-group kernel inlines instead of paying a cross-feature call
    /// per group.
    ///
    /// # Safety
    ///
    /// Same as [`q16_group_avx2`].
    #[target_feature(enable = "avx2")]
    unsafe fn q16_batch_avx2(weights: &[i64], arena: &GroupArena, out: &mut [f64]) -> u64 {
        let mut reads = 0u64;
        for (g, slot) in out.iter_mut().enumerate().take(arena.group_count()) {
            let group = arena.group(g);
            // Below one gather quad the setup outweighs the win.
            let (s, r) = if group.len() >= 4 {
                q16_group_avx2(weights, group)
            } else {
                fold_group_q16(weights, group)
            };
            *slot = fixed::cti_sum_to_f64(s, r);
            reads += r;
        }
        reads
    }

    /// One group, summed vertically over the integer weight slots: four
    /// members per step via `vpgatherdq` on the group's contiguous
    /// index quads. The `-1` quarantine sentinel is masked with
    /// `and(v > -1, v)`, which also counts the read. Accumulation is
    /// plain wrapping `i64` adds: every participating weight is
    /// `≤ 2^16`, so overflow would need a group of `2^47` members —
    /// headroom the arena cannot express. Exactly equal to
    /// [`fold_group_q16`] (integer addition is associative).
    ///
    /// # Safety
    ///
    /// AVX2 must be supported; every index must be `< weights.len()`
    /// and `weights.len() <= i32::MAX` (gather offsets are signed).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn q16_group_avx2(weights: &[i64], group: &[u32]) -> (i64, u64) {
        let w = weights.as_ptr();
        let ip = group.as_ptr();
        let minus1 = _mm256_set1_epi64x(-1);
        let mut acc = _mm256_setzero_si256();
        let mut rds = _mm256_setzero_si256();
        let mut t = 0;
        while t + 4 <= group.len() {
            let iv = _mm_loadu_si128(ip.add(t).cast());
            let v = _mm256_i32gather_epi64::<8>(w, iv);
            let live = _mm256_cmpgt_epi64(v, minus1);
            acc = _mm256_add_epi64(acc, _mm256_and_si256(v, live));
            rds = _mm256_sub_epi64(rds, live);
            t += 4;
        }
        let mut sums = [0i64; 4];
        _mm256_storeu_si256(sums.as_mut_ptr().cast::<__m256i>(), acc);
        let mut counts = [0i64; 4];
        _mm256_storeu_si256(counts.as_mut_ptr().cast::<__m256i>(), rds);
        let mut sum = sums[0] + sums[1] + sums[2] + sums[3];
        let mut reads = (counts[0] + counts[1] + counts[2] + counts[3]) as u64;
        for &i in &group[t..] {
            let wv = *w.add(i as usize);
            let m = !(wv >> 63);
            sum += wv & m;
            reads += (m & 1) as u64;
        }
        (sum, reads)
    }

    /// Two groups, one per lane — SSE2 has no 64-bit compare, so the
    /// sentinel masks are computed scalar per lane and only the
    /// accumulation runs wide (splitting the two groups' dependency
    /// chains).
    #[target_feature(enable = "sse2")]
    unsafe fn q16_block2(
        weights: &[i64],
        arena: &GroupArena,
        blk: [u32; 2],
        out: &mut [f64],
    ) -> u64 {
        let spans = [arena.span(blk[0] as usize), arena.span(blk[1] as usize)];
        let lens = [spans[0].1 - spans[0].0, spans[1].1 - spans[1].0];
        let min_len = lens[0].min(lens[1]);
        let idx = arena.idx.as_ptr();
        let w = weights.as_ptr();
        let mut acc = _mm_setzero_si128();
        let mut r = [0u64; 2];
        for t in 0..min_len {
            let w0 = *w.add(*idx.add(spans[0].0 + t) as usize);
            let w1 = *w.add(*idx.add(spans[1].0 + t) as usize);
            let m0 = !(w0 >> 63);
            let m1 = !(w1 >> 63);
            acc = _mm_add_epi64(acc, _mm_set_epi64x(w1 & m1, w0 & m0));
            r[0] += (m0 & 1) as u64;
            r[1] += (m1 & 1) as u64;
        }
        let mut sums = [0i64; 2];
        _mm_storeu_si128(sums.as_mut_ptr().cast(), acc);
        let mut total = 0u64;
        for lane in 0..2 {
            let (start, _) = spans[lane];
            let mut sum = sums[lane];
            let mut reads = r[lane];
            for t in min_len..lens[lane] {
                let wv = *w.add(*idx.add(start + t) as usize);
                let m = !(wv >> 63);
                sum += wv & m;
                reads += (m & 1) as u64;
            }
            out[blk[lane] as usize] = fixed::cti_sum_to_f64(sum, reads);
            total += reads;
        }
        total
    }

    /// Vertical single-group Q16.16 sum: gathers four weights per step
    /// through `vpgatherqq` and accumulates wide — sound because integer
    /// addition is order-free. Gathered indices are range-checked
    /// in-lane; `None` means an index was out of range and the caller
    /// must fall back to the checked scalar fold (for the standard
    /// panic).
    ///
    /// # Safety
    ///
    /// AVX2 must be supported by the running CPU.
    #[target_feature(enable = "avx2")]
    pub unsafe fn q16_single_avx2(
        weights: &[i64],
        group: &[super::NodeId],
    ) -> Option<(i64, u64)> {
        let n = group.len();
        let wp = weights.as_ptr();
        // idx > limit ⇔ idx >= weights.len(); for an empty table the
        // limit is -1 and every index trips it.
        let limit = _mm256_set1_epi64x(weights.len() as i64 - 1);
        let zero = _mm256_setzero_si256();
        let minus1 = _mm256_set1_epi64x(-1);
        let mut acc = _mm256_setzero_si256();
        let mut rds = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let idx = _mm256_set_epi64x(
                group.get_unchecked(i + 3).index() as i64,
                group.get_unchecked(i + 2).index() as i64,
                group.get_unchecked(i + 1).index() as i64,
                group.get_unchecked(i).index() as i64,
            );
            if _mm256_movemask_epi8(_mm256_cmpgt_epi64(idx, limit)) != 0 {
                return None;
            }
            let v = _mm256_i64gather_epi64::<8>(wp, idx);
            let neg = _mm256_cmpgt_epi64(zero, v);
            acc = _mm256_add_epi64(acc, _mm256_andnot_si256(neg, v));
            rds = _mm256_sub_epi64(rds, _mm256_cmpgt_epi64(v, minus1));
            i += 4;
        }
        let mut sums = [0i64; 4];
        _mm256_storeu_si256(sums.as_mut_ptr().cast::<__m256i>(), acc);
        let mut counts = [0i64; 4];
        _mm256_storeu_si256(counts.as_mut_ptr().cast::<__m256i>(), rds);
        let mut sum = sums[0] + sums[1] + sums[2] + sums[3];
        let mut reads = (counts[0] + counts[1] + counts[2] + counts[3]) as u64;
        // Bounds-checked scalar tail (same panic as the scalar fold).
        for t in i..n {
            let wv = weights[group[t].index()];
            let m = !(wv >> 63);
            sum += wv & m;
            reads += (m & 1) as u64;
        }
        Some((sum, reads))
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{fold_group_f64, fold_group_q16, GroupArena};
    use crate::fixed;
    use std::arch::aarch64::{
        vaddq_f64, vaddq_s64, vaddq_u64, vbicq_s64, vcombine_f64, vcombine_s64, vcreate_f64,
        vcreate_s64, vdupq_n_f64, vdupq_n_s64, vdupq_n_u64, vgetq_lane_f64, vgetq_lane_s64,
        vgetq_lane_u64, vreinterpretq_u64_f64, vreinterpretq_u64_s64, vshrq_n_s64, vshrq_n_u64,
        vsubq_u64,
    };

    /// Lane-blocked batched f64 fold (2 lanes).
    ///
    /// # Safety
    ///
    /// Every arena index must be `< weights.len()`. NEON is baseline on
    /// `aarch64`.
    pub unsafe fn f64_batch(weights: &[f64], arena: &mut GroupArena, out: &mut [f64]) -> u64 {
        arena.sort_order_by_len();
        let n = arena.order.len();
        let mut reads = 0u64;
        let mut i = 0;
        while i + 2 <= n {
            let blk = [arena.order[i], arena.order[i + 1]];
            reads += f64_block2(weights, arena, blk, out);
            i += 2;
        }
        while i < n {
            let g = arena.order[i] as usize;
            let (s, r) = fold_group_f64(weights, arena.group(g));
            out[g] = s;
            reads += r;
            i += 1;
        }
        reads
    }

    unsafe fn f64_block2(
        weights: &[f64],
        arena: &GroupArena,
        blk: [u32; 2],
        out: &mut [f64],
    ) -> u64 {
        let spans = [arena.span(blk[0] as usize), arena.span(blk[1] as usize)];
        let lens = [spans[0].1 - spans[0].0, spans[1].1 - spans[1].0];
        let min_len = lens[0].min(lens[1]);
        let idx = arena.idx.as_ptr();
        let w = weights.as_ptr();
        let mut acc = vdupq_n_f64(-0.0);
        let mut rds = vdupq_n_u64(0);
        let one = vdupq_n_u64(1);
        for t in 0..min_len {
            let w0 = *w.add(*idx.add(spans[0].0 + t) as usize);
            let w1 = *w.add(*idx.add(spans[1].0 + t) as usize);
            let v = vcombine_f64(vcreate_f64(w0.to_bits()), vcreate_f64(w1.to_bits()));
            acc = vaddq_f64(acc, v);
            // Logical shift of the sign bit: 1 where negative, so the
            // read increment is `1 - sign`.
            let sign = vshrq_n_u64::<63>(vreinterpretq_u64_f64(v));
            rds = vaddq_u64(rds, vsubq_u64(one, sign));
        }
        let sums = [vgetq_lane_f64::<0>(acc), vgetq_lane_f64::<1>(acc)];
        let counts = [vgetq_lane_u64::<0>(rds), vgetq_lane_u64::<1>(rds)];
        let mut total = 0u64;
        for lane in 0..2 {
            let (start, _) = spans[lane];
            let mut sum = sums[lane];
            let mut reads = counts[lane];
            for t in min_len..lens[lane] {
                let wv = *w.add(*idx.add(start + t) as usize);
                reads += u64::from(wv.is_sign_positive());
                sum += wv;
            }
            out[blk[lane] as usize] = sum;
            total += reads;
        }
        total
    }

    /// Lane-blocked batched Q16.16 fold (2 lanes).
    ///
    /// # Safety
    ///
    /// Same contract as [`f64_batch`].
    pub unsafe fn q16_batch(weights: &[i64], arena: &mut GroupArena, out: &mut [f64]) -> u64 {
        arena.sort_order_by_len();
        let n = arena.order.len();
        let mut reads = 0u64;
        let mut i = 0;
        while i + 2 <= n {
            let blk = [arena.order[i], arena.order[i + 1]];
            reads += q16_block2(weights, arena, blk, out);
            i += 2;
        }
        while i < n {
            let g = arena.order[i] as usize;
            let (s, r) = fold_group_q16(weights, arena.group(g));
            out[g] = fixed::cti_sum_to_f64(s, r);
            reads += r;
            i += 1;
        }
        reads
    }

    unsafe fn q16_block2(
        weights: &[i64],
        arena: &GroupArena,
        blk: [u32; 2],
        out: &mut [f64],
    ) -> u64 {
        let spans = [arena.span(blk[0] as usize), arena.span(blk[1] as usize)];
        let lens = [spans[0].1 - spans[0].0, spans[1].1 - spans[1].0];
        let min_len = lens[0].min(lens[1]);
        let idx = arena.idx.as_ptr();
        let w = weights.as_ptr();
        let mut acc = vdupq_n_s64(0);
        let mut rds = vdupq_n_u64(0);
        let one = vdupq_n_u64(1);
        for t in 0..min_len {
            let w0 = *w.add(*idx.add(spans[0].0 + t) as usize);
            let w1 = *w.add(*idx.add(spans[1].0 + t) as usize);
            let v = vcombine_s64(vcreate_s64(w0), vcreate_s64(w1));
            // Arithmetic shift: all-ones where the sentinel sits.
            let neg = vshrq_n_s64::<63>(v);
            acc = vaddq_s64(acc, vbicq_s64(v, neg));
            let sign = vshrq_n_u64::<63>(vreinterpretq_u64_s64(v));
            rds = vaddq_u64(rds, vsubq_u64(one, sign));
        }
        let sums = [vgetq_lane_s64::<0>(acc), vgetq_lane_s64::<1>(acc)];
        let counts = [vgetq_lane_u64::<0>(rds), vgetq_lane_u64::<1>(rds)];
        let mut total = 0u64;
        for lane in 0..2 {
            let (start, _) = spans[lane];
            let mut sum = sums[lane];
            let mut reads = counts[lane];
            for t in min_len..lens[lane] {
                let wv = *w.add(*idx.add(start + t) as usize);
                let m = !(wv >> 63);
                sum += wv & m;
                reads += (m & 1) as u64;
            }
            out[blk[lane] as usize] = fixed::cti_sum_to_f64(sum, reads);
            total += reads;
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Cache-line aligned storage for the hot SoA arrays
// ---------------------------------------------------------------------------

/// A slab whose exposed window starts on a cache-line boundary — safe
/// code only: the backing `Vec` is over-allocated by one cache line and
/// the aligned sub-slice is exposed through `Deref`. The length changes
/// only through [`AlignedSlab::truncate`] and [`AlignedSlab::insert`],
/// both of which keep the window aligned.
///
/// Used for the trust table's hot SoA weight arrays so a SIMD block's
/// first gather never straddles a line and two tables' hot arrays don't
/// share one. The element type must evenly divide [`CACHE_LINE`].
#[derive(Debug)]
pub struct AlignedSlab<T> {
    raw: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: Copy> AlignedSlab<T> {
    /// A slab of `len` elements, each initialized to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `size_of::<T>()` is zero or does not divide
    /// [`CACHE_LINE`].
    #[must_use]
    pub fn filled(len: usize, fill: T) -> Self {
        let elem = std::mem::size_of::<T>();
        assert!(
            elem > 0 && CACHE_LINE.is_multiple_of(elem),
            "AlignedSlab element size must divide the cache line"
        );
        let pad = CACHE_LINE / elem;
        let raw = vec![fill; len + pad];
        let addr = raw.as_ptr() as usize;
        // Vec<T> allocations are aligned to T, so the distance to the
        // next line boundary is a whole number of elements.
        let off = ((CACHE_LINE - (addr % CACHE_LINE)) % CACHE_LINE) / elem;
        AlignedSlab { raw, off, len }
    }

    /// A slab holding a copy of `src`.
    #[must_use]
    pub fn from_slice(src: &[T]) -> Self {
        match src.first() {
            None => Self::empty(),
            Some(&f) => {
                let mut slab = Self::filled(src.len(), f);
                slab.copy_from_slice(src);
                slab
            }
        }
    }

    /// The empty slab.
    #[must_use]
    pub fn empty() -> Self {
        AlignedSlab {
            raw: Vec::new(),
            off: 0,
            len: 0,
        }
    }

    /// Shortens the slab to `len` elements (no-op if it is not longer).
    /// Never reallocates, so the window stays aligned.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Inserts `value` at `index`, shifting later elements up. Grows in
    /// place while the backing `Vec` has room past the window; otherwise
    /// moves to a fresh, realigned allocation exactly one element larger,
    /// so capacity follows the largest length ever held, never doubling.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(
            index <= self.len,
            "insert index {index} past length {}",
            self.len
        );
        if self.off + self.len == self.raw.len() {
            if self.raw.len() < self.raw.capacity() {
                // Same allocation, so the window's alignment holds.
                self.raw.push(value);
            } else {
                let mut grown = Self::filled(self.len + 1, value);
                grown[..self.len].copy_from_slice(self);
                grown.len = self.len;
                *self = grown;
            }
        }
        let at = self.off + index;
        self.raw.copy_within(at..self.off + self.len, at + 1);
        self.raw[at] = value;
        self.len += 1;
    }
}

impl<T: Copy> Clone for AlignedSlab<T> {
    fn clone(&self) -> Self {
        // Re-deriving the offset for the clone's own allocation keeps the
        // alignment guarantee (a derived clone would copy a stale offset).
        Self::from_slice(self)
    }
}

impl<T> std::ops::Deref for AlignedSlab<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.raw[self.off..self.off + self.len]
    }
}

impl<T> std::ops::DerefMut for AlignedSlab<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.raw[self.off..self.off + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn tier_names_round_trip() {
        for t in Tier::ALL {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("AVX2"), Some(Tier::Avx2));
        assert_eq!(Tier::parse("bogus"), None);
    }

    #[test]
    fn scalar_tier_is_always_supported_and_active_tier_is_runnable() {
        assert!(Tier::Scalar.is_supported());
        assert!(active_tier().is_supported());
    }

    #[test]
    fn arena_layout_and_reuse() {
        let mut a = GroupArena::new();
        a.push_group(&ids(&[3, 1, 4]));
        a.push_group(&[]);
        a.push_group(&ids(&[9]));
        assert_eq!(a.group_count(), 3);
        assert_eq!(a.group(0), &[3, 1, 4]);
        assert_eq!(a.group_len(1), 0);
        assert_eq!(a.group(2), &[9]);
        assert_eq!(a.max_index(), Some(9));
        assert_eq!(a.total_len(), 4);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.max_index(), None);
        a.push_group(&ids(&[2]));
        assert_eq!(a.group(0), &[2]);
        assert_eq!(a.max_index(), Some(2));
    }

    #[test]
    fn batch_matches_scalar_fold_on_every_supported_tier() {
        // Weight slots mixing real TIs, quarantine sentinels, and an
        // underflowed +0.0 (participates, counts a read).
        let wf: Vec<f64> = (0..64)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => 1.0 / (1.0 + i as f64),
            })
            .collect();
        let wq: Vec<i64> = (0..64)
            .map(|i| match i % 5 {
                0 => -1,
                1 => 0,
                _ => (i64::from(i) * 7) % 65537,
            })
            .collect();
        let groups: Vec<Vec<NodeId>> = vec![
            ids(&[0, 5, 10, 15, 20, 25, 30]),
            ids(&[1, 2, 3]),
            Vec::new(),
            (0..64).map(NodeId).collect(),
            ids(&[63, 62, 61, 60, 59]),
        ];
        let mut arena = GroupArena::new();
        for g in &groups {
            arena.push_group(g);
        }
        let mut out = Vec::new();
        for tier in Tier::ALL {
            let reads = cti_batch_f64_with_tier(tier, &wf, &mut arena, &mut out);
            let mut want_reads = 0u64;
            for (g, group) in groups.iter().enumerate() {
                let (s, r) = fold_group_f64(&wf, group);
                assert_eq!(out[g].to_bits(), s.to_bits(), "{} f64 group {g}", tier.name());
                want_reads += r;
            }
            assert_eq!(reads, want_reads, "{} f64 reads", tier.name());

            let reads = cti_batch_q16_with_tier(tier, &wq, &mut arena, &mut out);
            let mut want_reads = 0u64;
            for (g, group) in groups.iter().enumerate() {
                let (s, r) = fold_group_q16(&wq, group);
                assert_eq!(
                    out[g].to_bits(),
                    fixed::cti_sum_to_f64(s, r).to_bits(),
                    "{} q16 group {g}",
                    tier.name()
                );
                want_reads += r;
            }
            assert_eq!(reads, want_reads, "{} q16 reads", tier.name());

            for group in &groups {
                let (s, r) = cti_q16_single_with_tier(tier, &wq, group);
                let (ss, sr) = fold_group_q16(&wq, group);
                assert_eq!((s, r), (ss, sr), "{} q16 single", tier.name());
            }
        }
    }

    #[test]
    fn empty_arena_batches_to_nothing() {
        let mut arena = GroupArena::new();
        let mut out = vec![1.0];
        assert_eq!(cti_batch_f64(&[1.0], &mut arena, &mut out), 0);
        assert!(out.is_empty());
        // All-empty groups: per-group -0.0, zero reads.
        arena.push_group(&[]);
        arena.push_group(&[]);
        assert_eq!(cti_batch_f64(&[1.0], &mut arena, &mut out), 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(out[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_rejects_out_of_range_indices() {
        let mut arena = GroupArena::new();
        arena.push_group(&ids(&[7]));
        let mut out = Vec::new();
        let _ = cti_batch_f64(&[1.0; 4], &mut arena, &mut out);
    }

    #[test]
    fn forced_tier_degrades_to_scalar_when_unsupported() {
        // Neon can never run on x86 (and vice versa for the x86 tiers),
        // so forcing the wrong arch must degrade, not fault.
        let foreign = if cfg!(target_arch = "x86_64") {
            Tier::Neon
        } else {
            Tier::Avx2
        };
        force_tier(Some(foreign));
        let got = active_tier();
        force_tier(None);
        if !foreign.is_supported() {
            assert_eq!(got, Tier::Scalar);
        }
    }

    #[test]
    fn aligned_slab_is_cache_line_aligned() {
        for len in [0usize, 1, 7, 8, 9, 1000] {
            let slab = AlignedSlab::filled(len, 1.25f64);
            assert_eq!(slab.len(), len);
            if len > 0 {
                assert_eq!(slab.as_ptr() as usize % CACHE_LINE, 0, "len {len}");
                assert!(slab.iter().all(|&x| x == 1.25));
            }
            let cloned = slab.clone();
            assert_eq!(&*cloned, &*slab);
            if len > 0 {
                assert_eq!(cloned.as_ptr() as usize % CACHE_LINE, 0);
            }
        }
        let mut slab = AlignedSlab::from_slice(&[1i64, 2, 3]);
        slab[1] = 9;
        assert_eq!(&*slab, &[1, 9, 3]);
    }

    #[test]
    fn aligned_slab_edits_match_vec_and_stay_aligned() {
        let mut slab = AlignedSlab::from_slice(&[0.5f64, 1.5, 2.5, 3.5]);
        let mut mirror = vec![0.5f64, 1.5, 2.5, 3.5];
        let mut rng = tibfit_sim::rng::SimRng::seed_from(0x51AB);
        for step in 0..400u32 {
            if mirror.len() > 1 && rng.chance(0.1) {
                let len = rng.uniform_usize(mirror.len());
                slab.truncate(len);
                mirror.truncate(len);
            } else {
                let at = rng.uniform_usize(mirror.len() + 1);
                let v = f64::from(step);
                slab.insert(at, v);
                mirror.insert(at, v);
            }
            assert_eq!(&*slab, &mirror[..], "step {step}");
            assert_eq!(slab.as_ptr() as usize % CACHE_LINE, 0, "step {step}");
        }
    }
}
