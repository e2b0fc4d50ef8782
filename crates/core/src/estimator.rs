//! The server-side MLE decode (paper §IV-C/D).
//!
//! Given two RSU sketches, the server unfolds the smaller array onto the
//! larger (Eq. 3), ORs them (Eq. 4), counts zeros, and applies the MLE
//! estimator (Eq. 5):
//!
//! ```text
//!         ln(V_c) − ln(V_x) − ln(V_y)
//! n̂_c = ─────────────────────────────────────
//!        ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)
//! ```
//!
//! The implementation never materializes the unfolded array: only its
//! zero count matters, which [`vcps_bitarray::combined_zero_count`]
//! computes in place (an ablation benchmarked in `vcps-bench`).
//!
//! ## Saturation
//!
//! Eq. 5 is undefined when any zero count hits 0 (logarithm of zero) —
//! which is precisely what happens to the fixed-length baseline at
//! heavy-traffic RSUs. [`estimate_pair`] surfaces that as
//! [`CoreError::Saturated`]; [`estimate_pair_or_clamp`] substitutes half
//! a zero bit (a standard sketch-decoding fallback) and flags the result,
//! so experiment harnesses can both plot a number *and* report how often
//! the scheme saturated.

use vcps_bitarray::combined_zero_count;
use vcps_hash::RsuId;

use crate::{CoreError, RsuSketch};

/// The result of decoding one RSU pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated point-to-point volume `n̂_c` (may be negative due to
    /// sampling noise when the true overlap is small; see
    /// [`Estimate::non_negative`]).
    pub n_c: f64,
    /// Zero fraction of the smaller array, `V_x`.
    pub v_x: f64,
    /// Zero fraction of the larger array, `V_y`.
    pub v_y: f64,
    /// Zero fraction of the combined array, `V_c`.
    pub v_c: f64,
    /// Size of the smaller array, `m_x`.
    pub m_x: usize,
    /// Size of the larger array, `m_y`.
    pub m_y: usize,
    /// Counter of the RSU with the smaller array, `n_x`.
    pub n_x: u64,
    /// Counter of the RSU with the larger array, `n_y`.
    pub n_y: u64,
    /// `true` if any zero count was clamped to avoid `ln 0` — the value
    /// is then a saturation-biased lower-quality estimate.
    pub clamped: bool,
}

impl Estimate {
    /// The estimate clamped below at zero (a volume cannot be negative).
    #[must_use]
    pub fn non_negative(&self) -> f64 {
        self.n_c.max(0.0)
    }

    /// Relative error against a known ground truth (Table I's
    /// `r = |n̂_c − n_c| / n_c`).
    ///
    /// Returns `None` when `truth == 0`.
    #[must_use]
    pub fn relative_error(&self, truth: f64) -> Option<f64> {
        if truth == 0.0 {
            None
        } else {
            Some((self.n_c - truth).abs() / truth)
        }
    }

    /// A two-sided confidence interval around this estimate (e.g.
    /// `confidence = 0.95`), from the exact variance model of
    /// `vcps-analysis` evaluated at the observed counters and the
    /// estimate itself (plugged in for the unknown `n_c`).
    ///
    /// The interval is clamped to the feasible range
    /// `[0, min(n_x, n_y)]`. For saturated/clamped estimates the
    /// uncertainty is unbounded and `(0, min(n_x, n_y))` is returned.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the observed parameters
    /// fall outside the analysis domain (cannot happen for estimates
    /// produced by [`estimate_pair`]).
    pub fn confidence_interval(&self, s: usize, confidence: f64) -> Result<(f64, f64), CoreError> {
        let max_overlap = (self.n_x.min(self.n_y)) as f64;
        let plugged = self.n_c.clamp(0.0, max_overlap);
        let params = vcps_analysis::PairParams::new(
            self.n_x as f64,
            self.n_y as f64,
            plugged,
            self.m_x as f64,
            self.m_y as f64,
            s as f64,
        )
        .map_err(|e| CoreError::InvalidConfig {
            parameter: "estimate",
            reason: e.to_string(),
        })?;
        let (lo, hi) = vcps_analysis::accuracy::confidence_interval(
            &params,
            confidence,
            vcps_analysis::accuracy::CovarianceMethod::Exact,
        )
        .map_err(|e| CoreError::InvalidConfig {
            parameter: "estimate",
            reason: e.to_string(),
        })?;
        // Re-center on the observed estimate (the analysis centers on the
        // expectation at the plugged-in overlap).
        let half = (hi - lo) / 2.0;
        if !half.is_finite() {
            return Ok((0.0, max_overlap));
        }
        Ok((
            (self.n_c - half).clamp(0.0, max_overlap),
            (self.n_c + half).clamp(0.0, max_overlap),
        ))
    }
}

/// A pair answer that is honest about its provenance: either a real
/// decode of two period uploads, or a history-based fallback produced
/// when one or both uploads never reached the server (message loss, RSU
/// crash, abandoned retries).
///
/// A long-running server must answer every pair query; refusing because
/// one upload is missing turns a single lost frame into a service
/// outage. The degraded arm keeps the API total while forcing callers to
/// see exactly which answers are measurement-backed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairEstimate {
    /// A genuine Eq. 5 decode of both RSUs' uploads.
    Measured(Estimate),
    /// A fallback derived from the volume history alone.
    Degraded(DegradedEstimate),
}

impl PairEstimate {
    /// The point estimate `n̂_c`, whatever its provenance.
    #[must_use]
    pub fn n_c(&self) -> f64 {
        match self {
            PairEstimate::Measured(e) => e.n_c,
            PairEstimate::Degraded(d) => d.n_c,
        }
    }

    /// `true` for the history-based fallback arm.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, PairEstimate::Degraded(_))
    }

    /// The measured estimate, if this answer is measurement-backed.
    #[must_use]
    pub fn measured(&self) -> Option<&Estimate> {
        match self {
            PairEstimate::Measured(e) => Some(e),
            PairEstimate::Degraded(_) => None,
        }
    }

    /// The same answer with the roles of the two query arguments
    /// swapped.
    ///
    /// A measured estimate is already canonical in its pair (the decode
    /// orients by array size, not argument order), so it is returned
    /// unchanged; a degraded estimate labels its volumes and
    /// missing-flags per argument, so those swap. Batch decoders use
    /// this to fill the mirror entry of an O–D matrix without decoding
    /// the pair twice.
    #[must_use]
    pub fn transposed(&self) -> Self {
        match *self {
            PairEstimate::Measured(e) => PairEstimate::Measured(e),
            PairEstimate::Degraded(d) => PairEstimate::Degraded(DegradedEstimate {
                volume_x: d.volume_y,
                volume_y: d.volume_x,
                missing_x: d.missing_y,
                missing_y: d.missing_x,
                ..d
            }),
        }
    }
}

/// A history-only pair answer (the `Degraded` arm of [`PairEstimate`]).
///
/// Without bit arrays the overlap is unidentifiable; all the history
/// supports is the feasible interval `[0, min(n̄_x, n̄_y)]`. The point
/// value is that interval's midpoint — the minimax choice under absolute
/// error — and the bounds are carried explicitly so consumers can treat
/// the answer as an interval rather than a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedEstimate {
    /// The fallback point estimate (midpoint of `[lower, upper]`).
    pub n_c: f64,
    /// Lower bound of the feasible overlap (always 0).
    pub lower: f64,
    /// Upper bound of the feasible overlap, `min(n̄_x, n̄_y)`.
    pub upper: f64,
    /// The volume used for the first RSU (measured counter if its upload
    /// arrived, historical average otherwise).
    pub volume_x: f64,
    /// The volume used for the second RSU.
    pub volume_y: f64,
    /// `true` if the first RSU's upload was missing.
    pub missing_x: bool,
    /// `true` if the second RSU's upload was missing.
    pub missing_y: bool,
}

impl DegradedEstimate {
    /// Builds the fallback from the two per-RSU volumes (negative inputs
    /// are clamped to zero).
    #[must_use]
    pub fn from_volumes(volume_x: f64, volume_y: f64, missing_x: bool, missing_y: bool) -> Self {
        let volume_x = volume_x.max(0.0);
        let volume_y = volume_y.max(0.0);
        let upper = volume_x.min(volume_y);
        Self {
            n_c: upper / 2.0,
            lower: 0.0,
            upper,
            volume_x,
            volume_y,
            missing_x,
            missing_y,
        }
    }
}

/// The sufficient statistics of one RSU pair decode, in canonical
/// `(x, y)` orientation (see [`first_plays_x`]).
///
/// Eq. 5 depends on the sketches only through these seven numbers, so a
/// batch decoder can compute them once per pair — via whatever kernel is
/// cheapest — cache them, and replay [`estimate_from_counts`] for free
/// on repeated queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCounts {
    /// Size of the smaller array, `m_x`.
    pub m_x: usize,
    /// Size of the larger array, `m_y`.
    pub m_y: usize,
    /// Zero count of `B_x`.
    pub u_x: usize,
    /// Zero count of `B_y`.
    pub u_y: usize,
    /// Zero count of the combined array `B_c` (paper Eq. 4).
    pub u_c: usize,
    /// Counter of the RSU with the smaller array.
    pub n_x: u64,
    /// Counter of the RSU with the larger array.
    pub n_y: u64,
}

/// The canonical pair orientation shared by [`estimate_pair`] and every
/// cached decode path: `true` if the sketch described by
/// `(a_len, a_count, a_id)` plays `B_x` against `b`. The smaller array
/// is `B_x`; equal lengths tie-break on `(counter, id)` so the decision
/// is symmetric in argument order.
///
/// Exposed so batch decoders operating on raw uploads (not
/// [`RsuSketch`]s) produce orientations — and therefore estimates —
/// bit-identical to [`estimate_pair`].
#[inline]
#[must_use]
pub fn first_plays_x(
    a_len: usize,
    a_count: u64,
    a_id: RsuId,
    b_len: usize,
    b_count: u64,
    b_id: RsuId,
) -> bool {
    if a_len != b_len {
        a_len < b_len
    } else {
        (a_count, a_id) <= (b_count, b_id)
    }
}

/// Applies Eq. 5 to precomputed [`PairCounts`].
///
/// # Errors
///
/// * [`CoreError::InvalidParams`] if the counts fall outside the
///   estimator's domain (`m_x < 1`, `m_y < 2`, or `s < 1`) — possible
///   with hand-built [`PairCounts`], never with counts produced by the
///   decode paths;
/// * [`CoreError::Saturated`] if any of the three zero counts is zero.
pub fn estimate_from_counts(counts: &PairCounts, s: usize) -> Result<Estimate, CoreError> {
    estimate_from_counts_inner(counts, s, false)
}

/// Like [`estimate_from_counts`], but substitutes half a zero bit for
/// any saturated count and sets [`Estimate::clamped`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for out-of-domain counts, like
/// [`estimate_from_counts`]. Saturation is clamped, never an error.
pub fn estimate_from_counts_or_clamp(counts: &PairCounts, s: usize) -> Result<Estimate, CoreError> {
    estimate_from_counts_inner(counts, s, true)
}

fn validate_decode_domain(m_x: usize, m_y: usize, s: usize) -> Result<(), CoreError> {
    if m_x < 1 {
        return Err(CoreError::InvalidParams {
            parameter: "m_x",
            reason: format!("must be at least 1 (got {m_x})"),
        });
    }
    if m_y < 2 {
        return Err(CoreError::InvalidParams {
            parameter: "m_y",
            reason: format!("must be at least 2 (got {m_y})"),
        });
    }
    if s < 1 {
        return Err(CoreError::InvalidParams {
            parameter: "s",
            reason: format!("must be at least 1 (got {s})"),
        });
    }
    Ok(())
}

fn estimate_from_counts_inner(
    counts: &PairCounts,
    s: usize,
    clamp: bool,
) -> Result<Estimate, CoreError> {
    validate_decode_domain(counts.m_x, counts.m_y, s)?;
    let x = ZeroTerm::new(counts.u_x, counts.m_x, clamp)
        .ok_or(CoreError::Saturated { which: "B_x" })?;
    let y = ZeroTerm::new(counts.u_y, counts.m_y, clamp)
        .ok_or(CoreError::Saturated { which: "B_y" })?;
    estimate_from_terms(counts, x, y, denominator(counts.m_y, s), clamp)
}

/// One array's zero term in Eq. 5: the zero fraction `V = u / m` and
/// its logarithm.
///
/// `V_x` and `V_y` depend on one RSU alone, so a batch decoder computes
/// each RSU's term once and hands it to every pair the RSU takes part in
/// through [`estimate_from_terms`]. [`estimate_from_counts`] builds its
/// terms with this same function, so both paths return the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroTerm {
    /// The zero fraction `V` (half a zero bit over `m` when clamped).
    pub v: f64,
    /// `ln V`.
    pub ln_v: f64,
    /// `true` if the zero count was 0 and got clamped.
    pub clamped: bool,
}

impl ZeroTerm {
    /// The term of an array of `m` bits with `u` zeros. A saturated array
    /// (`u == 0`) gets half a zero bit when `clamp` is set — the usual
    /// continuity correction that keeps `ln` finite while staying below
    /// `1/m` — and no term otherwise.
    #[must_use]
    pub fn new(u: usize, m: usize, clamp: bool) -> Option<Self> {
        (u > 0 || clamp).then(|| Self::clamped(u, m))
    }

    /// [`ZeroTerm::new`] with clamping: the term always exists.
    #[inline]
    #[must_use]
    pub fn clamped(u: usize, m: usize) -> Self {
        let (v, clamped) = match u {
            0 => (0.5 / m as f64, true),
            _ => (u as f64 / m as f64, false),
        };
        Self {
            v,
            ln_v: v.ln(),
            clamped,
        }
    }
}

/// Eq. 5 itself, over precomputed per-array terms: `x` and `y` are the
/// zero terms of `B_x` and `B_y`, `denominator` is
/// [`denominator`]`(counts.m_y, s)`, and the combined array's term is
/// derived here from `counts.u_c`, clamped when `B_c` is saturated. Only
/// `m_x`, `m_y`, `u_c`, `n_x` and `n_y` of `counts` are read.
///
/// Infallible and inlined across crates: a batch decoder that has
/// already counted `U_c` pays the formula, one `ln` and nothing else.
/// Every estimate in the workspace — [`estimate_from_terms`],
/// [`estimate_from_counts`], [`estimate_pair`] and the servers' pair
/// and all-pairs answers — is this function's result.
#[inline]
#[must_use]
pub fn eq5(counts: &PairCounts, x: ZeroTerm, y: ZeroTerm, denominator: f64) -> Estimate {
    let c = ZeroTerm::clamped(counts.u_c, counts.m_y);
    Estimate {
        n_c: (c.ln_v - x.ln_v - y.ln_v) / denominator,
        v_x: x.v,
        v_y: y.v,
        v_c: c.v,
        m_x: counts.m_x,
        m_y: counts.m_y,
        n_x: counts.n_x,
        n_y: counts.n_y,
        clamped: x.clamped || y.clamped || c.clamped,
    }
}

/// Applies Eq. 5 to precomputed per-array terms, as [`eq5`] does, but
/// refuses a saturated combined array unless `clamp` is set.
///
/// [`estimate_from_counts`] is this function after validating the
/// domain and building both terms, so for the same inputs the two return
/// the same bits.
///
/// # Errors
///
/// [`CoreError::Saturated`] for `B_c` if `u_c == 0` and `clamp` is not
/// set.
pub fn estimate_from_terms(
    counts: &PairCounts,
    x: ZeroTerm,
    y: ZeroTerm,
    denominator: f64,
    clamp: bool,
) -> Result<Estimate, CoreError> {
    if counts.u_c == 0 && !clamp {
        return Err(CoreError::Saturated { which: "B_c" });
    }
    Ok(eq5(counts, x, y, denominator))
}

/// The estimator denominator `ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)`.
///
/// # Panics
///
/// Panics if `m_y < 2` or `s < 1`. Decode paths validate first (see
/// [`try_denominator`]), so the panic is reachable only by calling this
/// directly with out-of-domain arguments.
#[must_use]
pub fn denominator(m_y: usize, s: usize) -> f64 {
    try_denominator(m_y, s).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`denominator`]: returns
/// [`CoreError::InvalidParams`] instead of panicking when `m_y < 2` or
/// `s < 1`. This is the arm used by [`estimate_from_counts`], so hostile
/// [`PairCounts`] surface as typed errors rather than aborting the
/// decode thread.
pub fn try_denominator(m_y: usize, s: usize) -> Result<f64, CoreError> {
    validate_decode_domain(1, m_y, s)?;
    let m_y = m_y as f64;
    let t = (s as f64 - 1.0) / s as f64;
    Ok((-t / m_y).ln_1p() - (-1.0 / m_y).ln_1p())
}

/// Decodes a pair of sketches into an [`Estimate`] (paper Eq. 5).
///
/// The roles of `a` and `b` are symmetric; internally the smaller array
/// becomes `B_x` (the paper's "without loss of generality" convention).
///
/// # Errors
///
/// * [`CoreError::Saturated`] if any of `B_x`, `B_y`, `B_c` has no zero
///   bits;
/// * [`CoreError::BitArray`] if the array lengths are not nested (the
///   larger must be a multiple of the smaller — automatic for
///   power-of-two sizes).
pub fn estimate_pair(a: &RsuSketch, b: &RsuSketch, s: usize) -> Result<Estimate, CoreError> {
    estimate_pair_inner(a, b, s, false)
}

/// Like [`estimate_pair`], but substitutes half a zero bit for any
/// saturated count instead of failing, and sets [`Estimate::clamped`].
///
/// # Errors
///
/// Returns [`CoreError::BitArray`] if the array lengths are not nested.
pub fn estimate_pair_or_clamp(
    a: &RsuSketch,
    b: &RsuSketch,
    s: usize,
) -> Result<Estimate, CoreError> {
    estimate_pair_inner(a, b, s, true)
}

fn estimate_pair_inner(
    a: &RsuSketch,
    b: &RsuSketch,
    s: usize,
    clamp: bool,
) -> Result<Estimate, CoreError> {
    let a_first = first_plays_x(a.len(), a.count(), a.id(), b.len(), b.count(), b.id());
    let (x, y) = if a_first { (a, b) } else { (b, a) };
    let counts = PairCounts {
        m_x: x.len(),
        m_y: y.len(),
        u_x: x.zero_count(),
        u_y: y.zero_count(),
        u_c: combined_zero_count(x.bits(), y.bits())?,
        n_x: x.count(),
        n_y: y.count(),
    };
    estimate_from_counts_inner(&counts, s, clamp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcps_hash::RsuId;

    fn sketch(id: u64, m: usize, indices: &[usize]) -> RsuSketch {
        let mut s = RsuSketch::new(RsuId(id), m).unwrap();
        for &i in indices {
            s.record(i).unwrap();
        }
        s
    }

    #[test]
    fn denominator_is_positive_and_shrinks_with_m() {
        let d_small = denominator(16, 2);
        let d_large = denominator(1 << 20, 2);
        assert!(d_small > 0.0 && d_large > 0.0);
        assert!(d_large < d_small);
    }

    #[test]
    fn zero_overlap_signal_gives_near_zero_estimate() {
        // Disjoint bit patterns: V_c = V_x·V_y exactly means n̂_c = 0
        // only when the zero fractions multiply out; engineer that case.
        // With B_x all zeros except nothing and B_y likewise, V = 1 and
        // the numerator is ln 1 = 0.
        let x = sketch(1, 16, &[]);
        let y = sketch(2, 64, &[]);
        let e = estimate_pair(&x, &y, 2).unwrap();
        assert_eq!(e.n_c, 0.0);
        assert!(!e.clamped);
    }

    #[test]
    fn roles_are_symmetric() {
        let x = sketch(1, 16, &[1, 5]);
        let y = sketch(2, 64, &[1, 17, 40]);
        let ab = estimate_pair(&x, &y, 2).unwrap();
        let ba = estimate_pair(&y, &x, 2).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.m_x, 16);
        assert_eq!(ab.m_y, 64);
        assert_eq!(ab.n_x, 2);
        assert_eq!(ab.n_y, 3);
    }

    #[test]
    fn saturated_small_array_errors() {
        let x = sketch(1, 2, &[0, 1]);
        let y = sketch(2, 64, &[3]);
        assert_eq!(
            estimate_pair(&x, &y, 2),
            Err(CoreError::Saturated { which: "B_x" })
        );
    }

    #[test]
    fn clamped_variant_always_produces_a_value() {
        let x = sketch(1, 2, &[0, 1]);
        let y = sketch(2, 64, &[3]);
        let e = estimate_pair_or_clamp(&x, &y, 2).unwrap();
        assert!(e.clamped);
        assert!(e.n_c.is_finite());
    }

    #[test]
    fn non_nested_lengths_error() {
        let x = sketch(1, 24, &[]);
        let y = sketch(2, 64, &[]);
        assert!(matches!(
            estimate_pair(&x, &y, 2),
            Err(CoreError::BitArray(_))
        ));
    }

    #[test]
    fn estimate_helpers() {
        let e = Estimate {
            n_c: -3.0,
            v_x: 0.5,
            v_y: 0.5,
            v_c: 0.3,
            m_x: 8,
            m_y: 8,
            n_x: 4,
            n_y: 4,
            clamped: false,
        };
        assert_eq!(e.non_negative(), 0.0);
        assert_eq!(e.relative_error(0.0), None);
        assert_eq!(e.relative_error(6.0), Some(1.5));
    }

    #[test]
    fn confidence_interval_covers_feasible_range() {
        let x = sketch(
            1,
            1 << 10,
            &(0..300).map(|i| (i * 7) % (1 << 10)).collect::<Vec<_>>(),
        );
        let y = sketch(
            2,
            1 << 13,
            &(0..900).map(|i| (i * 13) % (1 << 13)).collect::<Vec<_>>(),
        );
        let e = estimate_pair(&x, &y, 2).unwrap();
        let (lo, hi) = e.confidence_interval(2, 0.95).unwrap();
        assert!(lo <= e.n_c.clamp(0.0, e.n_x.min(e.n_y) as f64));
        assert!(hi >= e.n_c.clamp(0.0, e.n_x.min(e.n_y) as f64));
        assert!(lo >= 0.0);
        assert!(hi <= e.n_x.min(e.n_y) as f64);
        let (lo99, hi99) = e.confidence_interval(2, 0.99).unwrap();
        assert!(lo99 <= lo && hi99 >= hi, "wider at higher confidence");
    }

    #[test]
    fn degraded_estimate_spans_the_feasible_interval() {
        let d = DegradedEstimate::from_volumes(1_000.0, 4_000.0, true, false);
        assert_eq!(d.upper, 1_000.0);
        assert_eq!(d.lower, 0.0);
        assert_eq!(d.n_c, 500.0);
        assert!(d.missing_x && !d.missing_y);
        let p = PairEstimate::Degraded(d);
        assert!(p.is_degraded());
        assert_eq!(p.n_c(), 500.0);
        assert!(p.measured().is_none());
    }

    #[test]
    fn degraded_estimate_clamps_negative_history() {
        let d = DegradedEstimate::from_volumes(-5.0, 100.0, true, true);
        assert_eq!(d.upper, 0.0);
        assert_eq!(d.n_c, 0.0);
    }

    #[test]
    fn measured_pair_estimate_exposes_inner() {
        let x = sketch(1, 16, &[1]);
        let y = sketch(2, 64, &[2]);
        let e = estimate_pair(&x, &y, 2).unwrap();
        let p = PairEstimate::Measured(e);
        assert!(!p.is_degraded());
        assert_eq!(p.n_c(), e.n_c);
        assert_eq!(p.measured(), Some(&e));
    }

    #[test]
    fn counts_based_decode_matches_sketch_based() {
        let x = sketch(1, 16, &[1, 5]);
        let y = sketch(2, 64, &[1, 17, 40]);
        let via_sketches = estimate_pair(&x, &y, 2).unwrap();
        let counts = PairCounts {
            m_x: 16,
            m_y: 64,
            u_x: x.zero_count(),
            u_y: y.zero_count(),
            u_c: combined_zero_count(x.bits(), y.bits()).unwrap(),
            n_x: 2,
            n_y: 3,
        };
        assert_eq!(estimate_from_counts(&counts, 2).unwrap(), via_sketches);
        assert_eq!(
            estimate_from_counts_or_clamp(&counts, 2).unwrap(),
            via_sketches
        );
    }

    #[test]
    fn counts_based_decode_saturates_and_clamps() {
        let counts = PairCounts {
            m_x: 8,
            m_y: 8,
            u_x: 0,
            u_y: 4,
            u_c: 2,
            n_x: 20,
            n_y: 4,
        };
        assert_eq!(
            estimate_from_counts(&counts, 2),
            Err(CoreError::Saturated { which: "B_x" })
        );
        let clamped = estimate_from_counts_or_clamp(&counts, 2).unwrap();
        assert!(clamped.clamped);
        assert!(clamped.n_c.is_finite());
    }

    /// Regression: hostile `PairCounts` (out-of-domain `m_y`/`s`) used to
    /// abort the decode thread through `denominator`'s `assert!`; they
    /// must surface as typed `InvalidParams` errors through both public
    /// entry points.
    #[test]
    fn hostile_counts_yield_invalid_params_not_panic() {
        let hostile_m_y = PairCounts {
            m_x: 8,
            m_y: 1,
            u_x: 4,
            u_y: 1,
            u_c: 1,
            n_x: 3,
            n_y: 5,
        };
        assert!(matches!(
            estimate_from_counts(&hostile_m_y, 2),
            Err(CoreError::InvalidParams {
                parameter: "m_y",
                ..
            })
        ));
        assert!(matches!(
            estimate_from_counts_or_clamp(&hostile_m_y, 2),
            Err(CoreError::InvalidParams {
                parameter: "m_y",
                ..
            })
        ));

        let hostile_s = PairCounts {
            m_x: 8,
            m_y: 16,
            u_x: 4,
            u_y: 8,
            u_c: 6,
            n_x: 3,
            n_y: 5,
        };
        assert!(matches!(
            estimate_from_counts(&hostile_s, 0),
            Err(CoreError::InvalidParams { parameter: "s", .. })
        ));

        let hostile_m_x = PairCounts {
            m_x: 0,
            m_y: 16,
            u_x: 0,
            u_y: 8,
            u_c: 6,
            n_x: 3,
            n_y: 5,
        };
        assert!(matches!(
            estimate_from_counts_or_clamp(&hostile_m_x, 2),
            Err(CoreError::InvalidParams {
                parameter: "m_x",
                ..
            })
        ));

        assert!(matches!(
            try_denominator(1, 2),
            Err(CoreError::InvalidParams {
                parameter: "m_y",
                ..
            })
        ));
        assert!(try_denominator(16, 2).is_ok());
        assert_eq!(try_denominator(16, 2).unwrap(), denominator(16, 2));
    }

    #[test]
    fn orientation_helper_matches_pair_decode() {
        // Different lengths: shorter plays x regardless of counters.
        assert!(first_plays_x(16, 99, RsuId(9), 64, 1, RsuId(1)));
        assert!(!first_plays_x(64, 1, RsuId(1), 16, 99, RsuId(9)));
        // Equal lengths: (counter, id) tie-break, symmetric.
        assert!(first_plays_x(16, 1, RsuId(2), 16, 1, RsuId(3)));
        assert!(!first_plays_x(16, 1, RsuId(3), 16, 1, RsuId(2)));
        assert!(first_plays_x(16, 1, RsuId(3), 16, 2, RsuId(2)));
    }

    /// End-to-end sanity: simulate the abstract process with a known
    /// overlap and check the estimator recovers it.
    #[test]
    fn recovers_known_overlap() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let (m_x, m_y) = (1usize << 12, 1usize << 15);
        let (n_x, n_y, n_c, s) = (1_000usize, 8_000usize, 300usize, 2usize);
        let r = m_y / m_x;
        let mut x = RsuSketch::new(RsuId(1), m_x).unwrap();
        let mut y = RsuSketch::new(RsuId(2), m_y).unwrap();
        for _ in 0..n_c {
            let bx = rng.random_range(0..m_x);
            x.record(bx).unwrap();
            let by = if rng.random_range(0.0..1.0) < 1.0 / s as f64 {
                bx + m_x * rng.random_range(0..r)
            } else {
                rng.random_range(0..m_y)
            };
            y.record(by).unwrap();
        }
        for _ in 0..n_x - n_c {
            x.record(rng.random_range(0..m_x)).unwrap();
        }
        for _ in 0..n_y - n_c {
            y.record(rng.random_range(0..m_y)).unwrap();
        }
        let e = estimate_pair(&x, &y, s).unwrap();
        let rel = e.relative_error(n_c as f64).unwrap();
        assert!(rel < 0.25, "estimate {} vs truth {n_c} (rel {rel})", e.n_c);
        assert_eq!(e.n_x, n_x as u64);
        assert_eq!(e.n_y, n_y as u64);
    }
}
