//! Compact bit arrays with power-of-two *unfolding* for traffic-volume
//! sketches.
//!
//! This crate is the storage substrate of the VCPS point-to-point traffic
//! measurement scheme (Zhou et al., ICDCS 2015). Each road-side unit (RSU)
//! maintains one [`BitArray`] whose length is a power of two; vehicles set a
//! single pseudo-random bit per query. At decode time the central server
//! *unfolds* the smaller of two arrays — duplicating its content until both
//! arrays have the same length (paper Eq. 3) — ORs them together (Eq. 4),
//! and counts zero bits.
//!
//! The crate provides:
//!
//! * [`BitArray`] — a fixed-length bit vector backed by `u64` words with
//!   an O(1) cached ones-count, set-bit iteration, and bitwise OR/AND.
//! * [`Pow2`] — a validated power-of-two length (paper §IV-A requires
//!   `m = 2^k` so that any two array lengths divide each other).
//! * [`unfold`](BitArray::unfold) — the paper's unfolding operation.
//! * [`combined_zero_count`] — a streaming implementation that counts the
//!   zeros of `unfold(B_x) | B_y` **without materializing** the unfolded
//!   array (an ablation target; see the workspace DESIGN.md), over a
//!   small side that [`UnfoldOperand`] prepares once for many pairs.
//!
//! # Example
//!
//! ```
//! use vcps_bitarray::{BitArray, combined_zero_count};
//!
//! # fn main() -> Result<(), vcps_bitarray::BitArrayError> {
//! let mut bx = BitArray::new(8);
//! bx.set(1);
//! bx.set(6);
//! let mut by = BitArray::new(16);
//! by.set(3);
//! by.set(9);
//!
//! // Unfold B_x to B_y's size and OR: the paper's decode-time combination.
//! let bxu = bx.unfold(16)?;
//! let bc = bxu.or(&by)?;
//! assert_eq!(bc.count_ones(), 5); // {1, 6, 9, 14} from B_x^u ∪ {3, 9} from B_y
//!
//! // Identical result without materializing B_x^u:
//! assert_eq!(combined_zero_count(&bx, &by)?, bc.count_zeros());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bit_array;
mod error;
mod kernels;
mod ops;
mod pow2;
mod sparse;

pub use bit_array::{BitArray, Ones};
pub use error::BitArrayError;
pub use kernels::{
    combined_zero_count_adaptive, combined_zero_count_dense_sparse,
    combined_zero_count_sparse_dense, combined_zero_count_sparse_sparse,
    combined_zero_count_sparse_sparse_with, select_pair_kernel, select_pair_kernel_with_cost,
    sparse_is_profitable, validate_sparse_indices, DecodeScratch, PairKernel,
    SPARSE_DENSIFY_BITS_PER_ONE,
};
pub use ops::{combined_zero_count, combined_zero_count_naive, UnfoldOperand};
pub use pow2::Pow2;
pub use sparse::SparseBits;
