//! Support utilities shared across the qTask workspace.
//!
//! These are small, self-contained building blocks:
//!
//! * [`arena`] — a generational arena with stable keys, used for gates,
//!   nets, rows and partitions whose ids must survive unrelated removals.
//! * [`linked`] — an ordered arena (doubly-linked list over arena slots)
//!   used for the global row order and the net order, where the simulator
//!   needs O(1) insert-after / remove and bidirectional neighbour walks.
//! * [`alloc_counter`] — a counting global allocator used by the benchmark
//!   harness to report peak memory (the paper's `mem` column).

pub mod alloc_counter;
pub mod arena;
pub mod linked;

pub use arena::{Arena, IdPredictor, Key};
pub use linked::LinkedArena;
