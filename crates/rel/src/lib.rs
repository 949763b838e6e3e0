//! Relational key and row formats.
//!
//! The paper's thesis is that twig indexes should be "tightly integrated
//! with relational query processors" (§1): index probes must look like
//! ordinary index scans over ordinary relations. This crate provides the
//! formats those relations are stored in; the joins that compose the
//! probes into twig matches are `xtwig-core`'s (`core::engine`).
//!
//! * [`value`] — typed values, tuples, and row (de)serialization.
//! * [`codec`] — the order-preserving composite-key codec that turns
//!   `(LeafValue, ReverseSchemaPath, …)` rows into B+-tree keys whose
//!   byte order equals tuple order, so prefix probes implement both
//!   anchored and `//`-headed PCsubpath lookups; and the IdList codecs.
//! * [`heap`] — slotted-page heap files (the Edge table lives here).

pub mod codec;
pub mod heap;
pub mod value;

pub use heap::{HeapFile, RecordId};
pub use value::{ColType, Tuple, Value};
