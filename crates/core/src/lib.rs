//! The resource-aware photo selection framework of Wu et al. (ICDCS'16) —
//! the paper's primary contribution, built on the coverage model from
//! [`photodtn_coverage`].
//!
//! # Components
//!
//! * [`validity`] / [`MetadataCache`] — metadata management (§III-B):
//!   nodes gossip photo metadata at contacts; a cached snapshot of node
//!   `a` is trusted only while
//!   `P{T_a < t} = 1 − e^{−λ_a t} ≤ P_thld`, i.e. while `a` probably has
//!   not met anyone since (and so probably still holds the same photos).
//! * [`expected`] — expected coverage (§III-C): the coverage the command
//!   center can *expect* to obtain, weighting each node's photos by its
//!   PROPHET delivery probability. The incremental
//!   [`ExpectedEngine`](expected::ExpectedEngine) powers greedy selection;
//!   an exact polynomial-time segment decomposition evaluates a whole node
//!   set, and exact outcome enumeration (the paper's Definition 2,
//!   exponential in the node count) is the oracle both are tested against.
//! * [`selection`] — the photo selection algorithm (§III-D): at each
//!   contact the two nodes greedily re-allocate the photo pool
//!   `F_a ∪ F_b` to maximize expected coverage under their storage
//!   limits, higher-delivery-probability node first.
//! * [`transmission`] — the contact-duration adjustment (§III-D): photos
//!   are transmitted in selection order so that a truncated contact still
//!   delivers the most valuable prefix.
//!
//! # Example: one contact, end to end
//!
//! ```
//! use photodtn_contacts::NodeId;
//! use photodtn_coverage::{CoverageParams, Photo, PhotoMeta, Poi, PoiList};
//! use photodtn_core::selection::{reallocate, PeerState, SelectionInput};
//! use photodtn_geo::{Angle, Point};
//!
//! let pois = PoiList::new(vec![Poi::new(0, Point::new(0.0, 0.0))]);
//! let shot = |id: u64, deg: f64| {
//!     let dir = Angle::from_degrees(deg);
//!     let loc = Point::new(0.0, 0.0).offset(dir, 60.0);
//!     Photo::new(id, PhotoMeta::new(loc, 100.0, Angle::from_degrees(50.0),
//!                                   dir + Angle::PI), 0.0).with_size(1)
//! };
//! let input = SelectionInput {
//!     pois: &pois,
//!     params: CoverageParams::default(),
//!     a: PeerState { node: NodeId(0), delivery_prob: 0.9,
//!                    capacity: 2, photos: vec![shot(1, 0.0), shot(2, 5.0)] },
//!     b: PeerState { node: NodeId(1), delivery_prob: 0.2,
//!                    capacity: 2, photos: vec![shot(3, 180.0)] },
//!     others: vec![],
//! };
//! let result = reallocate(&input);
//! // The strong relay takes the two most complementary views.
//! assert_eq!(result.a_selected.len(), 2);
//! assert!(result.a_selected.contains(&photodtn_coverage::PhotoId(1)));
//! assert!(result.a_selected.contains(&photodtn_coverage::PhotoId(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expected;
mod metadata;
pub mod selection;
pub mod transmission;
pub mod validity;

pub use metadata::{MetadataCache, MetadataRecord};
