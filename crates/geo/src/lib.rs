//! Planar geometry primitives for the photodtn photo-coverage model.
//!
//! The photo coverage model of Wu et al. (ICDCS'16) reasons about three
//! geometric notions:
//!
//! * **Points and vectors** on the plane ([`Point`], [`Vec2`]) — camera and
//!   Point-of-Interest (PoI) locations, in meters.
//! * **Angles and arcs** on the unit circle ([`Angle`], [`Arc`], [`ArcSet`]) —
//!   *aspects* of a PoI are directions in `[0, 2π)`; the set of covered
//!   aspects is a union of arcs whose total measure is the *aspect coverage*.
//! * **Camera sectors** ([`Sector`]) — a photo covers the circular sector
//!   determined by the camera location, coverage range, field-of-view and
//!   orientation (Fig. 1(a) of the paper).
//!
//! # Example
//!
//! ```
//! use photodtn_geo::{Angle, Arc, ArcSet, Point, Sector};
//!
//! // A camera at the origin pointing east with a 60° field of view and
//! // 100 m range.
//! let sector = Sector::new(Point::new(0.0, 0.0), 100.0, Angle::from_degrees(60.0), Angle::ZERO);
//! assert!(sector.contains(Point::new(50.0, 0.0)));
//! assert!(!sector.contains(Point::new(-50.0, 0.0)));
//!
//! // Aspect arithmetic: two opposite 40°-wide views cover 80° in total.
//! let mut set = ArcSet::new();
//! set.insert(Arc::centered(Angle::ZERO, Angle::from_degrees(20.0)));
//! set.insert(Arc::centered(Angle::PI, Angle::from_degrees(20.0)));
//! assert!((set.measure().to_degrees() - 80.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod arc;
mod arcset;
mod aspectbits;
mod bbox;
mod point;
mod sector;
mod segment;

pub use angle::Angle;
pub use arc::Arc;
pub use arcset::ArcSet;
pub use aspectbits::{AspectBits, ASPECT_BINS, ASPECT_BIN_WIDTH};
pub use bbox::BBox;
pub use point::{Point, Vec2};
pub use sector::Sector;
pub use segment::Segment;

/// The full circle, `2π` radians.
pub const TAU: f64 = std::f64::consts::TAU;

/// Tolerance used when comparing angular quantities.
///
/// Arc endpoints closer than this are considered coincident; this absorbs
/// floating point noise accumulated by repeated unions and subtractions.
pub const ANGLE_EPS: f64 = 1e-9;
