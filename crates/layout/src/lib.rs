//! # pilfill-layout
//!
//! Routed-layout database for PIL-Fill: the data the original experiments
//! read from industry LEF/DEF files, rebuilt as a self-contained model.
//!
//! A [`Design`] owns a die area, a technology description ([`Tech`]), fill
//! design rules ([`FillRules`]), routing [`Layer`]s and routed [`Net`]s.
//! Each net is a source-rooted routing tree of rectilinear [`Segment`]s;
//! the RC crate (`pilfill-rc`) annotates segments with entry resistance and
//! downstream-sink weights, and the core crate extracts per-tile *active
//! lines* from segment geometry.
//!
//! Three entry points matter to users:
//!
//! - build a design programmatically with [`DesignBuilder`];
//! - read/write the plain-text interchange format with [`Design::from_text`]
//!   / [`Design::to_text`] (our substitution for DEF, see `DESIGN.md`);
//! - generate industry-like testcases with [`synth::synthesize`] (the
//!   substitution for the paper's proprietary T1/T2 layouts).
//!
//! # Examples
//!
//! ```
//! use pilfill_layout::synth::{SynthConfig, synthesize};
//!
//! let design = synthesize(&SynthConfig::small_test(7));
//! assert!(design.validate().is_ok());
//! assert!(!design.nets.is_empty());
//! ```

mod builder;
mod design;
mod error;
mod io;
mod net;
pub mod stats;
pub mod synth;

pub use builder::DesignBuilder;
pub use design::{Design, FillRules, Layer, LayerId, Obstruction, Tech};
pub use error::LayoutError;
pub use net::{Net, NetId, NetTopology, Segment, SegmentId, SignalDir, TreeWalk};
