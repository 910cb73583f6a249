//! # pilfill-rc
//!
//! Interconnect capacitance and Elmore-delay engine for PIL-Fill,
//! implementing Section 3 of the paper.
//!
//! - [`CouplingModel`]: parallel-plate lateral coupling between active
//!   lines, the exact fill-perturbed capacitance `f(m, d)` of Eq. (5), its
//!   linearization of Eq. (6) (used by ILP-I), and the per-column
//!   incremental capacitance both ILP-II's lookup table ([`CapTable`]) and
//!   the method-independent evaluator consume. The table is plain `Copy`
//!   data evaluated in closed form per lookup, not a stored `Vec`, so a
//!   tile column that holds one owns no heap memory.
//! - [`elmore`]: Elmore delay on RC trees ([`RcTree`]) with the additivity
//!   property of Eq. (9) — adding capacitance `dC` at a point with upstream
//!   resistance `R` increases every downstream sink's delay by `R * dC`.
//! - [`annotate`]: per-segment entry (upstream) resistance and
//!   downstream-sink weights `W_l` for every net of a design, the inputs of
//!   the MDFC formulations.
//!
//! # Examples
//!
//! ```
//! use pilfill_rc::CouplingModel;
//! use pilfill_layout::Tech;
//!
//! let model = CouplingModel::new(&Tech::default_180nm());
//! // More fill features between two lines -> more added capacitance.
//! let d = 4_000; // line spacing, dbu
//! let w = 400;   // fill feature size, dbu
//! assert!(model.delta_cap_exact(2, d, w) > model.delta_cap_exact(1, d, w));
//! // The linearization underestimates the exact increment.
//! assert!(model.delta_cap_linear(3, d, w) < model.delta_cap_exact(3, d, w));
//! ```

pub mod annotate;
mod coupling;
pub mod elmore;
pub mod slack;

pub use annotate::{
    annotate_design, annotate_net, annotate_net_into, AnnotateScratch, NetTiming, SegmentTiming,
};
pub use coupling::{max_fill_features, CapTable, CouplingModel};
pub use elmore::{RcChain, RcTree};
pub use slack::{cap_budgets_from_slack, default_wire_cap_per_m, net_slack, NetSlack};

/// Vacuum permittivity in F/m.
pub const EPS0: f64 = 8.854e-12;

/// Meters per database unit (1 dbu = 1 nm).
pub const METERS_PER_DBU: f64 = 1e-9;
