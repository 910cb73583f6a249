//! # pilfill-density
//!
//! Layout density analysis and fill budgeting in the fixed *r*-dissection
//! framework (paper Section 1, Figure 1), plus the density-only fill
//! budgeting of the "normal fill" baseline (Chen–Kahng–Robins–Zelikovsky,
//! TCAD 2002 — the paper's reference \[3\]).
//!
//! - [`FixedDissection`]: the tile grid induced by window size `w` and
//!   dissection parameter `r` (tile size `w/r`), and the `r^2` overlapping
//!   window phases.
//! - [`DensityMap`]: per-tile feature area, window density queries and the
//!   min/max/variation analysis foundries care about.
//! - [`budget`]: how many fill features each tile must receive. Two
//!   implementations of the reference-\[3\] budgeting step: an exact
//!   Min-Var LP (small grids) and the scalable Monte-Carlo/greedy
//!   iteration. Both respect per-tile slack capacity and a window density
//!   upper bound, and both are *density-only* — deciding where inside each
//!   tile the features go is the PIL-Fill core's job.
//!
//! # Examples
//!
//! ```
//! use pilfill_density::FixedDissection;
//! use pilfill_geom::Rect;
//!
//! // 4 windows across, r = 2 -> 8x8 tiles, 7x7 overlapping windows.
//! let d = FixedDissection::new(Rect::new(0, 0, 64_000, 64_000), 16_000, 2)?;
//! assert_eq!(d.tiles().nx(), 8);
//! assert_eq!(d.windows().count(), 49);
//! # Ok::<(), pilfill_density::DissectionError>(())
//! ```

pub mod budget;
mod dissection;
mod map;
pub mod smoothness;

pub use budget::{lp_budget, montecarlo_budget, BudgetError, FillBudget};
pub use dissection::{DissectionError, FixedDissection, Window};
pub use map::{DensityAnalysis, DensityMap};
pub use smoothness::{gradient_analysis, multi_scale_analysis, GradientAnalysis, ScaleAnalysis};
