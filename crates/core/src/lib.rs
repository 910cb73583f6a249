//! # pilfill-core
//!
//! The PIL-Fill core: Performance-Impact Limited area fill synthesis
//! (Chen, Gupta, Kahng, 2003).
//!
//! Given a routed design and a per-tile fill budget (from the density
//! engine), the *Minimum Delay with Fill Constraint* (MDFC) problem asks
//! where inside each tile the prescribed fill features should go so that
//! the total (optionally downstream-sink-weighted) Elmore delay increase is
//! minimized.
//!
//! The crate provides:
//!
//! - [`ActiveLine`] extraction and the scan-line slack-column algorithm of
//!   the paper's Figure 7 ([`scan_slack_columns`]);
//! - the three slack-column definitions of Section 5.1
//!   ([`SlackColumnDef`]) and per-tile problem construction
//!   ([`TileProblem`]);
//! - the four placement methods of Section 5/6: the density-only
//!   [`methods::NormalFill`] baseline, [`methods::IlpOne`] (linearized
//!   capacitance, Sec. 5.2), [`methods::IlpTwo`] (lookup-table ILP,
//!   Sec. 5.3), [`methods::GreedyFill`] (Fig. 8), plus an exact
//!   dynamic-programming reference ([`methods::DpExact`]) used for
//!   verification;
//! - the method-independent delay-impact evaluator ([`evaluate`]) and the
//!   end-to-end [`flow`] that regenerates the paper's experiments.
//!
//! # Examples
//!
//! ```
//! use pilfill_core::flow::{FlowConfig, run_flow};
//! use pilfill_core::methods::GreedyFill;
//! use pilfill_layout::synth::{SynthConfig, synthesize};
//!
//! let design = synthesize(&SynthConfig::small_test(1));
//! let config = FlowConfig::new(8_000, 2)?;
//! let outcome = run_flow(&design, &config, &GreedyFill)?;
//! assert_eq!(outcome.placed_features, outcome.budget_total);
//! # Ok::<(), pilfill_core::FlowError>(())
//! ```

pub mod budget_ext;
pub mod evaluate;
pub mod flow;
mod line;
pub mod methods;
mod scan;
mod tile;
pub mod verify;

pub use evaluate::{evaluate_placement, DelayImpact};
pub use flow::{
    run_flow, run_flow_streamed, FlowConfig, FlowContext, FlowError, FlowOutcome, RebuildDirt,
    RebuildStats, TileCounts, TileSlot,
};
pub use line::{
    extract_active_lines, extract_active_lines_into, extract_net_lines, extract_net_lines_with,
    extract_obstruction_lines, ActiveLine, ExtractScratch,
};
pub use pilfill_exec::WorkerPool;
pub use scan::layout;
pub use scan::{
    scan_site_columns, scan_slack_columns, scan_slack_columns_into, site_column_count, ScanScratch,
    SlackColumn, Slots,
};
pub use tile::{
    build_slab_problems, build_tile_problems, build_tile_problems_pool, def_three_capacities,
    slab_ranges, AdjacentNets, SlackColumnDef, TileColumn, TileProblem,
};
pub use verify::{check_fill, DrcReport, DrcViolation};

/// A placed square fill feature (lower-left corner; side length comes from
/// the design's [`pilfill_layout::FillRules`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FillFeature {
    /// Lower-left x.
    pub x: pilfill_geom::Coord,
    /// Lower-left y.
    pub y: pilfill_geom::Coord,
}

impl FillFeature {
    /// The drawn rectangle given the feature side length. `x + size` and
    /// `y + size` must fit `i64`; [`check_fill`] reports a feature whose
    /// square does not as off the die.
    pub fn rect(&self, size: pilfill_geom::Coord) -> pilfill_geom::Rect {
        pilfill_geom::Rect::new(self.x, self.y, self.x + size, self.y + size)
    }
}
