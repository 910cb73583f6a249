//! The stages of `FlowContext::build`, replayed one public call at a time
//! so that each gets its own span.

use crate::trace::Tracer;
use pilfill_core::flow::{FlowConfig, FlowError};
use pilfill_core::{
    build_tile_problems, def_three_capacities, extract_net_lines_with, extract_obstruction_lines,
    scan_slack_columns_into, ExtractScratch, ScanScratch,
};
use pilfill_density::{lp_budget, montecarlo_budget, DensityMap, FixedDissection};
use pilfill_layout::{Design, NetId};

/// The spans [`build_stages`] records, in build order.
pub const BUILD_STAGES: [&str; 6] = [
    "core.extract_ms",
    "core.scan_ms",
    "core.capacity_ms",
    "density.map_ms",
    "density.budget_ms",
    "core.tiles_ms",
];

/// Replays the build of `design` under `config` stage by stage. The target
/// layer must route horizontally (the build transposes other layers
/// first, which this replay does not time).
pub fn build_stages(
    design: &Design,
    config: &FlowConfig,
    tr: &mut Tracer,
) -> Result<(), FlowError> {
    let dissection = FixedDissection::new(design.die, config.window, config.r)?;
    let lines = tr.span("core.extract_ms", || {
        let mut lines = Vec::new();
        let mut scratch = ExtractScratch::default();
        for ni in 0..design.nets.len() {
            extract_net_lines_with(design, config.layer, NetId(ni), &mut scratch, &mut lines)?;
        }
        extract_obstruction_lines(design, config.layer, &mut lines);
        Ok::<_, FlowError>(lines)
    })?;
    let columns = tr.span("core.scan_ms", || {
        let mut columns = Vec::new();
        let mut scratch = ScanScratch::default();
        scan_slack_columns_into(&lines, design.die, design.rules, &mut scratch, &mut columns);
        columns
    });
    let slack: Vec<u32> = tr.span("core.capacity_ms", || {
        def_three_capacities(&columns, &dissection, design.rules)
            .into_iter()
            .map(|c| u32::try_from(c).unwrap_or(u32::MAX))
            .collect()
    });
    let map = tr.span("density.map_ms", || {
        let map = DensityMap::compute(design, config.layer, &dissection);
        let _ = map.analyze();
        map
    });
    let area = design.rules.feature_area();
    tr.span("density.budget_ms", || {
        if config.lp_budget {
            lp_budget(&map, &slack, area, config.max_density)
        } else {
            montecarlo_budget(&map, &slack, area, config.max_density)
        }
    })?;
    tr.span("core.tiles_ms", || {
        build_tile_problems(
            &lines,
            &columns,
            &dissection,
            &design.tech,
            design.rules,
            config.def,
        )
    });
    Ok(())
}
