// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! Renders the experiment testcases and a filled result as SVG — the
//! visual counterparts of the paper's layout illustrations, generated
//! from live data into `results/`.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin render_layouts`

use pilfill_bench::experiments::default_threads;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::{IlpTwo, NormalFill};
use pilfill_core::WorkerPool;
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_layout::LayerId;
use pilfill_viz::{DensityView, LayoutView, Theme};

fn main() {
    std::fs::create_dir_all("results").expect("results dir");
    let theme = Theme::default();
    let pool = WorkerPool::new(default_threads());

    for design in [t1(), t2()] {
        let tag = design.name.to_lowercase();

        // Bare layout.
        let svg = LayoutView::new(&design).render(&theme);
        let path = format!("results/{tag}_layout.svg");
        std::fs::write(&path, svg).expect("write layout svg");
        println!("wrote {path}");

        // Density heat map before fill.
        let dissection = FixedDissection::new(design.die, 32_000, 2).expect("dissection");
        let map = DensityMap::compute(&design, LayerId(0), &dissection);
        let path = format!("results/{tag}_density_before.svg");
        std::fs::write(
            &path,
            DensityView::new(&map).with_max_density(0.5).render(640.0),
        )
        .expect("write density svg");
        println!("wrote {path}");

        // Filled layout (ILP-II) + density after, on a shared color scale.
        let cfg = FlowConfig::new(32_000, 2).expect("config");
        let ctx = FlowContext::build(&design, &cfg).expect("context");
        for method in [
            &IlpTwo as &(dyn pilfill_core::methods::FillMethod + Sync),
            &NormalFill,
        ] {
            let outcome = ctx.run_pool(&cfg, method, &pool).expect("fill run");
            let name = outcome.method.to_lowercase().replace('-', "");
            let svg = LayoutView::new(&design)
                .with_fill(&outcome.features)
                .render(&theme);
            let path = format!("results/{tag}_filled_{name}.svg");
            std::fs::write(&path, svg).expect("write filled svg");
            println!(
                "wrote {path} ({} features, {:.3} fs impact)",
                outcome.placed_features,
                outcome.impact.total_delay * 1e15
            );

            let mut after = map.clone();
            for f in &outcome.features {
                if let Some(cell) = dissection.tiles().cell_at(f.x, f.y) {
                    after.add_tile_area(cell, design.rules.feature_area());
                }
            }
            let path = format!("results/{tag}_density_after_{name}.svg");
            std::fs::write(
                &path,
                DensityView::new(&after).with_max_density(0.5).render(640.0),
            )
            .expect("write density-after svg");
            println!("wrote {path}");
        }
    }
}
