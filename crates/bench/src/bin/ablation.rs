//! Quality ablations of the advisor's design choices (see DESIGN.md §5).
//!
//! Each ablation removes or varies one design decision and reports the
//! resulting error / model count on the real-data proxies:
//!
//! * **indicators** — λ = 0 (historical error only) vs λ = 1 (combined)
//!   vs λ = 4 (similarity-heavy): validates combining both ingredients;
//! * **gamma** — adaptive γ vs fixed γ = 0: validates the feedback loop
//!   on the phases' counted work;
//! * **multisource** — 0 vs 8 vs 32 asynchronous multi-source rounds per
//!   iteration: validates the §IV-C.2 component;
//! * **seed** — with vs without the top-node seed model.
//!
//! Usage: `cargo run -p fdc-bench --release --bin ablation`

use fdc_bench::run_advisor;
use fdc_core::AdvisorOptions;
use fdc_cube::Dataset;
use fdc_datagen::{sales_proxy, tourism_proxy};

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![("tourism", tourism_proxy(1)), ("sales", sales_proxy(1))]
}

fn report(tag: &str, name: &str, options: AdvisorOptions, ds: &Dataset) {
    let row = run_advisor(ds, options);
    println!(
        "{tag:<14} {name:<9} {:>10.4} {:>9} {:>12.3?}",
        row.error, row.models, row.wall_time
    );
}

fn main() {
    let _obs = fdc_bench::obs_session();
    println!(
        "{:<14} {:<9} {:>10} {:>9} {:>12}",
        "ablation", "dataset", "error", "#models", "wall time"
    );

    for (name, ds) in datasets() {
        for lambda in [0.0, 1.0, 4.0] {
            report(
                &format!("lambda={lambda}"),
                name,
                AdvisorOptions {
                    lambda,
                    ..AdvisorOptions::default()
                },
                &ds,
            );
        }
    }

    for (name, ds) in datasets() {
        report(
            "gamma=adaptive",
            name,
            AdvisorOptions {
                adaptive_gamma: true,
                ..AdvisorOptions::default()
            },
            &ds,
        );
        report(
            "gamma=fixed",
            name,
            AdvisorOptions {
                adaptive_gamma: false,
                ..AdvisorOptions::default()
            },
            &ds,
        );
    }

    for (name, ds) in datasets() {
        for steps in [0usize, 8, 32] {
            report(
                &format!("multisrc={steps}"),
                name,
                AdvisorOptions {
                    multisource_steps: steps,
                    ..AdvisorOptions::default()
                },
                &ds,
            );
        }
    }

    for (name, ds) in datasets() {
        for seed_top in [true, false] {
            report(
                &format!("seedtop={seed_top}"),
                name,
                AdvisorOptions {
                    seed_top_model: seed_top,
                    ..AdvisorOptions::default()
                },
                &ds,
            );
        }
    }

    fdc_bench::emit_metrics("ablation");
}
