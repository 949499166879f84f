//! The six experiments of the paper's evaluation section.
//!
//! Every function returns a rendered text artifact; the `repro_*`
//! binaries print it and archive it under `results/`. Absolute values
//! differ from the paper, because the datasets are seeded synthetic
//! stand-ins for the raw ones (see `gnmr_data`); what carries over is
//! the *shape* of each result.

use gnmr::eval::table::fmt_metric;
use gnmr::prelude::*;

use crate::registry::{self, Budget, TABLE2_MODELS, TABLE3_MODELS};

/// Evaluation threads for the harness, resolved from the shared
/// thread-count config (`GNMR_THREADS`, a programmatic override, or the
/// machine's parallelism) so one knob governs the repro binaries too.
fn threads() -> usize {
    gnmr::tensor::par::num_threads()
}

/// Table I: statistics of the three datasets.
pub fn table1(seed: u64) -> String {
    let mut t = Table::new(&["Dataset", "User #", "Item #", "Interaction #", "Behavior Types"]);
    for data in registry::datasets(seed) {
        let s = &data.full_stats;
        let behaviors: Vec<&str> = s.per_behavior.iter().map(|(n, _)| n.as_str()).collect();
        t.row(&[
            data.name.clone(),
            s.n_users.to_string(),
            s.n_items.to_string(),
            format!("{:.2e}", s.n_interactions as f64),
            format!("{{{}}}", behaviors.join(", ")),
        ]);
    }
    format!("Table I - dataset statistics (synthetic, harness scale)\n\n{t}")
}

/// Tables II and III, computed together so the Yelp models are trained
/// once: Table II is HR@10/NDCG@10 for all 13 models on all 3 datasets;
/// Table III sweeps N in {1,3,5,7,9} on Yelp for 7 models.
pub fn table2_and_table3(seed: u64, budget: &Budget) -> (String, String) {
    let datasets = registry::datasets(seed);
    let ns_sweep = [1usize, 3, 5, 7, 9, 10];

    let mut table2 = Table::new(&[
        "Model", "ML HR", "ML NDCG", "Yelp HR", "Yelp NDCG", "Taobao HR", "Taobao NDCG",
    ]);
    let mut table3 = Table::new(&[
        "Model", "HR@1", "HR@3", "HR@5", "HR@7", "HR@9", "N@1", "N@3", "N@5", "N@7", "N@9",
    ]);

    let mut per_model_cells: Vec<Vec<String>> =
        TABLE2_MODELS.iter().map(|m| vec![m.to_string()]).collect();

    for data in &datasets {
        eprintln!("[table2] dataset {}", data.name);
        for (mi, name) in TABLE2_MODELS.iter().enumerate() {
            let start = std::time::Instant::now();
            let model = registry::train(name, data, budget);
            let report = evaluate_parallel(model.as_ref(), &data.test, &ns_sweep, threads());
            eprintln!(
                "[table2]   {name:8} {}: HR@10 {:.3} NDCG@10 {:.3} ({:.1?})",
                data.name,
                report.hr_at(10),
                report.ndcg_at(10),
                start.elapsed()
            );
            per_model_cells[mi].push(fmt_metric(report.hr_at(10)));
            per_model_cells[mi].push(fmt_metric(report.ndcg_at(10)));

            if data.name == "yelp" && TABLE3_MODELS.contains(name) {
                let mut row = vec![name.to_string()];
                for &n in &ns_sweep[..5] {
                    row.push(fmt_metric(report.hr_at(n)));
                }
                for &n in &ns_sweep[..5] {
                    row.push(fmt_metric(report.ndcg_at(n)));
                }
                table3.row(&row);
            }
        }
    }
    for cells in per_model_cells {
        table2.row(&cells);
    }

    (
        format!("Table II - HR@10 / NDCG@10, all models, all datasets\n\n{table2}"),
        format!("Table III - ranking sweep on Yelp (HR@N, NDCG@N)\n\n{table3}"),
    )
}

/// Figure 2: component ablation (GNMR-be, GNMR-ma vs full GNMR) on the
/// MovieLens-like and Yelp-like datasets.
pub fn fig2(seed: u64, budget: &Budget) -> String {
    let variants = [
        GnmrVariant::without_type_embedding(),
        GnmrVariant::without_message_aggregation(),
        GnmrVariant::full(),
    ];
    let mut t = Table::new(&["Variant", "ML HR@10", "ML NDCG@10", "Yelp HR@10", "Yelp NDCG@10"]);
    let datasets: Vec<Dataset> = registry::datasets(seed).into_iter().take(2).collect();
    let mut rows: Vec<Vec<String>> =
        variants.iter().map(|v| vec![v.label().to_string()]).collect();
    for data in &datasets {
        for (vi, variant) in variants.iter().enumerate() {
            let cfg = GnmrConfig { variant: *variant, ..budget.gnmr_model };
            let model = registry::train_gnmr(data, cfg, &budget.gnmr_train);
            let r = evaluate_parallel(&model, &data.test, &[10], threads());
            eprintln!("[fig2] {} {}: HR {:.3}", data.name, variant.label(), r.hr_at(10));
            rows[vi].push(fmt_metric(r.hr_at(10)));
            rows[vi].push(fmt_metric(r.ndcg_at(10)));
        }
    }
    for row in rows {
        t.row(&row);
    }
    format!("Figure 2 - component ablation of GNMR\n\n{t}")
}

/// Table IV: contribution of each behavior type. For each variant the
/// named behavior is removed from the *propagation* graph; training
/// labels always come from the target behavior of the full graph.
pub fn table4(seed: u64, budget: &Budget) -> String {
    let datasets: Vec<Dataset> = registry::datasets(seed).into_iter().take(2).collect();
    let mut out = String::from("Table IV - aggregation of different behavior types\n");
    for data in &datasets {
        let all: Vec<String> = data.graph.behaviors().to_vec();
        let target = data.graph.target_name().to_string();
        // "w/o X" for each behavior (including the target), then "only
        // <target>", then full GNMR — matching the paper's columns.
        let mut variants: Vec<(String, Vec<String>)> = all
            .iter()
            .map(|drop| {
                (
                    format!("w/o {drop}"),
                    all.iter().filter(|b| *b != drop).cloned().collect(),
                )
            })
            .collect();
        variants.push((format!("only {target}"), vec![target.clone()]));
        variants.push(("GNMR".to_string(), all.clone()));

        let mut t = Table::new(&["Variant", "HR@10", "NDCG@10"]);
        for (label, keep) in &variants {
            let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
            let prop_graph = data.graph.subset_for_propagation(&keep_refs);
            let mut model = Gnmr::new(&prop_graph, budget.gnmr_model);
            model.fit_with_labels(&data.graph, &budget.gnmr_train);
            let r = evaluate_parallel(&model, &data.test, &[10], threads());
            eprintln!("[table4] {} {label}: HR {:.3}", data.name, r.hr_at(10));
            t.row(&[label.clone(), fmt_metric(r.hr_at(10)), fmt_metric(r.ndcg_at(10))]);
        }
        out.push_str(&format!("\n[{}]\n{t}", data.name));
    }
    out
}

/// Figure 3: impact of model depth (0..=3 propagation layers), reported
/// as in the paper: percentage change of HR@10 / NDCG@10 relative to
/// depth 2.
pub fn fig3(seed: u64, budget: &Budget) -> String {
    let datasets: Vec<Dataset> = registry::datasets(seed).into_iter().take(2).collect();
    let mut out = String::from("Figure 3 - impact of model depth (% change vs depth 2)\n");
    for data in &datasets {
        let mut hr = Vec::new();
        let mut ndcg = Vec::new();
        for layers in 0..=3usize {
            let cfg = GnmrConfig { layers, ..budget.gnmr_model };
            let model = registry::train_gnmr(data, cfg, &budget.gnmr_train);
            let r = evaluate_parallel(&model, &data.test, &[10], threads());
            eprintln!("[fig3] {} L={layers}: HR {:.3}", data.name, r.hr_at(10));
            hr.push(r.hr_at(10));
            ndcg.push(r.ndcg_at(10));
        }
        let mut t = Table::new(&["Depth", "HR@10", "HR change %", "NDCG@10", "NDCG change %"]);
        for l in 0..=3usize {
            let dh = 100.0 * (hr[l] - hr[2]) / hr[2].max(1e-9);
            let dn = 100.0 * (ndcg[l] - ndcg[2]) / ndcg[2].max(1e-9);
            t.row(&[
                format!("GNMR-{l}"),
                fmt_metric(hr[l]),
                format!("{dh:+.1}"),
                fmt_metric(ndcg[l]),
                format!("{dn:+.1}"),
            ]);
        }
        out.push_str(&format!("\n[{}]\n{t}", data.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_three_rows() {
        let s = table1(5);
        assert!(s.contains("ml"));
        assert!(s.contains("yelp"));
        assert!(s.contains("taobao"));
        assert!(s.contains("pv, fav, cart, buy"));
    }
}
