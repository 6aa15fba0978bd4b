//! Table II — the model zoo used across the evaluation. A static list,
//! not a sweep, so `table2` is a plain printer.

use exflow_model::presets::table2;

use crate::fmt::render_table;

/// Print the model list with derived parameter counts.
pub fn print() {
    println!("Table II: GPT MoE model zoo\n");
    let rows: Vec<Vec<String>> = table2()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{}M", m.base_params / 1_000_000),
                m.n_experts.to_string(),
                m.n_layers.to_string(),
                m.d_model.to_string(),
                format!("{:.1}B", m.total_params() as f64 / 1e9),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "model",
                "base",
                "experts",
                "layers",
                "d_model",
                "total-params"
            ],
            &rows
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_rows() {
        let models = table2();
        assert_eq!(models.len(), 7);
        // 350M base appears for the four expert-count variants.
        assert_eq!(
            models
                .iter()
                .filter(|m| m.base_params == 350_000_000)
                .count(),
            4
        );
        // Expert counts cover 8..64.
        let experts: Vec<usize> = models.iter().map(|m| m.n_experts).collect();
        for e in [8, 16, 32, 64] {
            assert!(experts.contains(&e));
        }
    }
}
