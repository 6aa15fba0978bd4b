//! The tests of the summary document and of what the beyond-paper sweeps
//! hold beyond their bars. `lib.rs` mounts this file as `summary`, so the
//! tests keep the ids the suite has always reported them by.

mod tests {
    use exflow_core::json::Json;
    use exflow_model::presets::{large_zoo, table2};

    use crate::experiments::common::{ratio, PAPER};
    use crate::experiments::table2::roster;
    use crate::experiments::{online, serving};
    use crate::table::fixture::rows;
    use crate::table::{document, int, num, text, Section, SCHEMA, TABLES};

    fn keys(row: &Json) -> Vec<&str> {
        let Json::Obj(fields) = row else {
            panic!("a row is an object")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn summary_covers_the_full_grid_and_quality_is_sane() {
        let n_models = table2().len();
        let n_solvers = roster().len();
        assert_eq!(rows("rows").len(), n_models * n_solvers);
        // Within each model, every optimizing solver beats round-robin.
        for chunk in rows("rows").chunks(n_solvers) {
            let rr = chunk
                .iter()
                .find(|r| text(r, "solver") == "round-robin")
                .expect("round-robin is in the roster");
            for row in chunk.iter().filter(|r| text(r, "solver") != "round-robin") {
                assert!(
                    num(row, "cross_mass") <= num(rr, "cross_mass") + 1e-9,
                    "{}/{} ({}) worse than round-robin ({})",
                    text(row, "model"),
                    text(row, "solver"),
                    text(row, "cross_mass"),
                    text(rr, "cross_mass")
                );
            }
        }
        // The sparse table covers the whole large zoo, each instance
        // genuinely sparse at these token budgets.
        assert_eq!(rows("sparse_rows").len(), large_zoo().len());
        for row in rows("sparse_rows") {
            assert!(int(row, "nnz") > 0);
            assert!(
                num(row, "density") < exflow_placement::SPARSE_DENSITY_THRESHOLD,
                "{} density {} not sparse",
                text(row, "preset"),
                text(row, "density")
            );
            assert!(num(row, "cross_mass").is_finite());
        }
    }

    #[test]
    fn every_table_sweeps_uniform_rows_that_clear_its_own_bars() {
        // In reverse: the tests below read the tables in document order,
        // so the two test threads sweep different tables at the same time
        // instead of one waiting on the other's `OnceLock`.
        for table in TABLES.iter().rev() {
            let rows = rows(table.key);
            assert!(!rows.is_empty(), "{}: the sweep is empty", table.key);
            let columns = keys(&rows[0]);
            for row in rows {
                assert_eq!(keys(row), columns, "{}: ragged rows", table.key);
            }
            for field in table.id {
                assert!(
                    columns.contains(field),
                    "{}: the entry names {field:?}, the sweep emits no such column",
                    table.key
                );
            }
            assert_eq!(
                table.violations(rows),
                Vec::<String>::new(),
                "{}",
                table.key
            );
            // A heading (or a header and its rule) above the content.
            assert!((table.render)(rows).lines().count() > 2, "{}", table.key);
        }
    }

    /// What the retired per-table tests asserted that no bar states.
    #[test]
    fn sweeps_hold_what_no_bar_states() {
        let online = rows("online_rows");
        assert_eq!(online.len(), 3, "one row per drift preset");
        for row in online {
            let scenario = text(row, "scenario");
            assert!(int(row, "replans") > 0, "{scenario}: no re-plans fired");
            // Drift must genuinely hurt the static incumbent, and both
            // adaptive policies must beat it.
            let stat = int(row, "static_cross");
            assert!(int(row, "oracle_cross") < stat, "{scenario}: oracle");
            assert!(int(row, "budgeted_cross") < stat, "{scenario}: budgeted");
            assert!(num(row, "cross_mass").is_finite());
            // The owner-moves-only and joint policies race on the same
            // windows, and both must beat the static incumbent too.
            assert!(
                int(row, "joint_replans") > 0,
                "{scenario}: no joint re-plans"
            );
            assert!(int(row, "owner_cross") < stat, "{scenario}: owner");
            assert!(int(row, "joint_cross") < stat, "{scenario}: joint");
        }

        let serving = rows("serving_rows");
        assert_eq!(serving.len(), 3, "one row per arrival process");
        for row in serving {
            let arrival = text(row, "arrival");
            assert!(int(row, "online_replans") > 0, "{arrival}: no re-plans");
            assert!(int(row, "online_migrated_bytes") > 0, "{arrival}");
            for policy in ["static", "online", "repl"] {
                let [p50, p95, p99] =
                    ["p50", "p95", "p99"].map(|q| num(row, &format!("{policy}_{q}")));
                assert!(
                    p50 <= p95 && p95 <= p99 && p50 > 0.0,
                    "{arrival}: non-monotone percentiles {p50}/{p95}/{p99}"
                );
            }
        }

        let elasticity = rows("elasticity_rows");
        assert_eq!(elasticity.len(), 2, "one row per fault schedule");
        // The loss-only cell's failover is completely free; the rejoin
        // cell still ships weights back to the returning GPU.
        assert_eq!(
            int(&elasticity[0], "repl_emergency_bytes"),
            0,
            "loss-only failover not free"
        );

        let replan = rows("replan_latency_rows");
        assert_eq!(replan.len(), large_zoo().len(), "one row per large preset");
        for row in replan {
            let preset = text(row, "preset");
            assert!(
                int(row, "replans") > 0,
                "{preset}: no re-plan moved anything"
            );
            // Both paths run the same table-driven solver, and the split
            // always partitions the considered count.
            let evaluated = int(row, "evaluated_incremental");
            assert_eq!(int(row, "evaluated_rebuild"), evaluated, "{preset}");
            assert_eq!(
                evaluated + int(row, "reused"),
                int(row, "considered"),
                "{preset}"
            );
        }
        let covers_512 = replan.iter().any(|row| int(row, "experts") == 512);
        assert!(covers_512, "the sweep must cover E = 512");
    }

    /// The cell that exposed the over-strict serving bar: at 5 layers and
    /// 1 800 requests the budgeted-online policy's p99 lands above the
    /// static incumbent's, by far less than the migration time it reports.
    #[test]
    fn the_serving_bar_holds_in_the_deeper_poisson_cell() {
        let mut cells = serving::cells(5, 1800, &PAPER).expect("calibrates");
        let row = cells.next().expect("poisson leads").expect("invariant");
        assert_eq!(text(&row, "arrival"), "poisson");
        let excess = num(&row, "online_p99") - num(&row, "static_p99");
        assert!(excess > 0.0, "the stricter bar would pass here: {excess}");
        assert!(excess < 0.01 * num(&row, "online_migration_time"));
        let table = crate::table::fixture::table("serving_rows");
        assert_eq!(table.violations(&[row]), Vec::<String>::new());
    }

    #[test]
    fn degenerate_ratios_and_recoveries_are_defined() {
        assert_eq!(ratio(8_000_000.0, 1_000.0), 8000.0);
        assert_eq!(ratio(8_000_000.0, 0.0), 0.0, "no evaluations, no ratio");
        assert_eq!(online::recovery(5000.0, 3000.0, 3200.0), 0.9);
        assert_eq!(online::recovery(3000.0, 3000.0, 3100.0), 1.0);
    }

    fn swept_sections() -> Vec<Section> {
        let swept = TABLES.iter().map(|t| (t.key, rows(t.key).to_vec()));
        swept.collect()
    }

    #[test]
    fn the_document_is_a_function_of_its_rows_and_holds_no_measurement() {
        let json = document(PAPER.seed, swept_sections());
        assert_eq!(json, document(PAPER.seed, swept_sections()), "same rows");
        let doc = Json::parse(&json).expect("the document is valid JSON");
        assert_eq!(
            keys(&doc).len(),
            2 + TABLES.len(),
            "schema, seed, an array a table"
        );
        for (key, swept) in swept_sections() {
            let parsed = doc.get(key).and_then(Json::as_arr).expect(key);
            let literal = Json::Arr(swept).write().unwrap();
            assert_eq!(Json::Arr(parsed.to_vec()), Json::parse(&literal).unwrap());
        }
        // No key (nor anything else) names a host-clock measurement.
        assert!(!json.contains("wall"), "a wall field is back");
    }

    /// The layout the diff gate reads: the header, then the sections in
    /// TABLES order, every row exactly one line holding its fields in
    /// order with their exact tokens — derived ratios with their fixed
    /// decimals, every other fact with shortest round-trip formatting.
    #[test]
    fn json_emits_the_sections_in_table_order_with_pinned_formats() {
        let json = document(PAPER.seed, swept_sections());
        let mut fixed = [
            ("density", 6, false),
            ("recovery", 4, false),
            ("scan_reduction", 3, false),
        ];
        let mut lines = json.lines();
        let schema = format!("  \"schema\": \"{SCHEMA}\",");
        let seed = format!("  \"seed\": {},", PAPER.seed);
        let header: Vec<_> = lines.by_ref().take(3).collect();
        assert_eq!(header, ["{", &schema, &seed]);
        for (i, (key, swept)) in swept_sections().into_iter().enumerate() {
            assert_eq!(lines.next(), Some(format!("  \"{key}\": [").as_str()));
            for (j, row) in swept.iter().enumerate() {
                let Json::Obj(fields) = row else {
                    panic!("{key} row {j}")
                };
                let mut tokens = Vec::new();
                for (field, value) in fields {
                    let token = value.write().unwrap();
                    for (name, decimals, seen) in &mut fixed {
                        if name == field {
                            let (_, fraction) = token.split_once('.').expect(&token);
                            assert_eq!(fraction.len(), *decimals, "{key}.{field} = {token}");
                            *seen = true;
                        }
                    }
                    tokens.push(format!("\"{field}\": {token}"));
                }
                let comma = if j + 1 < swept.len() { "," } else { "" };
                let line = format!("    {{{}}}{comma}", tokens.join(", "));
                assert_eq!(lines.next(), Some(line.as_str()), "{key} row {j}");
            }
            let close = if i + 1 < TABLES.len() { "  ]," } else { "  ]" };
            assert_eq!(lines.next(), Some(close), "{key}");
        }
        assert_eq!(lines.collect::<Vec<_>>(), ["}"]);
        assert!(fixed.iter().all(|&(_, _, seen)| seen), "{fixed:?}");
    }
}
