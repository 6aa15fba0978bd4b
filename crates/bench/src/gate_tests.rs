//! The tests of every table's acceptance bars and of the byte gate: a
//! drifted field must change its row's line of the document, and a row
//! that misses a bar must report it. `lib.rs` mounts this file as `gate`,
//! so the tests keep the ids the suite has always reported them by.

mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use exflow_core::json::Json;

    use crate::experiments::common::PAPER;
    use crate::table::fixture::{assert_trips, rows, set, table};
    use crate::table::{document, int, num, SCHEMA};

    fn panics(f: impl FnOnce()) -> bool {
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    /// Section `key`'s fixture rows with `field` dropped from row `row`.
    fn without(key: &str, row: usize, field: &str) -> Vec<Json> {
        let mut rows = rows(key).to_vec();
        let Json::Obj(fields) = &mut rows[row] else {
            panic!("a row is an object")
        };
        fields.retain(|(k, _)| k != field);
        rows
    }

    /// The line of section `key`'s document that `edit` of its fixture
    /// rows changes — what a word diff against the committed document
    /// shows. Panics unless exactly one line changed.
    fn changed_line(key: &str, edit: impl FnOnce(&mut Vec<Json>)) -> String {
        let mut edited = rows(key).to_vec();
        edit(&mut edited);
        let section = |rows| document(PAPER.seed, vec![(table(key).key, rows)]);
        let (before, after) = (section(rows(key).to_vec()), section(edited));
        assert_eq!(before.lines().count(), after.lines().count(), "{key}");
        let changed: Vec<(&str, &str)> = (before.lines().zip(after.lines()))
            .filter(|(b, a)| b != a)
            .collect();
        assert_eq!(changed.len(), 1, "{key}: {changed:?}");
        changed[0].1.to_string()
    }

    /// Writing `value` over `field` of section `key`'s row `row` changes
    /// that row's line alone, which still names the row by its `id` fields
    /// and shows `value`'s token.
    fn assert_diff_shows(key: &str, row: usize, field: &str, value: Json) {
        let mut edited = rows(key)[row].clone();
        set(&mut edited, field, value);
        let line = changed_line(key, |rows| rows[row] = edited.clone());
        for shown in table(key).id.iter().chain([&field]) {
            let token = edited.get(shown).and_then(|v| v.write().ok()).unwrap();
            let pair = format!("\"{shown}\": {token}");
            assert!(line.contains(&pair), "{pair} not in {line}");
        }
    }

    #[test]
    fn objective_drift_fails() {
        let cross = num(&rows("rows")[0], "cross_mass");
        assert_diff_shows("rows", 0, "cross_mass", (cross + 1e-11).into());
    }

    #[test]
    fn one_ulp_of_drift_is_detected() {
        let cross = num(&rows("rows")[0], "cross_mass");
        let bumped = f64::from_bits(cross.to_bits() + 1);
        assert_diff_shows("rows", 0, "cross_mass", bumped.into());
    }

    #[test]
    fn nnz_drift_fails() {
        let nnz = int(&rows("sparse_rows")[0], "nnz");
        assert_diff_shows("sparse_rows", 0, "nnz", (nnz + 1).into());
    }

    #[test]
    fn slow_sparse_backend_fails_the_bar() {
        // Row 2 is the E = 512, top-1 cell.
        let edit = [(2, "density", Json::Fixed(0.6, 6))];
        assert_trips("sparse_rows", &edit, "acceptance bar");
    }

    #[test]
    fn a_missing_selector_field_cannot_hide_a_slow_sparse_cell() {
        // A dense-ish cell that no longer says it is the E = 512 cell.
        let mut rows = without("sparse_rows", 2, "experts");
        set(&mut rows[2], "density", Json::Fixed(0.6, 6));
        assert!(panics(|| drop(table("sparse_rows").violations(&rows))));
    }

    #[test]
    fn a_bar_that_cannot_read_its_field_panics() {
        // A budget a bar compares against, of a beyond-paper table and of a
        // paper entry.
        for (key, field) in [
            ("online_rows", "replica_slots"),
            ("fig10", "exflow_no_affinity"),
        ] {
            let rows = without(key, 0, field);
            assert!(panics(|| drop(table(key).violations(&rows))), "{key}");
        }
        // A misspelt field is an absent one.
        let row = &rows("online_rows")[0];
        assert!(panics(|| {
            num(row, "budgeted_crosss");
        }));
    }

    #[test]
    fn missing_and_extra_rows_fail() {
        // A beyond-paper table and a paper entry alike.
        assert_diff_shows("rows", 0, "solver", "renamed".into());
        assert_diff_shows("fig10", 0, "model", "renamed".into());
    }

    #[test]
    fn v1_baseline_is_rejected() {
        // The schema tag is a line of its own: a baseline of any other
        // schema differs from every fresh document there.
        let fresh = document(PAPER.seed, Vec::new());
        let schema = format!("  \"schema\": \"{SCHEMA}\",");
        assert_eq!(fresh.lines().nth(1), Some(schema.as_str()));
    }

    #[test]
    fn a_fresh_row_that_drops_or_adds_a_column_is_a_drift() {
        // A column no bar reads, of a beyond-paper table and of a paper
        // entry: its row's line changes, and still names the row. A
        // baseline row that lacks it is the same diff the other way round.
        for (key, field, id) in [
            ("online_rows", "windows", "piecewise-2phase"),
            ("table1", "layers", "FasterMoE"),
        ] {
            let line = changed_line(key, |rows| *rows = without(key, 0, field));
            assert!(line.contains(id) && !line.contains(field), "{line}");
        }
    }

    #[test]
    fn every_field_that_is_not_an_id_is_compared() {
        // `windows` and the rounded `recovery` are in no bar: only the
        // document's bytes see them. So does every other field.
        let Json::Obj(fields) = &rows("online_rows")[0] else {
            panic!("a row is an object")
        };
        for (field, value) in fields {
            let changed = match value {
                Json::Str(s) => format!("{s}-x").as_str().into(),
                Json::Fixed(x, decimals) => Json::Fixed(x + 0.5, *decimals),
                other => (other.as_f64().unwrap() + 1.0).into(),
            };
            assert_diff_shows("online_rows", 0, field, changed);
        }
        // A paper row is gated the same way.
        let local = num(&rows("fig7")[0], "affinity_local");
        assert_diff_shows("fig7", 0, "affinity_local", (local + 0.01).into());
    }

    #[test]
    fn online_cross_drift_fails() {
        let budgeted = int(&rows("online_rows")[0], "budgeted_cross");
        assert_diff_shows("online_rows", 0, "budgeted_cross", (budgeted + 1).into());
    }

    #[test]
    fn online_missing_scenario_fails() {
        assert_diff_shows("online_rows", 0, "scenario", "renamed".into());
    }

    #[test]
    fn low_online_recovery_fails_the_bar() {
        // Budgeted as bad as static: it recovers nothing.
        let stat = int(&rows("online_rows")[0], "static_cross");
        let edit = [(0, "budgeted_cross", stat.into())];
        assert_trips("online_rows", &edit, "acceptance bar");
    }

    #[test]
    fn online_budget_violation_fails() {
        let row = &rows("online_rows")[0];
        let allowed = int(row, "budget_bytes") * int(row, "replans");
        let edit = [(0, "migrated_bytes", (allowed + 1).into())];
        assert_trips("online_rows", &edit, "per-re-plan budget");
    }

    #[test]
    fn replication_cross_drift_fails() {
        let key = "online_rows";
        let joint = int(&rows(key)[0], "joint_cross");
        assert_diff_shows(key, 0, "joint_cross", (joint - 1).into());
    }

    #[test]
    fn replication_memory_violation_fails() {
        let key = "online_rows";
        let slots = int(&rows(key)[0], "replica_slots");
        let edit = [(0, "extra_copies", (slots + 1).into())];
        assert_trips(key, &edit, "-slot per-GPU budget");
    }

    #[test]
    fn replication_migration_violation_fails() {
        let key = "online_rows";
        let row = &rows(key)[0];
        let allowed = int(row, "tight_budget_bytes") * int(row, "joint_replans");
        let edit = [(0, "joint_migrated_bytes", (allowed + 1).into())];
        assert_trips(key, &edit, "replication migration (joint)");
    }

    #[test]
    fn joint_policy_losing_to_owner_moves_fails() {
        let key = "online_rows";
        let owner = int(&rows(key)[0], "owner_cross");
        let edit = [(0, "joint_cross", (owner + 100).into())];
        assert_trips(key, &edit, "at equal migration bytes");
    }

    #[test]
    fn joint_policy_tying_everywhere_fails_the_domination_bar() {
        let key = "online_rows";
        let owner = |row: &Json| int(row, "owner_cross").into();
        let edit: Vec<_> = (rows(key).iter().enumerate())
            .map(|(i, row)| (i, "joint_cross", owner(row)))
            .collect();
        assert_trips(key, &edit, "the replica memory budget bought nothing");
    }

    #[test]
    fn serving_latency_drift_fails() {
        let p99 = num(&rows("serving_rows")[0], "online_p99");
        assert_diff_shows("serving_rows", 0, "online_p99", (p99 + 1e-9).into());
    }

    #[test]
    fn serving_missing_arrival_fails() {
        assert_diff_shows("serving_rows", 0, "arrival", "renamed".into());
    }

    #[test]
    fn serving_tail_regression_fails_the_bar() {
        // Online p99 worse than static by more than its migration time:
        // the whole point of paying migration stalls is lost.
        let row = &rows("serving_rows")[0];
        let worse = num(row, "static_p99") + num(row, "online_migration_time") + 1.0;
        let edit = [(0, "online_p99", worse.into())];
        assert_trips("serving_rows", &edit, "serving tail on poisson");
    }

    #[test]
    fn the_serving_tail_may_carry_its_migration_time_and_no_more() {
        let table = table("serving_rows");
        let mut row = rows("serving_rows")[0].clone();
        // The 5-layer / 1 800-request Poisson cell the stricter bar
        // (p99 <= static p99, everywhere) failed on: online ends 1.6 us
        // above the static tail after 357 us of migration.
        for (field, value) in [
            ("static_p99", 1534.8e-6),
            ("online_p99", 1536.4e-6),
            ("online_migration_time", 357e-6),
            ("repl_p99", 1534.8e-6),
        ] {
            set(&mut row, field, value.into());
        }
        let violations = |row: &Json| table.violations(std::slice::from_ref(row));
        assert_eq!(violations(&row), Vec::<String>::new());
        // An excess above the migration time is a violation...
        set(&mut row, "online_migration_time", 1e-6.into());
        let found = violations(&row);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("by more than its 0.000001 of migration time"));
        // ...and under non-stationary arrivals so is any tie or loss.
        set(&mut row, "online_migration_time", 357e-6.into());
        set(&mut row, "arrival", "diurnal".into());
        let found = violations(&row);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|v| v.contains("non-stationary arrivals")));
    }

    #[test]
    fn serving_goodput_over_offered_load_fails() {
        let offered = num(&rows("serving_rows")[0], "offered_load");
        let edit = [(0, "repl_goodput", (offered * 2.0).into())];
        assert_trips("serving_rows", &edit, "serving goodput on poisson");
    }

    #[test]
    fn elasticity_recovery_drift_fails() {
        let recovery = num(&rows("elasticity_rows")[0], "repl_recovery");
        let edit = (recovery + 1e-9).into();
        assert_diff_shows("elasticity_rows", 0, "repl_recovery", edit);
    }

    #[test]
    fn elasticity_missing_fault_fails() {
        assert_diff_shows("elasticity_rows", 0, "fault", "renamed".into());
    }

    #[test]
    fn repl_extra_copies_drift_fails() {
        let copies = int(&rows("elasticity_rows")[0], "repl_extra_copies");
        let edit = (copies + 1).into();
        assert_diff_shows("elasticity_rows", 0, "repl_extra_copies", edit);
    }

    #[test]
    fn slow_replicated_recovery_fails_the_bar() {
        // Never recovering, or recovering no faster than the unreplicated
        // fleet, both fail.
        let plain = num(&rows("elasticity_rows")[0], "plain_recovery");
        for repl_recovery in [-1.0, plain] {
            let edit = [(0, "repl_recovery", repl_recovery.into())];
            assert_trips("elasticity_rows", &edit, "strictly faster recovery");
        }
    }

    #[test]
    fn failover_saving_no_wire_traffic_fails_the_bar() {
        let plain = int(&rows("elasticity_rows")[0], "plain_emergency_bytes");
        let edit = [(0, "repl_emergency_bytes", plain.into())];
        assert_trips("elasticity_rows", &edit, "failover must save wire traffic");
    }

    #[test]
    fn replan_counter_drift_fails() {
        let key = "replan_latency_rows";
        let evaluated = int(&rows(key)[0], "evaluated_incremental");
        assert_diff_shows(key, 0, "evaluated_incremental", (evaluated + 1).into());
    }

    #[test]
    fn replan_missing_preset_fails() {
        assert_diff_shows("replan_latency_rows", 0, "preset", "renamed".into());
    }

    #[test]
    fn incremental_cross_mass_divergence_fails_the_bar() {
        let key = "replan_latency_rows";
        let cross = num(&rows(key)[0], "cross_mass_incremental");
        let edit = [(0, "cross_mass_incremental", (cross + 1e-12).into())];
        assert_trips(key, &edit, "diverged from the rebuild");
    }

    #[test]
    fn low_replan_scan_reduction_fails_the_bar() {
        // Row 2 is the E = 512, top-1 cell: one exact evaluation in 1 000
        // considered candidates.
        let key = "replan_latency_rows";
        let considered = int(&rows(key)[2], "considered");
        let edit = [(2, "evaluated_incremental", (considered / 1000).into())];
        assert_trips(key, &edit, "below the");
    }
}
