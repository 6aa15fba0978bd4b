//! One module per artifact. An artifact whose output is rows is an entry
//! of the one registry, `crate::table::TABLES`, and its module holds the
//! entry's functions: its `sweep` (at a [`common::Workload`]), `bars` and
//! `render`, paper artifact and beyond-paper `table_*` alike. The five
//! ablation tables share `ablations`, `table_solvers` lives beside the
//! model zoo in `table2`, and what two or more modules use lives in
//! [`common`]. The three artifacts that are not rows — `table2`'s static
//! list, `fig2`'s heatmaps, `render-events`' JSONL — expose a plain
//! `print()`.

pub mod ablations;
pub mod common;
pub mod elasticity;
pub mod events;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod online;
pub mod replan_latency;
pub mod serving;
pub mod sparse;
pub mod table1;
pub mod table2;
pub mod table3;
