//! One module per artifact. An artifact whose output is rows is an entry
//! of the one registry, `crate::table::TABLES`, and its module holds the
//! entry's functions: a paper artifact its `sweep` (at a
//! [`common::Workload`]), `bars` and `render`; a beyond-paper `table_*`
//! only its `render` (its sweep lives in `crate::summary`, its bars in
//! `crate::gate`). The three artifacts that are not rows — `table2`'s
//! static list, `fig2`'s heatmaps, `render-events`' JSONL — expose a plain
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
pub mod partial_replication;
pub mod replan_latency;
pub mod replication_online;
pub mod serving;
pub mod table1;
pub mod table2;
pub mod table3;
