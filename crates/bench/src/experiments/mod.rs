//! One module per artifact. A paper artifact exposes typed rows plus a
//! `print(scale)` entry the `repro` binary calls; a gated summary table
//! (`table_*`) exposes only its `render(rows)` — its sweep lives in
//! `crate::summary`, its registry entry in `crate::table::TABLES`.

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
