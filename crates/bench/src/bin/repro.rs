//! `repro` — regenerate every table and figure of the ExFlow paper.
//!
//! ```text
//! cargo run --release -p exflow-bench --bin repro -- all
//! cargo run --release -p exflow-bench --bin repro -- fig10
//! cargo run --release -p exflow-bench --bin repro -- --jobs 8 table1 fig7
//! ```
//!
//! Every artifact has one size (the paper's artifacts the paper's).
//! `--jobs N` fans experiment sweep points across N worker threads;
//! artifacts are byte-identical for every N (only wall time changes).
//!
//! Exit codes: 0 on success, 1 if any artifact fails to regenerate,
//! 2 on usage errors (no targets, unknown artifact name, bad `--jobs`).

use exflow_bench::cli::{self, Command};

fn print_usage() {
    eprintln!("usage: repro [--jobs N] <artifact>... | all");
    eprintln!("artifacts: {}", cli::artifact_names().join(", "));
}

fn main() {
    let (jobs, targets) = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            print_usage();
            return;
        }
        Ok(Command::Run { jobs, targets }) => (jobs, targets),
        Err(err) => {
            eprintln!("error: {err}");
            print_usage();
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for target in targets {
        println!("==============================================================");
        let run = cli::runner(&target).expect("parse validates against the dispatch table");
        // Catch panics so one failing artifact doesn't abort the rest and
        // the documented exit code (1, not the panic's 101) is honored.
        if std::panic::catch_unwind(|| run.run(jobs)).is_err() {
            eprintln!("error: artifact {target} failed to regenerate");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
