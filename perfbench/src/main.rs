//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! kamino-perfbench --workload <fit_tpch|draw_tax|draw_br2000|serve_tpch>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`); the line before it is
//! a report with the workload's own figures, output digests and failures.
//! Exit status: 0 when every output check passed, 1 when one failed, 2 on
//! a usage error (no result printed).

use std::process::ExitCode;

use kamino_perfbench::{report, run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: kamino-perfbench --workload <fit_tpch|draw_tax|draw_br2000|serve_tpch> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    for e in &result.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report::report_line(&args, &result));
    let line = report::result_line(&args, &result);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
