//! `experiments [id…]` — regenerates the paper's evaluation and checks it.
//!
//! Runs the named rows of [`bench::experiments::EXPERIMENTS`] (all of
//! them without arguments), writes each `results/<id>.txt` under the
//! current directory — run it from the repository root — and prints
//! the claims table. A full run also writes `results/claims.json` and
//! `results/claims.txt`. Exit status: 0 when every claim checked holds,
//! 1 when one left its tolerance, 2 for an id the table does not have.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    match bench::experiments::run(bench::experiments::EXPERIMENTS, &ids, Path::new("results")) {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}
