//! `dynaminer` — command-line front end for the DynaMiner reproduction.
//!
//! ```text
//! dynaminer train    [--scale S] [--seed N] --out model.json
//! dynaminer classify --model model.json <capture.pcap>...
//! dynaminer replay   [--model model.json] [--threshold L] <capture.pcap>
//! dynaminer generate [--family <name> | --benign <scenario>] [--seed N] --out <file.pcap>
//! dynaminer dot      <capture.pcap>
//! dynaminer features <capture.pcap>
//! ```
//!
//! Capture files are classic libpcap; `generate` produces them, and any
//! HTTP-over-IPv4 capture with the same framing is accepted.

use std::io::ErrorKind;
use std::process::ExitCode;

use dynaminer_cli::commands::{self, Out};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let mut out = Out::new(std::io::stdout().lock());
    let result = commands::run(command, rest, &mut out);
    // A reader that stops early (`| head`) ends the output, not the run.
    let written = out.finish();
    let result = result.and_then(|()| match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(format!("cannot write to standard output: {e}"))
        }
        _ => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
