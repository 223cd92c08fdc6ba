//! End-to-end runs: the system allocator, tracing off.

fn main() -> std::process::ExitCode {
    wirebench::cli::main(
        wirebench::env::Allocator::System,
        wirebench::check::no_allocations,
    )
}
