//! Prints the shared-engine cache statistics for the full Figure 15
//! sweep — the quickest way to eyeball the exactly-once contract:
//!
//! ```text
//! cargo run --release --example print_sweep_stats
//! ```

use tricheck::prelude::*;

fn main() {
    let tests = suite::full_suite();
    let results = Sweep::new().run_matrix(&tests, &riscv_stacks());
    println!("{:#?}", results.stats());
    println!("grand total bugs: {}", results.grand_total_bugs());
}
