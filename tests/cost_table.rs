//! The handbook's price list is the interpreter's. `docs/WORKLOADS.md`
//! §3 prints the cost model as one table, a row per priced counter of
//! `ExecStats` with its weight; the rows must equal
//! `memoir_interp::stats::COST_TABLE`, name for name and weight for
//! weight, in order, so the handbook cannot drift from the prices a run
//! is charged.

use memoir::interp::stats::COST_TABLE;
use std::fs;
use std::path::Path;

/// The `(counter, weight)` rows of the first table in `markdown`'s §3:
/// the counter is the first cell, in backticks, the weight the last.
fn price_rows(markdown: &str) -> Vec<(String, u64)> {
    let section = markdown
        .split("\n## 3. ")
        .nth(1)
        .expect("a §3")
        .split("\n## ")
        .next()
        .unwrap_or_default();
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // the header and its rule
        .map(|row| {
            let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
            let weight = cells[cells.len() - 1];
            let weight = weight.parse().unwrap_or_else(|_| panic!("weight of {row}"));
            (cells[0].trim_matches('`').to_string(), weight)
        })
        .collect()
}

#[test]
fn handbook_prices_equal_the_cost_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/WORKLOADS.md");
    let handbook = fs::read_to_string(path).expect("docs/WORKLOADS.md");
    let code: Vec<(String, u64)> = COST_TABLE
        .iter()
        .map(|&(counter, weight, _)| (counter.to_string(), weight))
        .collect();
    assert_eq!(price_rows(&handbook), code);
}
