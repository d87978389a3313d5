//! Integration smoke test: every experiment regenerator runs at reduced
//! trial counts and produces a well-formed table. Guards the `exp_*`
//! binaries against bit-rot without paying full experiment runtimes.

use redundancy_bench::experiments as exp;

const TRIALS: usize = 120;
const SEED: u64 = 0x5a5a;

fn assert_table(table: &redundancy::sim::table::Table, rows: usize, needle: &str) {
    assert_eq!(table.len(), rows);
    let text = table.to_string();
    assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    // header + rule + rows lines, all non-empty
    assert_eq!(text.lines().count(), rows + 2);
}

#[test]
fn table1_smoke() {
    assert_table(&exp::table1::run(), 4, "Intention");
}

#[test]
fn table2_matrix_smoke() {
    assert_table(
        &exp::table2_matrix::run(TRIALS, SEED, 1, None).0,
        18,
        "N-version programming",
    );
}

#[test]
fn fig1_smoke() {
    assert_table(
        &exp::fig1_patterns::run(TRIALS, SEED, 1, None),
        3,
        "sequential",
    );
}

#[test]
fn e4_smoke() {
    assert_table(&exp::nvp_tolerance::run(TRIALS, SEED, 1), 4, "k=3");
    assert_table(
        &exp::nvp_tolerance::run_adjudicator_ablation(TRIALS, SEED),
        3,
        "median",
    );
}

#[test]
fn e5_smoke() {
    assert_table(&exp::correlated::run(TRIALS, SEED, 1), 5, "1.00");
}

#[test]
fn e6_smoke() {
    assert_table(&exp::cost_efficacy::run(TRIALS, SEED, 1), 6, "coverage");
}

#[test]
fn e7_smoke() {
    assert_table(
        &exp::rejuvenation::run_failure_rates(TRIALS, SEED, 1),
        6,
        "never",
    );
    assert_table(&exp::rejuvenation::run_completion(3, SEED, 1), 8, "never");
}

#[test]
fn e8_smoke() {
    assert_table(&exp::data_diversity::run(TRIALS, SEED, 1), 5, "retry");
}

#[test]
fn e9_smoke() {
    assert_table(&exp::security::run(60, SEED, 1), 4, "memory");
}

#[test]
fn e10_smoke() {
    assert_table(&exp::rx::run(TRIALS, SEED, 1), 3, "env-sensitive");
}

#[test]
fn e10b_smoke() {
    assert_table(&exp::rx_ablation::run(60, SEED, 1), 4, "full RX menu");
}

#[test]
fn e17_smoke() {
    assert_table(&exp::checkpoint_interval::run(2, SEED, 1), 9, "Young");
}

#[test]
fn e18_smoke() {
    assert_table(&exp::early_exit::run(TRIALS, SEED, 1), 4, "saved");
    assert_table(&exp::early_exit::run_quorum(TRIALS, SEED, 1), 4, "q=");
}

#[test]
fn e19_smoke() {
    assert_table(&exp::resume::run(24, SEED, 1), 4, "yes");
    assert!(exp::resume::chaos_smoke(24, SEED, 2) >= 1);
}

#[test]
fn e11_smoke() {
    assert_table(&exp::microreboot::run(2_000, SEED, 1), 3, "JAGR");
}

#[test]
fn e12_smoke() {
    assert_table(&exp::substitution::run(TRIALS, SEED, 1), 5, "1 - p^n");
}

#[test]
fn e13_smoke() {
    assert_table(&exp::workarounds::run(TRIALS, SEED, 1), 4, "0");
}

#[test]
fn e14_smoke() {
    assert_table(&exp::gp_fix::run(1, SEED), 3, "fix");
}

#[test]
fn e15_smoke() {
    assert_table(&exp::wrappers::run(TRIALS, SEED, 1), 4, "healer");
}

#[test]
fn e16_smoke() {
    assert_table(&exp::robust_data::run(TRIALS, SEED, 1), 5, "count");
}
