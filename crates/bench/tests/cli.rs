//! The `experiments` command line: `<id> [--runs N] [--quick]` and nothing
//! else. Every refusal prints the usage and exits 2 without writing a
//! result; a run prints its table and saves the same table under
//! `results/` in the working directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory per call, so saved results never mix.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("vfps_experiments_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn experiments")
}

/// Asserts the usage refusal: exit 2, the reason and the usage on stderr,
/// nothing on stdout and no `results/` directory.
fn assert_refused(args: &[&str], reason: &str) {
    let dir = scratch_dir(&args.join("_").replace('-', ""));
    let out = experiments(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments <id> [--runs N] [--quick]"), "{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(!dir.join("results").exists(), "{args:?} wrote a result");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `id --quick`, checks the saved file equals the printed table, and
/// returns the table's body rows as cells.
fn quick_table(id: &str, saved_as: &str) -> Vec<Vec<String>> {
    let dir = scratch_dir(&id.replace('-', "_"));
    let out = experiments(&dir, &[id, "--quick"]);
    assert!(out.status.success(), "{id}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let saved = std::fs::read_to_string(dir.join("results").join(format!("{saved_as}.md")))
        .expect("saved result");
    assert_eq!(stdout, format!("{saved}\n"), "{id}: saved file differs from stdout");
    let _ = std::fs::remove_dir_all(&dir);
    stdout
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_owned()).collect())
        .collect()
}

#[test]
fn no_id_is_refused() {
    assert_refused(&[], "missing experiment id");
    assert_refused(&["--quick"], "missing experiment id");
}

#[test]
fn an_unknown_id_is_refused() {
    assert_refused(&["table9"], "unknown experiment id table9");
}

#[test]
fn the_retired_timing_commands_are_unknown_ids() {
    for id in ["bench-selection", "bench-check", "bench-serve", "bench-cluster"] {
        assert_refused(&[id], &format!("unknown experiment id {id}"));
    }
}

#[test]
fn the_retired_cached_flag_is_refused() {
    assert_refused(&["fig9", "--cached"], "unexpected argument --cached");
}

#[test]
fn runs_needs_a_number() {
    assert_refused(&["fig9", "--runs"], "--runs needs a number");
    assert_refused(&["fig9", "--runs", "three"], "--runs needs a number");
    assert_refused(&["fig9", "--runs", "0"], "--runs needs a number");
}

#[test]
fn a_second_id_is_refused() {
    assert_refused(&["table1", "fig9"], "unexpected argument fig9");
}

/// Lazy greedy returns greedy's set at under a quarter of eager greedy's
/// Σ_{i<50} (200 − i) = 8 775 gain() evaluations; stochastic greedy
/// (ε 0.1) keeps its guarantee against lazy's f(S) on fewer still.
#[test]
fn ablation_maximizer_keeps_the_greedy_set_at_fewer_evaluations() {
    let rows = quick_table("ablation-maximizer", "ablation_maximizer");
    let names: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(names, ["lazy greedy", "stochastic greedy"]);
    let evals: Vec<usize> = rows.iter().map(|r| r[2].parse().expect("count")).collect();
    assert_eq!(evals, [2_097, 500]);
    let value = |r: &Vec<String>| r[1].parse::<f64>().expect("f(S)");
    let stochastic = 1.0 - (-1.0f64).exp() - 0.1;
    assert!(value(&rows[1]) >= stochastic * value(&rows[0]));
}

/// Fig. 9's claim on every dataset of the catalog: Fagin encrypts fewer
/// instances per query than the base protocol.
#[test]
fn fig9_fagin_encrypts_fewer_instances_on_every_dataset() {
    let rows = quick_table("fig9", "fig9");
    assert_eq!(rows.len(), 10, "one row per catalog dataset");
    for row in &rows {
        let base: f64 = row[1].parse().expect("base count");
        let fagin: f64 = row[2].parse().expect("fagin count");
        assert!(fagin < base, "{row:?}");
        let reduction: f64 = row[3].trim_end_matches('x').parse().expect("reduction");
        assert!(reduction > 1.0, "{row:?}");
    }
}

/// Both top-k oracles pick the same parties (the run panics otherwise),
/// and Fagin touches no more candidates than Base.
#[test]
fn ablation_topk_orders_the_oracles_by_candidates() {
    let rows = quick_table("ablation-topk", "ablation_topk");
    assert_eq!(rows.len(), 6, "three datasets × two oracles");
    for per_dataset in rows.chunks(2) {
        let oracles: Vec<&str> = per_dataset.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(oracles, ["base", "fagin"]);
        let candidates: Vec<f64> =
            per_dataset.iter().map(|r| r[2].parse().expect("candidates")).collect();
        assert!(candidates.windows(2).all(|w| w[0] >= w[1]), "{per_dataset:?}");
    }
}

/// The DP ablation noises one HE run's `d_T^p` per budget: the HE row
/// comes first, then one row per ε, and every row chooses `select`
/// distinct parties.
#[test]
fn ablation_dp_selects_in_every_row_after_the_he_row() {
    let rows = quick_table("ablation-dp", "ablation_dp");
    let names: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(names, ["HE (no noise)", "DP ε = 10", "DP ε = 1", "DP ε = 0.1", "DP ε = 0.01"]);
    let select = vfps_core::PipelineConfig::default().select;
    for row in &rows {
        let mut chosen: Vec<usize> = row[1]
            .trim_matches(['[', ']'])
            .split(", ")
            .map(|id| id.parse().expect("party id"))
            .collect();
        chosen.sort_unstable();
        chosen.dedup();
        assert_eq!(chosen.len(), select, "{row:?}");
        let accuracy: f64 = row[2].parse().expect("accuracy");
        assert!((0.0..=1.0).contains(&accuracy), "{row:?}");
    }
}
