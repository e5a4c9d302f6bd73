//! Shared infrastructure for the experiment harness: table formatting,
//! result persistence, selection-only runs, and cost-model calibration
//! against the real Paillier implementation.

#![warn(missing_docs)]

pub mod dp;
pub mod experiments;

use std::path::PathBuf;
use std::time::Instant;

use vfps_core::selectors::{Selection, SelectionContext};
use vfps_core::{make_selector, Method, PipelineConfig};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::scheme::{AdditiveHe, PaillierHe};
use vfps_net::cost::CostModel;

/// Renders a GitHub-flavoured markdown table.
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let body: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        format!("| {} |\n", body.join(" | "))
    };
    out.push_str(&fmt_row(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(), &widths));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Writes an experiment artifact under `results/` (best effort: falls back
/// to stdout-only when the directory is not writable).
pub fn write_result(name: &str, content: &str) {
    let mut path = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&path);
    path.push(format!("{name}.md"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[saved {}]", path.display());
    }
}

/// Runs only the selection phase for a (dataset, method) pair, returning
/// the selection and the paper-scale simulated seconds.
#[must_use]
pub fn selection_only(
    spec: &DatasetSpec,
    method: Method,
    cfg: &PipelineConfig,
    seed: u64,
) -> (Selection, f64) {
    let sim_n = cfg.sim_instances.unwrap_or(spec.sim_instances);
    let (ds, split) = prepared_sized(spec, sim_n, seed);
    let cost_scale = spec.paper_instances as f64 / sim_n as f64;
    let mut partition = VerticalPartition::random(ds.n_features(), cfg.parties, seed);
    if cfg.duplicates > 0 {
        partition = partition.with_duplicates(0, cfg.duplicates);
    }
    let ctx = SelectionContext { ds: &ds, split: &split, partition: &partition, cost_scale, seed };
    let selector = make_selector(method, cfg);
    let selection = selector.select(&ctx, cfg.select);
    let secs = selection.ledger.simulated_seconds(&cfg.cost_model);
    (selection, secs)
}

/// Measured per-op microsecond costs of the real Paillier implementation.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Microseconds to encrypt one value (amortized over a batch).
    pub enc_us: f64,
    /// Microseconds to decrypt one value.
    pub dec_us: f64,
    /// Microseconds per homomorphic addition of one value.
    pub add_us: f64,
    /// Serialized bytes per value.
    pub bytes_per_value: f64,
}

impl Calibration {
    /// Converts into a [`CostModel`], keeping default link parameters.
    #[must_use]
    pub fn to_cost_model(&self) -> CostModel {
        CostModel {
            enc_us: self.enc_us,
            dec_us: self.dec_us,
            he_add_us: self.add_us,
            cipher_bytes: self.bytes_per_value.ceil() as usize,
            ..CostModel::default()
        }
    }
}

/// Ciphertexts one timed pass of [`calibrate_paillier`] encrypts, adds
/// and decrypts: enough that a pass spans many timer ticks.
const CALIBRATION_CTS: usize = 32;

/// Timed passes [`calibrate_paillier`] takes each op's median over.
const CALIBRATION_PASSES: usize = 5;

/// Measures the real Paillier implementation (key width in bits): each
/// op's per-value median over five timed passes of 32 ciphertexts of 16
/// values each, the key's one-off sum factor built before timing.
#[must_use]
pub fn calibrate_paillier(key_bits: usize) -> Calibration {
    const VALUES: usize = 16;
    let he = PaillierHe::generate(key_bits, VALUES, 99).expect("keygen");
    let values: Vec<f64> = (0..VALUES).map(|i| i as f64 * 0.5).collect();
    let us_per_value =
        |t: Instant, cts: usize| t.elapsed().as_secs_f64() * 1e6 / (cts * VALUES) as f64;
    // A key's first sum builds its sum factor; keep that out of the timing.
    let probe = he.encrypt(&values).expect("encrypt");
    let _ = he.add(&probe, &probe);
    let mut passes = Vec::with_capacity(CALIBRATION_PASSES);
    for _ in 0..CALIBRATION_PASSES {
        let t0 = Instant::now();
        let cts: Vec<_> =
            (0..CALIBRATION_CTS).map(|_| he.encrypt(&values).expect("encrypt")).collect();
        let enc_us = us_per_value(t0, CALIBRATION_CTS);
        let t1 = Instant::now();
        for w in cts.windows(2) {
            let _ = he.add(&w[0], &w[1]);
        }
        let add_us = us_per_value(t1, CALIBRATION_CTS - 1);
        let t2 = Instant::now();
        for ct in &cts {
            let _ = he.decrypt(ct, VALUES);
        }
        let dec_us = us_per_value(t2, CALIBRATION_CTS);
        passes.push([enc_us, dec_us, add_us]);
    }
    let median = |op: usize| {
        let mut v: Vec<f64> = passes.iter().map(|p| p[op]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    Calibration {
        enc_us: median(0),
        dec_us: median(1),
        add_us: median(2),
        bytes_per_value: he.ct_bytes(&probe) as f64 / VALUES as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| a"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn markdown_table_pads_every_column_to_its_widest_cell() {
        let t = markdown_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(t, "| a   | bb |\n| --- | -- |\n| 1   | 2  |\n| 333 | 4  |\n");
        let empty = markdown_table(&["only"], &[]);
        assert_eq!(empty, "| only |\n| ---- |\n");
    }

    #[test]
    fn calibration_rounds_bytes_up_and_keeps_the_link_defaults() {
        let cal = Calibration { enc_us: 1.5, dec_us: 2.5, add_us: 0.25, bytes_per_value: 32.1 };
        let model = cal.to_cost_model();
        let defaults = CostModel::default();
        assert_eq!((model.enc_us, model.dec_us, model.he_add_us), (1.5, 2.5, 0.25));
        assert_eq!(model.cipher_bytes, 33, "a partial byte still goes on the wire");
        assert_eq!(model.latency_us, defaults.latency_us);
        assert_eq!(model.bytes_per_us, defaults.bytes_per_us);
        assert_eq!(model.dist_us, defaults.dist_us);
        assert_eq!(
            (model.id_bytes, model.scalar_bytes),
            (defaults.id_bytes, defaults.scalar_bytes)
        );
    }

    #[test]
    fn selection_only_runs() {
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let cfg = PipelineConfig { sim_instances: Some(200), query_count: 8, ..Default::default() };
        let (sel, secs) = selection_only(&spec, Method::VfpsSm, &cfg, 1);
        assert_eq!(sel.chosen.len(), 2);
        assert!(secs > 0.0);
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let cal = calibrate_paillier(128);
        assert!(cal.enc_us > 0.0 && cal.dec_us > 0.0 && cal.bytes_per_value > 0.0);
        let model = cal.to_cost_model();
        assert!(model.cipher_bytes > 0);
    }
}
