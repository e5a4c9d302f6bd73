//! Shared infrastructure for the experiment harness: table formatting,
//! result persistence, selection-only runs, and cost-model calibration
//! against the real HE implementations.

#![warn(missing_docs)]

pub mod experiments;

use std::path::PathBuf;
use std::time::Instant;

use vfps_core::selectors::{Selection, SelectionContext};
use vfps_core::{make_selector, Method, PipelineConfig};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::ckks::CkksParams;
use vfps_he::scheme::{AdditiveHe, CkksHe, PaillierHe};
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

/// Measured per-op microsecond costs of the real HE implementations.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Scheme name.
    pub scheme: &'static str,
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

/// Measures the real Paillier implementation (key width in bits).
#[must_use]
pub fn calibrate_paillier(key_bits: usize, reps: usize) -> Calibration {
    let he = PaillierHe::generate(key_bits, 16, 99).expect("keygen");
    let values: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
    let t0 = Instant::now();
    let cts: Vec<_> = (0..reps).map(|_| he.encrypt(&values).expect("encrypt")).collect();
    let enc_us = t0.elapsed().as_micros() as f64 / (reps * 16) as f64;
    let t1 = Instant::now();
    for w in cts.windows(2) {
        let _ = he.add(&w[0], &w[1]);
    }
    let add_us = t1.elapsed().as_micros() as f64 / ((reps.max(2) - 1) * 16) as f64;
    let t2 = Instant::now();
    for ct in &cts {
        let _ = he.decrypt(ct, 16);
    }
    let dec_us = t2.elapsed().as_micros() as f64 / (reps * 16) as f64;
    let bytes = he.ct_bytes(&cts[0]) as f64 / 16.0;
    Calibration { scheme: "paillier", enc_us, dec_us, add_us, bytes_per_value: bytes }
}

/// Measures the real CKKS implementation.
#[must_use]
pub fn calibrate_ckks(params: &CkksParams, reps: usize) -> Calibration {
    let he = CkksHe::generate(params, 99).expect("context");
    let slots = he.max_batch();
    let values: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
    let t0 = Instant::now();
    let cts: Vec<_> = (0..reps).map(|_| he.encrypt(&values).expect("encrypt")).collect();
    let enc_us = t0.elapsed().as_micros() as f64 / (reps * slots) as f64;
    let t1 = Instant::now();
    for w in cts.windows(2) {
        let _ = he.add(&w[0], &w[1]);
    }
    let add_us = t1.elapsed().as_micros() as f64 / ((reps.max(2) - 1) * slots) as f64;
    let t2 = Instant::now();
    for ct in &cts {
        let _ = he.decrypt(ct, slots);
    }
    let dec_us = t2.elapsed().as_micros() as f64 / (reps * slots) as f64;
    let bytes = he.ct_bytes(&cts[0]) as f64 / slots as f64;
    Calibration { scheme: "ckks", enc_us, dec_us, add_us, bytes_per_value: bytes }
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
        let cal = Calibration {
            scheme: "test",
            enc_us: 1.5,
            dec_us: 2.5,
            add_us: 0.25,
            bytes_per_value: 32.1,
        };
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
        let cal = calibrate_paillier(128, 3);
        assert!(cal.enc_us > 0.0 && cal.dec_us > 0.0 && cal.bytes_per_value > 0.0);
        let model = cal.to_cost_model();
        assert!(model.cipher_bytes > 0);
    }

    #[test]
    fn ckks_calibration_produces_positive_costs() {
        let cal = calibrate_ckks(&CkksParams::insecure_test(), 2);
        assert_eq!(cal.scheme, "ckks");
        assert!(cal.enc_us > 0.0 && cal.dec_us > 0.0 && cal.bytes_per_value > 0.0);
        let model = cal.to_cost_model();
        assert_eq!(model.cipher_bytes, cal.bytes_per_value.ceil() as usize);
    }
}
