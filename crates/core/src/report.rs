//! Human-readable selection reports: what a data-consortium operator
//! actually reads after a selection run — chosen parties, per-party
//! scores, and where the simulated time went.

use crate::selectors::Selection;
use vfps_net::cost::CostModel;

/// Renders a multi-line report for a selection outcome.
///
/// `party_names` supplies display names (index-based fallbacks are used
/// when it is shorter than the consortium).
#[must_use]
pub fn selection_report(
    selection: &Selection,
    method: &str,
    party_names: &[String],
    cost_model: &CostModel,
) -> String {
    let mut out = String::new();
    let name = |p: usize| -> String {
        party_names.get(p).cloned().unwrap_or_else(|| format!("party-{p}"))
    };

    out.push_str(&format!("selection report — {method}\n"));
    out.push_str(&format!(
        "chosen ({}): {}\n",
        selection.chosen.len(),
        selection.chosen.iter().map(|&p| name(p)).collect::<Vec<_>>().join(", ")
    ));

    if !selection.scores.is_empty() {
        out.push_str("scores:\n");
        let max_score = selection.scores.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
        for (p, &score) in selection.scores.iter().enumerate() {
            let bar_len = ((score / max_score).clamp(0.0, 1.0) * 24.0).round() as usize;
            let marker = if selection.chosen.contains(&p) { "*" } else { " " };
            out.push_str(&format!(
                "  {marker} {:<14} {:>10.4} {}\n",
                name(p),
                score,
                "#".repeat(bar_len)
            ));
        }
    }

    let b = selection.ledger.breakdown(cost_model);
    if b.total_us() > 0.0 {
        out.push_str(&format!(
            "simulated selection time: {:.1}s (crypto {:.0}%)\n",
            b.total_us() / 1e6,
            b.crypto_fraction() * 100.0
        ));
        out.push_str(&format!(
            "  enc {:.1}s | dec {:.1}s | he-add {:.1}s | plain {:.2}s | transfer {:.2}s | latency {:.2}s\n",
            b.enc_us / 1e6,
            b.dec_us / 1e6,
            b.he_add_us / 1e6,
            b.plain_us / 1e6,
            b.transfer_us / 1e6,
            b.latency_us / 1e6,
        ));
    }
    if selection.candidates_per_query > 0.0 {
        out.push_str(&format!(
            "encrypted instances per query: {:.0}\n",
            selection.candidates_per_query
        ));
    }
    if selection.ledger.cache_hits + selection.ledger.cache_misses > 0 {
        out.push_str(&format!(
            "artifact cache: {} hit(s), {} miss(es)\n",
            selection.ledger.cache_hits, selection.ledger.cache_misses
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_net::cost::OpLedger;

    fn selection() -> Selection {
        let mut ledger = OpLedger::default();
        ledger.record_enc(1000, 4);
        ledger.record_dec(500);
        ledger.record_round();
        Selection {
            chosen: vec![2, 0],
            ledger,
            scores: vec![0.9, 0.1, 1.4, 0.0],
            candidates_per_query: 123.0,
        }
    }

    #[test]
    fn report_names_the_chosen_parties() {
        let names: Vec<String> =
            ["bank", "credit", "shop", "junk"].iter().map(|s| (*s).into()).collect();
        let r = selection_report(&selection(), "VFPS-SM", &names, &CostModel::default());
        assert!(r.contains("chosen (2): shop, bank"), "{r}");
        assert!(r.contains("VFPS-SM"));
        assert!(r.contains("encrypted instances per query: 123"));
    }

    #[test]
    fn report_marks_chosen_rows_and_scales_bars() {
        let r = selection_report(&selection(), "X", &[], &CostModel::default());
        // Fallback names, stars on chosen parties, longest bar on the top
        // score.
        assert!(r.contains("* party-2"), "{r}");
        assert!(r.contains("* party-0"), "{r}");
        assert!(r.contains("  party-1"), "{r}");
        let top_bar = r.lines().find(|l| l.contains("* party-2")).unwrap().matches('#').count();
        assert_eq!(top_bar, 24, "{r}");
    }

    #[test]
    fn report_includes_time_breakdown() {
        let r = selection_report(&selection(), "X", &[], &CostModel::default());
        assert!(r.contains("simulated selection time"), "{r}");
        assert!(r.contains("crypto"), "{r}");
    }

    #[test]
    fn empty_ledger_omits_time_section() {
        let s = Selection {
            chosen: vec![0],
            ledger: OpLedger::default(),
            scores: vec![],
            candidates_per_query: 0.0,
        };
        let r = selection_report(&s, "RANDOM", &[], &CostModel::default());
        assert!(!r.contains("simulated selection time"));
        assert!(!r.contains("encrypted instances"));
    }

    #[test]
    fn report_prints_cache_line_only_when_the_cache_was_consulted() {
        let uncached = selection_report(&selection(), "VFPS-SM", &[], &CostModel::default());
        assert!(!uncached.contains("artifact cache"), "{uncached}");
        let mut s = selection();
        s.ledger.record_cache_hit();
        let r = selection_report(&s, "VFPS-SM", &[], &CostModel::default());
        assert!(r.contains("artifact cache: 1 hit(s), 0 miss(es)"), "{r}");
    }

    #[test]
    fn a_short_name_list_falls_back_party_by_party() {
        let names = vec!["bank".to_owned()];
        let r = selection_report(&selection(), "X", &names, &CostModel::default());
        assert!(r.contains("chosen (2): party-2, bank"), "{r}");
        assert!(r.contains("* bank"), "{r}");
    }

    #[test]
    fn bars_scale_with_the_score_and_clamp_below_zero() {
        let mut s = selection();
        s.scores = vec![0.9, -0.5, 1.4, 0.0];
        let r = selection_report(&s, "X", &[], &CostModel::default());
        let row =
            |name: &str| r.lines().find(|l| l.trim_start_matches([' ', '*']).starts_with(name));
        let bar = |name: &str| row(name).unwrap().matches('#').count();
        assert_eq!(bar("party-0"), 15, "round(0.9 / 1.4 * 24)\n{r}");
        assert_eq!(bar("party-1"), 0, "{r}");
        assert_eq!(bar("party-2"), 24, "{r}");
        assert_eq!(bar("party-3"), 0, "{r}");
    }

    #[test]
    fn all_zero_scores_draw_no_bars_and_no_nan() {
        let mut s = selection();
        s.scores = vec![0.0; 3];
        let r = selection_report(&s, "X", &[], &CostModel::default());
        assert!(!r.contains('#') && !r.contains("NaN"), "{r}");
        assert_eq!(r.lines().filter(|l| l.contains("0.0000")).count(), 3, "{r}");
    }
}
