//! Finished captures: the span tree, the metrics snapshot, and the
//! hand-rolled JSON exporter (the workspace has no serde — see
//! `shims/README.md`).

use crate::metrics::{Histogram, MetricsRegistry};

/// One span in the finished tree.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Dotted phase name, e.g. `"fed_knn.query"`.
    pub name: String,
    /// Small per-thread label (assigned in first-use order, not an OS id).
    pub thread: u64,
    /// Start offset from the capture epoch, microseconds.
    pub start_us: u64,
    /// Span duration in microseconds. For spans still open when the
    /// capture finished, this is the time until the capture end.
    pub duration_us: u64,
    /// False when the span was still open at [`crate::finish_capture`].
    pub closed: bool,
    /// Nested spans, in recording order.
    pub children: Vec<TraceSpan>,
}

/// A completed capture: the span forest plus the metrics snapshot.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Root spans (those with no enclosing span on their thread).
    pub spans: Vec<TraceSpan>,
    /// Counters, gauges, and histograms recorded during the capture.
    pub metrics: MetricsRegistry,
    /// Total capture wall time in microseconds.
    pub wall_us: u64,
}

impl Trace {
    /// Sum of `duration_us` over every span named `name`, anywhere in the
    /// tree. The aggregate a per-phase breakdown wants.
    #[must_use]
    pub fn total_us(&self, name: &str) -> u64 {
        fn walk(spans: &[TraceSpan], name: &str) -> u64 {
            spans
                .iter()
                .map(|s| (if s.name == name { s.duration_us } else { 0 }) + walk(&s.children, name))
                .sum()
        }
        walk(&self.spans, name)
    }

    /// Number of spans named `name`, anywhere in the tree.
    #[must_use]
    pub fn span_count(&self, name: &str) -> u64 {
        fn walk(spans: &[TraceSpan], name: &str) -> u64 {
            spans.iter().map(|s| u64::from(s.name == name) + walk(&s.children, name)).sum()
        }
        walk(&self.spans, name)
    }

    /// Total number of spans in the tree, regardless of name.
    #[must_use]
    pub fn span_count_total(&self) -> u64 {
        fn walk(spans: &[TraceSpan]) -> u64 {
            spans.iter().map(|s| 1 + walk(&s.children)).sum()
        }
        walk(&self.spans)
    }

    /// Every distinct span name in the tree, sorted.
    #[must_use]
    pub fn span_names(&self) -> Vec<String> {
        fn walk(spans: &[TraceSpan], out: &mut Vec<String>) {
            for s in spans {
                out.push(s.name.clone());
                walk(&s.children, out);
            }
        }
        let mut names = Vec::new();
        walk(&self.spans, &mut names);
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Serializes the full capture — span tree and metrics — as JSON.
    ///
    /// Schema (documented in DESIGN.md §8):
    ///
    /// ```json
    /// {
    ///   "wall_us": 1234,
    ///   "spans": [{"name": "...", "thread": 0, "start_us": 0,
    ///              "duration_us": 10, "closed": true, "children": [...]}],
    ///   "metrics": {
    ///     "counters": {"name": 1},
    ///     "gauges": {"name": 1.5},
    ///     "histograms": {"name": {"count": 2, "sum": 3.0, "min": 1.0,
    ///                             "max": 2.0, "buckets": [...]}}
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"wall_us\": {},\n", self.wall_us));
        out.push_str("  \"spans\": ");
        write_spans(&mut out, &self.spans, 1);
        out.push_str(",\n  \"metrics\": {\n    \"counters\": {");
        for (i, (name, v)) in self.metrics.counters().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {v}", json_string(name)));
        }
        out.push_str("},\n    \"gauges\": {");
        for (i, (name, v)) in self.metrics.gauges().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(name), json_number(*v)));
        }
        out.push_str("},\n    \"histograms\": {");
        for (i, (name, h)) in self.metrics.histograms().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: ", json_string(name)));
            write_histogram(&mut out, h);
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

fn write_spans(out: &mut String, spans: &[TraceSpan], depth: usize) {
    if spans.is_empty() {
        out.push_str("[]");
        return;
    }
    let pad = "  ".repeat(depth + 1);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{pad}{{\"name\": {}, \"thread\": {}, \"start_us\": {}, \"duration_us\": {}, \
             \"closed\": {}, \"children\": ",
            json_string(&s.name),
            s.thread,
            s.start_us,
            s.duration_us,
            s.closed
        ));
        write_spans(out, &s.children, depth + 1);
        out.push('}');
        if i + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("{}]", "  ".repeat(depth)));
}

fn write_histogram(out: &mut String, h: &Histogram) {
    out.push_str(&format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [",
        h.count(),
        json_number(h.sum()),
        h.min().map_or_else(|| "null".to_owned(), json_number),
        h.max().map_or_else(|| "null".to_owned(), json_number),
        h.mean().map_or_else(|| "null".to_owned(), json_number),
    ));
    for (i, b) in h.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&b.to_string());
    }
    out.push_str("]}");
}

/// A JSON number literal; non-finite values become `null`.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal with the mandatory escapes applied.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HISTOGRAM_BUCKETS;

    fn leaf(name: &str, dur: u64) -> TraceSpan {
        TraceSpan {
            name: name.to_owned(),
            thread: 0,
            start_us: 0,
            duration_us: dur,
            closed: true,
            children: Vec::new(),
        }
    }

    fn sample() -> Trace {
        let mut metrics = MetricsRegistry::default();
        metrics.counter_add("enc", 7);
        metrics.gauge_set("bytes", 12.5);
        metrics.histogram_record("lat_us", 3.0);
        let root =
            TraceSpan { children: vec![leaf("child", 2), leaf("child", 3)], ..leaf("root", 10) };
        Trace { spans: vec![root], metrics, wall_us: 42 }
    }

    #[test]
    fn aggregates_by_name_across_the_tree() {
        let t = sample();
        assert_eq!(t.total_us("child"), 5);
        assert_eq!(t.total_us("root"), 10);
        assert_eq!(t.total_us("missing"), 0);
        assert_eq!(t.span_count("child"), 2);
        assert_eq!(t.span_count_total(), 3);
        assert_eq!(t.span_names(), vec!["child".to_owned(), "root".to_owned()]);
    }

    #[test]
    fn json_contains_tree_and_metrics() {
        let j = sample().to_json();
        assert!(j.contains("\"wall_us\": 42"), "{j}");
        assert!(j.contains("\"name\": \"root\""), "{j}");
        assert!(j.contains("\"name\": \"child\""), "{j}");
        assert!(j.contains("\"counters\": {\"enc\": 7}"), "{j}");
        assert!(j.contains("\"gauges\": {\"bytes\": 12.5}"), "{j}");
        assert!(j.contains("\"count\": 1"), "{j}");
        // Children nest inside their parent, not beside it.
        let root_pos = j.find("\"name\": \"root\"").unwrap();
        let child_pos = j.find("\"name\": \"child\"").unwrap();
        assert!(child_pos > root_pos);
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_handle_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn an_empty_trace_is_the_bare_schema() {
        let t = Trace { spans: Vec::new(), metrics: MetricsRegistry::default(), wall_us: 0 };
        assert_eq!(
            t.to_json(),
            "{\n  \"wall_us\": 0,\n  \"spans\": [],\n  \"metrics\": {\n    \"counters\": {},\n    \
             \"gauges\": {},\n    \"histograms\": {}\n  }\n}\n"
        );
        assert_eq!(t.span_count_total(), 0);
        assert!(t.span_names().is_empty());
    }

    #[test]
    fn json_spans_carry_their_fields_and_open_state() {
        let open = TraceSpan { thread: 3, start_us: 17, closed: false, ..leaf("wire.recv", 5) };
        let t = Trace { spans: vec![open], metrics: MetricsRegistry::default(), wall_us: 22 };
        let j = t.to_json();
        assert!(
            j.contains(
                "{\"name\": \"wire.recv\", \"thread\": 3, \"start_us\": 17, \"duration_us\": 5, \
                 \"closed\": false, \"children\": []}"
            ),
            "{j}"
        );
    }

    #[test]
    fn json_histograms_list_every_bucket_and_the_mean() {
        let mut metrics = MetricsRegistry::default();
        metrics.histogram_record("lat_us", 1.0);
        metrics.histogram_record("lat_us", 3.0);
        metrics.gauge_set("util", f64::NAN);
        let j = Trace { spans: Vec::new(), metrics, wall_us: 1 }.to_json();
        let mut buckets = vec!["0"; HISTOGRAM_BUCKETS];
        buckets[1] = "1";
        buckets[2] = "1";
        let want = format!(
            "\"lat_us\": {{\"count\": 2, \"sum\": 4, \"min\": 1, \"max\": 3, \"mean\": 2, \
             \"buckets\": [{}]}}",
            buckets.join(",")
        );
        assert!(j.contains(&want), "{j}");
        assert!(j.contains("\"gauges\": {\"util\": null}"), "{j}");
    }

    #[test]
    fn json_strings_escape_cr_tab_and_keep_unicode() {
        assert_eq!(json_string("a\rb\tc"), "\"a\\rb\\tc\"");
        assert_eq!(json_string("d_T ≥ μ"), "\"d_T ≥ μ\"");
        assert_eq!(json_string("\u{1f}"), "\"\\u001f\"");
    }
}
