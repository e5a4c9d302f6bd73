//! The harness's own in-memory span recorder.
//!
//! One span per call the harness makes into a layer: name, start, end,
//! the span that caused it, and the round or request it belongs to. Spans
//! stay in memory and are written out when the run ends. Spans *inside*
//! the crates are a later change; timings the server stamps into its
//! replies are attached as child spans marked `reply-stamp`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::Json;

/// Where a span's interval came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Timed by the harness around a call.
    Harness,
    /// A duration the server reported in its reply; placed at the end of
    /// the parent interval, since only its length is known.
    ReplyStamp,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Round or request id shared by all spans of one operation.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub source: Source,
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_us();
        self.push(Span { name, parent, op, start_us: now, end_us: now, source: Source::Harness })
    }

    pub fn close(&self, id: usize) {
        let now = self.now_us();
        self.spans.lock().expect("no span holder panics")[id].end_us = now;
    }

    /// Attaches a server-stamped duration as a child ending `end_offset_us`
    /// before the parent's end.
    pub fn stamp(&self, name: &'static str, parent: usize, dur_us: f64, end_offset_us: f64) {
        let (op, parent_end) = {
            let spans = self.spans.lock().expect("no span holder panics");
            (spans[parent].op, spans[parent].end_us)
        };
        let end_us = parent_end - end_offset_us;
        self.push(Span {
            name,
            parent: Some(parent),
            op,
            start_us: end_us - dur_us,
            end_us,
            source: Source::ReplyStamp,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span holder panics").len()
    }

    /// Per span name: `(count, total self time in µs)`, where self time is
    /// a span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += (s.end_us - s.start_us - child_us[i]).max(0.0);
        }
        out
    }

    /// Mean self time of `name` in µs, or `None` if no such span exists.
    pub fn mean_self_us(&self, name: &str) -> Option<f64> {
        self.self_times().get(name).map(|&(n, total)| total / n as f64)
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span holder panics");
        let rows = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "source",
                        Json::Str(
                            match s.source {
                                Source::Harness => "harness",
                                Source::ReplyStamp => "reply-stamp",
                            }
                            .into(),
                        ),
                    ),
                ])
            })
            .collect();
        drop(spans);
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, (count, total))| {
                (
                    name,
                    Json::obj([("count", Json::Num(count as f64)), ("self_us", Json::Num(total))]),
                )
            })
            .collect::<Vec<_>>();
        let doc = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("self_time_by_span", Json::obj(self_times)),
            ("spans", Json::Arr(rows)),
        ]);
        std::fs::write(path, doc.render_pretty())
    }
}

/// Runs `f` inside a span when tracing is on, bare when it is off; `f`
/// receives the span id to parent its own children on.
pub fn span<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match rec {
        None => f(None),
        Some(r) => {
            let id = r.open(name, parent, op);
            let out = f(Some(id));
            r.close(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_stamps_nest() {
        let rec = Recorder::new();
        let root = rec.open("op", None, 1);
        let child = rec.open("layer", Some(root), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(child);
        rec.close(root);
        rec.stamp("stamped", root, 500.0, 0.0);
        let st = rec.self_times();
        let (n, op_self) = st["op"];
        assert_eq!(n, 1);
        let layer = st["layer"].1;
        assert!(layer >= 2000.0, "child covers the sleep: {layer}");
        // The root's self time excludes both the timed child and the stamp.
        assert!(op_self < layer, "root self {op_self} vs child {layer}");
        assert_eq!(st["stamped"], (1, 500.0));
        assert_eq!(rec.len(), 3);
        assert_eq!(span(None, "x", None, 0, |id| id), None);
    }
}
