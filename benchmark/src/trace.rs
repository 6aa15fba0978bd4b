//! In-memory span recorder for the traced repetition and the probe phase.
//!
//! Spans are recorded from the harness's own files, around its calls into
//! each crate's public functions — nothing inside the simulator is
//! instrumented. The recorder lives on the single driver thread; rank
//! threads the simulator spawns are invisible to it by design (their cost
//! lands in the enclosing span). Spans stay in memory and are written out
//! as JSONL only when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `ops` is the number of operations the span covers
/// (1 for a single call, `n` for a probe loop of `n` calls), so per-call
/// cost is measured where the work happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Live {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Span recorder; [`Recorder::off`] makes every call a no-op (no clock
/// reads), which is what the untraced repetitions run with.
pub struct Recorder(Option<RefCell<Live>>);

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    live: Option<&'a RefCell<Live>>,
    id: u32,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder(None)
    }

    pub fn on() -> Self {
        Recorder(Some(RefCell::new(Live {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Open a span covering one operation; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_ops(name, 1)
    }

    /// Open a span covering `ops` operations of the same kind.
    pub fn span_ops(&self, name: &'static str, ops: u64) -> SpanGuard<'_> {
        let Some(cell) = &self.0 else {
            return SpanGuard { live: None, id: 0 };
        };
        let mut live = cell.borrow_mut();
        let id = live.spans.len() as u32;
        let parent = live.open.last().copied();
        live.open.push(id);
        let start_ns = live.epoch.elapsed().as_nanos() as u64;
        live.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            ops,
        });
        SpanGuard {
            live: Some(cell),
            id,
        }
    }

    /// Every recorded span, in opening order. All guards must have dropped.
    pub fn into_spans(self) -> Vec<Span> {
        self.0.map_or_else(Vec::new, |cell| {
            let live = cell.into_inner();
            assert!(live.open.is_empty(), "span still open at end of run");
            live.spans
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(cell) = self.live {
            let mut live = cell.borrow_mut();
            let end_ns = live.epoch.elapsed().as_nanos() as u64;
            let top = live.open.pop();
            debug_assert_eq!(top, Some(self.id), "spans must close innermost first");
            live.spans[self.id as usize].end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (one driver
/// thread), so the covered part is the plain sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

/// Durations of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// One JSON object per span, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns, s.ops
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90].
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        // root: 100 - (30 + 40); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(
            self_times_ns(&spans).iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_links_parents_and_off_records_nothing() {
        let rec = Recorder::on();
        {
            let _root = rec.span("root");
            {
                let _a = rec.span("a");
                let _a1 = rec.span_ops("a1", 8);
            }
            let _b = rec.span("b");
        }
        let spans = rec.into_spans();
        let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!(spans[2].ops, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(durations_ns(&spans, "a").len(), 1);

        let off = Recorder::off();
        drop(off.span("ignored"));
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn jsonl_names_every_field() {
        let line = to_jsonl(&[span(1, Some(0), 5, 9), span(0, None, 0, 10)]);
        let mut lines = line.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"id":1,"parent":0,"name":"s","start_ns":5,"end_ns":9,"ops":1}"#
        );
        assert_eq!(
            lines.next().unwrap(),
            r#"{"id":0,"parent":null,"name":"s","start_ns":0,"end_ns":10,"ops":1}"#
        );
    }
}
