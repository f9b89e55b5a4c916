//! Benchmark-side spans: each call the benchmark makes into a layer's
//! public function is wrapped in a span (name, start, end, parent,
//! cell id). Spans stay in memory and are written once, at the end of
//! a traced run. A disabled tracer times nothing, so the untraced and
//! traced passes run the same code.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.execute`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The cell this span worked for.
    pub cell: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `origin`; `enabled == false` records
    /// nothing.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for a worker thread, sharing this one's origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Takes over the spans a worker recorded: their roots become
    /// children of the span open here.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + offset).or(parent),
            ..span
        }));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that
/// its children cover. Children of one span may run in parallel on
/// different workers, so the covered part is the union of their
/// intervals, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("fleet", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("cell", 40, 90, Some(0)),
            span("engine", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 50, 10]);
    }

    #[test]
    fn adopted_roots_nest_under_the_open_span() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.span("fleet", None, |tracer| {
            let mut worker = tracer.fork();
            worker.span("cell", Some(3), |w| w.span("engine", Some(3), |_| ()));
            tracer.adopt(worker.into_spans());
        });
        let spans = tracer.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert_eq!(spans[2].cell, Some(3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        assert_eq!(tracer.span("x", None, |_| 7), 7);
        assert!(tracer.into_spans().is_empty());
    }
}
