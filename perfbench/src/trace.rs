//! In-memory spans recorded around the benchmark's own calls into the
//! library. Nothing is written until the run ends, and a disabled tracer
//! never reads the clock, so the untraced run pays nothing for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `key` is the step, pass, block or request id the span
/// belongs to; `parent` is the id of the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id, to
    /// pass as the parent of the spans it opens; `None` when disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                key,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Each span's duration minus the time its children cover (overlapping
/// children counted once), keyed by span id. Negative only when children
/// escape their parent, which [`check_nesting`] reports.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, i64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.id, s.duration_ns() as i64 - covered as i64)
        })
        .collect()
}

/// Check that every span with a parent lies inside that parent's interval.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        let Some(pid) = s.parent else { continue };
        let p = by_id
            .get(&pid)
            .ok_or_else(|| format!("span {} `{}` names missing parent {pid}", s.id, s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 100),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn nesting_check_rejects_an_escaping_child() {
        let spans = [span(1, None, 0, 10), span(2, Some(1), 5, 11)];
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.span("x", None, 0, |id| id);
        assert_eq!(id, None);
        assert!(t.spans().is_empty());
    }
}
