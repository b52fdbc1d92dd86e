//! In-memory span recorder.
//!
//! The benchmark wraps every call into the simulator's public API in a
//! span: a name, a start and end offset from the recorder's origin and
//! the id of the enclosing span. Spans are only recorded when tracing is
//! on, but [`Tracer::exit`] always returns the span's wall time, so the
//! untraced path times its windows through the same code.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

impl Open {
    /// The span's id, when it is being recorded.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// The recorder. Spans nest strictly: `exit` closes the innermost span.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; returns the previous setting.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.offset(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(id);
            id
        });
        Open { start, id }
    }

    /// Closes `open` and returns its wall time in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.offset(end);
        }
        (end - open.start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    fn offset(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total wall s, total self s), sorted by self
    /// time, largest first. Self time is a span's wall time minus the part
    /// its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9;
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.secs();
                    e.3 += own;
                }
                None => by_name.push((s.name, 1, s.secs(), own)),
            }
        }
        by_name.sort_by(|a, b| b.3.total_cmp(&a.3));
        by_name
    }

    /// Wall time of span `root` that none of its direct children covers.
    pub fn unattributed(&self, root: usize) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let r = &self.spans[root];
        (r.end_ns - r.start_ns).saturating_sub(covered) as f64 * 1e-9
    }
}

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
