//! Structured simulation tracing.
//!
//! A bounded, allocation-light event log plus named counters, for
//! debugging protocol runs and asserting behavioural properties in tests
//! ("exactly N decision rounds ran", "no decision before the first
//! report"). Tracing is off by default and costs one branch per call
//! when disabled.
//!
//! ## Counters
//!
//! Counters are *interned*: a name is registered once with
//! [`Trace::register_counter`], which hands back a [`CounterId`] — an
//! index into a flat `Vec<u64>`. Bumping through the id
//! ([`Trace::bump`]) is a bounds-checked indexed add with no map
//! lookup, which is what the per-event hot path pays. The string-keyed
//! [`Trace::count`]/[`Trace::counter`] API is kept for cold callers and
//! tests; it interns on first use via a short linear scan.

use std::collections::VecDeque;

use crate::clock::SimTime;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Static category tag (e.g. `"decision"`, `"report"`).
    pub category: &'static str,
    /// Free-form details.
    pub message: String,
}

/// Handle to an interned counter slot; obtained from
/// [`Trace::register_counter`] and only meaningful on the trace that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A bounded trace buffer with named counters.
///
/// ```rust
/// use tibfit_sim::trace::Trace;
/// use tibfit_sim::SimTime;
///
/// let mut trace = Trace::enabled(16);
/// trace.record(SimTime::from_ticks(5), "report", "n3 -> CH");
/// trace.count("reports_delivered");
/// // Hot paths intern once and bump through the id:
/// let id = trace.register_counter("reports_delivered");
/// trace.bump(id);
/// assert_eq!(trace.events().len(), 1);
/// assert_eq!(trace.counter("reports_delivered"), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    counter_names: Vec<&'static str>,
    counter_slots: Vec<u64>,
    enabled: bool,
    dropped: u64,
}

impl Trace {
    /// A disabled trace: every call is a cheap no-op (counters still
    /// work — they are always useful and nearly free).
    #[must_use]
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// An enabled trace retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: VecDeque::with_capacity(capacity),
            capacity,
            enabled: true,
            ..Trace::default()
        }
    }

    /// Whether event recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled). The oldest event is
    /// dropped once the buffer is full.
    pub fn record(&mut self, time: SimTime, category: &'static str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            time,
            category,
            message: message.into(),
        });
    }

    /// Interns `counter`, returning the id of its slot. Registering the
    /// same name again returns the existing id — call this once at
    /// set-up, keep the id, and bump through it on the hot path.
    pub fn register_counter(&mut self, counter: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|&n| n == counter) {
            return CounterId(i as u32);
        }
        self.counter_names.push(counter);
        self.counter_slots.push(0);
        CounterId((self.counter_names.len() - 1) as u32)
    }

    /// Increments an interned counter: a bounds-checked indexed add.
    /// Counters wrap at `u64::MAX` in every build (a restored value can
    /// be anything a checkpoint held), as the add does in release.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.bump_by(id, 1);
    }

    /// Adds `n` to an interned counter, wrapping like [`Trace::bump`].
    #[inline]
    pub fn bump_by(&mut self, id: CounterId, n: u64) {
        let slot = &mut self.counter_slots[id.0 as usize];
        *slot = slot.wrapping_add(n);
    }

    /// Increments a named counter (works even when event recording is
    /// disabled). Cold-path convenience over
    /// [`Trace::register_counter`] + [`Trace::bump`].
    pub fn count(&mut self, counter: &'static str) {
        let id = self.register_counter(counter);
        self.bump(id);
    }

    /// Adds `n` to a named counter.
    pub fn count_by(&mut self, counter: &'static str, n: u64) {
        let id = self.register_counter(counter);
        self.bump_by(id, n);
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, counter: &str) -> u64 {
        self.counter_names
            .iter()
            .position(|&n| n == counter)
            .map_or(0, |i| self.counter_slots[i])
    }

    /// Current value of an interned counter: an indexed read, where
    /// [`Trace::counter`] searches the names.
    #[must_use]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counter_slots[id.0 as usize]
    }

    /// All counters with a non-zero value, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .counter_names
            .iter()
            .zip(&self.counter_slots)
            .filter(|(_, &v)| v != 0)
            .map(|(&n, &v)| (n, v))
            .collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<&TraceEvent> {
        self.events.iter().collect()
    }

    /// Retained events in one category, oldest first.
    #[must_use]
    pub fn events_in(&self, category: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.category == category)
            .collect()
    }

    /// How many events were evicted by the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears events and counters (registered names are forgotten too;
    /// previously issued [`CounterId`]s are invalidated).
    pub fn clear(&mut self) {
        self.events.clear();
        self.counter_names.clear();
        self.counter_slots.clear();
        self.dropped = 0;
    }

    /// Renders the retained events as one line each.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("[{}] {}: {}\n", e.time, e.category, e.message));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn disabled_records_nothing_but_counts() {
        let mut trace = Trace::disabled();
        trace.record(t(1), "x", "ignored");
        trace.count("hits");
        assert!(trace.events().is_empty());
        assert_eq!(trace.counter("hits"), 1);
        assert!(!trace.is_enabled());
    }

    #[test]
    fn events_retained_in_order() {
        let mut trace = Trace::enabled(8);
        trace.record(t(1), "a", "first");
        trace.record(t(2), "b", "second");
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "first");
        assert_eq!(events[1].message, "second");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut trace = Trace::enabled(3);
        for i in 0..5 {
            trace.record(t(i), "x", format!("e{i}"));
        }
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].message, "e2");
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn category_filter() {
        let mut trace = Trace::enabled(8);
        trace.record(t(1), "decision", "d1");
        trace.record(t(2), "report", "r1");
        trace.record(t(3), "decision", "d2");
        assert_eq!(trace.events_in("decision").len(), 2);
        assert_eq!(trace.events_in("report").len(), 1);
        assert!(trace.events_in("other").is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut trace = Trace::enabled(1);
        trace.count("a");
        trace.count("a");
        trace.count_by("b", 10);
        assert_eq!(trace.counter("a"), 2);
        assert_eq!(trace.counter("b"), 10);
        assert_eq!(trace.counter("missing"), 0);
        assert_eq!(trace.counters(), vec![("a", 2), ("b", 10)]);
    }

    #[test]
    fn registered_ids_are_stable_and_deduplicated() {
        let mut trace = Trace::disabled();
        let a = trace.register_counter("a");
        let b = trace.register_counter("b");
        let a2 = trace.register_counter("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        trace.bump(a);
        trace.bump(a2);
        trace.bump_by(b, 5);
        assert_eq!(trace.counter("a"), 2);
        assert_eq!(trace.counter("b"), 5);
    }

    #[test]
    fn string_and_id_apis_share_slots() {
        let mut trace = Trace::disabled();
        let id = trace.register_counter("shared");
        trace.count("shared");
        trace.bump(id);
        assert_eq!(trace.counter("shared"), 2);
        assert_eq!(trace.counter_value(id), 2);
    }

    #[test]
    fn untouched_registered_counters_hidden_from_listing() {
        let mut trace = Trace::disabled();
        let _ = trace.register_counter("registered_only");
        trace.count("bumped");
        assert_eq!(trace.counters(), vec![("bumped", 1)]);
        assert_eq!(trace.counter("registered_only"), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut trace = Trace::enabled(4);
        trace.record(t(1), "x", "e");
        trace.count("c");
        trace.clear();
        assert!(trace.events().is_empty());
        assert_eq!(trace.counter("c"), 0);
        assert_eq!(trace.dropped(), 0);
        assert!(trace.counters().is_empty());
    }

    #[test]
    fn render_is_line_per_event() {
        let mut trace = Trace::enabled(4);
        trace.record(t(7), "x", "hello");
        let text = trace.render();
        assert!(text.contains("t=7"));
        assert!(text.contains("x: hello"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Trace::enabled(0);
    }
}
