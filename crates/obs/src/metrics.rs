//! The metrics registry: named counters, gauges, and histograms.
//!
//! Deliberately plain data (no `Rc`/`RefCell`, no interior mutability):
//! components either own a `Registry` or the harness builds one from their
//! counter snapshots at the end of a run. `BTreeMap` keys give a sorted,
//! deterministic serialization order.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::Json;

/// A bag of named metrics with deterministic JSON rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set counter `name` to `v` (for end-of-run snapshots).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Read counter `name` (0 if absent). Panics if `name` is a gauge.
    pub fn counter(&self, name: &str) -> u64 {
        assert!(!self.gauges.contains_key(name), "{name} is a gauge");
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raise gauge `name` to `v` if larger (high-water marks).
    pub fn gauge_max(&mut self, name: &str, v: i64) {
        let e = self.gauges.entry(name.to_string()).or_insert(i64::MIN);
        *e = (*e).max(v);
    }

    /// Read gauge `name` (0 if absent). Panics if `name` is a counter.
    pub fn gauge(&self, name: &str) -> i64 {
        assert!(!self.counters.contains_key(name), "{name} is a counter");
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().record(v);
    }

    /// Merge a whole histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merge another registry: counters add, gauges take the max,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(k, h);
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Deterministic JSON: `counters`, `gauges`, and `hists` objects with
    /// sorted keys; histograms as their integer [`Histogram::summary`].
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::U64(v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".to_string(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::I64(v)))
                        .collect(),
                ),
            ));
        }
        if !self.hists.is_empty() {
            fields.push((
                "hists".to_string(),
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.summary()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let mut r = Registry::new();
        r.inc("ops", 3);
        r.inc("ops", 2);
        r.gauge_max("window_hwm", 7);
        r.gauge_max("window_hwm", 5); // lower: no change
        r.gauge_max("window_hwm", 9);
        r.observe("lat", 100);
        r.observe("lat", 200);
        assert_eq!(r.counter("ops"), 5);
        assert_eq!(r.gauge("window_hwm"), 9);
        assert_eq!(r.hist("lat").unwrap().count(), 2);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn reading_a_metric_as_the_other_kind_panics() {
        let mut r = Registry::new();
        r.gauge_max("hwm", 2);
        r.inc("ops", 2);
        assert!(std::panic::catch_unwind(|| r.counter("hwm")).is_err());
        assert!(std::panic::catch_unwind(|| r.gauge("ops")).is_err());
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let mut a = Registry::new();
        a.inc("x", 1);
        a.observe("h", 10);
        let mut b = Registry::new();
        b.inc("x", 2);
        b.observe("h", 20);
        b.gauge_max("g", 4);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.hist("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), 4);
    }

    #[test]
    fn json_rendering_is_sorted_and_deterministic() {
        let mut r = Registry::new();
        r.inc("zeta", 1);
        r.inc("alpha", 2);
        r.observe("lat", 1234);
        let s = r.to_json().render_pretty();
        assert!(s.find("alpha").unwrap() < s.find("zeta").unwrap());
        assert_eq!(s, r.clone().to_json().render_pretty());
        // Identical recording order vs different order: same rendering.
        let mut r2 = Registry::new();
        r2.observe("lat", 1234);
        r2.inc("alpha", 2);
        r2.inc("zeta", 1);
        assert_eq!(s, r2.to_json().render_pretty());
    }

    #[test]
    fn empty_registry_renders_empty_object() {
        assert_eq!(Registry::new().to_json().render_pretty(), "{}\n");
    }
}
