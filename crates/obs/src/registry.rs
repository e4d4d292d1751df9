//! The metric registry: named counters, gauges and fixed-bucket
//! histograms with deterministic snapshots.
//!
//! Everything in a [`Registry`] is *logical* — event counts, vote
//! counts, queue depths — never wall time, so a snapshot of a
//! deterministic run is bit-identical across machines and worker
//! counts. Wall time lives on spans ([`crate::SpanRecord`]), carried
//! but excluded from equality.
//!
//! Names are free-form dotted strings (`"eig.votes_evaluated"`,
//! `"trace.sends"`). Storage is `BTreeMap`-backed, so iteration,
//! snapshots and JSON emission are in sorted-name order regardless of
//! recording order.

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// A fixed-bucket histogram: cumulative-style upper bounds plus an
/// implicit overflow bucket, a total count and a sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// `buckets[i]` counts observations `<= bounds[i]` (and above the
    /// previous bound); the last entry is the overflow bucket.
    buckets: Vec<u64>,
    /// Observations recorded.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`] (the
    /// last entry is the overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// A deterministic quantile estimate by linear interpolation within
    /// the bucket holding the `q`-th observation (`0.0 < q <= 1.0`).
    /// Observations in the overflow bucket are estimated at the last
    /// finite bound (a stated underestimate — pick bounds that cover the
    /// expected range). `None` when nothing was observed.
    ///
    /// The estimate is pure integer-count arithmetic over the bucket
    /// table, so for a deterministic run it is bit-identical across
    /// machines and worker counts — which is what lets SLO gates and
    /// snapshots rely on it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        // 1-based rank of the target observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if rank <= seen {
                if i == self.bounds.len() {
                    // Overflow bucket: no upper bound to interpolate to.
                    return Some(self.bounds[self.bounds.len() - 1] as f64);
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] } as f64;
                let upper = self.bounds[i] as f64;
                let frac = (rank - before) as f64 / c as f64;
                return Some(lower + (upper - lower) * frac);
            }
        }
        None
    }

    /// [`Histogram::quantile`] in the workspace's fixed-point `_x100`
    /// convention (rounded to the nearest hundredth), the form snapshots
    /// embed so registry JSON stays integer-only.
    pub fn quantile_x100(&self, q: f64) -> Option<u64> {
        self.quantile(q).map(|v| (v * 100.0).round() as u64)
    }

    /// Folds another histogram in. Bucket-wise when the bounds match;
    /// otherwise the other histogram's sum/count are preserved by
    /// re-observing its mean per observation (a lossy but total merge —
    /// mismatched bounds indicate a naming collision, which the caller
    /// should avoid).
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
            self.count += other.count;
            self.sum += other.sum;
        } else if let Some(mean) = other.sum.checked_div(other.count) {
            for _ in 0..other.count {
                self.observe(mean);
            }
        }
    }
}

/// A registry of named counters, gauges and histograms.
///
/// * **Counters** are monotone `u64` sums (`add`, or `set` for
///   re-expressing an externally accumulated total).
/// * **Gauges** are point-in-time `i64` levels (`set`); merging keeps
///   the maximum, the convention that makes "peak queue depth" style
///   gauges deterministic under merge order.
/// * **Histograms** are fixed-bucket distributions of logical sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named counter to an externally accumulated total.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The named counter's value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raises the named gauge to `value` if that is higher (peak
    /// tracking; also how merge combines gauges).
    pub fn gauge_max(&mut self, name: &str, value: i64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(value);
        *slot = (*slot).max(value);
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram, creating it
    /// with `bounds` on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The named histogram, if ever observed into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry in: counters add, gauges keep the max,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauge_max(name, *value);
        }
        for (name, theirs) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(theirs),
                None => {
                    self.histograms.insert(name.clone(), theirs.clone());
                }
            }
        }
    }

    /// The registry as a deterministic JSON snapshot:
    ///
    /// ```json
    /// {
    ///   "counters": {"eig.votes_evaluated": 42},
    ///   "gauges": {"sweep.queue_depth_peak": 8},
    ///   "histograms": {
    ///     "span.logical": {"bounds": [10, 100], "buckets": [1, 2, 0],
    ///                      "count": 3, "sum": 140,
    ///                      "p50_x100": 5500, "p90_x100": 9100, "p99_x100": 9910}
    ///   }
    /// }
    /// ```
    ///
    /// Sections are omitted when empty; keys are in sorted-name order,
    /// so two equal registries serialize to identical bytes. The
    /// `p50/p90/p99` fields are [`Histogram::quantile_x100`] estimates —
    /// derived from the buckets (consumers no longer re-derive them),
    /// emitted only when the histogram is non-empty, and ignored by
    /// [`Registry::from_json`] (recomputed on re-serialization, so the
    /// snapshot still round-trips byte-identically).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = Vec::new();
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".to_string(),
                JsonValue::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Int(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.histograms.is_empty() {
            fields.push((
                "histograms".to_string(),
                JsonValue::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            let mut fields = vec![
                                ("bounds".into(), h.bounds.clone().into()),
                                ("buckets".into(), h.buckets.clone().into()),
                                ("count".into(), h.count.into()),
                                ("sum".into(), h.sum.into()),
                            ];
                            for (key, q) in
                                [("p50_x100", 0.5), ("p90_x100", 0.9), ("p99_x100", 0.99)]
                            {
                                if let Some(v) = h.quantile_x100(q) {
                                    fields.push((key.into(), v.into()));
                                }
                            }
                            (k.clone(), JsonValue::Object(fields))
                        })
                        .collect(),
                ),
            ));
        }
        JsonValue::Object(fields)
    }

    /// Rebuilds a registry from a [`Registry::to_json`] snapshot (the
    /// inverse; used by `cli obs` to summarize and diff report files).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed section.
    pub fn from_json(value: &JsonValue) -> Result<Registry, String> {
        let mut reg = Registry::new();
        if let Some(counters) = value.get("counters") {
            for (name, v) in counters.as_object().ok_or("`counters` must be an object")? {
                reg.set_counter(
                    name,
                    v.as_u64().ok_or(format!("counter `{name}` not a u64"))?,
                );
            }
        }
        if let Some(gauges) = value.get("gauges") {
            for (name, v) in gauges.as_object().ok_or("`gauges` must be an object")? {
                reg.set_gauge(
                    name,
                    v.as_i64().ok_or(format!("gauge `{name}` not an i64"))?,
                );
            }
        }
        if let Some(histograms) = value.get("histograms") {
            for (name, v) in histograms
                .as_object()
                .ok_or("`histograms` must be an object")?
            {
                let nums = |key: &str| -> Result<Vec<u64>, String> {
                    v.get(key)
                        .and_then(JsonValue::as_array)
                        .ok_or(format!("histogram `{name}` missing `{key}`"))?
                        .iter()
                        .map(|x| x.as_u64().ok_or(format!("bad `{key}` in `{name}`")))
                        .collect()
                };
                let bounds = nums("bounds")?;
                let buckets = nums("buckets")?;
                if buckets.len() != bounds.len() + 1 {
                    return Err(format!("histogram `{name}` bucket/bound length mismatch"));
                }
                let mut h = Histogram::new(&bounds);
                h.buckets = buckets;
                h.count = v
                    .get("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("histogram `{name}` missing `count`"))?;
                h.sum = v
                    .get("sum")
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("histogram `{name}` missing `sum`"))?;
                reg.histograms.insert(name.clone(), h);
            }
        }
        Ok(reg)
    }
}

impl crate::ScrubTiming for Registry {
    fn scrub_timing(&mut self) {
        // Registries hold logical quantities by convention, with one
        // sanctioned exception: metrics whose dotted name contains
        // "wall" (e.g. `svc.instance.wall_ns`) carry wall-clock
        // measurements for humans. Scrubbing removes those entries
        // wholesale — a zeroed wall histogram would still perturb
        // bucket counts, so removal is the only byte-stable scrub.
        self.counters.retain(|k, _| !k.contains("wall"));
        self.gauges.retain(|k, _| !k.contains("wall"));
        self.histograms.retain(|k, _| !k.contains("wall"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_set() {
        let mut r = Registry::new();
        r.add("a", 2);
        r.add("a", 3);
        r.set_counter("b", 7);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 7);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_peak() {
        let mut r = Registry::new();
        r.set_gauge("depth", 4);
        r.gauge_max("depth", 2);
        assert_eq!(r.gauge("depth"), Some(4));
        r.gauge_max("depth", 9);
        assert_eq!(r.gauge("depth"), Some(9));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1122);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_folds_histograms() {
        let mut a = Registry::new();
        a.add("c", 1);
        a.set_gauge("g", 3);
        a.observe("h", &[10], 5);
        let mut b = Registry::new();
        b.add("c", 2);
        b.add("only_b", 9);
        b.set_gauge("g", 5);
        b.observe("h", &[10], 50);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 9);
        assert_eq!(a.gauge("g"), Some(5));
        assert_eq!(a.histogram("h").unwrap().buckets(), &[1, 1]);
    }

    #[test]
    fn merge_order_is_immaterial() {
        let make = |seed: u64| {
            let mut r = Registry::new();
            r.add("c", seed);
            r.gauge_max("g", seed as i64);
            r.observe("h", &[5, 50], seed);
            r
        };
        let parts = [make(1), make(7), make(60)];
        let mut fwd = Registry::new();
        let mut rev = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.to_json().to_json_string(),
            rev.to_json().to_json_string()
        );
    }

    #[test]
    fn snapshot_round_trips() {
        let mut r = Registry::new();
        r.add("eig.votes", 42);
        r.set_gauge("queue", -3);
        r.observe("sizes", &[10, 100], 7);
        r.observe("sizes", &[10, 100], 700);
        let json = r.to_json();
        let back = Registry::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_json_string(), json.to_json_string());
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[10, 100]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        // All ten observations sit in the (0, 10] bucket: the median is
        // rank 5 of 10 → halfway through the bucket.
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert_eq!(h.quantile_x100(0.5), Some(500));
        // Out-of-range q is refused.
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn quantile_overflow_saturates_at_last_bound() {
        let mut h = Histogram::new(&[10]);
        h.observe(5);
        h.observe(1_000);
        // p99 lands in the overflow bucket: estimate saturates at the
        // last finite bound (documented underestimate).
        assert_eq!(h.quantile(0.99), Some(10.0));
    }

    #[test]
    fn snapshot_embeds_quantiles_and_still_round_trips() {
        let mut r = Registry::new();
        r.observe("lat", &[10, 100], 5);
        r.observe("lat", &[10, 100], 50);
        let text = r.to_json().to_json_string();
        assert!(text.contains("\"p50_x100\""), "{text}");
        assert!(text.contains("\"p99_x100\""), "{text}");
        // The quantile fields are derived: the parser ignores them and
        // re-serialization recomputes identical bytes.
        let back = Registry::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_json_string(), text);
    }

    #[test]
    fn scrub_timing_removes_wall_metrics_only() {
        let mut r = Registry::new();
        r.add("svc.instances", 4);
        r.add("svc.batch.wall_ns_total", 999);
        r.set_gauge("svc.wall_peak", 7);
        r.observe("svc.instance.logical", &[10], 3);
        r.observe("svc.instance.wall_ns", &[1000], 250);
        crate::scrub_timing(&mut r);
        assert_eq!(r.counter("svc.instances"), 4);
        assert_eq!(r.counter("svc.batch.wall_ns_total"), 0);
        assert_eq!(r.gauge("svc.wall_peak"), None);
        assert!(r.histogram("svc.instance.logical").is_some());
        assert!(r.histogram("svc.instance.wall_ns").is_none());
    }

    #[test]
    fn snapshot_of_empty_registry_is_empty_object() {
        assert_eq!(Registry::new().to_json().to_json_string(), "{}");
        assert!(Registry::new().is_empty());
    }

    #[test]
    fn from_json_rejects_malformed() {
        for bad in [
            "{\"counters\":[]}",
            "{\"counters\":{\"a\":-1}}",
            "{\"gauges\":{\"a\":\"x\"}}",
            "{\"histograms\":{\"h\":{\"bounds\":[1],\"buckets\":[1],\"count\":1,\"sum\":1}}}",
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(Registry::from_json(&v).is_err(), "{bad}");
        }
    }
}
