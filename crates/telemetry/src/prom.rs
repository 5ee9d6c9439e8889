//! Prometheus text exposition: render a [`Snapshot`] in the
//! `text/plain; version=0.0.4` format, plus a strict validator used by
//! tests, `pp-serve-load --ci`, and the CI serve smoke job.
//!
//! Rendering stays within the workspace's no-float discipline: every
//! sample value is a `u64`, and histogram `le` bounds are the inclusive
//! integer upper bounds of the log₂ buckets
//! ([`bucket_hi`](crate::metrics::bucket_hi)), with the
//! mandatory `+Inf` bucket, `_sum`, and `_count` series. Metric names are
//! mangled to the Prometheus charset (`.` → `_`), labels are escaped per
//! the exposition format, and all series of one metric are grouped under
//! a single `# TYPE` line as the format requires.

use crate::export::{MetricData, MetricSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Content-Type value for the rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Mangle a workspace metric name (`serve.request.micros`) into the
/// Prometheus charset (`serve_request_micros`).
pub fn mangle_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Render `{k="v",...}`; `extra` appends one more pair (the `le` label).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", mangle_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn kind_of(data: &MetricData) -> &'static str {
    match data {
        MetricData::Counter(_) => "counter",
        MetricData::Gauge(_) => "gauge",
        MetricData::Histogram { .. } => "histogram",
    }
}

/// Render `snap` as Prometheus text exposition.
pub fn to_prometheus(snap: &Snapshot) -> String {
    // Group series by mangled metric name: the format requires all
    // samples of a metric to sit together under one # TYPE line.
    let mut by_name: BTreeMap<String, Vec<&MetricSnapshot>> = BTreeMap::new();
    for m in &snap.metrics {
        by_name.entry(mangle_name(&m.name)).or_default().push(m);
    }
    let mut out = String::new();
    for (name, series) in &by_name {
        let kind = kind_of(&series[0].data);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for m in series {
            match &m.data {
                MetricData::Counter(v) | MetricData::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                MetricData::Histogram {
                    count,
                    sum,
                    buckets,
                    ..
                } => {
                    let mut cumulative = 0u64;
                    for &(lo, c) in buckets {
                        cumulative += c;
                        // Inclusive integer upper bound of the log₂ bucket
                        // [lo, 2·lo − 1] ({0} for the zero bucket).
                        let hi = if lo == 0 {
                            0
                        } else {
                            lo.saturating_mul(2).wrapping_sub(1).max(lo)
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            label_block(&m.labels, Some(("le", &hi.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {count}",
                        label_block(&m.labels, Some(("le", "+Inf")))
                    );
                    let _ = writeln!(out, "{name}_sum{} {sum}", label_block(&m.labels, None));
                    let _ = writeln!(out, "{name}_count{} {count}", label_block(&m.labels, None));
                }
            }
        }
    }
    out
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: u64,
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: {line}");
    let (head, value_str) = line
        .rsplit_once(' ')
        .ok_or_else(|| err("no value separator"))?;
    let value: u64 = value_str
        .parse()
        .map_err(|_| err("sample value is not a u64"))?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated label block"))?;
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split("\",") {
                    let pair = pair.strip_suffix('"').unwrap_or(pair);
                    let (k, v) = pair
                        .split_once("=\"")
                        .ok_or_else(|| err("malformed label pair"))?;
                    labels.push((k.to_string(), v.to_string()));
                }
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || name.starts_with(|c: char| c.is_ascii_digit())
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("invalid metric name"));
    }
    for (k, _) in &labels {
        if k.is_empty()
            || k.starts_with(|c: char| c.is_ascii_digit())
            || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(err("invalid label name"));
        }
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Validate a Prometheus text exposition as produced by
/// [`to_prometheus`]: every sample typed, names well-formed, values
/// integral, `# TYPE` lines unique, and for each histogram series the
/// buckets cumulative and capped by an `+Inf` bucket that agrees with
/// `_count`, with `_sum`/`_count` both present.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {lineno}: malformed # TYPE line"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown metric kind {kind}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate # TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        samples.push(parse_sample(line, lineno)?);
    }

    // Histogram bookkeeping: base name + non-le labels → bucket list etc.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut hist_buckets: BTreeMap<SeriesKey, Vec<(Option<u64>, u64)>> = BTreeMap::new();
    let mut hist_sum: BTreeMap<SeriesKey, u64> = BTreeMap::new();
    let mut hist_count: BTreeMap<SeriesKey, u64> = BTreeMap::new();

    for s in &samples {
        let declared = types.get(&s.name).cloned();
        match declared.as_deref() {
            Some("counter") | Some("gauge") => continue,
            Some("histogram") => {
                return Err(format!(
                    "histogram {} exposed without _bucket/_sum/_count suffix",
                    s.name
                ));
            }
            _ => {}
        }
        // Histogram component sample?
        let comp = [("_bucket", 0usize), ("_sum", 1), ("_count", 2)]
            .iter()
            .find_map(|&(suffix, which)| {
                s.name
                    .strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                    .map(|base| (base.to_string(), which))
            });
        let Some((base, which)) = comp else {
            return Err(format!("sample {} has no # TYPE declaration", s.name));
        };
        let mut labels = s.labels.clone();
        let mut le = None;
        if which == 0 {
            let pos = labels
                .iter()
                .position(|(k, _)| k == "le")
                .ok_or_else(|| format!("{}_bucket sample without le label", base))?;
            let (_, v) = labels.remove(pos);
            le = Some(if v == "+Inf" {
                None
            } else {
                Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("{}_bucket has non-integer le=\"{v}\"", base))?,
                )
            });
        }
        let key = (base, labels);
        match which {
            0 => hist_buckets
                .entry(key)
                .or_default()
                .push((le.unwrap(), s.value)),
            1 => {
                hist_sum.insert(key, s.value);
            }
            _ => {
                hist_count.insert(key, s.value);
            }
        }
    }

    for (key, buckets) in &hist_buckets {
        let (base, labels) = key;
        let ctx = || format!("{base}{:?}", labels);
        let mut last = 0u64;
        let mut inf: Option<u64> = None;
        let mut last_le: Option<u64> = None;
        for (le, cum) in buckets {
            if *cum < last {
                return Err(format!("{}: buckets not cumulative", ctx()));
            }
            last = *cum;
            match le {
                None => {
                    if inf.is_some() {
                        return Err(format!("{}: duplicate +Inf bucket", ctx()));
                    }
                    inf = Some(*cum);
                }
                Some(b) => {
                    if let Some(prev) = last_le {
                        if *b <= prev {
                            return Err(format!("{}: le bounds not increasing", ctx()));
                        }
                    }
                    if inf.is_some() {
                        return Err(format!("{}: bucket after +Inf", ctx()));
                    }
                    last_le = Some(*b);
                }
            }
        }
        let inf = inf.ok_or_else(|| format!("{}: missing +Inf bucket", ctx()))?;
        let count = hist_count
            .get(key)
            .ok_or_else(|| format!("{}: missing _count", ctx()))?;
        if !hist_sum.contains_key(key) {
            return Err(format!("{}: missing _sum", ctx()));
        }
        if inf != *count {
            return Err(format!(
                "{}: +Inf bucket {inf} disagrees with _count {count}",
                ctx()
            ));
        }
    }
    // Orphan _sum/_count without any bucket line is still a malformed
    // histogram exposition.
    for key in hist_sum.keys().chain(hist_count.keys()) {
        if !hist_buckets.contains_key(key) {
            return Err(format!("{}: histogram without _bucket samples", key.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("serve.requests").add(3);
        reg.counter_with("serve.cells", &[("source", "cache")])
            .add(2);
        reg.counter_with("serve.cells", &[("source", "simulated")])
            .add(5);
        reg.gauge("serve.queue.depth").set(7);
        let h = reg.histogram("serve.request.micros");
        for v in [0, 1, 3, 900, 1_000_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn renders_and_validates() {
        let text = to_prometheus(&Snapshot::capture(&sample_registry()));
        validate_exposition(&text).unwrap();
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 3"));
        assert!(text.contains("serve_cells{source=\"cache\"} 2"));
        assert!(text.contains("serve_cells{source=\"simulated\"} 5"));
        assert!(text.contains("# TYPE serve_queue_depth gauge"));
        assert!(text.contains("serve_request_micros_bucket{le=\"0\"} 1"));
        assert!(text.contains("serve_request_micros_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("serve_request_micros_sum 1000904"));
        assert!(text.contains("serve_request_micros_count 5"));
        // One # TYPE line per metric even with several labelled series.
        assert_eq!(text.matches("# TYPE serve_cells counter").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_integer_le() {
        let reg = Registry::new();
        let h = reg.histogram("x");
        h.record(1); // bucket [1,1]
        h.record(2); // bucket [2,3]
        h.record(3); // bucket [2,3]
        let text = to_prometheus(&Snapshot::capture(&reg));
        assert!(text.contains("x_bucket{le=\"1\"} 1"));
        assert!(text.contains("x_bucket{le=\"3\"} 3"));
        assert!(text.contains("x_bucket{le=\"+Inf\"} 3"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn mangling_and_escaping() {
        assert_eq!(mangle_name("serve.request.micros"), "serve_request_micros");
        assert_eq!(mangle_name("9lives"), "_lives");
        assert_eq!(mangle_name("a-b c"), "a_b_c");
        let reg = Registry::new();
        reg.counter_with("m", &[("path", "a\"b\\c\nd")]).inc();
        let text = to_prometheus(&Snapshot::capture(&reg));
        assert!(text.contains("m{path=\"a\\\"b\\\\c\\nd\"} 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        let cases: &[(&str, &str)] = &[
            ("x 1\n", "no # TYPE"),
            ("# TYPE x counter\nx 1.5\n", "float value"),
            ("# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"),
            ("# TYPE x summary\n", "unknown kind"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "missing +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 3\n",
                "+Inf vs _count disagreement",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
                "missing _sum",
            ),
            ("# TYPE h histogram\nh_sum 1\nh_count 1\n", "no buckets"),
            ("# TYPE x counter\n2x 1\n", "bad name"),
        ];
        for (text, why) in cases {
            assert!(validate_exposition(text).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn valid_hand_written_exposition_passes() {
        let text = "\
# TYPE up gauge
up 1
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"3\"} 4
h_bucket{le=\"+Inf\"} 4
h_sum 9
h_count 4
";
        validate_exposition(text).unwrap();
    }
}
