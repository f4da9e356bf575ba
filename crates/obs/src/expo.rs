//! Hand-rolled Prometheus text exposition (version 0.0.4) for a registry
//! [`Snapshot`], plus the inverse parser.
//!
//! Metric names are sanitised (`gpdt_` prefix, non-`[a-zA-Z0-9_]` mapped to
//! `_`) — a lossy map, since dotted names like `vfs.bytes_written` mix both
//! separators.  Each family therefore carries its original dotted name and
//! role in its `# HELP` line (`source=<name> kind=<role>`), which is what
//! makes [`parse`] an exact inverse: a scraped exposition parses back to the
//! very snapshot it was rendered from (the endpoint integration test holds
//! the pair to that).
//!
//! Histograms are emitted the standard way — cumulative `_bucket` lines
//! with `le` bounds, then exact `_sum`/`_count` (maintained by the registry,
//! not bucket-midpoint estimates) — plus `_min`/`_max` gauge families.
//! Buckets whose cumulative count does not change are elided; the cumulative
//! encoding makes that lossless, and it keeps 65-bucket log2 histograms from
//! bloating the scrape.

use std::collections::BTreeMap;

use crate::registry::{bucket_upper, HistogramSnapshot, Snapshot};

/// Renders `snap` in Prometheus text exposition format.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let fam = sanitize(name);
        push_help(&mut out, &fam, name, "counter");
        out.push_str(&format!("# TYPE {fam} counter\n{fam} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let fam = sanitize(name);
        push_help(&mut out, &fam, name, "gauge");
        out.push_str(&format!("# TYPE {fam} gauge\n{fam} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let fam = sanitize(name);
        push_help(&mut out, &fam, name, "histogram");
        out.push_str(&format!("# TYPE {fam} histogram\n"));
        let mut cumulative = 0u64;
        for (index, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            out.push_str(&format!(
                "{fam}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper(index)
            ));
        }
        out.push_str(&format!("{fam}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{fam}_sum {}\n{fam}_count {}\n", h.sum, h.count));
        for (suffix, value) in [("min", h.min), ("max", h.max)] {
            let sub = format!("{fam}_{suffix}");
            push_help(&mut out, &sub, name, &format!("hist_{suffix}"));
            out.push_str(&format!("# TYPE {sub} gauge\n{sub} {value}\n"));
        }
    }
    out
}

fn push_help(out: &mut String, fam: &str, source: &str, kind: &str) {
    out.push_str(&format!("# HELP {fam} source={source} kind={kind}\n"));
}

/// Maps a dotted metric name onto the Prometheus grammar.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("gpdt_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[derive(Default)]
struct PartialHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Parses an exposition produced by [`render`] back into the [`Snapshot`] it
/// came from.  Errors carry the offending line.
pub fn parse(text: &str) -> Result<Snapshot, String> {
    // family name -> (source, kind), from the HELP lines.
    let mut roles: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, PartialHist> = BTreeMap::new();
    // The inverse of bucket_upper, for de-cumulating bucket lines.
    let index_of_le: BTreeMap<String, usize> =
        (0..65).map(|i| (bucket_upper(i).to_string(), i)).collect();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("# TYPE") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let fam = parts.next().unwrap_or_default().to_string();
            let help = parts.next().unwrap_or_default();
            let source = help
                .split_whitespace()
                .find_map(|w| w.strip_prefix("source="))
                .ok_or_else(|| format!("HELP without source=: {line}"))?;
            let kind = help
                .split_whitespace()
                .find_map(|w| w.strip_prefix("kind="))
                .ok_or_else(|| format!("HELP without kind=: {line}"))?;
            roles.insert(fam, (source.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without value: {line}"))?;
        let value: u64 = value
            .parse()
            .map_err(|e| format!("bad value in {line:?}: {e}"))?;
        // Histogram sub-series first: _bucket{le=".."}, _sum, _count.
        if let Some((fam, le)) = key
            .strip_suffix("\"}")
            .and_then(|k| k.split_once("_bucket{le=\""))
        {
            let (source, _) = family_role(&roles, fam, "histogram", line)?;
            let hist = hists.entry(source).or_default();
            if hist.buckets.is_empty() {
                hist.buckets = vec![0; 65];
            }
            if le == "+Inf" {
                continue; // Total repeats _count; nothing to de-cumulate.
            }
            let index = *index_of_le
                .get(le)
                .ok_or_else(|| format!("unknown bucket bound le={le:?}: {line}"))?;
            hist.buckets[index] = value;
            continue;
        }
        if let Some(fam) = key.strip_suffix("_sum") {
            if roles
                .get(fam)
                .is_some_and(|(_, kind)| kind.as_str() == "histogram")
            {
                let (source, _) = family_role(&roles, fam, "histogram", line)?;
                hists.entry(source).or_default().sum = value;
                continue;
            }
        }
        if let Some(fam) = key.strip_suffix("_count") {
            if roles
                .get(fam)
                .is_some_and(|(_, kind)| kind.as_str() == "histogram")
            {
                let (source, _) = family_role(&roles, fam, "histogram", line)?;
                hists.entry(source).or_default().count = value;
                continue;
            }
        }
        // Plain families: counter, gauge, hist_min, hist_max.
        let (source, kind) = roles
            .get(key)
            .cloned()
            .ok_or_else(|| format!("sample before its HELP line: {line}"))?;
        match kind.as_str() {
            "counter" => {
                counters.insert(source, value);
            }
            "gauge" => {
                gauges.insert(source, value);
            }
            "hist_min" => hists.entry(source).or_default().min = value,
            "hist_max" => hists.entry(source).or_default().max = value,
            other => return Err(format!("unknown kind={other}: {line}")),
        }
    }

    Ok(Snapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms: hists
            .into_iter()
            .map(|(name, partial)| {
                let mut buckets = if partial.buckets.is_empty() {
                    vec![0; 65]
                } else {
                    partial.buckets
                };
                // Bucket lines are cumulative; recover per-bucket counts by
                // de-cumulating in index order (elided lines carry zero).
                let mut prev = 0u64;
                for b in buckets.iter_mut() {
                    let cumulative = if *b == 0 { prev } else { *b };
                    *b = cumulative - prev;
                    prev = cumulative;
                }
                (
                    name,
                    HistogramSnapshot {
                        count: partial.count,
                        sum: partial.sum,
                        min: partial.min,
                        max: partial.max,
                        buckets,
                    },
                )
            })
            .collect(),
    })
}

fn family_role(
    roles: &BTreeMap<String, (String, String)>,
    fam: &str,
    expect: &str,
    line: &str,
) -> Result<(String, String), String> {
    let (source, kind) = roles
        .get(fam)
        .cloned()
        .ok_or_else(|| format!("sample before its HELP line: {line}"))?;
    if kind != expect {
        return Err(format!("family {fam} is {kind}, expected {expect}: {line}"));
    }
    Ok((source, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn exposition_round_trips_exactly() {
        let r = Registry::default();
        r.counter("vfs.bytes_written").add(123_456);
        r.counter("engine.ticks").inc();
        r.gauge("shard.count").set(4);
        let h = r.histogram("vfs.fsync.nanos");
        for v in [0u64, 1, 900, 900, 1_000_000, u64::MAX] {
            h.record(v);
        }
        r.histogram("engine.empty"); // registered, never recorded
        let snap = r.snapshot();
        let text = render(&snap);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, snap, "parse must invert render exactly");
    }

    #[test]
    fn exposition_shape_is_prometheus_text_format() {
        let r = Registry::default();
        r.counter("vfs.bytes_written").add(9);
        r.histogram("stage.lat").record(1000);
        let text = render(&r.snapshot());
        assert!(
            text.contains("# HELP gpdt_vfs_bytes_written source=vfs.bytes_written kind=counter\n")
        );
        assert!(text.contains("# TYPE gpdt_vfs_bytes_written counter\ngpdt_vfs_bytes_written 9\n"));
        assert!(text.contains("# TYPE gpdt_stage_lat histogram\n"));
        assert!(text.contains("gpdt_stage_lat_bucket{le=\"1023\"} 1\n"));
        assert!(text.contains("gpdt_stage_lat_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("gpdt_stage_lat_sum 1000\n"));
        assert!(text.contains("gpdt_stage_lat_count 1\n"));
        assert!(text.contains("# TYPE gpdt_stage_lat_min gauge\ngpdt_stage_lat_min 1000\n"));
        assert!(text.contains("gpdt_stage_lat_max 1000\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("gpdt_orphan 3").is_err(), "sample before HELP");
        let text = "# HELP gpdt_x source=x kind=counter\ngpdt_x not-a-number";
        assert!(parse(text).is_err());
        let text = "# HELP gpdt_h source=h kind=histogram\ngpdt_h_bucket{le=\"6\"} 1";
        assert!(parse(text).unwrap_err().contains("unknown bucket bound"));
    }
}
