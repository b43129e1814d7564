//! Merging writer for `results/bench.json`.
//!
//! Several `[[bench]]` targets record machine-readable medians
//! (`sched_overhead`, `fabric_scale`, `daemon_throughput`,
//! `baseline_disciplines`), timed by [`Timer`](crate::timer::Timer).
//! Each used to overwrite the whole file, so running one target silently
//! dropped the other's numbers. The
//! writer here merges instead: groups recorded by *this* invocation
//! replace their previous entries, every other group is carried over
//! verbatim, and the output stays deterministic (groups and rows sorted
//! by recording order within sorted groups).
//!
//! The file format is the hand-rolled JSON this module itself emits —
//! `{ group: { "function/parameter": { "median_ns": …, "n": … } } }` —
//! so the reader only has to understand its own writer (the workspace
//! deliberately vendors no JSON parser).

use std::collections::BTreeMap;
use std::io;

/// One recorded row: the median of one timed routine.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Full row id, `group/function/parameter`.
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Number of samples behind the median.
    pub n: usize,
}

/// Workspace-level path of the recorded medians, anchored on this crate's
/// manifest so `cargo bench` resolves it regardless of its CWD.
pub const BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench.json");

/// `group → [(bench key, raw row object)]` in file order.
pub type Groups = BTreeMap<String, Vec<(String, String)>>;

/// Reads back the groups of an existing `bench.json`. Only lines in the
/// shape this module writes are recognised; anything else is ignored, so
/// a corrupt file degrades to "start fresh" rather than an error.
///
/// Public for the `perf_gate` binary, which compares a committed baseline
/// against freshly recorded medians.
pub fn parse_groups(text: &str) -> Groups {
    let mut groups = Groups::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if let Some(stripped) = t.strip_suffix("\": {") {
            if let Some(name) = stripped.strip_prefix('"') {
                current = Some(name.to_string());
                groups.entry(name.to_string()).or_default();
                continue;
            }
        }
        if t == "}" || t == "}," {
            current = None;
            continue;
        }
        if let (Some(group), Some(rest)) = (&current, t.strip_prefix('"')) {
            if let Some((key, row)) = rest.split_once("\": ") {
                let row = row.trim_end_matches(',').to_string();
                if let Some(rows) = groups.get_mut(group) {
                    rows.push((key.to_string(), row));
                }
            }
        }
    }
    groups
}

/// Extracts the `median_ns` field from a row object in this module's own
/// format. Returns `None` on anything it did not write itself.
///
/// # Example
///
/// ```
/// use basrpt_bench::record::median_ns;
/// assert_eq!(median_ns("{ \"median_ns\": 12.5, \"n\": 15 }"), Some(12.5));
/// assert_eq!(median_ns("{}"), None);
/// ```
pub fn median_ns(row: &str) -> Option<f64> {
    let rest = row.split("\"median_ns\":").nth(1)?;
    let number: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    number.parse().ok()
}

fn render(groups: &Groups) -> String {
    let mut json = String::from("{\n");
    for (gi, (group, rows)) in groups.iter().enumerate() {
        json.push_str(&format!("  {group:?}: {{\n"));
        for (ri, (key, row)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {key:?}: {row}{}\n",
                if ri + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  }}{}\n",
            if gi + 1 < groups.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    json
}

/// Groups freshly recorded rows as `group → [(key, row object)]`.
fn group_rows(rows: &[BenchRow]) -> Groups {
    let mut fresh = Groups::new();
    for r in rows {
        let group = r.id.split('/').next().unwrap_or(&r.id).to_string();
        let key =
            r.id.strip_prefix(group.as_str())
                .and_then(|s| s.strip_prefix('/'))
                .unwrap_or(&r.id)
                .to_string();
        let row = format!("{{ \"median_ns\": {:.1}, \"n\": {} }}", r.median_ns, r.n);
        fresh.entry(group).or_default().push((key, row));
    }
    fresh
}

/// Merges `rows` into `results/bench.json` and returns the path
/// written. Groups present in `rows` are replaced wholesale (a rerun
/// of one bench target refreshes all of its rows); groups recorded by
/// other targets survive untouched.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_merged(rows: &[BenchRow]) -> io::Result<String> {
    let mut groups = std::fs::read_to_string(BENCH_JSON_PATH)
        .map(|text| parse_groups(&text))
        .unwrap_or_default();
    for (group, rows) in group_rows(rows) {
        groups.insert(group, rows);
    }
    std::fs::write(BENCH_JSON_PATH, render(&groups))?;
    Ok(BENCH_JSON_PATH.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, median_ns: f64, n: usize) -> BenchRow {
        BenchRow {
            id: id.to_string(),
            median_ns,
            n,
        }
    }

    #[test]
    fn roundtrip_preserves_groups_and_rows() {
        let rendered = render(&group_rows(&[
            row("alpha/one_pass/100", 12.5, 15),
            row("alpha/one_pass/200", 25.0, 15),
            row("beta/scan/100", 7.0, 20),
        ]));
        let parsed = parse_groups(&rendered);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["alpha"].len(), 2);
        assert_eq!(parsed["alpha"][0].0, "one_pass/100");
        assert_eq!(parsed["beta"][0].1, "{ \"median_ns\": 7.0, \"n\": 20 }");
        assert_eq!(render(&parsed), rendered);
    }

    #[test]
    fn merge_replaces_only_the_recorded_groups() {
        let mut on_disk = group_rows(&[
            row("alpha/one_pass/100", 12.5, 15),
            row("beta/scan/100", 7.0, 20),
        ]);
        let fresh = group_rows(&[row("beta/scan/100", 9.0, 25)]);
        for (group, rows) in fresh {
            on_disk.insert(group, rows);
        }
        assert_eq!(on_disk["alpha"][0].1, "{ \"median_ns\": 12.5, \"n\": 15 }");
        assert_eq!(on_disk["beta"][0].1, "{ \"median_ns\": 9.0, \"n\": 25 }");
    }

    #[test]
    fn unrecognised_lines_are_ignored() {
        let parsed = parse_groups("not json at all\n{\n  garbage\n}\n");
        assert!(parsed.is_empty());
    }
}
