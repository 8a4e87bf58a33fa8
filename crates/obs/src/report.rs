//! The flight-recorder report: aggregation and rendering.
//!
//! Raw [`SpanRecord`]s are a flat forest of timed intervals. This module
//! turns them into the artifacts `s2fa_cli profile` / `report` ship:
//!
//! * an **aggregated span tree** ([`aggregate_spans`]) — spans merged by
//!   name-path across lanes, with counts and total/self durations;
//! * a [`Profile`] naming the kernel the tree was recorded on, with a
//!   JSON round-trip (`results/PROFILE_<kernel>.json`),
//!   a text renderer, folded-stack (flamegraph) output, and a
//!   timing-free *structure* view for golden diffs in CI.

use crate::span::SpanRecord;
use s2fa_trace::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node of the aggregated span tree: all spans sharing a name-path,
/// merged.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Number of span instances merged into this node.
    pub count: u64,
    /// Sum of instance durations.
    pub total_ns: u64,
    /// Children, merged by name, sorted by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time in this node not covered by its children.
    pub fn self_ns(&self) -> u64 {
        let child: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child)
    }
}

/// Merges a span forest into an aggregated tree.
///
/// Spans are grouped by *name-path*: two spans merge when their names
/// match and their parents (recursively) merged. Lanes disappear — a
/// pool of eight `worker` roots becomes one `worker` node with
/// `count == 8`. Roots and children are sorted by name, so the result
/// is deterministic regardless of thread scheduling.
pub fn aggregate_spans(spans: &[SpanRecord]) -> Vec<SpanNode> {
    let mut children_of: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        children_of.entry(s.parent).or_default().push(s);
    }
    merge_level(children_of.get(&None).map_or(&[][..], |v| v), &children_of)
}

fn merge_level(
    level: &[&SpanRecord],
    children_of: &BTreeMap<Option<u64>, Vec<&SpanRecord>>,
) -> Vec<SpanNode> {
    let mut by_name: BTreeMap<&str, (u64, u64, Vec<&SpanRecord>)> = BTreeMap::new();
    for s in level {
        let entry = by_name.entry(&s.name).or_insert((0, 0, Vec::new()));
        entry.0 += 1;
        entry.1 += s.duration_ns();
        if let Some(kids) = children_of.get(&Some(s.id)) {
            entry.2.extend(kids.iter().copied());
        }
    }
    by_name
        .into_iter()
        .map(|(name, (count, total_ns, kids))| SpanNode {
            name: name.to_string(),
            count,
            total_ns,
            children: merge_level(&kids, children_of),
        })
        .collect()
}

/// A complete flight-recorder profile — what `PROFILE_<kernel>.json`
/// holds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Kernel the profiled run compiled.
    pub kernel: String,
    /// Aggregated span tree of the pipeline run.
    pub tree: Vec<SpanNode>,
}

impl Profile {
    /// Serializes the profile (schema: `docs/profile.schema.json`).
    pub fn to_json(&self) -> Json {
        // Keys in alphabetical order, here and in `node_to_json`: saved
        // profiles are diffed against each other, so their layout stays
        // sorted and stable.
        Json::obj([
            ("kernel", Json::str(&self.kernel)),
            (
                "span_tree",
                Json::Arr(self.tree.iter().map(node_to_json).collect()),
            ),
            ("version", Json::int(3)),
        ])
    }

    /// Deserializes a profile written by [`Profile::to_json`]. Only
    /// `kernel` and `span_tree` are read, so a version-2 document (which
    /// also carried `mode` and a `metrics` registry dump) still loads.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed member.
    pub fn from_json(j: &Json) -> Result<Profile, String> {
        Ok(Profile {
            kernel: j
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or("missing string `kernel`")?
                .to_string(),
            tree: j
                .get("span_tree")
                .and_then(Json::as_arr)
                .ok_or("missing array `span_tree`")?
                .iter()
                .map(node_from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Renders the profile as a human-readable flight-recorder report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flight record: {}", self.kernel);
        if !self.tree.is_empty() {
            let _ = writeln!(out, "\nspan tree (host wall-time):");
            for node in &self.tree {
                render_node(&mut out, node, 0);
            }
        }
        out
    }

    /// Folded-stack output (`a;b;c <self_ns>` per line), consumable by
    /// standard flamegraph tooling.
    pub fn folded(&self) -> String {
        let mut lines = Vec::new();
        for node in &self.tree {
            fold_node(&mut lines, node, "");
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The timing-free structure of the profile: every span name-path,
    /// sorted. CI diffs this against a committed golden, so reordered
    /// scheduling or timing jitter never breaks the build — only a real
    /// shape change (a stage appearing, disappearing, or moving) does.
    pub fn structure(&self) -> Json {
        let mut paths = Vec::new();
        for node in &self.tree {
            structure_paths(&mut paths, node, "");
        }
        paths.sort();
        paths.dedup();
        Json::obj([
            ("kernel", Json::str(&self.kernel)),
            (
                "span_paths",
                Json::Arr(paths.into_iter().map(Json::Str).collect()),
            ),
        ])
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = writeln!(
        out,
        "- {:<24} total {:>10.3} ms   self {:>10.3} ms   n={}",
        node.name,
        node.total_ns as f64 / 1e6,
        node.self_ns() as f64 / 1e6,
        node.count
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn fold_node(lines: &mut Vec<String>, node: &SpanNode, prefix: &str) {
    let path = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    lines.push(format!("{path} {}", node.self_ns()));
    for child in &node.children {
        fold_node(lines, child, &path);
    }
}

fn structure_paths(paths: &mut Vec<String>, node: &SpanNode, prefix: &str) {
    let path = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix}/{}", node.name)
    };
    paths.push(path.clone());
    for child in &node.children {
        structure_paths(paths, child, &path);
    }
}

fn node_to_json(node: &SpanNode) -> Json {
    Json::obj([
        (
            "children",
            Json::Arr(node.children.iter().map(node_to_json).collect()),
        ),
        ("count", Json::int(node.count)),
        ("name", Json::str(&node.name)),
        ("self_ns", Json::int(node.self_ns())),
        ("total_ns", Json::int(node.total_ns)),
    ])
}

fn node_from_json(j: &Json) -> Result<SpanNode, String> {
    Ok(SpanNode {
        name: j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span node missing `name`")?
            .to_string(),
        count: j
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("span node missing `count`")?,
        total_ns: j
            .get("total_ns")
            .and_then(Json::as_u64)
            .ok_or("span node missing `total_ns`")?,
        children: j
            .get("children")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(node_from_json)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &str,
        lane: u32,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            lane,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A synthetic DSE at 3 executors: the `dse` lane partitions 0-10,
    /// explores 10-110 and merges to 120; two partitions tune inside the
    /// explore window, one fresh lane each.
    fn parallel_explore() -> Vec<SpanRecord> {
        vec![
            rec(1, None, "dse", 0, 0, 120),
            rec(2, Some(1), "partition", 0, 0, 10),
            rec(3, Some(1), "explore", 0, 10, 110),
            rec(4, Some(1), "merge", 0, 110, 120),
            rec(5, None, "tune", 1, 12, 100),
            rec(6, None, "tune", 2, 15, 105),
        ]
    }

    #[test]
    fn aggregation_merges_by_name_path() {
        let tree = aggregate_spans(&parallel_explore());
        assert_eq!(tree.len(), 2, "dse + tune roots");
        let dse = tree.iter().find(|n| n.name == "dse").unwrap();
        let tune = tree.iter().find(|n| n.name == "tune").unwrap();
        assert_eq!(dse.count, 1);
        assert_eq!(tune.count, 2, "two lanes merged into one node");
        assert_eq!(tune.total_ns, 88 + 90);
        // children sorted by name
        let names: Vec<&str> = dse.children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["explore", "merge", "partition"]);
    }

    #[test]
    fn profile_json_round_trips() {
        let profile = Profile {
            kernel: "S-W".into(),
            tree: aggregate_spans(&parallel_explore()),
        };
        let j = profile.to_json();
        assert_keys_sorted(&j);
        let text = j.render();
        let back = Profile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, profile);
    }

    /// Profiles are written with every object's keys in sorted order.
    fn assert_keys_sorted(j: &Json) {
        match j {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert!(keys.is_sorted(), "unsorted keys {keys:?}");
                pairs.iter().for_each(|(_, v)| assert_keys_sorted(v));
            }
            Json::Arr(items) => items.iter().for_each(assert_keys_sorted),
            _ => {}
        }
    }

    #[test]
    fn negative_or_fractional_counts_are_rejected() {
        for bad in ["-5", "1.5"] {
            let text = format!(
                r#"{{"kernel": "S-W", "mode": "full", "span_tree":
                    [{{"name": "tune", "count": {bad}, "total_ns": 1}}]}}"#
            );
            let err = Profile::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert_eq!(err, "span node missing `count`");
        }
    }

    #[test]
    fn structure_is_paths_only() {
        let profile = Profile {
            kernel: "S-W".into(),
            tree: aggregate_spans(&parallel_explore()),
        };
        let s = profile.structure();
        let paths: Vec<&str> = s
            .get("span_paths")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(
            paths,
            ["dse", "dse/explore", "dse/merge", "dse/partition", "tune"]
        );
        assert!(s.render().find("_ns").is_none(), "no timings in structure");
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let profile = Profile {
            kernel: "S-W".into(),
            tree: aggregate_spans(&parallel_explore()),
        };
        let folded = profile.folded();
        assert!(folded.contains("dse;partition 10"));
        assert!(folded.contains("tune 178"));
        for line in folded.lines() {
            assert!(line.rsplit_once(' ').unwrap().1.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn render_text_mentions_every_section() {
        let profile = Profile {
            kernel: "S-W".into(),
            tree: aggregate_spans(&parallel_explore()),
        };
        let text = profile.render_text();
        assert!(text.starts_with("flight record: S-W\n"));
        assert!(text.contains("span tree"));
        assert!(text.contains("- dse"));
    }
}
