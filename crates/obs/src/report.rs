//! The flight-recorder report: aggregation, attribution, rendering.
//!
//! Raw [`SpanRecord`]s are a flat forest of timed intervals. This module
//! turns them into the artifacts `s2fa_cli profile` / `report` ship:
//!
//! * an **aggregated span tree** ([`aggregate_spans`]) — spans merged by
//!   name-path across lanes, with counts and total/self durations;
//! * a **batch-loop attribution** ([`analyze_batch_loop`]) — the
//!   pooled evaluator's wall-clock decomposed into the four named
//!   phases (`submit`/`estimate`/`wait`/`merge`) plus an honest `idle`
//!   residual, per thread count;
//! * a [`Profile`] bundling tree + metrics + dual-clock correlation +
//!   attribution, with a JSON round-trip (`results/PROFILE_<kernel>.json`),
//!   a text renderer, folded-stack (flamegraph) output, and a
//!   timing-free *structure* view for golden diffs in CI.

use crate::correlate::SpanMinutes;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
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

/// The pooled batch loop's wall-clock, attributed to named phases at
/// one thread count.
///
/// `submit` and `merge` are measured directly on the calling lane. The
/// estimation window is concurrent: the caller helps execute chunks
/// under its own `estimate` span while pool workers burn through
/// `pool_chunk` spans on their own lanes, so `estimate_ns` is the
/// combined busy time mapped to wall-clock proportionally
/// (`(caller estimate + Σ pool_chunk) / threads` — during the window
/// every wall nanosecond has `threads` executors of capacity). When no
/// worker chunk landed inside the batch (a one-core host, or a batch
/// the caller drained alone), the caller's `estimate` span *is* the
/// wall story and counts 1:1. `wait_ns` is the caller's blocking join
/// minus the portion where workers were still busy (that time is
/// already attributed through the chunk shares). What no phase claims
/// is `idle_ns` — the report never silently inflates a named phase to
/// make the numbers add up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchLoopProfile {
    /// Thread count the batches ran at.
    pub threads: u64,
    /// Batches aggregated.
    pub batches: u64,
    /// Total wall time inside `batch` spans.
    pub wall_ns: u64,
    /// Job hand-off to the persistent pool (chunk math + enqueue).
    pub submit_ns: u64,
    /// Estimation: caller + worker chunk time, wall-proportional share.
    pub estimate_ns: u64,
    /// Caller blocking on stragglers beyond the worker-busy window.
    pub wait_ns: u64,
    /// Writeback of results into input order.
    pub merge_ns: u64,
    /// Wall time no named phase claims.
    pub idle_ns: u64,
}

impl BatchLoopProfile {
    /// Sum of the named phases.
    pub fn attributed_ns(&self) -> u64 {
        self.submit_ns + self.estimate_ns + self.wait_ns + self.merge_ns
    }

    /// Fraction of batch wall-time the named phases explain (capped at
    /// 1.0; 0 when no batches were seen).
    pub fn attributed_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.attributed_ns() as f64 / self.wall_ns as f64).min(1.0)
    }
}

/// Attributes batch-loop wall-time from one profiling session's spans.
///
/// Expects the span shape `ThreadedObjective` records: `batch` spans on
/// the calling lane with `submit`/`estimate`/`wait`/`merge` children
/// (pooled) or a lone `estimate` child (serial), and `pool_chunk` root
/// spans on their own per-chunk lanes, associated to their batch by
/// time containment (batches within one session run serially, so
/// containment is unambiguous).
pub fn analyze_batch_loop(spans: &[SpanRecord], threads: u64) -> BatchLoopProfile {
    let child = |parent: &SpanRecord, name: &str| -> Option<&SpanRecord> {
        spans
            .iter()
            .find(|s| s.parent == Some(parent.id) && s.name == name)
    };
    let mut p = BatchLoopProfile {
        threads,
        batches: 0,
        wall_ns: 0,
        submit_ns: 0,
        estimate_ns: 0,
        wait_ns: 0,
        merge_ns: 0,
        idle_ns: 0,
    };
    for batch in spans.iter().filter(|s| s.name == "batch") {
        p.batches += 1;
        p.wall_ns += batch.duration_ns();
        let before = p.attributed_ns();
        if let Some(submit) = child(batch, "submit") {
            // Pooled path. Worker chunks inside this batch's window.
            let chunks: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| {
                    s.name == "pool_chunk"
                        && s.parent.is_none()
                        && s.lane != batch.lane
                        && s.start_ns >= batch.start_ns
                        && s.end_ns <= batch.end_ns
                })
                .collect();
            let chunk_time: u64 = chunks.iter().map(|s| s.duration_ns()).sum();
            p.submit_ns += submit.duration_ns();
            if let Some(est) = child(batch, "estimate") {
                if chunk_time == 0 {
                    // No worker claimed a chunk (one executor, or the
                    // caller drained the job alone): the caller's
                    // estimate span is the whole wall story.
                    p.estimate_ns += est.duration_ns();
                } else {
                    p.estimate_ns += (est.duration_ns() + chunk_time) / threads.max(1);
                }
            }
            if let Some(wait) = child(batch, "wait") {
                // Subtract the sub-window where workers were still
                // busy — that time is attributed via the chunk shares,
                // and counting the caller's full block as well would
                // double-book it.
                let busy = chunks.iter().map(|s| s.end_ns).max().map_or(0, |last_end| {
                    last_end
                        .min(wait.end_ns)
                        .saturating_sub(wait.start_ns.max(batch.start_ns))
                });
                p.wait_ns += wait.duration_ns().saturating_sub(busy);
            }
            if let Some(merge) = child(batch, "merge") {
                p.merge_ns += merge.duration_ns();
            }
        } else if let Some(est) = child(batch, "estimate") {
            // Serial path: one estimate span covers the whole map.
            p.estimate_ns += est.duration_ns();
        }
        let attributed = p.attributed_ns() - before;
        p.idle_ns += batch.duration_ns().saturating_sub(attributed);
    }
    p
}

/// A complete flight-recorder profile — what `PROFILE_<kernel>.json`
/// holds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Kernel the profiled run compiled.
    pub kernel: String,
    /// `"full"` (spans + metrics) or `"metrics"` (registry only).
    pub mode: String,
    /// Aggregated span tree of the pipeline run.
    pub tree: Vec<SpanNode>,
    /// Metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Dual-clock join of virtual minutes to host spans.
    pub correlation: Vec<SpanMinutes>,
    /// Batch-loop attribution, one entry per swept thread count.
    pub batch_loop: Vec<BatchLoopProfile>,
}

impl Profile {
    /// Serializes the profile (schema: `docs/profile.schema.json`).
    pub fn to_json(&self) -> Json {
        // Keys in alphabetical order, here and in the helpers below:
        // saved profiles are diffed against each other, so their layout
        // stays sorted and stable.
        Json::obj([
            (
                "batch_loop",
                Json::Arr(
                    self.batch_loop
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("attributed_fraction", Json::num(b.attributed_fraction())),
                                ("batches", Json::int(b.batches)),
                                ("estimate_ns", Json::int(b.estimate_ns)),
                                ("idle_ns", Json::int(b.idle_ns)),
                                ("merge_ns", Json::int(b.merge_ns)),
                                ("submit_ns", Json::int(b.submit_ns)),
                                ("threads", Json::int(b.threads)),
                                ("wait_ns", Json::int(b.wait_ns)),
                                ("wall_ns", Json::int(b.wall_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "correlation",
                Json::Arr(
                    self.correlation
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("events", Json::int(c.events)),
                                ("first_minute", Json::num(c.first_minute)),
                                ("last_minute", Json::num(c.last_minute)),
                                ("span", Json::str(&c.span)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("kernel", Json::str(&self.kernel)),
            ("metrics", metrics_to_json(&self.metrics)),
            ("mode", Json::str(&self.mode)),
            (
                "span_tree",
                Json::Arr(self.tree.iter().map(node_to_json).collect()),
            ),
            ("version", Json::int(1)),
        ])
    }

    /// Deserializes a profile written by [`Profile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed member.
    pub fn from_json(j: &Json) -> Result<Profile, String> {
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let int_of = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer `{key}`"))
        };
        let num_of = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let arr_of = |j: &Json, key: &str| -> Result<Vec<Json>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let mut correlation = Vec::new();
        for c in arr_of(j, "correlation")? {
            correlation.push(SpanMinutes {
                span: str_of(&c, "span")?,
                events: int_of(&c, "events")?,
                first_minute: num_of(&c, "first_minute")?,
                last_minute: num_of(&c, "last_minute")?,
            });
        }
        let mut batch_loop = Vec::new();
        for b in arr_of(j, "batch_loop")? {
            batch_loop.push(BatchLoopProfile {
                threads: int_of(&b, "threads")?,
                batches: int_of(&b, "batches")?,
                wall_ns: int_of(&b, "wall_ns")?,
                submit_ns: int_of(&b, "submit_ns")?,
                estimate_ns: int_of(&b, "estimate_ns")?,
                wait_ns: int_of(&b, "wait_ns")?,
                merge_ns: int_of(&b, "merge_ns")?,
                idle_ns: int_of(&b, "idle_ns")?,
            });
        }
        Ok(Profile {
            kernel: str_of(j, "kernel")?,
            mode: str_of(j, "mode")?,
            tree: arr_of(j, "span_tree")?
                .iter()
                .map(node_from_json)
                .collect::<Result<_, _>>()?,
            metrics: metrics_from_json(j.get("metrics").ok_or("missing object `metrics`")?)?,
            correlation,
            batch_loop,
        })
    }

    /// Renders the profile as a human-readable flight-recorder report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flight record: {} ({})", self.kernel, self.mode);
        if !self.tree.is_empty() {
            let _ = writeln!(out, "\nspan tree (host wall-time):");
            for node in &self.tree {
                render_node(&mut out, node, 0);
            }
        }
        if !self.batch_loop.is_empty() {
            let _ = writeln!(out, "\nbatch-loop attribution (per thread count):");
            let _ = writeln!(
                out,
                "  {:>7} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
                "threads",
                "batches",
                "wall_ms",
                "submit%",
                "est%",
                "wait%",
                "merge%",
                "idle%",
                "attr%"
            );
            for b in &self.batch_loop {
                let pct = |ns: u64| {
                    if b.wall_ns == 0 {
                        0.0
                    } else {
                        100.0 * ns as f64 / b.wall_ns as f64
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:>7} {:>8} {:>10.2} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>5.1}%",
                    b.threads,
                    b.batches,
                    b.wall_ns as f64 / 1e6,
                    pct(b.submit_ns),
                    pct(b.estimate_ns),
                    pct(b.wait_ns),
                    pct(b.merge_ns),
                    pct(b.idle_ns),
                    100.0 * b.attributed_fraction(),
                );
            }
        }
        if !self.correlation.is_empty() {
            let _ = writeln!(out, "\ndual-clock join (virtual minutes per host span):");
            for c in &self.correlation {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>6} events   minutes {:.2} .. {:.2}",
                    c.span, c.events, c.first_minute, c.last_minute
                );
            }
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(out, "\nlatency histograms (ns):");
            for (name, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "  {:<24} n={:<8} p50={:<8} p90={:<8} p99={:<8} max={}",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if !self.metrics.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, v) in &self.metrics.counters {
                let _ = writeln!(out, "  {name:<24} {v}");
            }
        }
        if !self.metrics.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges:");
            for (name, v) in &self.metrics.gauges {
                let _ = writeln!(out, "  {name:<24} {v}");
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
        // Spans whose *presence* depends on host scheduling rather than
        // pipeline shape are excluded: a `pool_chunk` span exists only
        // when a pool worker wins a chunk claim against the submitting
        // thread, which a 1-core host never shows and a 16-core host
        // always does. The golden must diff clean on both.
        const SCHEDULING_DEPENDENT: &[&str] = &["pool_chunk"];
        let mut paths = Vec::new();
        for node in &self.tree {
            structure_paths(&mut paths, node, "");
        }
        paths.retain(|p| !p.split('/').any(|seg| SCHEDULING_DEPENDENT.contains(&seg)));
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

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::int(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                m.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::obj([
                                ("count", Json::int(h.count)),
                                ("max", Json::int(h.max)),
                                ("p50", Json::int(h.p50)),
                                ("p90", Json::int(h.p90)),
                                ("p99", Json::int(h.p99)),
                                ("sum", Json::int(h.sum)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn metrics_from_json(j: &Json) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    if let Some(counters) = j.get("counters").and_then(Json::as_obj) {
        for (k, v) in counters {
            snap.counters
                .insert(k.clone(), v.as_u64().ok_or("counter not a number")?);
        }
    }
    if let Some(gauges) = j.get("gauges").and_then(Json::as_obj) {
        for (k, v) in gauges {
            snap.gauges
                .insert(k.clone(), v.as_f64().ok_or("gauge not a number")? as i64);
        }
    }
    if let Some(hists) = j.get("histograms").and_then(Json::as_obj) {
        for (k, h) in hists {
            let field = |name: &str| {
                h.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram `{k}` missing `{name}`"))
            };
            snap.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p90: field("p90")?,
                    p99: field("p99")?,
                },
            );
        }
    }
    Ok(snap)
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

    /// A synthetic pooled batch at 3 executors: submit 0-10, the caller
    /// helps under `estimate` 10-90, blocks in `wait` to 110, merges to
    /// 120; two worker chunks overlap the window on their own lanes.
    fn threaded_batch() -> Vec<SpanRecord> {
        vec![
            rec(1, None, "batch", 0, 0, 120),
            rec(2, Some(1), "submit", 0, 0, 10),
            rec(3, Some(1), "estimate", 0, 10, 90),
            rec(4, Some(1), "wait", 0, 90, 110),
            rec(5, Some(1), "merge", 0, 110, 120),
            // worker chunks, one fresh lane each
            rec(6, None, "pool_chunk", 1, 12, 100),
            rec(7, None, "pool_chunk", 2, 15, 105),
        ]
    }

    #[test]
    fn aggregation_merges_by_name_path() {
        let tree = aggregate_spans(&threaded_batch());
        assert_eq!(tree.len(), 2, "batch + pool_chunk roots");
        let batch = tree.iter().find(|n| n.name == "batch").unwrap();
        let chunk = tree.iter().find(|n| n.name == "pool_chunk").unwrap();
        assert_eq!(batch.count, 1);
        assert_eq!(chunk.count, 2, "two lanes merged into one node");
        assert_eq!(chunk.total_ns, 88 + 90);
        // children sorted by name
        let names: Vec<&str> = batch.children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["estimate", "merge", "submit", "wait"]);
    }

    #[test]
    fn batch_loop_attribution_tiles_the_wall() {
        let p = analyze_batch_loop(&threaded_batch(), 3);
        assert_eq!(p.batches, 1);
        assert_eq!(p.wall_ns, 120);
        assert_eq!(p.submit_ns, 10);
        // caller estimate (80) + chunk time (88 + 90), ÷ 3 executors
        assert_eq!(p.estimate_ns, (80 + 88 + 90) / 3);
        // wait 90-110 minus the worker-busy part 90-105
        assert_eq!(p.wait_ns, 5);
        assert_eq!(p.merge_ns, 10);
        assert!(
            p.attributed_fraction() > 0.9,
            "fraction {}",
            p.attributed_fraction()
        );
        assert_eq!(
            p.wall_ns,
            p.attributed_ns() + p.idle_ns,
            "idle is the exact residual"
        );
    }

    #[test]
    fn serial_batches_attribute_to_estimate() {
        let spans = vec![
            rec(1, None, "batch", 0, 0, 100),
            rec(2, Some(1), "estimate", 0, 2, 99),
        ];
        let p = analyze_batch_loop(&spans, 1);
        assert_eq!(p.estimate_ns, 97);
        assert_eq!(p.submit_ns, 0);
        assert_eq!(p.idle_ns, 3);
        assert!(p.attributed_fraction() > 0.95);
    }

    #[test]
    fn pooled_batch_without_worker_chunks_counts_caller_estimate_fully() {
        // One-core host (or the caller drained every chunk): no
        // pool_chunk spans land, so the caller's estimate is 1:1 and
        // nothing is divided away.
        let spans = vec![
            rec(1, None, "batch", 0, 0, 100),
            rec(2, Some(1), "submit", 0, 0, 5),
            rec(3, Some(1), "estimate", 0, 5, 90),
            rec(4, Some(1), "wait", 0, 90, 92),
            rec(5, Some(1), "merge", 0, 92, 100),
        ];
        let p = analyze_batch_loop(&spans, 8);
        assert_eq!(p.submit_ns, 5);
        assert_eq!(p.estimate_ns, 85);
        assert_eq!(p.wait_ns, 2);
        assert_eq!(p.merge_ns, 8);
        assert_eq!(p.idle_ns, 0);
    }

    #[test]
    fn profile_json_round_trips() {
        let profile = Profile {
            kernel: "S-W".into(),
            mode: "full".into(),
            tree: aggregate_spans(&threaded_batch()),
            metrics: {
                let r = crate::metrics::MetricsRegistry::new();
                r.counter("evals").add(512);
                r.histogram("eval_ns").record(2_000);
                r.gauge("inflight").set(-1);
                r.snapshot()
            },
            correlation: vec![SpanMinutes {
                span: "merge".into(),
                events: 12,
                first_minute: 0.5,
                last_minute: 240.0,
            }],
            batch_loop: vec![analyze_batch_loop(&threaded_batch(), 2)],
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
                r#"{{"correlation": [{{"span": "tune", "events": {bad},
                    "first_minute": 0, "last_minute": 1}}]}}"#
            );
            let err = Profile::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert_eq!(err, "missing integer `events`");
        }
    }

    #[test]
    fn structure_is_paths_only() {
        let profile = Profile {
            kernel: "S-W".into(),
            mode: "full".into(),
            tree: aggregate_spans(&threaded_batch()),
            ..Profile::default()
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
        // `pool_chunk` is recorded in the tree but excluded from the
        // structure golden: whether a worker (vs the submitter) claims
        // a chunk is host scheduling, not pipeline shape.
        assert_eq!(
            paths,
            [
                "batch",
                "batch/estimate",
                "batch/merge",
                "batch/submit",
                "batch/wait",
            ]
        );
        assert!(s.render().find("_ns").is_none(), "no timings in structure");
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let profile = Profile {
            kernel: "S-W".into(),
            mode: "full".into(),
            tree: aggregate_spans(&threaded_batch()),
            ..Profile::default()
        };
        let folded = profile.folded();
        assert!(folded.contains("batch;submit 10"));
        assert!(folded.contains("pool_chunk 178"));
        for line in folded.lines() {
            assert!(line.rsplit_once(' ').unwrap().1.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn render_text_mentions_every_section() {
        let profile = Profile {
            kernel: "S-W".into(),
            mode: "full".into(),
            tree: aggregate_spans(&threaded_batch()),
            metrics: {
                let r = crate::metrics::MetricsRegistry::new();
                r.histogram("eval_ns").record(100);
                r.counter("cache_hits").inc();
                r.snapshot()
            },
            correlation: vec![SpanMinutes {
                span: "tune".into(),
                events: 3,
                first_minute: 1.0,
                last_minute: 3.0,
            }],
            batch_loop: vec![analyze_batch_loop(&threaded_batch(), 2)],
        };
        let text = profile.render_text();
        assert!(text.contains("span tree"));
        assert!(text.contains("batch-loop attribution"));
        assert!(text.contains("dual-clock join"));
        assert!(text.contains("latency histograms"));
        assert!(text.contains("counters"));
    }
}
