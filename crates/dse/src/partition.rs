//! Static design-space partitioning via a regression decision tree
//! (paper §4.3.1).
//!
//! "We determine and rank the rules by building a binary decision tree that
//! clusters the design points which potentially have similar resource
//! utilization or latency ... These nodes are determined by greedily
//! selecting the best rule to maximize the information gain" (Eq. 1), with
//! variance as the impurity function since latency is a regressed value.
//!
//! Rule candidates follow the paper's two methodologies: splits are
//! preferred on the factors of the template (RDD-operator) loop and on
//! shallower loop levels, implemented as a multiplicative bias on the
//! information gain. Training data comes from probing the HLS model on a
//! deterministic sample — the stand-in for the offline rule set the paper
//! derives from "grouping the applications with similar loop hierarchy".
//!
//! Because all leaves are disjoint and their union is the original space,
//! partitioning preserves optimality (§4.3.1).

use crate::space::DesignSpace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa_hlsir::KernelSummary;
use s2fa_tuner::{Config, SearchSpace};

/// A split rule: `param <= threshold` (on domain indices).
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    /// Parameter index.
    param: usize,
    /// Parameter name (for reports).
    name: String,
    /// Inclusive upper bound of the left branch (domain index).
    threshold: u32,
}

/// A node of the regression tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        space: SearchSpace,
        rules: Vec<String>,
        mean: f64,
        /// Best (lowest) sampled objective in the leaf — its potential.
        best: f64,
        n: usize,
    },
    Split {
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// The built tree: its leaves are the DSE partitions.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
}

impl DecisionTree {
    /// Builds the tree for a design space. All probe configs
    /// are drawn first, then priced in one call to `probe`, which receives
    /// the raw tuner configs and returns their objectives in ms (`+inf`
    /// for infeasible points) in input order. The values never feed back
    /// into the draws, so the caller may price the batch in parallel.
    pub fn build(
        ds: &DesignSpace,
        summary: &KernelSummary,
        probe: impl FnOnce(&[Config]) -> Vec<f64>,
    ) -> DecisionTree {
        let mut rng = SmallRng::seed_from_u64(RNG_SEED);
        let full = ds.space().clone();
        let configs: Vec<Config> = (0..SAMPLES).map(|_| full.random(&mut rng)).collect();
        let values = probe(&configs);
        assert_eq!(values.len(), configs.len(), "one probe value per config");
        let samples: Vec<Sample> = configs
            .into_iter()
            .zip(values)
            .map(|(cfg, v)| {
                // Regress on ln(ms); infeasible points get a large but
                // finite penalty so they inform the tree instead of
                // poisoning it.
                let y = if v.is_finite() {
                    v.max(1e-9).ln()
                } else {
                    30.0
                };
                Sample { cfg, y }
            })
            .collect();
        // Per-parameter split bias from the two partition methodologies.
        let bias: Vec<f64> = (0..full.params().len())
            .map(|i| {
                let mut b = 1.0;
                if ds.is_task_loop_param(i, summary) {
                    b *= TASK_LOOP_BIAS;
                }
                if let Some(d) = ds.param_loop_depth(i, summary) {
                    b *= DEPTH_DECAY.powi(d as i32);
                }
                b
            })
            .collect();
        let root = grow(full, samples, Vec::new(), 0, &bias, &mut 1);
        DecisionTree { root }
    }

    /// The partitions, *ranked*: most promising first (lowest sampled
    /// objective), the realization of "we determine and rank the rules"
    /// (§4.3.1). The FCFS scheduler therefore explores high-potential
    /// partitions before low-potential ones.
    pub fn leaves(&self) -> Vec<SearchSpace> {
        let mut out: Vec<(f64, SearchSpace)> = Vec::new();
        fn walk(n: &Node, out: &mut Vec<(f64, SearchSpace)>) {
            match n {
                Node::Leaf { space, best, .. } => out.push((*best, space.clone())),
                Node::Split { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        walk(&self.root, &mut out);
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Human-readable description of every partition's rule path, in the
    /// same ranked order as [`DecisionTree::leaves`].
    pub fn describe(&self) -> Vec<String> {
        let mut ranked: Vec<(f64, String)> = Vec::new();
        fn walk(n: &Node, out: &mut Vec<(f64, String)>) {
            match n {
                Node::Leaf {
                    rules,
                    mean,
                    best,
                    n,
                    ..
                } => {
                    let path = if rules.is_empty() {
                        "(entire space)".to_string()
                    } else {
                        rules.join(" ∧ ")
                    };
                    out.push((
                        *best,
                        format!("{path}  [n={n}, mean ln(ms)={mean:.2}, best ln(ms)={best:.2}]"),
                    ));
                }
                Node::Split { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        walk(&self.root, &mut ranked);
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.into_iter().map(|(_, d)| d).collect()
    }
}

/// Number of probe samples used as training data.
const SAMPLES: usize = 256;
/// Desired number of leaves (≥ the worker count so the FCFS scheduler
/// keeps every core busy).
const TARGET_LEAVES: usize = 16;
/// Depth cap.
const MAX_DEPTH: u32 = 8;
/// RNG seed for the probe sample.
const RNG_SEED: u64 = 0x5EED;
/// Information-gain bias for template-loop factors (the RDD-semantics
/// rule).
const TASK_LOOP_BIAS: f64 = 1.2;
/// Per-level decay of the loop-hierarchy bias.
const DEPTH_DECAY: f64 = 0.97;

struct Sample {
    cfg: Config,
    y: f64,
}

fn grow(
    space: SearchSpace,
    samples: Vec<Sample>,
    rules: Vec<String>,
    depth: u32,
    bias: &[f64],
    leaves: &mut usize,
) -> Node {
    let n = samples.len();
    let mean = if n == 0 {
        0.0
    } else {
        samples.iter().map(|s| s.y).sum::<f64>() / n as f64
    };
    let best = samples.iter().map(|s| s.y).fold(f64::INFINITY, f64::min);
    if depth >= MAX_DEPTH || *leaves >= TARGET_LEAVES || n < 8 {
        return Node::Leaf {
            space,
            rules,
            mean,
            best,
            n,
        };
    }
    let Some((rule, gain)) = best_split(&space, &samples, bias) else {
        return Node::Leaf {
            space,
            rules,
            mean,
            best,
            n,
        };
    };
    if gain <= 1e-9 {
        return Node::Leaf {
            space,
            rules,
            mean,
            best,
            n,
        };
    }
    *leaves += 1; // splitting one leaf adds one
    let (ls, rs): (Vec<Sample>, Vec<Sample>) = samples
        .into_iter()
        .partition(|s| s.cfg[rule.param] <= rule.threshold);
    let left_space = space.restricted(rule.param, 0, rule.threshold);
    let right_space = space.restricted(rule.param, rule.threshold + 1, u32::MAX);
    let mut lrules = rules.clone();
    lrules.push(format!("{} <= {}", rule.name, rule.threshold));
    let mut rrules = rules;
    rrules.push(format!("{} > {}", rule.name, rule.threshold));
    let left = grow(left_space, ls, lrules, depth + 1, bias, leaves);
    let right = grow(right_space, rs, rrules, depth + 1, bias, leaves);
    Node::Split {
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Finds the `(param, threshold)` split maximizing biased information gain
/// (Eq. 1 with variance impurity).
///
/// Each side's mean and variance are accumulated straight from the
/// samples in their original order — the same left-to-right sums a
/// per-side copy would fold — so no candidate split allocates.
fn best_split(space: &SearchSpace, samples: &[Sample], bias: &[f64]) -> Option<(Rule, f64)> {
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.y).sum::<f64>() / n;
    let imp = samples.iter().map(|s| (s.y - mean).powi(2)).sum::<f64>() / n;
    let mut best: Option<(Rule, f64)> = None;
    for (p, def) in space.params().iter().enumerate() {
        let (lo, hi) = space.bounds(p);
        if hi <= lo {
            continue;
        }
        for t in lo..hi {
            let (mut nl, mut sl, mut nr, mut sr) = (0usize, 0.0, 0usize, 0.0);
            for s in samples {
                if s.cfg[p] <= t {
                    nl += 1;
                    sl += s.y;
                } else {
                    nr += 1;
                    sr += s.y;
                }
            }
            if nl < 2 || nr < 2 {
                continue;
            }
            let (nl, nr) = (nl as f64, nr as f64);
            let (ml, mr) = (sl / nl, sr / nr);
            let (mut ql, mut qr) = (0.0, 0.0);
            for s in samples {
                if s.cfg[p] <= t {
                    ql += (s.y - ml).powi(2);
                } else {
                    qr += (s.y - mr).powi(2);
                }
            }
            let ig = imp - (nl / n) * (ql / nl) - (nr / n) * (qr / nr);
            let score = ig * bias[p];
            if best.as_ref().map(|(_, b)| score > *b).unwrap_or(true) {
                best = Some((
                    Rule {
                        param: p,
                        name: def.name.clone(),
                        threshold: t,
                    },
                    score,
                ));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::{BufferDir, BufferInfo, LoopId, LoopInfo, OpCounts};
    use s2fa_tuner::Config;

    fn summary() -> KernelSummary {
        KernelSummary {
            name: "k".into(),
            loops: vec![
                LoopInfo {
                    id: LoopId(0),
                    var: "t".into(),
                    trip_count: 256,
                    depth: 0,
                    parent: None,
                    children: vec![LoopId(1)],
                    body_ops: OpCounts::new(),
                    accesses: vec![],
                    carried: None,
                },
                LoopInfo {
                    id: LoopId(1),
                    var: "j".into(),
                    trip_count: 32,
                    depth: 1,
                    parent: Some(LoopId(0)),
                    children: vec![],
                    body_ops: OpCounts::new(),
                    accesses: vec![],
                    carried: None,
                },
            ],
            buffers: vec![BufferInfo {
                name: "in_1".into(),
                elem_bits: 32,
                len: 32,
                dir: BufferDir::In,
                broadcast: false,
            }],
            task_loop: LoopId(0),
            tasks_hint: 256,
            dataflow: None,
        }
    }

    /// Synthetic landscape: latency dominated by the task-loop parallel
    /// factor index.
    fn probe(ds: &DesignSpace, cfg: &Config) -> f64 {
        let i = ds.space().param_index("L0.parallel").unwrap();
        let j = ds.space().param_index("L1.pipeline").unwrap();
        1000.0 / (1.0 + cfg[i] as f64 * 3.0 + cfg[j] as f64)
    }

    fn probe_all(ds: &DesignSpace, cfgs: &[Config]) -> Vec<f64> {
        cfgs.iter().map(|c| probe(ds, c)).collect()
    }

    #[test]
    fn produces_disjoint_covering_partitions() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let tree = DecisionTree::build(&ds, &s, |cs| probe_all(&ds, cs));
        let leaves = tree.leaves();
        assert!(leaves.len() >= 2, "tree did not split");
        assert!(leaves.len() <= TARGET_LEAVES + 1);
        // Disjoint and covering: every random config lies in exactly one
        // leaf.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(123);
        for _ in 0..200 {
            let c = ds.space().random(&mut rng);
            let hits = leaves.iter().filter(|l| l.contains(&c)).count();
            assert_eq!(hits, 1, "config in {hits} partitions");
        }
    }

    #[test]
    fn splits_on_the_dominant_factor() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let tree = DecisionTree::build(&ds, &s, |cs| probe_all(&ds, cs));
        let desc = tree.describe();
        // at least one rule mentions the factor that actually drives
        // latency in the synthetic landscape
        assert!(
            desc.iter().any(|d| d.contains("L0.parallel")),
            "rules: {desc:?}"
        );
    }

    #[test]
    fn deterministic() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let t1 = DecisionTree::build(&ds, &s, |cs| probe_all(&ds, cs));
        let t2 = DecisionTree::build(&ds, &s, |cs| probe_all(&ds, cs));
        assert_eq!(t1.describe(), t2.describe());
    }

    #[test]
    fn constant_landscape_yields_single_leaf() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let tree = DecisionTree::build(&ds, &s, |cs| vec![42.0; cs.len()]);
        assert_eq!(tree.leaves().len(), 1);
        assert!(tree.describe()[0].contains("entire space"));
    }

    #[test]
    fn infeasible_points_do_not_poison() {
        let s = summary();
        let ds = DesignSpace::build(&s);
        let i = ds.space().param_index("L0.parallel").unwrap();
        let tree = DecisionTree::build(&ds, &s, |cs| {
            cs.iter()
                .map(|c| {
                    if c[i] > 5 {
                        f64::INFINITY
                    } else {
                        100.0 / (1.0 + c[i] as f64)
                    }
                })
                .collect()
        });
        // The infeasible region is exactly "L0.parallel > 5"; the tree
        // should carve near it.
        assert!(tree.leaves().len() >= 2);
    }
}
