//! Per-technique counter aggregation.

/// Counters for one search technique (`"seed"` counts as a technique).
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueStats {
    /// Technique name.
    pub technique: String,
    /// Evaluations the technique's proposals consumed.
    pub evals: u64,
    /// Proposals that improved the incumbent.
    pub improvements: u64,
    /// Best objective value among the technique's proposals (`+inf` if
    /// none was feasible).
    pub best_value: f64,
}

impl TechniqueStats {
    /// A zeroed row for `technique`.
    pub fn new(technique: impl Into<String>) -> Self {
        TechniqueStats {
            technique: technique.into(),
            evals: 0,
            improvements: 0,
            best_value: f64::INFINITY,
        }
    }
}

/// An accumulator of [`TechniqueStats`] rows.
///
/// Rows come back sorted by technique name, so tables credited from
/// partitions in different orders compare equal.
#[derive(Debug, Clone, Default)]
pub struct TechniqueTable {
    rows: Vec<TechniqueStats>,
}

impl TechniqueTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits one evaluation to `technique`.
    pub fn record(&mut self, technique: &str, value: f64, improved: bool) {
        let i = match self.rows.iter().position(|r| r.technique == technique) {
            Some(i) => i,
            None => {
                self.rows.push(TechniqueStats::new(technique));
                self.rows.len() - 1
            }
        };
        let row = &mut self.rows[i];
        row.evals += 1;
        if improved {
            row.improvements += 1;
        }
        if value < row.best_value {
            row.best_value = value;
        }
    }

    /// The accumulated rows, sorted by technique name.
    pub fn into_rows(mut self) -> Vec<TechniqueStats> {
        self.rows.sort_by(|a, b| a.technique.cmp(&b.technique));
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sorts() {
        let mut t = TechniqueTable::new();
        t.record("greedy", 5.0, true);
        t.record("anneal", 7.0, false);
        t.record("greedy", 3.0, true);
        let rows = t.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].technique, "anneal");
        assert_eq!(rows[1].technique, "greedy");
        assert_eq!(rows[1].evals, 2);
        assert_eq!(rows[1].improvements, 2);
        assert_eq!(rows[1].best_value, 3.0);
    }

    #[test]
    fn infeasible_values_never_become_best() {
        let mut t = TechniqueTable::new();
        t.record("greedy", f64::INFINITY, false);
        let rows = t.into_rows();
        assert_eq!(rows[0].evals, 1);
        assert!(rows[0].best_value.is_infinite());
    }
}
