//! Diagnostics: stable codes, severities, spans, reports, and rendering.

use s2fa_hlsir::LoopId;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// `S2FA-Wxxx`: suspicious or repairable — the pipeline proceeds
    /// (normalization repairs the directive or the estimator prices the
    /// damage), but the point is wasteful or the code smells.
    Warning,
    /// `S2FA-Exxx`: statically guaranteed failure — an ill-formed kernel,
    /// or a design point that cannot synthesize.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A stable lint rule, e.g. `S2FA-E201`. The full catalog lives in
/// [`codes`]; DESIGN.md §10 documents where each rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LintCode {
    /// The stable code string (`S2FA-Exxx` / `S2FA-Wxxx`).
    pub code: &'static str,
    /// Severity class the numbering encodes (E = error, W = warning).
    pub severity: Severity,
    /// One-line rule title.
    pub title: &'static str,
}

/// The rule catalog. `E1xx`/`W1xx` are IR well-formedness rules (fire on
/// the generated `CFunction`, pre- and post-transform); `E2xx`/`W2xx` are
/// design-point legality rules (fire on a `DesignConfig` against a
/// `KernelSummary`).
pub mod codes {
    use super::{LintCode, Severity};

    /// E101: an expression or assignment uses a variable or buffer that no
    /// parameter, declaration, or enclosing loop defines.
    pub const USE_BEFORE_DEF: LintCode = LintCode {
        code: "S2FA-E101",
        severity: Severity::Error,
        title: "use of an undefined variable or buffer",
    };
    /// E102: a constant array index is negative or outside the declared
    /// length of a local array.
    pub const OOB_INDEX: LintCode = LintCode {
        code: "S2FA-E102",
        severity: Severity::Error,
        title: "constant array index out of bounds",
    };
    /// E103: two loops share a `LoopId` (directives would be ambiguous).
    pub const DUP_LOOP_ID: LintCode = LintCode {
        code: "S2FA-E103",
        severity: Severity::Error,
        title: "duplicate loop id",
    };
    /// E104: the kernel writes a read-only input buffer.
    pub const WRITE_TO_INPUT: LintCode = LintCode {
        code: "S2FA-E104",
        severity: Severity::Error,
        title: "write to a read-only input buffer",
    };
    /// E105: an intrinsic call has the wrong number of arguments.
    pub const BAD_ARITY: LintCode = LintCode {
        code: "S2FA-E105",
        severity: Severity::Error,
        title: "intrinsic arity mismatch",
    };
    /// W110: an assignment narrows its right-hand side without an explicit
    /// cast (silent truncation in the generated C).
    pub const TRUNCATING_ASSIGN: LintCode = LintCode {
        code: "S2FA-W110",
        severity: Severity::Warning,
        title: "implicit width-truncating assignment",
    };
    /// W111: a loop has a zero trip count or an empty body.
    pub const DEAD_LOOP: LintCode = LintCode {
        code: "S2FA-W111",
        severity: Severity::Warning,
        title: "zero-trip or dead loop",
    };

    /// E201: the design's resource floor already exceeds the device
    /// utilization cap — synthesis is guaranteed to fail.
    pub const RESOURCE_CAP: LintCode = LintCode {
        code: "S2FA-E201",
        severity: Severity::Error,
        title: "resource floor exceeds the utilization cap",
    };
    /// E202: the replication product exceeds the routing sanity bound.
    pub const UNROUTABLE: LintCode = LintCode {
        code: "S2FA-E202",
        severity: Severity::Error,
        title: "replication product unroutable",
    };
    /// W210: `pipeline` on a loop with an irreducible carried dependence
    /// (the II is bound to the recurrence chain; the directive buys little).
    pub const PIPELINE_IRREDUCIBLE: LintCode = LintCode {
        code: "S2FA-W210",
        severity: Severity::Warning,
        title: "pipeline on an irreducible carried dependence",
    };
    /// W211: `flatten` on a loop whose descendants still carry live
    /// factors (normalization zeroes them; they are dead weight).
    pub const FLATTEN_LIVE_SUBLOOPS: LintCode = LintCode {
        code: "S2FA-W211",
        severity: Severity::Warning,
        title: "flatten with live sub-loop factors",
    };
    /// W212: a tile/unroll factor does not divide the trip count (the
    /// structural transform rejects it).
    pub const NON_DIVIDING_FACTOR: LintCode = LintCode {
        code: "S2FA-W212",
        severity: Severity::Warning,
        title: "factor does not divide the trip count",
    };
    /// W213: a tile/unroll factor outside the legal range for its loop
    /// (normalization clamps or drops it).
    pub const FACTOR_OUT_OF_RANGE: LintCode = LintCode {
        code: "S2FA-W213",
        severity: Severity::Warning,
        title: "factor outside the legal range",
    };
    /// W214: `parallel > 1` on a loop with a non-reducible recurrence
    /// (normalization resets it to 1).
    pub const PARALLEL_IRREDUCIBLE: LintCode = LintCode {
        code: "S2FA-W214",
        severity: Severity::Warning,
        title: "parallel on a non-reducible recurrence",
    };
    /// W215: an interface port width below the buffer's element width
    /// (every access straddles words).
    pub const NARROW_PORT: LintCode = LintCode {
        code: "S2FA-W215",
        severity: Severity::Warning,
        title: "port width below the element width",
    };
    /// W216: `tree_reduce` without a reducible recurrence to reduce.
    pub const USELESS_TREE_REDUCE: LintCode = LintCode {
        code: "S2FA-W216",
        severity: Severity::Warning,
        title: "tree reduction without a reducible recurrence",
    };

    /// E301: a read of a local scalar or buffer element whose every
    /// statically reaching definition is the uninitialized declaration —
    /// the kernel computes with garbage (well, with the executor's zero
    /// default; real HLS gives undefined BRAM contents).
    pub const UNINIT_READ: LintCode = LintCode {
        code: "S2FA-E301",
        severity: Severity::Error,
        title: "read of provably uninitialized storage",
    };
    /// E302: an affine (non-constant) index whose value range, computed
    /// from the enclosing loop bounds, provably exceeds the declared
    /// length of a local array. Constant indices are E102's domain.
    pub const AFFINE_OOB: LintCode = LintCode {
        code: "S2FA-E302",
        severity: Severity::Error,
        title: "affine index provably out of bounds",
    };
    /// E303: two iterations of a loop provably write the same buffer
    /// element — replicating or fully parallelizing the loop (what the
    /// design space does to it) yields a nondeterministic design.
    pub const REPLICATION_RACE: LintCode = LintCode {
        code: "S2FA-E303",
        severity: Severity::Error,
        title: "cross-iteration write-write race under replication",
    };
    /// W310: a definition no later statement can observe (dead store).
    pub const DEAD_STORE: LintCode = LintCode {
        code: "S2FA-W310",
        severity: Severity::Warning,
        title: "dead store",
    };
}

/// Where a diagnostic points: a loop path from the outermost enclosing
/// loop to the site, plus the buffer/variable under discussion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// Enclosing loops, outermost first (e.g. `L0 > L2`).
    pub loop_path: Vec<LoopId>,
    /// Buffer or variable the finding is about, if any.
    pub subject: Option<String>,
    /// Pre-order statement index within the kernel body (the same
    /// numbering `hlsir::dataflow` assigns), rendered as `#7`.
    pub stmt: Option<u32>,
}

impl Span {
    /// A span with no location (kernel-level findings).
    pub fn kernel() -> Self {
        Span::default()
    }

    /// A span pointing at one loop.
    pub fn at_loop(id: LoopId) -> Self {
        Span {
            loop_path: vec![id],
            ..Span::default()
        }
    }

    /// A span pointing at a named buffer or variable.
    pub fn subject(name: impl Into<String>) -> Self {
        Span {
            subject: Some(name.into()),
            ..Span::default()
        }
    }

    /// Adds/replaces the subject on any span.
    pub fn with_subject(mut self, name: impl Into<String>) -> Self {
        self.subject = Some(name.into());
        self
    }

    /// Adds/replaces the statement index on any span.
    pub fn with_stmt(mut self, stmt: u32) -> Self {
        self.stmt = Some(stmt);
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (i, id) in self.loop_path.iter().enumerate() {
            if i > 0 {
                f.write_str(" > ")?;
            }
            write!(f, "{id}")?;
            wrote = true;
        }
        if let Some(i) = self.stmt {
            if wrote {
                f.write_str(" ")?;
            }
            write!(f, "#{i}")?;
            wrote = true;
        }
        if let Some(s) = &self.subject {
            if wrote {
                f.write_str(" ")?;
            }
            write!(f, "`{s}`")?;
            wrote = true;
        }
        if !wrote {
            f.write_str("<kernel>")?;
        }
        Ok(())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: LintCode,
    /// Where it fired.
    pub span: Span,
    /// Specific message (what value, which bound).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    /// One-line form: ``error[S2FA-E102]: constant index 9 outside
    /// `acc[4]` (at L0 `acc`)``.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.code.severity, self.code.code, self.message, self.span
        )
    }
}

impl Diagnostic {
    /// Rustc-style multi-line rendering for `subject` (the kernel name).
    pub fn render(&self, subject: &str) -> String {
        format!(
            "{}[{}]: {}\n  --> {}: {}\n  = note: {}\n",
            self.code.severity, self.code.code, self.code.title, subject, self.span, self.message
        )
    }
}

/// The findings of one analysis pass over one subject.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    /// What was analyzed (the kernel name).
    pub subject: String,
    /// Findings in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records one finding.
    pub fn push(&mut self, code: LintCode, span: Span, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            span,
            message: message.into(),
        });
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity == Severity::Error)
    }

    /// True if any error-severity finding was recorded.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// `(errors, warnings)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let e = self.errors().count();
        (e, self.diagnostics.len() - e)
    }

    /// Appends another report's findings (same subject assumed).
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Rustc-style rendering of every finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(&self.subject));
        }
        let (e, w) = self.counts();
        if e == 0 && w == 0 {
            out.push_str(&format!("{}: clean\n", self.subject));
        } else {
            out.push_str(&format!("{}: {e} error(s), {w} warning(s)\n", self.subject));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render() {
        assert_eq!(Span::kernel().to_string(), "<kernel>");
        assert_eq!(Span::at_loop(LoopId(2)).to_string(), "L2");
        assert_eq!(
            Span {
                loop_path: vec![LoopId(0), LoopId(2)],
                subject: Some("acc".into()),
                stmt: None,
            }
            .to_string(),
            "L0 > L2 `acc`"
        );
        assert_eq!(
            Span::at_loop(LoopId(1))
                .with_stmt(7)
                .with_subject("a")
                .to_string(),
            "L1 #7 `a`"
        );
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut r = LintReport::new("dot");
        assert!(!r.has_errors());
        assert!(r.render().contains("dot: clean"));
        r.push(
            codes::OOB_INDEX,
            Span::subject("acc"),
            "constant index 9 outside `acc[4]`",
        );
        r.push(
            codes::DEAD_LOOP,
            Span::at_loop(LoopId(1)),
            "trip count is 0",
        );
        assert!(r.has_errors());
        assert_eq!(r.counts(), (1, 1));
        let text = r.render();
        assert!(text.contains("error[S2FA-E102]"));
        assert!(text.contains("warning[S2FA-W111]"));
        assert!(text.contains("--> dot:"));
        assert!(text.contains("dot: 1 error(s), 1 warning(s)"));
        assert_eq!(
            r.diagnostics[0].to_string(),
            "error[S2FA-E102]: constant index 9 outside `acc[4]` (at `acc`)"
        );
    }
}
