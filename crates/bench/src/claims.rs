//! What the evaluation is held to: one row per reproduced quantity.
//!
//! A [`Claim`] names a value an experiment measures, what the paper
//! reports for it, the range the measured value must stay in and why
//! that range. Experiments hand their measurements over through
//! [`Report::measure`], so the number a results file prints is the
//! number that is checked. Where the reproduction knowingly differs
//! from the paper the row says so ([`Claim::diverges`]) and pins the
//! divergence just as tightly: a change that moves it — in either
//! direction — fails until the row and EXPERIMENTS.md are brought along.

use std::fmt::{self, Write as _};

use serde::Serialize;

/// One reproduced quantity.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// `<experiment>.<quantity>`, cited by EXPERIMENTS.md.
    pub id: &'static str,
    /// What is measured.
    pub what: &'static str,
    /// The paper's figure, where it gives one.
    pub paper: Option<f64>,
    /// Inclusive range the measured value must fall in.
    pub accept: (f64, f64),
    /// A known divergence: `accept` excludes what the paper reports.
    pub diverges: bool,
    /// Why the range is what it is.
    pub reason: &'static str,
}

type Text = &'static str;

impl Claim {
    /// The measured value reproduces `paper` to within `tolerance` (0 for counts).
    pub const fn within(id: Text, what: Text, paper: f64, tolerance: f64, reason: Text) -> Self {
        let accept = (paper - tolerance, paper + tolerance);
        Claim { id, what, paper: Some(paper), accept, diverges: false, reason }
    }

    /// The paper states a relation, not a number: the measured value
    /// stays inside `accept`.
    pub const fn holds(id: Text, what: Text, accept: (f64, f64), reason: Text) -> Self {
        Claim { id, what, paper: None, accept, diverges: false, reason }
    }

    /// A known divergence from `paper`, pinned to `accept`.
    pub const fn diverges(id: Text, what: Text, paper: f64, accept: (f64, f64), reason: Text) -> Self {
        Claim { id, what, paper: Some(paper), accept, diverges: true, reason }
    }

    /// Checks `measured` (what the experiment recorded under this
    /// claim's id, if anything) against the accepted range.
    pub fn check(&self, experiment: &'static str, measured: Option<f64>) -> Checked {
        let inside = measured.is_some_and(|m| self.accept.0 <= m && m <= self.accept.1);
        let status = match (inside, self.diverges) {
            (false, _) => Status::Fail,
            (true, false) => Status::Pass,
            (true, true) => Status::Diverges,
        };
        // Six decimals: what `results/claims.json` holds must not move
        // with the last bits of a float sum.
        let six = |v: f64| (v * 1e6).round() / 1e6;
        Checked {
            id: self.id,
            experiment,
            what: self.what,
            paper: self.paper.map(six),
            measured: measured.map(six),
            accept_min: six(self.accept.0),
            accept_max: six(self.accept.1),
            status,
            reason: self.reason,
        }
    }
}

/// Outcome of one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Inside the accepted range of a reproducing claim.
    Pass,
    /// Inside the pinned range of a known divergence.
    Diverges,
    /// Outside the accepted range, or never measured.
    Fail,
}

impl Status {
    /// The word `claims.json` and `claims.txt` carry.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Diverges => "diverges",
            Status::Fail => "fail",
        }
    }
}

impl Serialize for Status {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(s)
    }
}

/// A claim with its measured value and verdict: one row of
/// `results/claims.json` and `results/claims.txt`.
#[derive(Debug, Clone, Serialize)]
pub struct Checked {
    /// The claim's id.
    pub id: &'static str,
    /// Id of the experiment that measured it.
    pub experiment: &'static str,
    /// What is measured.
    pub what: &'static str,
    /// The paper's figure, where it gives one.
    pub paper: Option<f64>,
    /// The measured value to six decimals; `None` when the experiment
    /// recorded nothing under this id.
    pub measured: Option<f64>,
    /// Lower end of the accepted range.
    pub accept_min: f64,
    /// Upper end of the accepted range.
    pub accept_max: f64,
    /// The verdict.
    pub status: Status,
    /// Why the range is what it is.
    pub reason: &'static str,
}

/// The process exit status a set of checks stands for: 1 when any row failed.
pub fn exit_status(rows: &[Checked]) -> u8 {
    u8::from(rows.iter().any(|r| r.status == Status::Fail))
}

/// Renders checks as the fixed-width table of `results/claims.txt`.
pub fn render(rows: &[Checked]) -> String {
    let number = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "{:<8} {:<46} {:>10} {:>10} {:>22}  what\n",
        "status", "claim", "paper", "measured", "accepted"
    );
    for r in rows {
        let accepted = format!("{:.4} .. {:.4}", r.accept_min, r.accept_max);
        let _ = writeln!(
            out,
            "{:<8} {:<46} {:>10} {:>10} {accepted:>22}  {}\n{:<8} why: {}",
            r.status.as_str(), r.id, number(r.paper), number(r.measured), r.what, "", r.reason,
        );
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    let _ = writeln!(
        out,
        "\n{} claims: {} pass, {} diverge from the paper as pinned, {} fail",
        rows.len(), count(Status::Pass), count(Status::Diverges), count(Status::Fail),
    );
    out
}

/// What an experiment body writes: the text of `results/<id>.txt` and
/// the values its claims are checked against.
#[derive(Debug, Default)]
pub struct Report {
    /// The results file so far.
    pub text: String,
    /// `(claim id, measured value)` pairs.
    pub measured: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records the measured value of claim `id`.
    pub fn measure(&mut self, id: &'static str, value: f64) {
        self.measured.push((id, value));
    }

    /// The value recorded under `id`, if any.
    pub fn measured(&self, id: &str) -> Option<f64> {
        self.measured.iter().find(|(k, _)| *k == id).map(|&(_, v)| v)
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}
