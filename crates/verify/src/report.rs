//! Shared pass/fail reporting for the verification passes.

/// One named check inside a pass.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked (e.g. `"RAID-x 4x3 write plan"`).
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// Failure detail, or a short summary for passing checks.
    pub detail: String,
}

/// The outcome of one verification pass: a list of named checks.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Pass name (e.g. `"plan-lint"`).
    pub pass: String,
    /// Individual checks, in execution order.
    pub checks: Vec<Check>,
    /// Wall-clock seconds the pass took, when the driver measured it
    /// (`bench verify` does; library callers may leave it `None`). Carried
    /// into the JSON report so CI can trend pass cost over PRs.
    pub secs: Option<f64>,
}

impl PassReport {
    /// An empty report for the named pass.
    pub fn new(pass: impl Into<String>) -> Self {
        PassReport { pass: pass.into(), checks: Vec::new(), secs: None }
    }

    /// Record a passing check.
    pub fn ok(&mut self, name: impl Into<String>, detail: impl Into<String>) {
        self.push(name, true, detail);
    }

    /// Record a failing check.
    pub fn fail(&mut self, name: impl Into<String>, detail: impl Into<String>) {
        self.push(name, false, detail);
    }

    /// Record a check whose outcome is already known.
    pub fn push(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    /// True when every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Number of failing checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// Render the pass as a fixed-width table for terminal output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.all_ok() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "== {} [{verdict}] ({}/{} checks ok)",
            self.pass,
            self.checks.len() - self.failures(),
            self.checks.len()
        );
        let width = self.checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  {mark} {:width$}  {}", c.name, c.detail);
        }
        out
    }
}

use sim_core::export::json_escape;

/// Serialize a run's pass reports as machine-readable JSON
/// (`bench verify --json`). Stable schema: every pass object carries
/// `pass`, `ok`, `secs` (wall-clock cost, null when unmeasured — CI
/// trends this over PRs) and `checks`; every check is an object with
/// `pass`, `rule` (the check name), `message` and `ok`.
pub fn render_json(reports: &[PassReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"passes\": [\n");
    for (pi, r) in reports.iter().enumerate() {
        let secs = match r.secs {
            Some(s) => format!("{s:.3}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{\"pass\": \"{}\", \"ok\": {}, \"secs\": {secs}, \"checks\": [",
            json_escape(&r.pass),
            r.all_ok()
        );
        for (ci, c) in r.checks.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"pass\": \"{}\", \"rule\": \"{}\", \"message\": \"{}\", \"ok\": {}}}{}",
                json_escape(&r.pass),
                json_escape(&c.name),
                json_escape(&c.detail),
                c.ok,
                if ci + 1 < r.checks.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "    ]}}{}", if pi + 1 < reports.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_valid_and_escaped() {
        let mut r = PassReport::new("static-analysis");
        r.ok("module-size", "quoted \"why\"");
        r.fail("canary", "missing");
        r.secs = Some(1.2345);
        let json = render_json(&[r]);
        assert!(sim_core::export::json_is_valid(&json), "{json}");
        assert!(json.contains("\"message\": \"quoted \\\"why\\\"\""), "{json}");
        assert!(json.contains("\"rule\": \"canary\", \"message\": \"missing\", \"ok\": false"));
        assert!(json.contains("\"secs\": 1.234"), "{json}");
    }

    #[test]
    fn unmeasured_pass_serializes_null_secs() {
        let mut r = PassReport::new("demo");
        r.ok("a", "fine");
        let json = render_json(&[r]);
        assert!(sim_core::export::json_is_valid(&json), "{json}");
        assert!(json.contains("\"secs\": null"), "{json}");
    }

    #[test]
    fn verdict_tracks_failures() {
        let mut r = PassReport::new("demo");
        r.ok("a", "fine");
        assert!(r.all_ok());
        r.fail("b", "broken");
        assert!(!r.all_ok());
        assert_eq!(r.failures(), 1);
        let text = r.render();
        assert!(text.contains("demo [FAIL]"));
        assert!(text.contains("FAIL b"));
    }
}
