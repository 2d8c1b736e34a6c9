//! Append-only bench trajectories: the `BENCH_*.json` files.
//!
//! Every bench bin appends one entry per run to the `history` array of
//! its trajectory file and gates its headline figures against the last
//! entry recorded in the same mode (`"quick": true|false`). This module
//! owns everything except what an entry contains: reading and writing the
//! document, the same-mode lookup, the git revision stamp and the
//! regression comparison. The bins render their own entries and extract
//! their own figures from earlier ones.
//!
//! Loading fails closed. A missing file is the only empty history; a file
//! that exists but is not a complete trajectory document — unreadable,
//! truncated, or the legacy flat shape with no `history` array — is an
//! error, never an empty history the gate would then pass against.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A figure below this fraction of the previous same-mode entry's value
/// is a regression.
const GATE_FRACTION: f64 = 0.9;

/// One bench's trajectory document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    path: PathBuf,
    bench: String,
    seed: u64,
    entries: Vec<String>,
}

impl Trajectory {
    /// Loads the trajectory at `path`. A missing file yields an empty
    /// history; anything else that is not a trajectory is an error.
    pub fn load(path: impl AsRef<Path>, bench: &str, seed: u64) -> Result<Trajectory, String> {
        let path = path.as_ref();
        let entries = match std::fs::read_to_string(path) {
            Ok(text) => parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: cannot read: {e}", path.display())),
        };
        Ok(Trajectory { path: path.to_path_buf(), bench: bench.to_string(), seed, entries })
    }

    /// [`Trajectory::load`] for a bench's `main`: on error, reports it
    /// and exits nonzero, so the gate never runs against a history it
    /// could not read.
    pub fn load_or_exit(path: impl AsRef<Path>, bench: &str, seed: u64) -> Trajectory {
        Trajectory::load(path, bench, seed).unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        })
    }

    /// The recorded entries, oldest first, as raw JSON objects.
    pub fn entries(&self) -> &[String] {
        &self.entries
    }

    /// The most recent entry recorded in the same mode, if any.
    pub fn last_in_mode(&self, quick: bool) -> Option<&str> {
        let mode = format!("\"quick\": {quick},");
        self.entries.iter().rev().find(|e| e.contains(&mode)).map(String::as_str)
    }

    /// Appends a rendered entry (a JSON object) and rewrites the file.
    pub fn append(&mut self, entry: String) -> std::io::Result<()> {
        self.entries.push(entry);
        std::fs::write(&self.path, self.render())
    }

    /// Renders the whole document; entries sit at a 4-space indent.
    fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"history\": [\n");
        let entries: Vec<String> = self.entries.iter().map(|e| format!("    {e}")).collect();
        out.push_str(&entries.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The current git revision (short), or `unknown` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares each `(name, value)` of `now` with the same name in `prev`
/// (the previous same-mode entry's figures) and returns one message per
/// value below 90% of its predecessor. Empty = gate passes.
pub fn regressions(prev: &[(String, f64)], now: &[(String, f64)], unit: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, before) in prev {
        let Some((_, after)) = now.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *after < before * GATE_FRACTION {
            failures.push(format!(
                "{name}: {after:.1} {unit} is {:.1}% of the previous entry's {before:.1}",
                after / before * 100.0,
            ));
        }
    }
    failures
}

/// Validates a whole trajectory document and returns its `history`
/// entries as raw JSON object text.
fn parse(text: &str) -> Result<Vec<String>, String> {
    read_history(text).map_err(|e| {
        // A complete document is an object: it ends with its `}`.
        if text.trim_end().ends_with('}') {
            e
        } else {
            format!("truncated document: {e}")
        }
    })
}

fn read_history(text: &str) -> Result<Vec<String>, String> {
    let mut r = Reader { text, pos: 0 };
    let mut history = None;
    r.object(|r, key| {
        if key != "history" {
            return r.value();
        }
        let mut entries = Vec::new();
        r.array(|r| {
            r.ws();
            let start = r.pos;
            if r.peek() != Some(b'{') {
                return Err(r.error("a history entry must be an object"));
            }
            r.value()?;
            entries.push(text[start..r.pos].to_string());
            Ok(())
        })?;
        history = Some(entries);
        Ok(())
    })?;
    r.ws();
    if r.pos != text.len() {
        return Err(r.error("trailing data after the document"));
    }
    history.ok_or_else(|| "no `history` array (the pre-trajectory flat format?)".to_string())
}

/// A minimal validating JSON reader: it checks syntax and skips values,
/// which is all a trajectory needs (entries are kept as raw text).
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, what: &str) -> String {
        let line = self.text[..self.pos].matches('\n').count() + 1;
        format!("{what} (line {line})")
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() != Some(b) {
            return Err(self.error(&format!("expected `{}`", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads `{ "key": value, ... }`, handing each key to `field`, which
    /// must consume the value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            field(self, key)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// Reads `[ value, ... ]`, handing each element to `item`.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// Reads a string and returns its raw (still escaped) contents.
    fn string(&mut self) -> Result<&'a str, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        let start = self.pos + 1;
        let bytes = self.text.as_bytes();
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    self.pos = i + 1;
                    return Ok(&self.text[start..i]);
                }
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        self.pos = bytes.len();
        Err(self.error("unterminated string"))
    }

    /// Skips any value.
    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.value()),
            Some(b'[') => self.array(Self::value),
            Some(b'"') => self.string().map(|_| ()),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                self.text[start..self.pos]
                    .parse::<f64>()
                    .map(|_| ())
                    .map_err(|_| self.error("malformed number"))
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if self.text[self.pos..].starts_with(lit) {
                        self.pos += lit.len();
                        return Ok(());
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &str =
        "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"history\": [\n    {\n      \
                         \"git_rev\": \"abc1234\",\n      \"quick\": false,\n      \
                         \"rate\": 10.5\n    },\n    {\n      \"git_rev\": \"abc1234\",\n      \
                         \"quick\": true,\n      \"rate\": 2.0\n    }\n  ]\n}\n";

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("umtslab-history-{}-{name}", std::process::id()))
    }

    #[test]
    fn missing_file_is_an_empty_history() {
        let t = Trajectory::load(temp_path("missing.json"), "demo", 7).unwrap();
        assert!(t.entries().is_empty());
        assert_eq!(t.last_in_mode(false), None);
    }

    #[test]
    fn valid_document_loads_and_round_trips() {
        let path = temp_path("valid.json");
        std::fs::write(&path, VALID).unwrap();
        let mut t = Trajectory::load(&path, "demo", 7).unwrap();
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.render(), VALID, "rendering a loaded trajectory is a fixed point");
        assert!(t.last_in_mode(true).unwrap().contains("\"rate\": 2.0"));
        assert!(t.last_in_mode(false).unwrap().contains("\"rate\": 10.5"));
        t.append("{\n      \"quick\": true,\n      \"rate\": 3.0\n    }".into()).unwrap();
        let again = Trajectory::load(&path, "demo", 7).unwrap();
        assert_eq!(again.entries().len(), 3);
        assert!(again.last_in_mode(true).unwrap().contains("3.0"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_flat_document_is_an_error() {
        let flat = "{\n  \"bench\": \"dataplane\",\n  \"seed\": 42,\n  \"quick\": false,\n  \
                    \"flows\": [\n    {\n      \"flow\": \"cbr-1mbps\"\n    }\n  ]\n}\n";
        let err = parse(flat).unwrap_err();
        assert!(err.contains("history"), "{err}");
    }

    #[test]
    fn truncated_document_is_an_error() {
        for cut in [VALID.len() - 2, VALID.len() / 2, 100, 10] {
            let err = parse(&VALID[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }
        let path = temp_path("truncated.json");
        std::fs::write(&path, &VALID[..VALID.len() / 2]).unwrap();
        assert!(Trajectory::load(&path, "demo", 7).is_err(), "load must fail closed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn regressions_compare_like_names_only() {
        let prev = vec![("a".to_string(), 100.0), ("b".to_string(), 100.0)];
        let now = vec![("a".to_string(), 89.0), ("b".to_string(), 95.0), ("c".to_string(), 1.0)];
        let msgs = regressions(&prev, &now, "pkts/s");
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("a: 89.0 pkts/s is 89.0%"), "{}", msgs[0]);
    }
}
