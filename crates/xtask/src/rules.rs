//! The lint rules of `pilfill-audit`.
//!
//! Every rule reports against the code view built by [`crate::scan`], so
//! comments, strings and `#[cfg(test)]` regions never trigger findings.
//! A finding can be suppressed with a `// pilfill: allow(<rule>)` comment
//! on the same or the preceding line (a suppression must explain the
//! invariant that makes the flagged pattern sound), or for a whole file
//! with `// pilfill: allow-file(<rule>)`.

use crate::scan::SourceFile;
use pilfill_diag::{Diagnostic, Severity};

/// The rule set, in reporting order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::Unwrap,
    Rule::FloatEq,
    Rule::AsCast,
    Rule::ProcessExit,
    Rule::MustUse,
    Rule::MissingDocs,
    Rule::DocHiddenPub,
    Rule::UnsafeComment,
    Rule::AtomicOrdering,
    Rule::Layering,
];

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No `.unwrap()` / `.expect()` / `panic!` family in library code.
    Unwrap,
    /// No `==` / `!=` where an operand is visibly floating-point.
    FloatEq,
    /// No bare narrowing `as` casts (use `pilfill_geom::units`).
    AsCast,
    /// No `std::process::exit` outside `crates/cli`.
    ProcessExit,
    /// Solver/flow result types must carry `#[must_use]`.
    MustUse,
    /// Public items must have doc comments.
    MissingDocs,
    /// No `#[doc(hidden)]` on a `pub` item: a hidden public item is API
    /// surface nobody reviews (make it private or `#[cfg(test)]`).
    DocHiddenPub,
    /// Every `unsafe` block / `unsafe impl` needs a `// SAFETY:` rationale.
    UnsafeComment,
    /// No `Relaxed` store paired with an acquiring load of the same
    /// atomic, and no `SeqCst` outside the allowlist.
    AtomicOrdering,
    /// Crate dependencies must respect the workspace layer order
    /// (checked from `Cargo.toml` edges via [`lint_manifests`]).
    Layering,
}

impl Rule {
    /// Stable kebab-case identifier (used in diagnostics and `allow(..)`).
    pub const fn id(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::FloatEq => "float-eq",
            Rule::AsCast => "as-cast",
            Rule::ProcessExit => "process-exit",
            Rule::MustUse => "must-use",
            Rule::MissingDocs => "missing-docs",
            Rule::DocHiddenPub => "doc-hidden-pub",
            Rule::UnsafeComment => "unsafe-no-safety-comment",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::Layering => "layering",
        }
    }

    /// Default severity.
    pub const fn severity(self) -> Severity {
        match self {
            Rule::Unwrap | Rule::FloatEq | Rule::AsCast | Rule::ProcessExit => Severity::Error,
            Rule::UnsafeComment | Rule::AtomicOrdering | Rule::Layering => Severity::Error,
            Rule::MustUse | Rule::MissingDocs | Rule::DocHiddenPub => Severity::Warning,
        }
    }

    /// One-line description for `lint --rules` and the docs table.
    pub const fn describe(self) -> &'static str {
        match self {
            Rule::Unwrap => {
                "no `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!` or \
                 `unimplemented!` in non-test library code"
            }
            Rule::FloatEq => "no `==`/`!=` comparisons with floating-point operands",
            Rule::AsCast => {
                "no bare narrowing `as` casts (i8/i16/i32/u8/u16/u32/usize/isize/Coord/Area); \
                 use pilfill_geom::units"
            }
            Rule::ProcessExit => "no `std::process::exit` outside crates/cli",
            Rule::MustUse => "solver/flow result types (*Outcome, *Report, ...) need #[must_use]",
            Rule::MissingDocs => "public items need doc comments",
            Rule::DocHiddenPub => "no `#[doc(hidden)]` on `pub` items in non-test library code",
            Rule::UnsafeComment => {
                "every `unsafe` block and `unsafe impl` needs a `// SAFETY:` comment \
                 stating the upheld invariant"
            }
            Rule::AtomicOrdering => {
                "no `Relaxed` store of an atomic that is elsewhere loaded with an \
                 acquiring ordering, and no `SeqCst` outside the allowlist"
            }
            Rule::Layering => {
                "crate dependency edges must point down the workspace layer order \
                 (prng/geom/diag/solver -> check/layout -> exec/rc/density -> core -> ...)"
            }
        }
    }
}

/// The outcome of linting one or more files.
#[derive(Debug, Clone, Default)]
#[must_use = "a lint run is pure; dropping the report discards its findings"]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings that survived suppression, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by `pilfill: allow` comments.
    pub suppressed: usize,
}

impl LintReport {
    /// Error-severity finding count.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Warning-severity finding count.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.files_scanned += other.files_scanned;
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
    }
}

/// Lints one file's text. `path` should be repo-relative; it is used both
/// for diagnostics and for path-scoped rules (`process-exit`).
pub fn lint_source(path: &str, text: &str) -> LintReport {
    let file = SourceFile::parse(path, text);
    let mut findings: Vec<(Rule, u32, String)> = Vec::new();
    rule_unwrap(&file, &mut findings);
    rule_float_eq(&file, &mut findings);
    rule_as_cast(&file, &mut findings);
    rule_process_exit(&file, &mut findings);
    rule_must_use(&file, &mut findings);
    rule_missing_docs(&file, &mut findings);
    rule_doc_hidden_pub(&file, &mut findings);
    rule_unsafe_comment(&file, &mut findings);
    rule_atomic_ordering(&file, &mut findings);
    findings.sort_by_key(|&(_, line, _)| line);

    let mut report = LintReport {
        files_scanned: 1,
        ..LintReport::default()
    };
    for (rule, line, message) in findings {
        if is_suppressed(&file, rule, line) {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(Diagnostic::new(
                rule.severity(),
                rule.id(),
                path,
                line,
                message,
            ));
        }
    }
    report
}

/// `true` when `rule` is allowed at 1-based `line` (same-line or
/// preceding-line `pilfill: allow(..)`, or a file-wide `allow-file(..)`).
fn is_suppressed(file: &SourceFile, rule: Rule, line: u32) -> bool {
    let idx = usize::try_from(line.saturating_sub(1)).unwrap_or(0);
    if line_allows(&file.raw[idx], "pilfill: allow(", rule) {
        return true;
    }
    if idx > 0 && line_allows(&file.raw[idx - 1], "pilfill: allow(", rule) {
        return true;
    }
    file.raw
        .iter()
        .any(|l| line_allows(l, "pilfill: allow-file(", rule))
}

fn line_allows(raw: &str, directive: &str, rule: Rule) -> bool {
    let Some(pos) = raw.find(directive) else {
        return false;
    };
    // Directives only count inside comments.
    let before = &raw[..pos];
    if !before.contains("//") {
        return false;
    }
    let rest = &raw[pos + directive.len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[..close].split(',').any(|r| r.trim() == rule.id())
}

/// 1-based diagnostic line number for 0-based line index `i`.
fn line_no(i: usize) -> u32 {
    u32::try_from(i + 1).unwrap_or(u32::MAX)
}

/// Searches `line` for `pat` occurrences, returning byte offsets.
fn find_all(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = line[from..].find(pat) {
        out.push(from + off);
        from += off + pat.len();
    }
    out
}

fn rule_unwrap(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    const PATTERNS: [(&str, &str); 7] = [
        (".unwrap()", "`.unwrap()`"),
        (".unwrap_unchecked()", "`.unwrap_unchecked()`"),
        (".expect(", "`.expect()`"),
        ("panic!(", "`panic!`"),
        ("unreachable!(", "`unreachable!`"),
        ("todo!(", "`todo!`"),
        ("unimplemented!(", "`unimplemented!`"),
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for (pat, what) in PATTERNS {
            for off in find_all(code, pat) {
                // `debug_assert!`-style macros may expand to panic!; the
                // source pattern here is a literal call, so only flag the
                // macro itself, not e.g. `core::panic::Location`.
                if pat == "panic!(" && off >= 1 && code.as_bytes()[off - 1] == b'_' {
                    continue; // e.g. `catch_panic!(` style helper names
                }
                findings.push((
                    Rule::Unwrap,
                    line_no(i),
                    format!(
                        "{what} in library code: return a typed error, or document the \
                         invariant and add `// pilfill: allow(unwrap)`"
                    ),
                ));
            }
        }
    }
}

/// `true` if an operand substring shows floating-point evidence.
fn has_float_evidence(s: &str) -> bool {
    let bytes = s.as_bytes();
    // A float literal: digit '.' digit, with a non-identifier char before
    // the first digit run (so tuple indexing `x.0` never matches).
    for i in 0..bytes.len() {
        if bytes[i] == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && i + 1 < bytes.len()
            && (bytes[i + 1].is_ascii_digit() || !bytes[i + 1].is_ascii_alphanumeric())
        {
            // Walk back over the digit run; a preceding ident char means
            // this dot is field/tuple access on an identifier like `x2.0`.
            let mut j = i - 1;
            while j > 0 && bytes[j - 1].is_ascii_digit() {
                j -= 1;
            }
            let lit_start = j == 0
                || (!bytes[j - 1].is_ascii_alphabetic()
                    && bytes[j - 1] != b'_'
                    && bytes[j - 1] != b'.');
            if lit_start && (i + 1 >= bytes.len() || bytes[i + 1].is_ascii_digit()) {
                return true;
            }
        }
    }
    for tok in ["f64", "f32"] {
        for off in find_all(s, tok) {
            let before_ok = off == 0 || {
                let b = bytes[off - 1];
                !b.is_ascii_alphanumeric()
            };
            let after = off + tok.len();
            let after_ok = after >= bytes.len() || {
                let b = bytes[after];
                !b.is_ascii_alphanumeric() && b != b'_'
            };
            // `_f64` suffixes count as evidence too (`1_f64`).
            if after_ok && (before_ok || bytes[off - 1] == b'_') {
                return true;
            }
        }
    }
    false
}

fn rule_float_eq(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let bytes = code.as_bytes();
        for op in ["==", "!="] {
            for off in find_all(code, op) {
                // Exclude `<=`, `>=`, `!=` handled separately; guard `===`
                // style accidents and pattern arrows.
                if op == "==" {
                    if off > 0 && matches!(bytes[off - 1], b'!' | b'<' | b'>' | b'=') {
                        continue;
                    }
                    if bytes.get(off + 2) == Some(&b'=') {
                        continue;
                    }
                }
                let left_start = code[..off]
                    .rfind([',', ';', '(', '{', '[', '&', '|'])
                    .map_or(0, |p| p + 1);
                let right_end = code[off + 2..]
                    .find([',', ';', ')', '{', '}', ']', '&', '|'])
                    .map_or(code.len(), |p| off + 2 + p);
                let left = &code[left_start..off];
                let right = &code[off + 2..right_end];
                if has_float_evidence(left) || has_float_evidence(right) {
                    findings.push((
                        Rule::FloatEq,
                        line_no(i),
                        format!(
                            "floating-point `{op}` comparison: compare against an epsilon \
                             or use exact integer areas"
                        ),
                    ));
                }
            }
        }
    }
}

/// Cast targets the `as-cast` rule flags: all lossy-or-sign-changing
/// integer targets plus the coordinate aliases (whose sources are usually
/// `usize` indices, i.e. sign-changing).
const NARROWING_TARGETS: [&str; 10] = [
    "i8", "i16", "i32", "u8", "u16", "u32", "usize", "isize", "Coord", "Area",
];

fn rule_as_cast(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for off in find_all(code, " as ") {
            let after = &code[off + 4..];
            let ty: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if NARROWING_TARGETS.contains(&ty.as_str()) {
                findings.push((
                    Rule::AsCast,
                    line_no(i),
                    format!(
                        "narrowing `as {ty}` cast: use `pilfill_geom::units` \
                         (index/coord/try_*) so overflow is checked, or justify with \
                         `// pilfill: allow(as-cast)`"
                    ),
                ));
            }
        }
    }
}

fn rule_process_exit(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    if file.path.starts_with("crates/cli/") {
        return;
    }
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        if code.contains("process::exit") {
            findings.push((
                Rule::ProcessExit,
                line_no(i),
                "`std::process::exit` outside crates/cli: return an error (or \
                 `std::process::ExitCode`) so library callers keep control"
                    .to_string(),
            ));
        }
    }
}

/// Type-name suffixes that mark a solver/flow result type.
const MUST_USE_SUFFIXES: [&str; 5] = ["Outcome", "Report", "Solution", "Analysis", "Impact"];

fn rule_must_use(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let trimmed = code.trim_start();
        let Some(name) = ["pub struct ", "pub enum "]
            .iter()
            .find_map(|kw| trimmed.strip_prefix(kw))
        else {
            continue;
        };
        let name: String = name
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !MUST_USE_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        // Walk up over attributes and doc comments looking for #[must_use].
        let mut has = false;
        for j in (0..i).rev() {
            let above = file.raw[j].trim();
            if above.starts_with("#[") || above.starts_with("#![") {
                if above.contains("must_use") {
                    has = true;
                }
                continue;
            }
            if above.starts_with("///") || above.starts_with("//") || above.ends_with(")]") {
                continue;
            }
            break;
        }
        if !has {
            findings.push((
                Rule::MustUse,
                line_no(i),
                format!("result type `{name}` is missing `#[must_use]`"),
            ));
        }
    }
}

fn rule_missing_docs(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    const ITEMS: [&str; 9] = [
        "pub fn ",
        "pub const fn ",
        "pub unsafe fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub const ",
        "pub static ",
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let trimmed = code.trim_start();
        let is_item = ITEMS.iter().any(|kw| trimmed.starts_with(kw))
            || (trimmed.starts_with("pub mod ") && trimmed.contains('{'));
        if !is_item {
            continue;
        }
        // Walk up over attributes; the nearest non-attribute line must be
        // a doc comment.
        let mut documented = false;
        for j in (0..i).rev() {
            let above = file.raw[j].trim();
            if above.starts_with("#[") || above.starts_with("#![") || above.ends_with(")]") {
                continue;
            }
            documented = above.starts_with("///")
                || above.starts_with("/**")
                || above.starts_with("*/")
                || above.ends_with("*/");
            break;
        }
        if !documented {
            let name: String = trimmed
                .split_whitespace()
                .nth(2)
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            findings.push((
                Rule::MissingDocs,
                line_no(i),
                format!("public item `{name}` has no doc comment"),
            ));
        }
    }
}

fn rule_doc_hidden_pub(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    const ATTR: &str = "#[doc(hidden)]";
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let Some(off) = code.find(ATTR) else {
            continue;
        };
        // The attributed item: the rest of this line, or else the next
        // line that is neither blank (comments are blanked) nor another
        // attribute.
        let rest = code[off + ATTR.len()..].trim();
        let item = if rest.is_empty() {
            file.code[i + 1..]
                .iter()
                .map(|l| l.trim())
                .find(|l| !l.is_empty() && !l.starts_with("#["))
                .unwrap_or("")
        } else {
            rest
        };
        if item.starts_with("pub ") {
            findings.push((
                Rule::DocHiddenPub,
                line_no(i),
                "`#[doc(hidden)]` on a `pub` item: make it private, or `#[cfg(test)]` \
                 if only tests use it"
                    .to_string(),
            ));
        }
    }
}

/// `true` when the `unsafe` at `line` index `i` is justified: a `SAFETY:`
/// marker on the same raw line, or in the contiguous run of comment /
/// attribute lines directly above (`// SAFETY:` comments and `/// #
/// Safety` doc sections both count).
fn has_safety_evidence(file: &SourceFile, i: usize) -> bool {
    if file.raw[i].contains("SAFETY:") {
        return true;
    }
    for j in (0..i).rev() {
        let above = file.raw[j].trim();
        if above.starts_with("//") || above.starts_with("#[") || above.starts_with("#![") {
            if above.contains("SAFETY:") || above.contains("# Safety") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

fn rule_unsafe_comment(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let bytes = code.as_bytes();
        for off in find_all(code, "unsafe") {
            let word_start = off == 0 || {
                let b = bytes[off - 1];
                !b.is_ascii_alphanumeric() && b != b'_'
            };
            if !word_start {
                continue;
            }
            // Only blocks and impls carry a local `// SAFETY:` obligation;
            // `unsafe fn` declarations document their contract in a
            // `# Safety` doc section (enforced via the same evidence walk
            // when the block inside them is audited).
            let rest = code[off + "unsafe".len()..].trim_start();
            if !(rest.starts_with('{') || rest.starts_with("impl")) {
                continue;
            }
            if !has_safety_evidence(file, i) {
                findings.push((
                    Rule::UnsafeComment,
                    line_no(i),
                    "`unsafe` without a `// SAFETY:` comment: state the invariant that \
                     makes this sound on the line(s) directly above"
                        .to_string(),
                ));
            }
            // One finding per line is enough.
            break;
        }
    }
}

/// Files allowed to name `SeqCst`: the model checker's ordering
/// classifier must pattern-match every ordering, including `SeqCst`.
const SEQCST_ALLOWED: [&str; 1] = ["crates/check/src/sync.rs"];

/// Extracts the identifier immediately before byte offset `off` (the
/// receiver field of a `.store(`/`.load(` call).
fn ident_before(code: &str, off: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = off;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    code[start..off].to_string()
}

fn rule_atomic_ordering(file: &SourceFile, findings: &mut Vec<(Rule, u32, String)>) {
    let mut relaxed_stores: Vec<(String, usize)> = Vec::new();
    let mut acquiring_loads: Vec<(String, usize)> = Vec::new();
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let bytes = code.as_bytes();
        for off in find_all(code, "SeqCst") {
            let word_start = off == 0 || {
                let b = bytes[off - 1];
                !b.is_ascii_alphanumeric() && b != b'_'
            };
            if word_start && !SEQCST_ALLOWED.contains(&file.path.as_str()) {
                findings.push((
                    Rule::AtomicOrdering,
                    line_no(i),
                    "`SeqCst` outside the allowlist: the pool protocols are specified in \
                     acquire/release terms — justify the full fence or use \
                     `Acquire`/`Release`"
                        .to_string(),
                ));
            }
        }
        // Bound the ordering search to the call's own argument list so
        // several calls sharing a line don't cross-contaminate (ordering
        // names are plain paths, so the first `)` closes the call).
        let args_of = |off: usize| {
            let end = code[off..].find(')').map_or(code.len(), |p| off + p);
            &code[off..end]
        };
        for off in find_all(code, ".store(") {
            if args_of(off).contains("Relaxed") {
                let field = ident_before(code, off);
                if !field.is_empty() {
                    relaxed_stores.push((field, i));
                }
            }
        }
        for off in find_all(code, ".load(") {
            let args = args_of(off);
            if args.contains("Acquire") || args.contains("SeqCst") {
                let field = ident_before(code, off);
                if !field.is_empty() {
                    acquiring_loads.push((field, i));
                }
            }
        }
    }
    for (field, i) in &relaxed_stores {
        if let Some((_, j)) = acquiring_loads.iter().find(|(f, _)| f == field) {
            findings.push((
                Rule::AtomicOrdering,
                line_no(*i),
                format!(
                    "`{field}` is stored with `Relaxed` but loaded with an acquiring \
                     ordering at line {}: the acquire synchronizes with nothing — make \
                     the store `Release` (or both `Relaxed` if no data is published)",
                    line_no(*j)
                ),
            ));
        }
    }
}

/// The workspace layer order. A crate may only depend on crates in a
/// strictly lower layer; edges inside a layer or pointing up are
/// layering violations (they either create cycle risk or invert the
/// prng/geom/diag -> core -> flow architecture documented in DESIGN.md).
const LAYERS: [(&str, u32); 17] = [
    ("pilfill-prng", 0),
    ("pilfill-geom", 0),
    ("pilfill-diag", 0),
    ("pilfill-solver", 0),
    ("pilfill-check", 1),
    ("pilfill-layout", 1),
    ("xtask", 1),
    ("pilfill-exec", 2),
    ("pilfill-rc", 2),
    ("pilfill-density", 2),
    ("pilfill-core", 3),
    ("pilfill-stream", 4),
    ("pilfill-viz", 4),
    ("pilfill-serve", 4),
    ("pilfill-cli", 5),
    ("pilfill-bench", 5),
    ("pil-fill", 5),
];

fn layer_of(name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, tier)| tier)
}

/// One parsed manifest: package name plus its `[dependencies]` edges.
struct Manifest {
    path: String,
    name: String,
    /// `(dep_name, 1-based line, suppressed)`.
    deps: Vec<(String, u32, bool)>,
}

/// Parses the package name and `[dependencies]` entries out of a
/// `Cargo.toml`. Line-oriented: good enough for workspace manifests,
/// which this repo keeps in the canonical `name.workspace = true` form.
fn parse_manifest(path: &str, text: &str) -> Manifest {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.to_string();
            continue;
        }
        if section == "[package]" && name.is_empty() {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    name = rest.trim().trim_matches('"').to_string();
                }
            }
        }
        if section == "[dependencies]" && !line.is_empty() && !line.starts_with('#') {
            let dep: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !dep.is_empty() {
                let suppressed = raw
                    .find('#')
                    .is_some_and(|p| raw[p..].contains("pilfill: allow(layering)"));
                deps.push((dep, line_no(i), suppressed));
            }
        }
    }
    Manifest {
        path: path.to_string(),
        name,
        deps,
    }
}

/// Lints the workspace dependency graph declared by `manifests`
/// (`(repo-relative path, text)` pairs): every edge must point to a
/// strictly lower layer of [`LAYERS`], and the graph must be acyclic.
/// Suppress a deliberate exception with `# pilfill: allow(layering)` on
/// the dependency line.
pub fn lint_manifests(manifests: &[(String, String)]) -> LintReport {
    let parsed: Vec<Manifest> = manifests
        .iter()
        .map(|(path, text)| parse_manifest(path, text))
        .collect();
    let mut report = LintReport {
        files_scanned: parsed.len(),
        ..LintReport::default()
    };

    for m in &parsed {
        let Some(tier) = layer_of(&m.name) else {
            continue;
        };
        for (dep, line, suppressed) in &m.deps {
            let Some(dep_tier) = layer_of(dep) else {
                continue;
            };
            if tier > dep_tier {
                continue;
            }
            if *suppressed {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(Diagnostic::new(
                    Rule::Layering.severity(),
                    Rule::Layering.id(),
                    &m.path,
                    *line,
                    format!(
                        "layering violation: `{}` (layer {tier}) may not depend on \
                         `{dep}` (layer {dep_tier}); dependency edges must point down \
                         the layer order",
                        m.name
                    ),
                ));
            }
        }
    }

    // Cycle detection over the declared edges (covers crates outside the
    // layer table too).
    let index: std::collections::HashMap<&str, usize> = parsed
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.as_str(), i))
        .collect();
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut state = vec![0u8; parsed.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..parsed.len() {
        if state[start] != 0 {
            continue;
        }
        stack.push((start, 0));
        state[start] = 1;
        while let Some(&(node, edge)) = stack.last() {
            if edge >= parsed[node].deps.len() {
                state[node] = 2;
                stack.pop();
                continue;
            }
            if let Some(top) = stack.last_mut() {
                top.1 += 1;
            }
            let dep = parsed[node].deps[edge].0.as_str();
            let Some(&next) = index.get(dep) else {
                continue;
            };
            if state[next] == 1 {
                let mut cycle: Vec<&str> = stack
                    .iter()
                    .map(|&(n, _)| parsed[n].name.as_str())
                    .collect();
                cycle.push(dep);
                report.diagnostics.push(Diagnostic::new(
                    Rule::Layering.severity(),
                    Rule::Layering.id(),
                    &parsed[next].path,
                    1,
                    format!("dependency cycle: {}", cycle.join(" -> ")),
                ));
            } else if state[next] == 0 {
                state[next] = 1;
                stack.push((next, 0));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn unwrap_flagged_only_outside_tests() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["unwrap"]);
        assert_eq!(report.diagnostics[0].line, 1);
    }

    #[test]
    fn expect_and_panic_family_flagged() {
        let src = "fn f() { a.expect(\"x\"); panic!(\"y\"); unreachable!(); todo!(); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(report.diagnostics.len(), 4);
    }

    #[test]
    fn suppression_same_line_and_previous_line() {
        let src = "fn f() { x.unwrap(); } // invariant: x checked above; pilfill: allow(unwrap)\n\
                   // guaranteed non-empty; pilfill: allow(unwrap)\nfn g() { y.unwrap(); }\n\
                   fn h() { z.unwrap(); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(report.suppressed, 2);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].line, 4);
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src =
            "// pilfill: allow-file(unwrap)\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.suppressed, 2);
    }

    #[test]
    fn directive_outside_comment_does_not_suppress() {
        let src = "fn f() { let pilfill_allow = \"pilfill: allow(unwrap)\"; x.unwrap(); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(report.diagnostics.len(), 1);
    }

    #[test]
    fn float_eq_detected_by_literal_or_type_evidence() {
        let src = "fn f() { if x == 0.5 { } if y as f64 != z { } if a == b { } }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(
            rules_fired(&report)
                .iter()
                .filter(|r| **r == "float-eq")
                .count(),
            2
        );
    }

    #[test]
    fn tuple_index_is_not_float_evidence() {
        let src = "fn f() { if cell.0 == other.0 { } }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn narrowing_casts_flagged_widening_ignored() {
        let src = "fn f() { let a = x as usize; let b = y as u32; let c = z as u64; let d = w as f64; }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(
            rules_fired(&report),
            vec!["as-cast", "as-cast"],
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn process_exit_allowed_in_cli_only() {
        let src = "fn f() { std::process::exit(1); }\n";
        assert!(lint_source("crates/cli/src/main.rs", src)
            .diagnostics
            .is_empty());
        assert_eq!(
            rules_fired(&lint_source("crates/core/src/a.rs", src)),
            vec!["process-exit"]
        );
    }

    #[test]
    fn must_use_required_on_result_types() {
        let src = "/// Doc.\npub struct FlowOutcome { }\n/// Doc.\n#[must_use]\npub struct DrcReport { }\n/// Doc.\npub struct Config { }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["must-use"]);
        assert_eq!(report.diagnostics[0].line, 2);
    }

    #[test]
    fn missing_docs_on_undocumented_public_item() {
        let src = "/// Documented.\npub fn ok() {}\n\npub fn bad() {}\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["missing-docs"]);
        assert_eq!(report.diagnostics[0].line, 4);
    }

    #[test]
    fn attributes_between_doc_and_item_are_skipped() {
        let src = "/// Doc.\n#[derive(Debug, Clone)]\n#[must_use]\npub struct DrcReport { }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn doc_hidden_flagged_on_pub_items_only() {
        let src = "#[doc(hidden)]\npub fn a() {}\n#[doc(hidden)]\n/// Docs.\n#[inline]\npub(crate) fn b() {}\n\
                   #[doc(hidden)] pub struct C;\n#[doc(hidden)]\nfn d() {}\n";
        let r = lint_source("crates/core/src/x.rs", src);
        let lines: Vec<u32> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == "doc-hidden-pub")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![1, 7]);
    }

    #[test]
    fn banned_patterns_in_strings_and_comments_ignored() {
        let src = "// calls .unwrap() internally\nfn f() { log(\"don't panic!(now)\"); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn report_severity_counters() {
        let src = "pub fn bad() { x.unwrap(); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1); // missing-docs
    }

    #[test]
    fn unsafe_block_requires_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["unsafe-no-safety-comment"]);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies_unsafe_rule() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads, checked by caller.\n    unsafe { *p }\n}\n// SAFETY: no shared state is touched.\nunsafe impl Send for X {}\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn safety_evidence_walks_over_attributes_and_doc_sections() {
        let src = "// SAFETY: slots are index-partitioned.\n#[allow(clippy::mut_from_ref)]\nunsafe impl<T> Sync for W<T> {}\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unsafe_fn_declaration_is_not_flagged_as_a_block() {
        // The declaration's contract lives in `# Safety` docs; only the
        // block and impl forms need a local SAFETY comment.
        let src =
            "/// Does things.\n/// # Safety\n/// Caller checks i.\npub unsafe fn w(i: usize) {}\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unsafe_rule_suppressible() {
        let src = "// justified elsewhere; pilfill: allow(unsafe-no-safety-comment)\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn relaxed_store_with_acquire_load_is_flagged() {
        let src = "fn f(a: &A) { a.ready.store(1, Ordering::Relaxed); }\nfn g(a: &A) -> usize { a.ready.load(Ordering::Acquire) }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["atomic-ordering"]);
        assert_eq!(report.diagnostics[0].line, 1, "flagged at the store");
    }

    #[test]
    fn consistent_orderings_are_not_flagged() {
        let src = "fn f(a: &A) { a.panicked.store(true, Ordering::Relaxed); let _ = a.panicked.load(Ordering::Relaxed); a.ready.store(1, Ordering::Release); let _ = a.ready.load(Ordering::Acquire); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn seqcst_is_flagged_outside_the_allowlist() {
        let src = "fn f(a: &A) { a.x.store(1, Ordering::SeqCst); }\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules_fired(&report), vec!["atomic-ordering"]);
        let allowed = lint_source("crates/check/src/sync.rs", src);
        assert!(allowed.diagnostics.is_empty(), "{:?}", allowed.diagnostics);
    }

    #[test]
    fn atomic_ordering_suppressible() {
        let src = "// intentional: flag is advisory only; pilfill: allow(atomic-ordering)\nfn f(a: &A) { a.hint.store(1, Ordering::Relaxed); }\nfn g(a: &A) -> usize { a.hint.load(Ordering::Acquire) } // pilfill: allow(atomic-ordering)\n";
        let report = lint_source("crates/core/src/a.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);
    }

    fn manifest(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn layering_violation_fires_on_upward_edge() {
        let bad = manifest(
            "crates/geom/Cargo.toml",
            "[package]\nname = \"pilfill-geom\"\n\n[dependencies]\npilfill-core.workspace = true\n",
        );
        let report = lint_manifests(&[bad]);
        assert_eq!(report.errors(), 1);
        assert!(report.diagnostics[0].message.contains("pilfill-core"));
    }

    #[test]
    fn layering_ok_for_downward_edges() {
        let good = manifest(
            "crates/core/Cargo.toml",
            "[package]\nname = \"pilfill-core\"\n\n[dependencies]\npilfill-geom.workspace = true\npilfill-exec.workspace = true\n",
        );
        let report = lint_manifests(&[good]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn layering_suppressible_per_line() {
        let bad = manifest(
            "crates/geom/Cargo.toml",
            "[package]\nname = \"pilfill-geom\"\n\n[dependencies]\npilfill-core.workspace = true # transitional; pilfill: allow(layering)\n",
        );
        let report = lint_manifests(&[bad]);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn layering_rejects_serve_depending_on_cli() {
        // The service tier sits below the binaries: `pilfill-cli` drives
        // `pilfill-serve`, never the reverse. An inverted edge must fire.
        let bad = manifest(
            "crates/serve/Cargo.toml",
            "[package]\nname = \"pilfill-serve\"\n\n[dependencies]\npilfill-cli.workspace = true\n",
        );
        let report = lint_manifests(&[bad]);
        assert_eq!(report.errors(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("pilfill-cli"));
        // The real direction is fine: cli (5) and bench (5) -> serve (4).
        let good = manifest(
            "crates/cli/Cargo.toml",
            "[package]\nname = \"pilfill-cli\"\n\n[dependencies]\npilfill-serve.workspace = true\n",
        );
        let report = lint_manifests(&[good]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn dependency_cycles_are_reported() {
        let a = manifest(
            "crates/a/Cargo.toml",
            "[package]\nname = \"ext-a\"\n\n[dependencies]\next-b = \"1\"\n",
        );
        let b = manifest(
            "crates/b/Cargo.toml",
            "[package]\nname = \"ext-b\"\n\n[dependencies]\next-a = \"1\"\n",
        );
        let report = lint_manifests(&[a, b]);
        assert_eq!(report.errors(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("cycle"));
    }

    #[test]
    fn dev_dependencies_are_exempt_from_layering() {
        let m = manifest(
            "crates/geom/Cargo.toml",
            "[package]\nname = \"pilfill-geom\"\n\n[dev-dependencies]\npilfill-core.workspace = true\n",
        );
        let report = lint_manifests(&[m]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
