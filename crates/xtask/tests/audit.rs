//! Integration tests for the pilfill-audit linter: the repo itself must be
//! clean, and a fixture seeded with one violation per rule must fail.

use xtask::rules::{lint_manifests, lint_source};
use xtask::{lint_repo, render_json};

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn repository_is_lint_clean() {
    let report = lint_repo(&repo_root()).expect("lint run");
    assert!(report.files_scanned > 50, "expected a full workspace scan");
    let messages: Vec<String> = report.diagnostics.iter().map(|d| d.render_text()).collect();
    assert_eq!(report.errors(), 0, "lint errors:\n{}", messages.join("\n"));
    assert_eq!(
        report.warnings(),
        0,
        "lint warnings:\n{}",
        messages.join("\n")
    );
    // The burn-down documented real suppressions; the count must be nonzero
    // (a zero here means suppression parsing silently broke).
    assert!(report.suppressed > 0);
}

/// One seeded violation per rule; the linter must catch every one.
const SEEDED: &str = r#"
pub struct FlowOutcome {
    pub total: f64,
}

pub fn bad(values: &[f64], n: i64) -> u32 {
    let first = values.first().unwrap();
    if *first == 0.5 {
        std::process::exit(2);
    }
    n as u32
}
"#;

#[test]
fn seeded_violations_all_fire() {
    let report = lint_source("crates/core/src/seeded.rs", SEEDED);
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    for rule in [
        "unwrap",
        "float-eq",
        "as-cast",
        "process-exit",
        "must-use",
        "missing-docs",
    ] {
        assert!(
            rules.contains(&rule),
            "rule `{rule}` did not fire on the fixture; fired: {rules:?}"
        );
    }
    assert!(report.errors() > 0);
}

#[test]
fn seeded_violation_in_cli_may_exit() {
    // `process-exit` is scoped: the CLI binary is the one place a process
    // exit belongs.
    let report = lint_source("crates/cli/src/main.rs", SEEDED);
    assert!(
        !report.diagnostics.iter().any(|d| d.rule == "process-exit"),
        "process-exit must not fire under crates/cli"
    );
}

#[test]
fn suppressions_silence_and_count() {
    let src = "\
//! Docs.

/// Docs.
pub fn f(n: i64) -> u32 {
    n as u32 // pilfill: allow(as-cast)
}
";
    let report = lint_source("crates/core/src/s.rs", src);
    assert_eq!(report.errors(), 0, "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

/// Concurrency-rule fixtures: one failing and one suppressed snippet per
/// new rule, exercised through the public `lint_source` entry point.
#[test]
fn unsafe_without_safety_comment_fails_and_suppresses() {
    let failing = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let report = lint_source("crates/core/src/u.rs", failing);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "unsafe-no-safety-comment"),
        "{:?}",
        report.diagnostics
    );

    let suppressed = "// audited in review; pilfill: allow(unsafe-no-safety-comment)\n\
                      fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let report = lint_source("crates/core/src/u.rs", suppressed);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn atomic_ordering_mismatch_fails_and_suppresses() {
    let failing = "fn f(a: &A) { a.gate.store(1, Ordering::Relaxed); }\n\
                   fn g(a: &A) -> usize { a.gate.load(Ordering::Acquire) }\n";
    let report = lint_source("crates/core/src/o.rs", failing);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "atomic-ordering"),
        "{:?}",
        report.diagnostics
    );

    let suppressed = "// flag is advisory, no data published; pilfill: allow(atomic-ordering)\n\
                      fn f(a: &A) { a.gate.store(1, Ordering::Relaxed); }\n\
                      fn g(a: &A) -> usize { a.gate.load(Ordering::Acquire) } // pilfill: allow(atomic-ordering)\n";
    let report = lint_source("crates/core/src/o.rs", suppressed);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn doc_hidden_pub_fails_and_suppresses() {
    let failing = "/// Test hook.\n#[doc(hidden)]\npub fn run_forced() {}\n";
    let report = lint_source("crates/core/src/h.rs", failing);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "doc-hidden-pub"),
        "{:?}",
        report.diagnostics
    );

    let suppressed = "/// Macro support: generated code calls it by path.\n\
                      #[doc(hidden)] // not API; pilfill: allow(doc-hidden-pub)\n\
                      pub fn support() {}\n";
    let report = lint_source("crates/core/src/h.rs", suppressed);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn layering_inversion_fails_and_suppresses() {
    let failing = (
        "crates/geom/Cargo.toml".to_string(),
        "[package]\nname = \"pilfill-geom\"\n\n[dependencies]\npilfill-core.workspace = true\n"
            .to_string(),
    );
    let report = lint_manifests(std::slice::from_ref(&failing));
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "layering"),
        "{:?}",
        report.diagnostics
    );

    let suppressed = (
        "crates/geom/Cargo.toml".to_string(),
        "[package]\nname = \"pilfill-geom\"\n\n[dependencies]\npilfill-core.workspace = true # transitional shim; pilfill: allow(layering)\n"
            .to_string(),
    );
    let report = lint_manifests(&[suppressed]);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn workspace_manifest_graph_is_clean() {
    // The layering rule runs on the real workspace as part of lint_repo;
    // this asserts the current crate DAG respects the layer order.
    let report = lint_repo(&repo_root()).expect("lint run");
    assert!(
        !report.diagnostics.iter().any(|d| d.rule == "layering"),
        "layering violations: {:?}",
        report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "layering")
            .collect::<Vec<_>>()
    );
}

#[test]
fn json_report_carries_diagnostics() {
    let report = lint_source("crates/core/src/seeded.rs", SEEDED);
    let json = render_json(&report);
    assert!(json.contains("\"tool\":\"pilfill-audit\""));
    assert!(json.contains("\"rule\":\"unwrap\""));
    assert!(json.contains("crates/core/src/seeded.rs"));
}
