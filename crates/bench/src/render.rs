//! Text and CSV rendering of experiment rows in the paper's table format.

use crate::experiments::ExperimentRow;
use std::fmt::Write as _;
use std::path::Path;

/// Renders rows as an aligned text table mirroring the paper's Tables 1/2.
///
/// `weighted` selects which delay metric fills the tau columns; delays are
/// printed in femtoseconds (the synthetic testbed is macro-block scale, so
/// absolute magnitudes are smaller than the paper's — see EXPERIMENTS.md).
pub fn render_rows(rows: &[ExperimentRow], weighted: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} | {:>9} | {:>9} {:>7} | {:>9} {:>7} | {:>9} {:>7}",
        "T/W/r", "budget", "Normal", "ILP-I", "CPU", "ILP-II", "CPU", "Greedy", "CPU"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    for row in rows {
        let tau = |i: usize| -> f64 {
            let m = &row.methods[i];
            let t = if weighted {
                m.weighted_delay
            } else {
                m.total_delay
            };
            t * 1e15 // seconds -> fs
        };
        let cpu = |i: usize| row.methods[i].cpu.as_secs_f64() * 1e3; // ms
        let _ = writeln!(
            out,
            "{:<10} {:>10} | {:>9.2} | {:>9.2} {:>5.2}ms | {:>9.2} {:>5.2}ms | {:>9.2} {:>5.2}ms",
            format!("{}/{}/{}", row.testcase, row.window_label, row.r),
            row.budget,
            tau(0),
            tau(1),
            cpu(1),
            tau(2),
            cpu(2),
            tau(3),
            cpu(3),
        );
    }
    out
}

/// Header of the Tables 1/2 CSVs.
const CSV_HEADER: &str =
    "testcase,window,r,budget,method,total_delay_s,weighted_delay_s,cpu_s,placed,shortfall,min_density_after";

/// Column of `cpu_s`, the one CSV column that varies run to run.
const CPU_COLUMN: usize = 7;

/// Renders rows as CSV text (one line per method per grid cell).
fn csv_text(rows: &[ExperimentRow]) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for row in rows {
        for m in &row.methods {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6e},{:.6e},{:.6},{},{},{:.6}",
                row.testcase,
                row.window_label,
                row.r,
                row.budget,
                m.method,
                m.total_delay,
                m.weighted_delay,
                m.cpu.as_secs_f64(),
                m.placed,
                m.shortfall,
                m.min_density_after,
            );
        }
    }
    out
}

/// Writes rows as CSV (one line per method per grid cell).
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_csv(rows: &[ExperimentRow], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv_text(rows))
}

/// Lines of `rows`' CSV that differ from the line with the same testcase,
/// window, r and method in `committed` (a CSV written by [`write_csv`]) in
/// any column but `cpu_s`, or that have no such line. Each entry names the
/// row and shows both versions. Empty when every row matches.
fn csv_drift(rows: &[ExperimentRow], committed: &str) -> Vec<String> {
    let key =
        |fields: &[&str]| -> String { fields.get(..5).map(|k| k.join(",")).unwrap_or_default() };
    let without_cpu = |fields: &[&str]| -> Vec<String> {
        fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != CPU_COLUMN)
            .map(|(_, f)| (*f).to_string())
            .collect()
    };
    let committed: Vec<Vec<&str>> = committed
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let mut drift = Vec::new();
    for line in csv_text(rows).lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        match committed.iter().find(|c| key(c) == key(&fields)) {
            Some(c) if without_cpu(c) == without_cpu(&fields) => {}
            Some(c) => drift.push(format!("committed {}\n      now {line}", c.join(","))),
            None => drift.push(format!("no committed row for {line}")),
        }
    }
    drift
}

/// The `--smoke` verdicts of Table 1 (`weighted == false`) or Table 2:
/// one message per row where ILP-II's delay exceeds Normal's, and one per
/// CSV line that differs from the committed full-grid CSV text
/// `committed` in any column but `cpu_s`. Empty when the smoke run
/// passes.
pub fn smoke_failures(rows: &[ExperimentRow], weighted: bool, committed: &str) -> Vec<String> {
    let mut failures = Vec::new();
    // Methods run in table order: Normal, ILP-I, ILP-II, Greedy.
    for row in rows {
        let delay = |i: usize| {
            let m = &row.methods[i];
            if weighted {
                m.weighted_delay
            } else {
                m.total_delay
            }
        };
        let (normal, ilp2) = (delay(0), delay(2));
        if ilp2 > normal {
            failures.push(format!(
                "{}/{}/{}: ILP-II delay {ilp2:.3e} s exceeds Normal {normal:.3e} s",
                row.testcase, row.window_label, row.r
            ));
        }
    }
    failures.extend(
        csv_drift(rows, committed)
            .into_iter()
            .map(|d| format!("differs from the committed table:\n    {d}")),
    );
    failures
}

/// Percentage reduction of `value` relative to `baseline` (positive =
/// better than baseline).
pub fn reduction_pct(baseline: f64, value: f64) -> f64 {
    // Exact-zero guard against division by zero; any nonzero baseline,
    // however small, is meaningful. pilfill: allow(float-eq)
    if baseline == 0.0 {
        return 0.0;
    }
    100.0 * (baseline - value) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::MethodResult;
    use std::time::Duration;

    fn row() -> ExperimentRow {
        let m = |name: &'static str, t: f64| MethodResult {
            method: name,
            total_delay: t,
            weighted_delay: t * 3.0,
            cpu: Duration::from_millis(250),
            placed: 100,
            shortfall: 0,
            min_density_after: 0.3,
        };
        ExperimentRow {
            testcase: "T1".into(),
            window_label: 32,
            r: 2,
            budget: 100,
            methods: vec![
                m("Normal", 1e-10),
                m("ILP-I", 8e-11),
                m("ILP-II", 2e-11),
                m("Greedy", 7e-11),
            ],
        }
    }

    #[test]
    fn text_table_contains_row_and_header() {
        let s = render_rows(&[row()], false);
        assert!(s.contains("T1/32/2"));
        assert!(s.contains("Normal"));
        assert!(s.contains("100000.00")); // 1e-10 s = 100000 fs
    }

    #[test]
    fn weighted_rendering_uses_weighted_metric() {
        let s = render_rows(&[row()], true);
        assert!(s.contains("300000.00"));
    }

    #[test]
    fn csv_round_trips_line_count() {
        let dir = std::env::temp_dir().join("pilfill-bench-test");
        let path = dir.join("t.csv");
        write_csv(&[row()], &path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1 + 4);
        assert!(text.starts_with("testcase,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_drift_ignores_cpu_only() {
        let committed = csv_text(&[row()]);
        assert!(csv_drift(&[row()], &committed).is_empty());
        let mut slower = row();
        slower.methods[2].cpu = Duration::from_secs(9);
        assert!(csv_drift(&[slower], &committed).is_empty());
        let mut drifted = row();
        drifted.methods[2].total_delay *= 1.01;
        let drift = csv_drift(&[drifted], &committed);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("ILP-II"), "{drift:?}");
        let mut other_cell = row();
        other_cell.r = 4;
        assert_eq!(csv_drift(&[other_cell], &committed).len(), 4);
    }

    #[test]
    fn reduction_pct_basics() {
        assert_eq!(reduction_pct(100.0, 10.0), 90.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(reduction_pct(50.0, 75.0) < 0.0);
    }
}
