//! Shared helpers for the paper-reproduction benchmark harness.
//!
//! The `run_all` binary regenerates every table and figure of the paper,
//! by name or all at once (see `DESIGN.md`'s experiment index), over the
//! sweep harness: [`plan`] declares cross-product sweeps, [`runner`]
//! executes them across worker threads, [`artifact`] writes structured
//! JSON/CSV results, and [`suite`] registers every figure's plan builder
//! and table formatter, and every result that is not a sweep (the Figure
//! 2 maps, Figure 5, Table 2 and three ablations) beside them. The other
//! binaries in `src/bin/` are telemetry, profiling and trace tools. This
//! root module holds the remaining common plumbing (tables, CSV,
//! geometric means).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod ledger;
pub mod perfetto;
mod phased;
pub mod plan;
pub mod profile;
pub mod runner;
pub mod scenarios;
pub mod suite;
pub mod svg;
mod tables;
pub mod telemetry;

use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
use rfnoc_power::LinkWidth;
use rfnoc_traffic::TraceKind;

/// Builds the standard experiment for an architecture/width/workload
/// triple with paper-default parameters.
pub fn experiment(arch: Architecture, width: LinkWidth, workload: WorkloadSpec) -> Experiment {
    Experiment::new(SystemConfig::new(arch, width), workload)
}

/// The multicast-augmented workload used by the Figure 9/10b experiments.
pub fn multicast_workload(base: TraceKind, locality: f64) -> WorkloadSpec {
    WorkloadSpec::TraceWithMulticast { base, locality, rate_per_cache: 0.001 }
}

/// Formats a normalised `(latency, power)` pair.
pub fn fmt_norm(pair: (f64, f64)) -> String {
    format!("{:.2}x lat  {:.2}x pow", pair.0, pair.1)
}

/// Geometric-mean helper for averaging normalised results across traces
/// (ratios should be averaged geometrically). Returns `None` on an empty
/// slice or any non-positive value, where the mean is undefined.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Prints a Markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 0.5]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn fmt_norm_renders() {
        assert_eq!(fmt_norm((0.991, 0.352)), "0.99x lat  0.35x pow");
    }
}

/// Writes rows as CSV next to the Markdown output (for plotting).
///
/// Cells containing commas or quotes are quoted per RFC 4180.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(
    path: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let escape = |cell: &str| {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(file, "{}", headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","))?;
    for row in rows {
        writeln!(
            file,
            "{}",
            row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod csv_tests {
    #[test]
    fn csv_roundtrip_escaping() {
        let dir = std::env::temp_dir().join("rfnoc_csv_test");
        let path = dir.join("t.csv");
        let path_str = path.to_str().unwrap();
        super::write_csv(
            path_str,
            &["a", "b"],
            &[vec!["plain".into(), "with,comma".into()], vec!["q\"uote".into(), "x".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(path_str).unwrap();
        assert_eq!(text, "a,b\nplain,\"with,comma\"\n\"q\"\"uote\",x\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
