//! Regenerates the paper suite: the whole of it as one merged parallel
//! plan followed by the tables, or the figures and tables named on the
//! command line one by one.
//!
//! ```text
//! cargo run --release -p rfnoc-bench --bin run_all -- --jobs $(nproc)
//! cargo run --release -p rfnoc-bench --bin run_all -- fig7 mesh_scaling --quick
//! cargo run --release -p rfnoc-bench --bin run_all -- fig2_shortcut_maps table2_area
//! ```
//!
//! Arguments:
//! - `<name>...`: run exactly these figures, each as its own plan with its
//!   own `results/json/<name>.json`, and these tables, each printing its
//!   `results/<name>.txt` (unknown name: both registries on stderr,
//!   exit 2); without names, the merged suite below
//! - `--jobs N` / `-j N`: worker threads (default: available parallelism)
//! - `--filter S`: only figures and tables whose name contains `S` (repeatable)
//! - `--quick`: shortened windows and trace sets (smoke test, not paper numbers)
//! - `--all`: also include probe figures that are off by default (`tune_load`)
//! - `--quiet`: suppress per-point progress lines
//!
//! Without names, all figures' plans are merged and deduplicated (shared
//! baselines run once), then executed as a single work pool; each figure's
//! tables, CSVs,
//! and `results/json/<name>.json` artifact are rendered from the shared
//! results, plus a combined `results/json/run_all.json`. The tables run
//! after it.

fn main() {
    rfnoc_bench::suite::run_all_main();
}
