//! Running the harness's binaries from its integration tests: each run in
//! a scratch directory of its own, where the `results/` it writes lands.

use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty directory `name` under the system's temporary directory
/// (emptied if an earlier run left it behind).
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfnoc_bench_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary `exe` (a `CARGO_BIN_EXE_*` path) with `args` in `dir`:
/// exit code, stdout and stderr.
pub fn spawn(exe: &str, dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(exe).args(args).current_dir(dir).output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code().expect("exited"), text(&out.stdout), text(&out.stderr))
}
