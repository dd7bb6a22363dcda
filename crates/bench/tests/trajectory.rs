//! `BENCH_trajectory.json` is appended to for the life of the repo: an
//! append parses the file, pushes the row and writes it back, and a file
//! it cannot use is left exactly as it was — earlier rows are never lost.

use rfnoc::json::Json;
use rfnoc_bench::artifact::{append_row, trajectory_row, TrajectoryPoint};
use std::path::{Path, PathBuf};

fn row(n: u64) -> Json {
    trajectory_row("g", n, true, &[TrajectoryPoint::new("m", n as f64, 1.0)])
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfnoc_trajectory_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("BENCH_trajectory.json")
}

fn rows_on_disk(path: &Path) -> usize {
    match rfnoc::json::read_file(path).unwrap().get("rows") {
        Some(Json::Arr(rows)) => rows.len(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn first_append_creates_the_file_and_later_ones_keep_every_row() {
    let path = temp_file("create");
    assert!(append_row(&path, "BENCH_trajectory", row(1)).is_some());
    assert!(append_row(&path, "BENCH_trajectory", row(2)).is_some());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\n  \"name\": \"BENCH_trajectory\",\n  \"rows\": [\n    {\"git\""));
    assert!(text.ends_with("}]}\n  ]\n}\n"), "one row per line: {text}");
    assert_eq!(rows_on_disk(&path), 2);

    // An editor's trailing blank line or a CRLF checkout must not
    // cost the earlier rows.
    std::fs::write(&path, text.replace('\n', "\r\n") + "\r\n\r\n").unwrap();
    assert!(append_row(&path, "BENCH_trajectory", row(3)).is_some());
    assert_eq!(rows_on_disk(&path), 3);
}

#[test]
fn unusable_trajectory_file_is_left_untouched() {
    let path = temp_file("corrupt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    for corrupt in ["{\"name\": \"BENCH_trajectory\", \"rows\": [", "[1, 2]", "{\"rows\": 3}"] {
        std::fs::write(&path, corrupt).unwrap();
        assert!(append_row(&path, "BENCH_trajectory", row(1)).is_none(), "{corrupt}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), corrupt);
    }
    std::fs::write(&path, [0xff, 0xfe]).unwrap();
    assert!(append_row(&path, "BENCH_trajectory", row(1)).is_none(), "not UTF-8");
    assert_eq!(std::fs::read(&path).unwrap(), [0xff, 0xfe]);
}
