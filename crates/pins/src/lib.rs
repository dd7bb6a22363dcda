//! The workspace's one pin harness. A pin is a value a test must reproduce
//! bit for bit: a statistics fingerprint, a stream hash, a shortcut list.
//! Pins live in `tests/pins/<suite>.txt` of the crate whose tests read them.
//!
//! A keyed pin file ([`Pins`]) holds one `key = value` line a pin; a hash
//! is written as `0x` and 16 hex digits ([`hex`]). A key's *section* is the
//! text before its first `.`, and a check reads whole sections: a key of a
//! section it reads that it does not produce is reported, as is a key it
//! produces that the file lacks. A suite names its sections when it loads
//! its file, and a key in any other section fails the load, so no pin goes
//! unread. A pin document ([`check_document`]) is compared line by line.
//!
//! `PIN_BLESS=1` makes every check write what it produced in place of
//! comparing it: only for an intended change. `GOLDEN_THREADS` ([`threads`])
//! narrows the engine thread sweeps.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A pin file's `(key, value)` lines, in file order.
type Lines = Vec<(String, String)>;

/// Serialises rewrites: the tests of one binary share its pin files.
static REWRITE: Mutex<()> = Mutex::new(());

fn blessing() -> bool {
    std::env::var_os("PIN_BLESS").is_some()
}

/// `h` as a pin value: `0x` and 16 hex digits.
pub fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// The engine thread counts a sweep runs at: `GOLDEN_THREADS`, a
/// comma-separated list, or else `default`.
pub fn threads(default: &[usize]) -> Vec<usize> {
    let Ok(list) = std::env::var("GOLDEN_THREADS") else { return default.to_vec() };
    let parse = |t: &str| t.trim().parse().expect("GOLDEN_THREADS is a comma-separated list");
    list.split(',').map(parse).collect()
}

fn pin_path(dir: &str, name: &str) -> PathBuf {
    Path::new(dir).join("tests/pins").join(format!("{name}.txt"))
}

fn section(key: &str) -> &str {
    key.split_once('.').map_or(key, |(section, _)| section)
}

fn parse(path: &Path, text: &str) -> Lines {
    let entry = |line: &str| match line.split_once(" = ") {
        Some((key, value)) => (key.to_string(), value.to_string()),
        None => panic!("{}: {line:?} is not `key = value`", path.display()),
    };
    text.lines().map(entry).collect()
}

fn write(path: &Path, text: &str) {
    fs::create_dir_all(path.parent().expect("a pin file lies in a directory"))
        .and_then(|()| fs::write(path, text))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

fn fail_on(path: &Path, diffs: &[String]) {
    assert!(
        diffs.is_empty(),
        "{}: {} pin(s) differ:\n  {}\nRe-bless with PIN_BLESS=1 only for an intended change.",
        path.display(),
        diffs.len(),
        diffs.join("\n  ")
    );
}

/// The pins of one keyed pin file.
pub struct Pins {
    path: PathBuf,
    sections: Vec<String>,
    pinned: Lines,
    bless: bool,
}

impl Pins {
    /// Loads `<dir>/tests/pins/<suite>.txt`, `dir` being the calling
    /// crate's `CARGO_MANIFEST_DIR`. Outside a bless run, a key pinned twice
    /// or in a section not in `sections` panics.
    pub fn load(dir: &str, suite: &str, sections: &[&str]) -> Pins {
        Self::open(pin_path(dir, suite), sections, blessing())
    }

    fn open(path: PathBuf, sections: &[&str], bless: bool) -> Pins {
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) if bless => String::new(),
            Err(e) => panic!("{}: {e}", path.display()),
        };
        let sections = sections.iter().map(|s| s.to_string()).collect();
        let pins = Pins { pinned: parse(&path, &text), path, sections, bless };
        let mut diffs = Vec::new();
        for (i, (key, _)) in pins.pinned.iter().enumerate() {
            if pins.pinned[..i].iter().any(|(k, _)| k == key) {
                diffs.push(format!("{key}: pinned twice"));
            } else if !pins.declares(key) {
                diffs.push(format!("{key}: no test reads it"));
            }
        }
        if !bless {
            fail_on(&pins.path, &diffs);
        }
        pins
    }

    fn declares(&self, key: &str) -> bool {
        self.sections.iter().any(|s| s == section(key))
    }

    /// Every difference between `got` and the file over the sections `got`
    /// reads. A bless run writes `got` to the file instead.
    fn compare(&self, got: &[(String, String)]) -> Vec<String> {
        if self.bless {
            self.rewrite(got);
            return Vec::new();
        }
        let mut diffs = Vec::new();
        for (key, value) in got {
            match self.pinned.iter().find(|(k, _)| k == key) {
                None => diffs.push(format!("{key}: not pinned (got {value})")),
                Some((_, want)) if want != value => {
                    diffs.push(format!("{key}: pinned {want}, got {value}"));
                }
                Some(_) => {}
            }
        }
        for (key, _) in self.pinned.iter().filter(|(k, _)| reads(got, k)) {
            if !got.iter().any(|(k, _)| k == key) {
                diffs.push(format!("{key}: pinned, but its test does not produce it"));
            }
        }
        diffs
    }

    /// Compares `got` with the file over the sections `got` reads, and
    /// panics with every difference. A bless run writes `got` to the file
    /// instead.
    pub fn check(&self, got: &[(String, String)]) {
        fail_on(&self.path, &self.compare(got));
    }

    /// [`Pins::check`] of `got(t)` at every engine thread count `t` in
    /// `threads`, against the same pins, every difference reported at once.
    pub fn check_threads(&self, threads: &[usize], got: impl Fn(usize) -> Vec<(String, String)>) {
        let at = |t| self.compare(&got(t)).into_iter().map(move |d| format!("{d} (threads={t})"));
        fail_on(&self.path, &threads.iter().flat_map(|&t| at(t)).collect::<Vec<_>>());
    }

    /// Writes `got` over the file as it is now: in the sections `got` reads
    /// only `got`'s keys stay, new keys go at the end, and keys of sections
    /// the suite does not name are dropped.
    fn rewrite(&self, got: &[(String, String)]) {
        let _guard = REWRITE.lock().expect("a test panicked while rewriting a pin file");
        let mut pins = parse(&self.path, &fs::read_to_string(&self.path).unwrap_or_default());
        let kept = |k: &str| !reads(got, k) || got.iter().any(|(g, _)| g == k);
        pins.retain(|(k, _)| self.declares(k) && kept(k));
        for (key, value) in got {
            match pins.iter_mut().find(|(k, _)| k == key) {
                Some(pin) => pin.1.clone_from(value),
                None => pins.push((key.clone(), value.clone())),
            }
        }
        write(&self.path, &pins.iter().map(|(k, v)| format!("{k} = {v}\n")).collect::<String>());
    }
}

fn reads(got: &[(String, String)], key: &str) -> bool {
    got.iter().any(|(k, _)| section(k) == section(key))
}

/// [`Pins::check`] of `got` by the one test that reads every section of
/// `<dir>/tests/pins/<suite>.txt`.
pub fn check_file(dir: &str, suite: &str, got: &[(String, String)]) {
    let sections: Vec<&str> = got.iter().map(|(k, _)| section(k)).collect();
    Pins::load(dir, suite, &sections).check(got);
}

/// Compares `got` with the pin document `<dir>/tests/pins/<name>.txt` line
/// by line, panicking with every differing line. A bless run writes `got`
/// in its place.
pub fn check_document(dir: &str, name: &str, got: &str) {
    let path = pin_path(dir, name);
    if blessing() {
        return write(&path, got);
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut diffs: Vec<String> = (want.lines().zip(got.lines()).enumerate())
        .filter(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| format!("line {}: pinned {w:?}, got {g:?}", i + 1))
        .collect();
    let (pinned, produced) = (want.lines().count(), got.lines().count());
    if pinned != produced {
        diffs.push(format!("{pinned} lines pinned, {produced} produced"));
    }
    fail_on(&path, &diffs);
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "a = 0x0000000000000001\nb.x = 1 2\nb.y = [(0, 1)]\n";

    fn lines(pairs: &[(&str, &str)]) -> Lines {
        pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// `test` on a pin file of its own in the temporary directory, holding
    /// [`FILE`], and the file's text after it.
    fn on_file<T>(name: &str, test: impl FnOnce(&Path) -> T) -> (T, String) {
        let path = std::env::temp_dir().join(format!("rfnoc-pins-{}-{name}", std::process::id()));
        write(&path, FILE);
        let out = test(&path);
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(path).unwrap();
        (out, text)
    }

    /// What a check reading sections `a` and `b` reports for `got`.
    fn diffs(name: &str, got: &[(&str, &str)]) -> Vec<String> {
        on_file(name, |path| Pins::open(path.into(), &["a", "b"], false).compare(&lines(got))).0
    }

    /// The file after a bless run of checks that produce `got`.
    fn blessed(name: &str, got: &[&[(&str, &str)]]) -> String {
        let bless = |path: &Path, g: &[(&str, &str)]| {
            assert!(Pins::open(path.into(), &["a", "b"], true).compare(&lines(g)).is_empty());
        };
        on_file(name, |path| got.iter().for_each(|g| bless(path, g))).1
    }

    #[test]
    fn a_stray_key_is_reported() {
        assert!(diffs("equal", &[("b.x", "1 2"), ("b.y", "[(0, 1)]")]).is_empty());
        let stray = diffs("stray", &[("b.x", "1 2")]);
        assert_eq!(stray, ["b.y: pinned, but its test does not produce it"]);
        let open = |p: &Path| std::panic::catch_unwind(|| Pins::open(p.into(), &["b"], false));
        let load = on_file("unread", open).0.err().expect("a key no test reads fails the load");
        let message = load.downcast::<String>().unwrap();
        assert!(message.contains("a: no test reads it"), "{message}");
    }

    #[test]
    fn a_missing_key_is_reported() {
        let diffs = diffs("missing", &[("a", "0x0000000000000001"), ("a.per_node", "0x2")]);
        assert_eq!(diffs, ["a.per_node: not pinned (got 0x2)"]);
    }

    #[test]
    fn a_changed_value_is_reported() {
        let diffs = diffs("changed", &[("b.x", "1 3"), ("b.y", "[(0, 1)]")]);
        assert_eq!(diffs, ["b.x: pinned 1 2, got 1 3"]);
    }

    #[test]
    fn blessing_unchanged_values_rewrites_the_file_byte_for_byte() {
        let unchanged: [&[(&str, &str)]; 2] =
            [&[("b.y", "[(0, 1)]"), ("b.x", "1 2")], &[("a", "0x0000000000000001")]];
        assert_eq!(blessed("bless", &unchanged), FILE);
        // A key its section's check lacks goes; a new key goes at the end.
        let added = blessed("rebless", &[&[("b.x", "1 2"), ("b.z", "3")]]);
        assert_eq!(added, "a = 0x0000000000000001\nb.x = 1 2\nb.z = 3\n");
    }
}
