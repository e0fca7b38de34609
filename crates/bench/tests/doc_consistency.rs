//! Documentation drift guard: the `--bin` names the docs tell readers to
//! run, the experiment-module wiring, and the section headers `repro_all`
//! maintains in EXPERIMENTS.md must all match what's actually in the
//! tree. These rotted silently before (a renamed fig bin left stale
//! commands in DESIGN.md), so CI checks them. The same goes for the
//! public modules themselves: each must be reached by code that runs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wiforce_bench::experiments::repo_root;

/// Every `--bin <name>` token in the text.
fn bin_references(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, _) in text.match_indices("--bin") {
        let rest = text[i + "--bin".len()..].trim_start_matches([' ', '`']);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if !name.is_empty() {
            out.insert(name);
        }
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Stems of the `.rs` files directly inside `dir`.
fn rs_stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect()
}

#[test]
fn documented_bins_exist() {
    let root = repo_root();
    let mut available = rs_stems(&root.join("crates/bench/src/bin"));
    // the workspace-level CLI is also referenced with --bin
    available.insert("wiforce-cli".into());

    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = read(&root.join(doc));
        for name in bin_references(&text) {
            assert!(
                available.contains(&name),
                "{doc} tells readers to run `--bin {name}`, but no such binary exists \
                 (available: {available:?})"
            );
        }
    }
}

/// Every `wiforce-cli -- <subcommand>` the docs tell readers to run must
/// be a real match arm in the CLI's dispatcher (and vice versa: every
/// dispatched subcommand must be mentioned in the CLI's usage string).
#[test]
fn documented_cli_subcommands_exist() {
    let root = repo_root();
    let cli = read(&root.join("src/bin/wiforce-cli.rs"));

    // match arms of the form `"press" => cmd_press(...)`
    let mut dispatched = BTreeSet::new();
    for line in cli.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix('"') {
            if let Some(end) = rest.find('"') {
                if rest[end..].contains("=> cmd_") {
                    dispatched.insert(rest[..end].to_string());
                }
            }
        }
    }
    assert!(
        dispatched.len() >= 8,
        "expected the full subcommand set, found {dispatched:?}"
    );

    for doc in ["DESIGN.md", "README.md"] {
        let text = read(&root.join(doc));
        for (i, _) in text.match_indices("wiforce-cli -- ") {
            let rest = &text[i + "wiforce-cli -- ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            assert!(
                dispatched.contains(&name),
                "{doc} tells readers to run `wiforce-cli -- {name}`, but the CLI \
                 only dispatches {dispatched:?}"
            );
        }
    }

    // the usage string must advertise every dispatched subcommand
    for cmd in &dispatched {
        assert!(
            cli.contains(&format!("{cmd} ")) || cli.contains(&format!("|{cmd}")),
            "CLI usage text does not mention subcommand '{cmd}'"
        );
    }
}

/// The CI workflow must regenerate the benchmark against the committed
/// baseline — a renamed artifact or a dropped `--baseline` flag would
/// silently disable the perf-regression gate.
#[test]
fn ci_wires_the_perf_regression_gate() {
    let root = repo_root();
    let ci = read(&root.join(".github/workflows/ci.yml"));
    for needle in [
        "bench_json",
        "check_artifacts",
        "--baseline BENCH_baseline.json",
        "cp BENCH_pipeline.json BENCH_baseline.json",
    ] {
        assert!(ci.contains(needle), "ci.yml lost '{needle}'");
    }
    // the baseline snapshot must happen before the bench regenerates
    let snap = ci.find("cp BENCH_pipeline.json").expect("snapshot step");
    let bench = ci.find("--bin bench_json").expect("bench step");
    assert!(
        snap < bench,
        "ci.yml snapshots the baseline after regenerating it — gate compares \
         fresh against fresh"
    );
}

#[test]
fn experiment_modules_match_files() {
    let root = repo_root();
    let dir = root.join("crates/bench/src/experiments");
    let mod_rs = read(&dir.join("mod.rs"));
    let declared: BTreeSet<String> = mod_rs
        .lines()
        .filter_map(|l| {
            l.trim()
                .strip_prefix("pub mod ")
                .and_then(|r| r.strip_suffix(';'))
                .map(String::from)
        })
        .collect();
    let mut files = rs_stems(&dir);
    files.remove("mod");

    assert_eq!(
        declared, files,
        "experiments/mod.rs declarations and experiments/*.rs files diverge"
    );
}

#[test]
fn repro_all_sections_match_experiments_md() {
    let root = repo_root();
    let repro = read(&root.join("crates/bench/src/bin/repro_all.rs"));
    // every double-quoted literal in repro_all.rs (titles are plain
    // strings with no escapes)
    let mut literals = BTreeSet::new();
    let mut rest = repro.as_str();
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        literals.insert(&tail[..end]);
        rest = &tail[end + 1..];
    }

    let experiments = read(&root.join("EXPERIMENTS.md"));
    let headers: Vec<&str> = experiments
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(str::trim)
        .collect();
    assert!(!headers.is_empty(), "EXPERIMENTS.md has no sections");

    for header in &headers {
        assert!(
            literals.contains(header),
            "EXPERIMENTS.md section '{header}' is not written by repro_all — \
             stale section or renamed title"
        );
    }
    // and every experiment repro_all writes has a section in the file
    for title in literals {
        let looks_like_title = title.starts_with("Fig. ")
            || title.starts_with("Table ")
            || title.starts_with('§')
            || title == "Ablations"
            || title.starts_with("Extension");
        if looks_like_title {
            assert!(
                headers.contains(&title),
                "repro_all writes section '{title}' but EXPERIMENTS.md lacks it — \
                 run `cargo run -p wiforce-bench --bin repro_all`"
            );
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
    {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The non-test code of a source file: comments dropped, and everything
/// from the first `#[cfg(test)]` module on cut off. In a crate root the
/// `pub use` re-exports are dropped too; they name a module without
/// reaching it.
fn non_test_code(text: &str, crate_root: bool) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    let mut in_reexport = false;
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        let opens_test_module = t.starts_with("#[cfg(test)]")
            && lines[i + 1..]
                .iter()
                .map(|l| l.trim())
                .find(|l| !l.starts_with("#["))
                .is_some_and(|l| l.starts_with("mod ") && l.ends_with('{'));
        if opens_test_module {
            break;
        }
        if crate_root && t.starts_with("pub use ") {
            in_reexport = true;
        }
        if in_reexport {
            in_reexport = !t.trim_end().ends_with(';');
            continue;
        }
        if t.starts_with("//") {
            continue;
        }
        let code = match line.find("//") {
            Some(j) if line[..j].matches('"').count() % 2 == 0 => &line[..j],
            _ => line,
        };
        out.push_str(code);
        out.push('\n');
    }
    out
}

/// Whether `code` holds `needle` with no identifier or `::` glued to its
/// left, and (when it ends in an identifier) no identifier glued to its
/// right.
fn names(code: &str, needle: &str) -> bool {
    let open_right = needle.ends_with(is_ident);
    code.match_indices(needle).any(|(i, _)| {
        let before = code[..i].chars().next_back();
        let after = code[i + needle.len()..].chars().next();
        let glued_left = before.is_some_and(|c| is_ident(c) || c == ':');
        let glued_right = open_right && after.is_some_and(is_ident);
        !(glued_left || glued_right)
    })
}

/// `(module, item)` for every item a crate root re-exports from one of its
/// modules (`pub use m::Item;`, `pub use m::{A, B};`).
fn reexports(lib: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = lib;
    while let Some(start) = rest.find("pub use ") {
        let tail = &rest[start + "pub use ".len()..];
        let end = tail.find(';').expect("re-export ends with ';'");
        if let Some((module, items)) = tail[..end].split_once("::") {
            for item in items.split([',', '{', '}']) {
                // `A as B` is named as `B`
                let item = item.split_whitespace().last().unwrap_or_default();
                if !item.is_empty() {
                    out.push((module.trim().to_string(), item.to_string()));
                }
            }
        }
        rest = &tail[end..];
    }
    out
}

/// No public module exists only for its own tests: non-test code outside
/// the module's own file must name every `pub mod m` of every library
/// crate, either by path (`crate_name::m`, `crate::m`, `super::m`,
/// `m::`) or through an item the crate root re-exports from `m`. The code
/// that counts is every `src/` of the workspace (library code, the
/// `wiforce-cli` tool, the experiment binaries) and the `perfbench`
/// benchmark; tests, benches and examples do not count. DESIGN.md
/// ("Modeling decisions") states the rule this enforces.
#[test]
fn pub_modules_have_callers() {
    let root = repo_root();
    let mut crates = vec![("wiforce_repro".to_string(), root.join("src"))];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let manifest = read(&dir.join("Cargo.toml"));
        let name = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{} has no package name", dir.display()));
        crates.push((name.replace('-', "_"), dir.join("src")));
    }

    let mut files = Vec::new();
    for (_, src) in &crates {
        rs_files(src, &mut files);
    }
    rs_files(&root.join("perfbench/src"), &mut files);
    let roots: BTreeSet<PathBuf> = crates.iter().map(|(_, src)| src.join("lib.rs")).collect();
    let code: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let text = non_test_code(&read(&f), roots.contains(&f));
            (f, text)
        })
        .collect();

    let mut unreached = Vec::new();
    let mut checked = 0;
    for (krate, src) in &crates {
        let lib = read(&src.join("lib.rs"));
        let items = reexports(&lib);
        let modules = lib.lines().filter_map(|l| {
            let rest = l.trim().strip_prefix("pub mod ")?;
            Some(rest.trim_end_matches([';', '{', ' ']).to_string())
        });
        for m in modules {
            checked += 1;
            let own_file = src.join(format!("{m}.rs"));
            let own_dir = src.join(&m);
            let mut needles = vec![
                format!("{krate}::{m}"),
                format!("crate::{m}"),
                format!("super::{m}"),
                format!("{m}::"),
            ];
            needles.extend(
                items
                    .iter()
                    .filter(|(from, _)| *from == m)
                    .map(|(_, i)| i.clone()),
            );
            let reached = code
                .iter()
                .filter(|(f, _)| *f != own_file && !f.starts_with(&own_dir))
                .any(|(_, text)| needles.iter().any(|n| names(text, n)));
            if !reached {
                unreached.push(format!("{krate}::{m}"));
            }
        }
    }
    assert!(checked > 50, "found only {checked} public modules");
    assert!(
        unreached.is_empty(),
        "public modules that no non-test code outside their own file names \
         (tests, benches and examples do not count): {unreached:?}"
    );
}

/// The program's results depend only on its code and the flags it is run
/// with: non-test code under `crates/*/src`, `crates/*/build.rs` and
/// `src/` calls `std::env::var` / `var_os` only for the build's revision
/// stamp and the CI job summary. A setting belongs on a struct or a flag.
#[test]
fn env_reads_are_allow_listed() {
    const ALLOWED: [&str; 2] = ["GIT_REV", "GITHUB_STEP_SUMMARY"];
    let root = repo_root();
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        rs_files(&dir.join("src"), &mut files);
        let build = dir.join("build.rs");
        if build.exists() {
            files.push(build);
        }
    }
    let mut allowed = BTreeSet::new();
    let mut stray = Vec::new();
    for f in &files {
        let code = non_test_code(&read(f), false);
        for needle in ["env::var(", "env::var_os("] {
            for (i, _) in code.match_indices(needle) {
                let arg = code[i + needle.len()..].trim_start();
                let name = arg.strip_prefix('"').and_then(|a| a.split('"').next());
                match ALLOWED.iter().find(|&&a| name == Some(a)) {
                    Some(a) => {
                        allowed.insert(*a);
                    }
                    None => stray.push(format!(
                        "{}: {needle}{}",
                        f.display(),
                        arg.chars().take(40).collect::<String>()
                    )),
                }
            }
        }
    }
    assert_eq!(
        allowed.len(),
        ALLOWED.len(),
        "the scan missed an allowed read: found {allowed:?}"
    );
    assert!(
        stray.is_empty(),
        "environment reads outside the allow-list {ALLOWED:?}: {stray:#?}"
    );
}
