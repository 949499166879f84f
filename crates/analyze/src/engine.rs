//! File walking, rule dispatch, and pragma application.
//!
//! The engine walks every `.rs` file under the workspace root (skipping
//! `target/`, `third_party/` — vendored external code is not ours to
//! lint — and hidden directories), lexes each once, runs the per-file
//! rule families, then the cross-file kernel-coverage rule, and finally
//! applies pragma suppressions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer::{lex, Tok};
use crate::report::{extract_pragmas, Finding, Report, Suppression};
use crate::rules::{
    determinism, hot_alloc, io_unwrap, kernel_coverage, sync_protocol, unsafe_confinement,
};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "third_party"];

/// Analyzes every workspace `.rs` file under `root` with the given
/// configuration. Returns the report or an IO/parse error message.
pub fn analyze_tree(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    let mut tokens_by_file: BTreeMap<String, Vec<Tok>> = BTreeMap::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        tokens_by_file.insert(rel.clone(), lex(&text));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressions: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();

    for (rel, toks) in &tokens_by_file {
        let (sup, pragma_findings) = extract_pragmas(rel, toks);
        suppressions.insert(rel.clone(), sup);
        findings.extend(pragma_findings);

        findings.extend(unsafe_confinement::check(rel, toks, cfg));
        findings.extend(sync_protocol::check(rel, toks, cfg));
        findings.extend(determinism::check_rng(rel, toks));
        if cfg.numeric_prefixes.iter().any(|p| rel.starts_with(p.as_str())) {
            findings.extend(determinism::check_map_iter(rel, toks));
        }
        if cfg.io_unwrap_prefixes.iter().any(|p| rel.starts_with(p.as_str())) {
            findings.extend(io_unwrap::check(rel, toks));
        }
        let entries: Vec<_> =
            cfg.hot_manifest.iter().filter(|e| e.file == *rel).collect();
        if !entries.is_empty() {
            findings.extend(hot_alloc::check(rel, toks, &entries));
            findings.extend(hot_alloc::stale_entries(rel, toks, &entries));
        }
    }

    if let (Some(kernels), Some(equiv)) = (&cfg.kernels_file, &cfg.equivalence_file) {
        match (tokens_by_file.get(kernels), tokens_by_file.get(equiv)) {
            (Some(ktoks), Some(etoks)) => {
                findings.extend(kernel_coverage::check(kernels, ktoks, equiv, etoks));
            }
            (Some(_), None) => {
                findings.push(Finding {
                    file: kernels.clone(),
                    line: 1,
                    rule: "kernel-coverage",
                    message: format!(
                        "equivalence suite {equiv} is missing; every kernel is uncovered"
                    ),
                });
            }
            // No kernels file in this tree (fixture roots): vacuously ok.
            (None, _) => {}
        }
    }

    // Manifest entries pointing at files that do not exist would make
    // the hot-alloc rule silently vacuous — surface them.
    for entry in &cfg.hot_manifest {
        if !tokens_by_file.contains_key(&entry.file) {
            findings.push(Finding {
                file: Config::MANIFEST_PATH.to_string(),
                line: 1,
                rule: "hot-alloc",
                message: format!("manifest entry `{entry}` names a file not in the tree"),
            });
        }
    }

    let empty = Vec::new();
    let (kept, suppressed): (Vec<_>, Vec<_>) = findings.into_iter().partition(|f| {
        f.rule == "pragma-syntax"
            || !suppressions
                .get(&f.file)
                .unwrap_or(&empty)
                .iter()
                .any(|s| s.covers(f.rule, f.line))
    });

    let mut kept = kept;
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    kept.dedup();
    Ok(Report { findings: kept, suppressed: suppressed.len(), files_scanned: files.len() })
}

/// Recursively collects workspace-relative `.rs` paths (forward
/// slashes, deterministic order via the caller's sort).
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel_path(root, &path));
        }
    }
    Ok(())
}

/// `path` relative to `root`, normalized to forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Ascends from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the binary finds the tree to lint when
/// invoked from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
