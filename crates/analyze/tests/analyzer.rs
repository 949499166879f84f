//! End-to-end tests for the analyzer: each rule against a violating
//! fixture, a clean fixture, and a pragma-suppressed fixture, plus the
//! lexer edge cases that make the rules trustworthy and a tripwire run
//! over the live workspace.
//!
//! Fixture trees are materialized in a temp directory — embedding the
//! violating source as *string literals* here doubles as a lexer test:
//! the tripwire run below scans this very file, and banned constructs
//! inside literals must be invisible to it.

use std::fs;
use std::path::{Path, PathBuf};

use gnmr_analyze::{analyze_tree, Config, ManifestEntry, Report};

/// A throwaway fixture tree under the system temp dir; removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir()
            .join(format!("gnmr-analyze-fixture-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
        self
    }

    fn run(&self, cfg: &Config) -> Report {
        analyze_tree(&self.root, cfg).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// A minimal config: `src/par.rs` may hold unsafe, `numeric/` is a
/// numeric crate, no manifest or coverage pair unless a test adds them.
fn base_cfg() -> Config {
    Config {
        allowed_unsafe: vec!["src/par.rs".to_string()],
        numeric_prefixes: vec!["numeric/".to_string()],
        ..Config::default()
    }
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ----- rule 1: unsafe confinement -------------------------------------

#[test]
fn unsafe_outside_allowlist_is_flagged() {
    let fx = Fixture::new("unsafe-outside");
    fx.write("src/lib.rs", "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);
    assert_eq!(report.findings[0].file, "src/lib.rs");
    assert_eq!(report.findings[0].line, 1);
}

#[test]
fn unsafe_in_allowed_file_needs_safety_comment() {
    let fx = Fixture::new("unsafe-safety");
    // Missing SAFETY comment: flagged even in the allowed file.
    fx.write("src/par.rs", "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["unsafe-safety-comment"]);

    // With the comment (within the 3-line window): clean.
    fx.write(
        "src/par.rs",
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
    );
    assert!(fx.run(&base_cfg()).is_clean());
}

// ----- rule 2: determinism --------------------------------------------

#[test]
fn ambient_entropy_is_flagged_everywhere() {
    let fx = Fixture::new("det-rng");
    // Even outside the numeric crates: entropy breaks reproducibility
    // wherever it seeps in.
    fx.write("tools/src/lib.rs", "pub fn f() -> u64 { rand::thread_rng().gen() }\n");
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["det-rng"]);
}

#[test]
fn map_iteration_is_flagged_only_in_numeric_crates() {
    let src = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, f32>) -> f32 {\n    m.values().sum()\n}\n";
    let fx = Fixture::new("det-map-iter");
    fx.write("numeric/src/lib.rs", src);
    fx.write("cli/src/lib.rs", src);
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["det-map-iter"]);
    assert_eq!(report.findings[0].file, "numeric/src/lib.rs");
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn btreemap_iteration_is_clean() {
    let fx = Fixture::new("det-btree");
    fx.write(
        "numeric/src/lib.rs",
        "use std::collections::BTreeMap;\npub fn f(m: &BTreeMap<u32, f32>) -> f32 {\n    m.values().sum()\n}\n",
    );
    assert!(fx.run(&base_cfg()).is_clean());
}

// ----- rule 3: hot-path allocation ------------------------------------

fn hot_cfg() -> Config {
    let mut cfg = base_cfg();
    cfg.hot_manifest =
        vec![ManifestEntry { file: "numeric/src/hot.rs".to_string(), pattern: "*_acc".to_string() }];
    cfg
}

#[test]
fn allocation_in_manifest_fn_is_flagged() {
    let fx = Fixture::new("hot-alloc");
    fx.write(
        "numeric/src/hot.rs",
        "pub fn add_acc(dst: &mut Vec<f32>, src: &[f32]) {\n    let tmp = src.to_vec();\n    for (d, s) in dst.iter_mut().zip(tmp) { *d += s; }\n}\n",
    );
    let report = fx.run(&hot_cfg());
    assert_eq!(rules_of(&report), vec!["hot-alloc"]);
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn allocation_outside_manifest_fns_is_fine() {
    let fx = Fixture::new("hot-clean");
    // `add_acc` is in-place (clean); `add_with` allocates but is not
    // named by the manifest.
    fx.write(
        "numeric/src/hot.rs",
        "pub fn add_acc(dst: &mut [f32], src: &[f32]) {\n    for (d, s) in dst.iter_mut().zip(src) { *d += s; }\n}\npub fn add_with(src: &[f32]) -> Vec<f32> {\n    src.to_vec()\n}\n",
    );
    assert!(fx.run(&hot_cfg()).is_clean());
}

#[test]
fn manifest_entry_naming_missing_file_is_flagged() {
    let fx = Fixture::new("hot-missing");
    fx.write("numeric/src/lib.rs", "pub fn f() {}\n");
    let report = fx.run(&hot_cfg());
    assert_eq!(rules_of(&report), vec!["hot-alloc"]);
    assert!(report.findings[0].message.contains("names a file not in the tree"));
}

#[test]
fn manifest_pattern_matching_no_fn_is_flagged() {
    let fx = Fixture::new("hot-stale");
    // The file exists but nothing in it matches `*_acc` any more (the
    // kernel was renamed): the entry guards nothing, which must be loud.
    fx.write("numeric/src/hot.rs", "pub fn add(dst: &mut [f32], src: &[f32]) {\n    let _ = (dst, src);\n}\n");
    let report = fx.run(&hot_cfg());
    assert_eq!(rules_of(&report), vec!["hot-alloc"]);
    assert_eq!(report.findings[0].file, Config::MANIFEST_PATH);
    assert!(report.findings[0].message.contains("matches no fn"), "{}", report.findings[0].message);
}

// ----- rule 4: kernel coverage ----------------------------------------

fn coverage_cfg() -> Config {
    let mut cfg = base_cfg();
    cfg.kernels_file = Some("numeric/src/kernels.rs".to_string());
    cfg.equivalence_file = Some("numeric/tests/equiv.rs".to_string());
    cfg
}

#[test]
fn uncovered_kernel_is_flagged() {
    let fx = Fixture::new("coverage");
    fx.write("numeric/src/kernels.rs", "pub fn covered() {}\npub fn forgotten() {}\n");
    fx.write("numeric/tests/equiv.rs", "#[test]\nfn t() { covered(); }\n");
    let report = fx.run(&coverage_cfg());
    assert_eq!(rules_of(&report), vec!["kernel-coverage"]);
    assert!(report.findings[0].message.contains("forgotten"));
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn missing_equivalence_suite_is_flagged() {
    let fx = Fixture::new("coverage-noequiv");
    fx.write("numeric/src/kernels.rs", "pub fn lonely() {}\n");
    let report = fx.run(&coverage_cfg());
    assert_eq!(rules_of(&report), vec!["kernel-coverage"]);
    assert!(report.findings[0].message.contains("missing"));
}

#[test]
fn fully_covered_kernels_are_clean() {
    let fx = Fixture::new("coverage-clean");
    fx.write("numeric/src/kernels.rs", "pub fn a() {}\npub fn b() {}\n");
    fx.write("numeric/tests/equiv.rs", "fn t() { a(); b(); }\n");
    assert!(fx.run(&coverage_cfg()).is_clean());
}

// ----- rule 5: sync protocol ------------------------------------------

fn sync_cfg() -> Config {
    let mut cfg = base_cfg();
    cfg.facade_files = vec!["src/par.rs".to_string()];
    cfg.ordering_comment_files = vec!["src/par.rs".to_string()];
    cfg
}

#[test]
fn std_sync_in_facade_file_is_flagged() {
    let fx = Fixture::new("sync-facade");
    fx.write(
        "src/par.rs",
        "use std::sync::Mutex;\npub fn f() { std::thread::yield_now(); }\n",
    );
    fx.write("src/lib.rs", "use std::sync::Mutex;\npub type M = Mutex<u32>;\n");
    let report = fx.run(&sync_cfg());
    // Both sites in par.rs flagged; lib.rs (not facade-bound) is free.
    assert_eq!(rules_of(&report), vec!["sync-facade", "sync-facade"]);
    assert!(report.findings.iter().all(|f| f.file == "src/par.rs"));
}

#[test]
fn facade_reexports_and_crate_sync_are_clean() {
    let fx = Fixture::new("sync-facade-clean");
    fx.write(
        "src/par.rs",
        "use crate::sync::{Arc, Condvar, Mutex};\npub fn f() { crate::sync::spawn_named(\"w\", || {}); }\n",
    );
    assert!(fx.run(&sync_cfg()).is_clean());
}

#[test]
fn ordering_use_without_comment_is_flagged() {
    let fx = Fixture::new("ordering-comment");
    fx.write(
        "src/par.rs",
        "use crate::sync::atomic::{AtomicUsize, Ordering};\npub fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Acquire)\n}\n",
    );
    let report = fx.run(&sync_cfg());
    assert_eq!(rules_of(&report), vec!["atomic-ordering-comment"]);
    assert_eq!(report.findings[0].line, 3);

    // With the justifying comment: clean. (The import on line 1 is a
    // bare `Ordering` path, never flagged.)
    fx.write(
        "src/par.rs",
        "use crate::sync::atomic::{AtomicUsize, Ordering};\npub fn f(a: &AtomicUsize) -> usize {\n    // ORDERING: Acquire pairs with the Release store in g.\n    a.load(Ordering::Acquire)\n}\n",
    );
    assert!(fx.run(&sync_cfg()).is_clean());
}

#[test]
fn sync_protocol_findings_are_pragma_suppressible() {
    let fx = Fixture::new("sync-pragma");
    fx.write(
        "src/par.rs",
        "// gnmr-analyze: allow(sync-facade) -- bootstrap before the facade exists\nuse std::sync::Mutex;\n",
    );
    let report = fx.run(&sync_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ----- rule 6: io-unwrap ----------------------------------------------

fn io_cfg() -> Config {
    let mut cfg = base_cfg();
    cfg.io_unwrap_prefixes = vec!["ckpt/src/".to_string()];
    cfg
}

#[test]
fn io_unwrap_in_crash_safety_crate_is_flagged() {
    let fx = Fixture::new("io-unwrap");
    let src = "pub fn persist(s: &Snapshot, p: &Path) {\n    s.save(p).unwrap();\n    let bytes = std::fs::read(p).expect(\"read back\");\n    use_it(bytes);\n}\n";
    fx.write("ckpt/src/lib.rs", src);
    // The same source outside the configured prefixes is not the
    // rule's business.
    fx.write("tools/src/lib.rs", src);
    let report = fx.run(&io_cfg());
    assert_eq!(rules_of(&report), vec!["io-unwrap", "io-unwrap"]);
    assert!(report.findings.iter().all(|f| f.file == "ckpt/src/lib.rs"));
    assert_eq!(report.findings[0].line, 2);
    assert_eq!(report.findings[1].line, 3);
}

#[test]
fn io_unwrap_ignores_tests_locks_and_options() {
    let fx = Fixture::new("io-unwrap-clean");
    fx.write(
        "ckpt/src/lib.rs",
        concat!(
            "pub fn current(h: &RwLock<State>) -> State {\n",
            // Lock-guard `.read()`/`.write()` are not I/O.
            "    h.read().unwrap().clone()\n",
            "}\n",
            "pub fn first(v: &[u32]) -> u32 {\n",
            "    *v.first().expect(\"non-empty\")\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn roundtrip() {\n",
            "        let bytes = std::fs::read(\"fixture.bin\").unwrap();\n",
            "        Snapshot::load(\"fixture.bin\").expect(\"load\");\n",
            "        drop(bytes);\n",
            "    }\n",
            "}\n",
        ),
    );
    let report = fx.run(&io_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn io_unwrap_is_pragma_suppressible() {
    let fx = Fixture::new("io-unwrap-pragma");
    fx.write(
        "ckpt/src/lib.rs",
        "pub fn f(p: &Path) {\n    // gnmr-analyze: allow(io-unwrap) -- bootstrap path, file baked into the image\n    let b = std::fs::read(p).unwrap();\n    use_it(b);\n}\n",
    );
    let report = fx.run(&io_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ----- JSON output ----------------------------------------------------

#[test]
fn json_render_reports_findings_machine_readably() {
    let fx = Fixture::new("json");
    fx.write("src/par.rs", "use std::sync::Mutex;\n");
    let report = fx.run(&sync_cfg());
    let json = report.render_json();
    assert!(json.contains("\"rule\": \"sync-facade\""));
    assert!(json.contains("\"file\": \"src/par.rs\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"message\": \"direct `std::sync` use"));
    let clean = Fixture::new("json-clean");
    clean.write("src/lib.rs", "pub fn ok() {}\n");
    let json = clean.run(&sync_cfg()).render_json();
    assert!(json.contains("\"findings\": []"));
    assert!(json.contains("\"clean\": true"));
}

// ----- pragmas ---------------------------------------------------------

#[test]
fn pragma_suppresses_same_and_next_line() {
    let fx = Fixture::new("pragma-ok");
    fx.write(
        "src/lib.rs",
        "// gnmr-analyze: allow(unsafe-confinement) -- audited FFI shim\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let report = fx.run(&base_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn pragma_does_not_reach_past_next_line() {
    let fx = Fixture::new("pragma-range");
    fx.write(
        "src/lib.rs",
        "// gnmr-analyze: allow(unsafe-confinement) -- too far away\n\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn pragma_without_reason_is_a_finding() {
    let fx = Fixture::new("pragma-noreason");
    fx.write("src/lib.rs", "// gnmr-analyze: allow(det-rng)\npub fn f() {}\n");
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["pragma-syntax"]);
}

#[test]
fn pragma_with_unknown_rule_is_a_finding() {
    let fx = Fixture::new("pragma-unknown");
    fx.write("src/lib.rs", "// gnmr-analyze: allow(no-such-rule) -- why not\npub fn f() {}\n");
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["pragma-syntax"]);
}

#[test]
fn pragma_syntax_findings_cannot_be_suppressed() {
    let fx = Fixture::new("pragma-meta");
    // `allow(pragma-syntax)` is itself a pragma-syntax finding, and it
    // must not eat the malformed pragma on the next line either.
    fx.write(
        "src/lib.rs",
        "// gnmr-analyze: allow(pragma-syntax) -- nice try\n// gnmr-analyze: allow(det-rng)\npub fn f() {}\n",
    );
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["pragma-syntax", "pragma-syntax"]);
    assert_eq!(report.suppressed, 0);
}

// ----- lexer edge cases through the engine ----------------------------

#[test]
fn banned_constructs_inside_literals_and_comments_are_invisible() {
    let fx = Fixture::new("lexer-literals");
    fx.write(
        "numeric/src/lib.rs",
        concat!(
            "// this comment mentions unsafe and thread_rng and m.values()\n",
            "/* block comment: unsafe { thread_rng() } /* nested */ still comment */\n",
            "pub fn f() -> &'static str {\n",
            "    \"unsafe { thread_rng() }\"\n",
            "}\n",
            "pub fn raw() -> &'static str {\n",
            "    r#\"SystemTime::now() and from_entropy()\"#\n",
            "}\n",
        ),
    );
    let report = fx.run(&base_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn lifetimes_and_chars_do_not_confuse_string_tracking() {
    let fx = Fixture::new("lexer-lifetimes");
    // A lifetime `'a`, a char literal containing a quote-ish escape,
    // and a real violation after them: the violation must still be
    // seen (i.e. the lexer didn't swallow the rest of the file as an
    // unterminated char literal).
    fx.write(
        "numeric/src/lib.rs",
        "pub fn f<'a>(x: &'a str) -> char { '\\'' }\npub fn g() -> u64 { rand::thread_rng().gen() }\n",
    );
    let report = fx.run(&base_cfg());
    assert_eq!(rules_of(&report), vec!["det-rng"]);
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn skip_dirs_are_not_scanned() {
    let fx = Fixture::new("skip-dirs");
    fx.write("target/debug/gen.rs", "pub fn f() { rand::thread_rng(); }\n");
    fx.write("third_party/vendored/src/lib.rs", "pub fn g() { unsafe {} }\n");
    fx.write(".hidden/src/lib.rs", "pub fn h() { unsafe {} }\n");
    fx.write("src/lib.rs", "pub fn ok() {}\n");
    let report = fx.run(&base_cfg());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}

// ----- the live workspace ---------------------------------------------

/// The tripwire: the real tree, under the real config, must be clean.
/// A change that introduces stray unsafe, ambient entropy, map-order
/// dependence, hot-path allocation, or an untested kernel fails this
/// test (and, independently, the `--ci` step in the workflow).
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cfg = Config::workspace();
    cfg.load_manifest(&root).expect("checked-in hotpath.manifest must parse");
    let report = analyze_tree(&root, &cfg).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace violates its own invariants:\n{}",
        report.render()
    );
    assert!(report.files_scanned > 50, "walk looks truncated: {} files", report.files_scanned);
}
