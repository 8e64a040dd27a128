//! Checks every relative markdown link in the repo's documentation.
//!
//! Scans the root-level `*.md` files and everything under `docs/`,
//! extracts `[text](target)` links and `[ref]: target` definitions, and
//! asserts each non-URL target exists on disk (fragments are stripped —
//! anchor validity is the renderer's problem, file existence is ours).
//! A doc that moves or a file that is renamed without updating its
//! references fails here instead of rotting silently.

use std::path::PathBuf;

/// Repo root: this test file lives at `<root>/tests/doc_links.rs`.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn markdown_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read repo root")
        .chain(std::fs::read_dir(root.join("docs")).expect("read docs/"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    files.sort();
    assert!(
        files.iter().any(|p| p.ends_with("docs/PROTOCOL.md")),
        "sanity: the scan must include docs/"
    );
    files
}

/// Extracts link targets: inline `[text](target)` plus `[ref]: target`
/// reference definitions. Skips fenced code blocks, where bracket syntax
/// is code, not markup.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Reference definitions: `[name]: target`
        let trimmed = line.trim_start();
        if trimmed.starts_with('[') {
            if let Some(close) = trimmed.find("]:") {
                if !trimmed[1..close].contains('[') {
                    let target = trimmed[close + 2..].trim();
                    if !target.is_empty() {
                        targets.push(target.to_string());
                        continue;
                    }
                }
            }
        }
        // Inline links: `](target)`
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            rest = &rest[open + 2..];
            if let Some(close) = rest.find(')') {
                targets.push(rest[..close].to_string());
                rest = &rest[close + 1..];
            } else {
                break;
            }
        }
    }
    targets
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://") || target.starts_with("https://") || target.starts_with("mailto:")
}

#[test]
fn every_relative_doc_link_resolves_to_a_file() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in markdown_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("md file has a parent");
        for target in link_targets(&text) {
            if is_external(&target) {
                continue;
            }
            // Strip `#anchor`; a bare-fragment link targets this file.
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(
        checked >= 10,
        "sanity: expected to check at least 10 relative links, found {checked}"
    );
    assert!(
        broken.is_empty(),
        "broken relative links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn the_doc_set_cross_references_itself() {
    // The service doc set is a web, not islands: the protocol reference
    // and the operations guide must be reachable from the entry points.
    let must_link: &[(&str, &[&str])] = &[
        ("README.md", &["docs/PROTOCOL.md", "docs/OPERATIONS.md"]),
        ("docs/ARCHITECTURE.md", &["PROTOCOL.md", "OPERATIONS.md"]),
        ("docs/PROTOCOL.md", &["OPERATIONS.md", "ARCHITECTURE.md"]),
        ("docs/OPERATIONS.md", &["PROTOCOL.md", "ARCHITECTURE.md"]),
    ];
    for (file, expected) in must_link {
        let text = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("read {file}: {e}"));
        let targets = link_targets(&text);
        for link in *expected {
            assert!(
                targets.iter().any(|t| t.split('#').next() == Some(*link)),
                "{file} must link to {link}"
            );
        }
    }
}
