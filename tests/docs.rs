//! Documentation conformance: the prose under `docs/` cannot drift from
//! the implementation silently.
//!
//! Four checks:
//!
//! 1. `docs/WIRE.md` names every request variant, response variant, and
//!    error kind the wire module actually ships (the normative lists
//!    live next to the types as `REQUEST_VARIANTS` / `RESPONSE_VARIANTS`
//!    / `ERROR_KINDS`) — adding a message without documenting it fails
//!    the build.
//! 2. Every relative Markdown link in `README.md` and `docs/*.md`
//!    resolves to a file that exists in the repository.
//! 3. Every checkable claim in those pages resolves: a `--flag`, a
//!    `spgraph_*` metric family, a `SCREAMING_CASE` constant, a `repro*`
//!    binary, a `*.json` record, a reactor backend, a `crate::path::Item`
//!    of a workspace crate, a `service.method(` of `AccountService`.
//!    Naming a feature the code does not have fails the build.
//! 4. Every `*.md` page a source comment cites exists, so a rustdoc
//!    "see DESIGN.md §3.1" always has somewhere to send the reader.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use surrogate_parenthood::plus_store::wire::{
    ERROR_KINDS, MAX_REPLICAS, MAX_SHARDS, PROTOCOL_VERSION, REQUEST_VARIANTS, RESPONSE_VARIANTS,
};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn wire_spec_names_every_message_and_error_kind() {
    let spec = read(&repo_root().join("docs/WIRE.md"));
    let mut missing = Vec::new();
    for (list, names) in [
        ("request variant", &REQUEST_VARIANTS[..]),
        ("response variant", &RESPONSE_VARIANTS[..]),
        ("error kind", &ERROR_KINDS[..]),
    ] {
        for name in names {
            // Wrapped in backticks in the doc's tables and prose; a bare
            // substring match would let e.g. "Written" satisfy "Write".
            if !spec.contains(&format!("`{name}`")) {
                missing.push(format!("{list} `{name}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs/WIRE.md is missing: {missing:?} — the spec is normative; document the change"
    );
    assert!(
        spec.contains(&format!("**Protocol version:** {PROTOCOL_VERSION}")),
        "docs/WIRE.md states protocol version {PROTOCOL_VERSION}"
    );
    // The version history must cover every version up to the current
    // one: bumping PROTOCOL_VERSION without an entry is exactly the
    // silent drift this test exists to catch.
    for version in 1..=PROTOCOL_VERSION {
        assert!(
            spec.contains(&format!("**v{version}**")),
            "docs/WIRE.md's version history has no entry for version {version}"
        );
    }
    // The limits table must state the decode-time bounds with the
    // values the implementation enforces.
    for (name, value) in [("MAX_SHARDS", MAX_SHARDS), ("MAX_REPLICAS", MAX_REPLICAS)] {
        assert!(
            spec.contains(&format!("`{name}`")),
            "docs/WIRE.md never names the `{name}` bound"
        );
        let human = value
            .to_string()
            .as_bytes()
            .rchunks(3)
            .rev()
            .map(|c| std::str::from_utf8(c).unwrap())
            .collect::<Vec<_>>()
            .join("\u{202f}");
        assert!(
            spec.contains(&value.to_string())
                || spec.contains(&human)
                || spec.contains(&human.replace('\u{202f}', " ")),
            "docs/WIRE.md states {name} = {value}"
        );
    }
}

/// `README.md` and every `docs/*.md`.
fn pages() -> Vec<PathBuf> {
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            pages.push(path);
        }
    }
    assert!(pages.len() >= 4, "README + three docs pages at minimum");
    pages
}

#[test]
fn doc_links_resolve() {
    let pages = pages();

    let mut broken = BTreeSet::new();
    for page in &pages {
        let text = read(page);
        let dir = page.parent().expect("pages live in a directory");
        // Scan inline links: `](target)`. External and intra-page
        // targets are out of scope; everything else must exist on disk.
        let mut rest = text.as_str();
        while let Some(at) = rest.find("](") {
            rest = &rest[at + 2..];
            let Some(end) = rest.find(')') else { break };
            let target = &rest[..end];
            rest = &rest[end + 1..];
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(target);
            if !dir.join(path).exists() {
                broken.insert(format!("{}: {target}", page.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative links: {broken:?}");
}

/// Flags of the toolchain the pages show commands for; every other
/// `--flag` must be one this repository's binaries parse.
const TOOLCHAIN_FLAGS: &[&str] = &[
    "--all-targets",
    "--bin",
    "--check",
    "--manifest-path",
    "--no-deps",
    "--no-run",
    "--offline",
    "--release",
    "--workspace",
];

/// Readiness backends a reactor could claim; a page naming one needs
/// `crates/reactor/src` to name it too.
const REACTOR_BACKENDS: &[&str] = &["epoll", "kqueue", "io_uring", "iocp"];

/// Every file under `dir` (recursively), skipping build output and VCS
/// state.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | ".git" | ".bench_build") {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The concatenated Rust sources under each of `dirs`.
fn sources(dirs: &[PathBuf]) -> String {
    let mut files = Vec::new();
    for dir in dirs {
        files_under(dir, &mut files);
    }
    files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .map(|f| read(f))
        .collect()
}

/// The code of a Markdown page: inline `spans` and fenced blocks, one
/// string per span or line.
fn code_of(page: &str) -> Vec<&str> {
    let mut code = Vec::new();
    let mut fenced = false;
    for line in page.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            code.push(line);
        } else {
            // Odd pieces of a backtick split are inside a span.
            code.extend(line.split('`').skip(1).step_by(2));
        }
    }
    code
}

/// Maximal runs of `text` whose characters satisfy `keep`.
fn runs(text: &str, keep: impl Fn(char) -> bool) -> impl Iterator<Item = &str> {
    text.split(move |c: char| !keep(c))
        .filter(|t| !t.is_empty())
}

fn word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `name` matches `pattern`, where `*` stands for any run.
fn glob(pattern: &str, name: &str) -> bool {
    let mut parts = pattern.split('*');
    let first = parts.next().unwrap_or("");
    let Some(mut rest) = name.strip_prefix(first) else {
        return false;
    };
    let mut parts = parts.peekable();
    while let Some(part) = parts.next() {
        if parts.peek().is_none() {
            return rest.ends_with(part);
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    rest.is_empty()
}

/// Workspace crates by the name a Rust path starts with, and where their
/// sources live.
const CRATE_SOURCES: &[(&str, &str)] = &[
    ("surrogate_core", "crates/core/src"),
    ("plus_store", "crates/plus-store/src"),
    ("server", "crates/server/src"),
    ("graphgen", "crates/graphgen/src"),
    ("reactor", "crates/reactor/src"),
    ("surrogate_parenthood", "src"),
];

/// Keywords that declare the identifier following them.
const DECLARATORS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

/// Every identifier `source` declares with one of [`DECLARATORS`].
fn declared(source: &str) -> BTreeSet<&str> {
    let words: Vec<&str> = runs(source, word).collect();
    words
        .windows(2)
        .filter(|pair| DECLARATORS.contains(&pair[0]))
        .map(|pair| pair[1])
        .collect()
}

#[test]
fn doc_claims_resolve() {
    let root = repo_root();
    let mut source_dirs = vec![root.join("src"), root.join("spbench/src")];
    for parent in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(parent)).expect("workspace dir exists") {
            source_dirs.push(entry.expect("readable entry").path().join("src"));
        }
    }
    let code = sources(&source_dirs);
    let symbols: BTreeSet<&str> = runs(&code, word).collect();
    let reactor = sources(&[root.join("crates/reactor/src")]);
    let reactor_words: BTreeSet<&str> = runs(&reactor, word).collect();
    let mut repo_files = Vec::new();
    files_under(&root, &mut repo_files);
    let crate_sources: Vec<(&str, String)> = CRATE_SOURCES
        .iter()
        .map(|(name, dir)| (*name, sources(&[root.join(dir)])))
        .collect();
    let crate_items: Vec<(&str, BTreeSet<&str>)> = crate_sources
        .iter()
        .map(|(name, source)| (*name, declared(source)))
        .collect();
    let service = read(&root.join("crates/plus-store/src/service.rs"));
    let service_impl = service
        .split_once("\nimpl AccountService {")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("service.rs has the AccountService impl block")
        .0;

    let mut unresolved = BTreeSet::new();
    for page in pages() {
        let text = read(&page);
        let name = page
            .strip_prefix(&root)
            .unwrap_or(&page)
            .display()
            .to_string();
        let mut fail = |kind: &str, claim: &str| {
            unresolved.insert(format!("{name}: {kind} `{claim}`"));
        };

        for token in runs(&text, word) {
            if REACTOR_BACKENDS.contains(&token) && !reactor_words.contains(token) {
                fail("reactor backend", token);
            }
            if token.starts_with("spgraph_") && !code.contains(token) {
                fail("metric family", token);
            }
        }
        for span in code_of(&text) {
            for flag in runs(span, |c| c.is_ascii_alphanumeric() || c == '-') {
                let flag = flag.trim_end_matches('-');
                let named = flag
                    .strip_prefix("--")
                    .is_some_and(|f| f.starts_with(|c: char| c.is_ascii_lowercase()));
                if named
                    && !TOOLCHAIN_FLAGS.contains(&flag)
                    && !code.contains(&format!("\"{flag}\""))
                {
                    fail("flag", flag);
                }
            }
            for token in runs(span, word) {
                let constant = token.contains('_')
                    && token.starts_with(|c: char| c.is_ascii_uppercase())
                    && !token.contains(|c: char| c.is_ascii_lowercase());
                if constant && !symbols.contains(token) {
                    fail("constant", token);
                }
                if token.starts_with("repro")
                    && !root
                        .join(format!("crates/bench/src/bin/{token}.rs"))
                        .exists()
                {
                    fail("repro binary", token);
                }
            }
            // `crate::…::item`: the last segment must be something the
            // named workspace crate declares.
            for path in runs(span, |c| word(c) || c == ':') {
                let path = path.trim_matches(':');
                let Some((first, rest)) = path.split_once("::") else {
                    continue;
                };
                let Some((_, items)) = crate_items.iter().find(|(name, _)| *name == first) else {
                    continue;
                };
                let item = rest.rsplit("::").next().unwrap_or(rest);
                if !items.contains(item) {
                    fail("path", path);
                }
            }
            // `service.method(`: a `pub fn` of `AccountService`.
            for (_, call) in span
                .match_indices("service.")
                .map(|(at, m)| span.split_at(at + m.len()))
            {
                let method = call.split(|c| !word(c)).next().unwrap_or("");
                let called = call[method.len()..].starts_with('(');
                if called && !service_impl.contains(&format!("    pub fn {method}(")) {
                    fail("AccountService method", method);
                }
            }
            // Records: `<...>` marks a template for a generated file.
            let path_char = |c: char| word(c) || "./*-<>".contains(c);
            for record in runs(span, path_char).filter(|t| t.ends_with(".json")) {
                if record.contains('<') {
                    continue;
                }
                let found = repo_files.iter().any(|file| {
                    let relative = file.strip_prefix(&root).expect("walked from the root");
                    if record.contains('/') {
                        glob(record, &relative.display().to_string())
                    } else {
                        let base = relative.file_name().and_then(|n| n.to_str());
                        base.is_some_and(|base| glob(record, base))
                    }
                });
                if !found {
                    fail("record", record);
                }
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "README.md / docs/ name things the repository does not have: {unresolved:#?}"
    );
}

#[test]
fn pages_cited_in_comments_exist() {
    let root = repo_root();
    let mut dirs = vec![root.join("src"), root.join("examples")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = entry.expect("readable entry").path();
        dirs.extend([krate.join("src"), krate.join("benches")]);
    }
    let mut files = Vec::new();
    for dir in &dirs {
        files_under(dir, &mut files);
    }

    let mut missing = BTreeSet::new();
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
    {
        let text = read(file);
        for comment in text.lines().filter_map(|line| line.split_once("//")) {
            let path_char = |c: char| word(c) || "./-".contains(c);
            for page in runs(comment.1, path_char).filter(|t| t.ends_with(".md")) {
                // A bare name is a page at the root or under docs/.
                let found = [root.join(page), root.join("docs").join(page)]
                    .iter()
                    .any(|candidate| candidate.is_file());
                if !found {
                    let file = file.strip_prefix(&root).unwrap_or(file);
                    missing.insert(format!("{}: {page}", file.display()));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "source comments cite pages that do not exist: {missing:#?}"
    );
}
