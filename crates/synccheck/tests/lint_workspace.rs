//! The workspace lint over the real workspace: zero violations is a
//! hard invariant (tier-1 and CI run this). Any new raw
//! `std::sync`/`std::thread` use, unjustified `Relaxed`, poisoning
//! footgun or design-rule hit outside the synccheck crate fails this
//! test with file/line/rule output. The other two tests keep every
//! design rule from going vacuous.

use orthopt_synccheck::lint;

#[test]
fn workspace_is_clean() {
    let root = lint::workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "resolved workspace root {} has no Cargo.toml",
        root.display()
    );
    let violations = lint::check_workspace(&root);
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Each design rule flags its seed line in a file under every one of
/// its path prefixes, and a `cut_tests` rule not past `#[cfg(test)]`.
#[test]
fn every_rule_catches_its_seed() {
    let caught = |file: &str, source: &str, rule: &str| {
        let mut out = Vec::new();
        lint::check_source(file, source, &mut out);
        out.iter().any(|v| v.rule == rule)
    };
    for rule in lint::DESIGN_RULES {
        for prefix in rule.paths {
            let mut file = prefix.replace('*', "x");
            if file.ends_with('/') {
                file.push_str("seed.rs");
            }
            assert!(
                caught(&file, rule.seed, rule.name),
                "{}: seed `{}` not caught in {file}",
                rule.name,
                rule.seed
            );
            let in_tests = format!("#[cfg(test)]\n{}", rule.seed);
            assert_eq!(caught(&file, &in_tests, rule.name), !rule.cut_tests);
        }
    }
}

/// Every path prefix and exemption a design rule names matches a file
/// the lint reads, so a moved or renamed file cannot silence a rule.
#[test]
fn every_rule_path_names_a_workspace_file() {
    let files = lint::workspace_files(&lint::workspace_root());
    for rule in lint::DESIGN_RULES {
        for prefix in rule.paths.iter().chain(rule.exempt) {
            assert!(
                files.iter().any(|f| lint::under(f, prefix)),
                "{}: no workspace file under {prefix}",
                rule.name
            );
        }
    }
}
