//! Fixture tests for every `kollaps-analyze` rule: a positive snippet that
//! must fire, the rewritten negative form that must stay quiet, the
//! suppression semantics, and scanner edge cases. Directive syntax inside
//! the fixtures lives in string literals, so scanning *this* file never
//! parses them.

use kollaps_analyze::{analyze_source, analyze_workspace, Severity};

/// Path that opts a fixture into the determinism + panic-freedom families.
const CORE: &str = "crates/core/src/fixture.rs";
/// Path that opts a fixture out of every per-crate family.
const FREE: &str = "crates/trace/src/fixture.rs";

fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    analyze_source(path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

// ---------------------------------------------------------------------------
// determinism: hash-iteration / hash-drain
// ---------------------------------------------------------------------------

#[test]
fn hash_iteration_fires_on_result_affecting_loop() {
    let src = "fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
               let mut out = Vec::new();\n\
               for (k, _) in m.iter() { out.push(k); }\n\
               out\n\
               }\n";
    assert_eq!(rules_fired(CORE, src), vec!["hash-iteration"]);
}

#[test]
fn hash_iteration_fires_on_for_over_field() {
    let src = "struct S { egress: HashMap<u32, u32> }\n\
               impl S { fn f(&self) { for x in &self.egress { drop(x); } } }\n";
    assert_eq!(rules_fired(CORE, src), vec!["hash-iteration"]);
}

#[test]
fn hash_iteration_quiet_when_sorted_in_next_statement() {
    let src = "fn f(m: HashMap<u32, u32>) -> Vec<u32> {\n\
               let mut keys: Vec<u32> = m.keys().copied().collect();\n\
               keys.sort_unstable();\n\
               keys\n\
               }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn hash_iteration_quiet_on_order_insensitive_terminal() {
    let src = "fn f(m: HashMap<u32, u64>) -> u64 { m.values().sum() }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn hash_iteration_quiet_on_btreemap() {
    let src = "fn f(m: std::collections::BTreeMap<u32, u32>) -> Vec<u32> {\n\
               let mut out = Vec::new();\n\
               for (k, _) in m.iter() { out.push(*k); }\n\
               out\n\
               }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn hash_iteration_quiet_outside_determinism_crates() {
    let src = "fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
    assert!(rules_fired(FREE, src).is_empty());
}

#[test]
fn hash_drain_fires() {
    let src = "fn f(m: &mut HashMap<u32, u32>) -> Vec<(u32, u32)> {\n\
               m.drain().collect()\n\
               }\n";
    assert!(rules_fired(CORE, src).contains(&"hash-drain"));
}

// ---------------------------------------------------------------------------
// determinism: wall-clock
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_fires_in_core() {
    let src = "fn f() -> u128 { std::time::Instant::now().elapsed().as_micros() }\n";
    assert_eq!(rules_fired(CORE, src), vec!["wall-clock"]);
}

#[test]
fn wall_clock_allowed_in_measurement_crates() {
    let src = "fn f() -> u128 { std::time::Instant::now().elapsed().as_micros() }\n";
    assert!(rules_fired(FREE, src).is_empty());
}

#[test]
fn wall_clock_quiet_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n\
               fn f() -> std::time::Instant { std::time::Instant::now() }\n\
               }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

// ---------------------------------------------------------------------------
// panic-freedom: hot-path-panic / literal-index
// ---------------------------------------------------------------------------

#[test]
fn hot_path_panic_fires_on_unwrap_expect_panic() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
               fn g(x: Option<u32>) -> u32 { x.expect(\"present\") }\n\
               fn h() { panic!(\"boom\"); }\n";
    assert_eq!(
        rules_fired(CORE, src),
        vec!["hot-path-panic", "hot-path-panic", "hot-path-panic"]
    );
}

#[test]
fn hot_path_panic_quiet_in_tests_and_other_crates() {
    let test_src = "#[test]\nfn t() { assert_eq!(Some(1).unwrap(), 1); }\n";
    assert!(rules_fired(CORE, test_src).is_empty());
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(rules_fired(FREE, src).is_empty());
}

/// Every packet's endpoints live in `transport`, so both rule families
/// cover it.
#[test]
fn transport_is_a_determinism_and_panic_crate() {
    let path = "crates/transport/src/fixture.rs";
    let src = "fn f(m: HashMap<u32, u32>) -> u32 { *m.keys().next().unwrap() }\n";
    assert_eq!(
        rules_fired(path, src),
        vec!["hash-iteration", "hot-path-panic"]
    );
}

/// The dissemination bus decides what every manager sees, so both rule
/// families cover `metadata` too.
#[test]
fn metadata_is_a_determinism_and_panic_crate() {
    let path = "crates/metadata/src/fixture.rs";
    let src = "fn f(m: HashMap<u32, u32>) -> u32 { *m.keys().next().unwrap() }\n";
    assert_eq!(
        rules_fired(path, src),
        vec!["hash-iteration", "hot-path-panic"]
    );
}

#[test]
fn literal_index_bound_checked_by_array_decl() {
    let in_bounds = "struct S { stats: [u64; 4] }\n\
                     impl S { fn f(&self) -> u64 { self.stats[3] } }\n";
    assert!(rules_fired(CORE, in_bounds).is_empty());

    let out_of_bounds = "struct S { stats: [u64; 4] }\n\
                         impl S { fn f(&self) -> u64 { self.stats[4] } }\n";
    let diags = analyze_source(CORE, out_of_bounds);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "literal-index");
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn literal_index_resolves_const_sized_arrays() {
    // An array sized by a same-file literal const.
    let src = "const N: usize = 5;\n\
               struct S { stats: [u64; N] }\n\
               impl S { fn f(&self) -> u64 { self.stats[4] } }\n";
    assert!(rules_fired(CORE, src).is_empty());

    let oob = "const N: usize = 5;\n\
               struct S { stats: [u64; N] }\n\
               impl S { fn f(&self) -> u64 { self.stats[5] } }\n";
    assert_eq!(rules_fired(CORE, oob), vec!["literal-index"]);
}

#[test]
fn literal_index_unknown_bound_is_a_warning() {
    let src = "fn f(v: &[u32]) -> u32 { v[0] }\n";
    let diags = analyze_source(CORE, src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "literal-index");
    assert_eq!(diags[0].severity, Severity::Warning);
}

// ---------------------------------------------------------------------------
// suppression semantics + hygiene
// ---------------------------------------------------------------------------

const ALLOW_WALL_CLOCK: &str =
    "// kollaps-analyze: allow(wall-clock) -- diagnostic only, never read by results\n";

#[test]
fn justified_suppression_is_honored() {
    let src = format!(
        "fn f() -> u128 {{\n{ALLOW_WALL_CLOCK}    let t = std::time::Instant::now();\n    t.elapsed().as_micros()\n}}\n"
    );
    assert!(rules_fired(CORE, &src).is_empty());
}

#[test]
fn unjustified_suppression_is_rejected_and_flagged() {
    // No ` -- <reason>`: the wall-clock diagnostic survives AND the
    // directive itself is a hygiene error.
    let src = "fn f() -> u128 {\n\
               // kollaps-analyze: allow(wall-clock)\n\
               let t = std::time::Instant::now();\n\
               t.elapsed().as_micros()\n\
               }\n";
    let mut fired = rules_fired(CORE, src);
    fired.sort_unstable();
    assert_eq!(fired, vec!["suppression-hygiene", "wall-clock"]);
}

#[test]
fn unknown_rule_in_directive_is_an_error() {
    let src = "// kollaps-analyze: allow(no-such-rule) -- because\nfn f() {}\n";
    let diags = analyze_source(CORE, src);
    assert!(diags
        .iter()
        .any(|d| d.rule == "suppression-hygiene" && d.severity == Severity::Error));
}

#[test]
fn stale_directive_is_a_warning() {
    let src = format!("{ALLOW_WALL_CLOCK}fn f() {{}}\n");
    let diags = analyze_source(CORE, &src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "suppression-hygiene");
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn directive_covers_own_line_and_next_only() {
    let src = format!(
        "fn f() -> u128 {{\n{ALLOW_WALL_CLOCK}    let a = 1;\n    let t = std::time::Instant::now();\n    t.elapsed().as_micros() + a\n}}\n"
    );
    let mut fired = rules_fired(CORE, &src);
    fired.sort_unstable();
    // Two lines below the directive: not covered — the violation stands
    // and the directive is stale.
    assert_eq!(fired, vec!["suppression-hygiene", "wall-clock"]);
}

// ---------------------------------------------------------------------------
// scanner edge cases
// ---------------------------------------------------------------------------

#[test]
fn strings_and_comments_never_trip_rules() {
    let src = "fn f() -> &'static str {\n\
               // mentions Instant::now and .unwrap() in prose\n\
               \"Instant::now() .unwrap() panic! HashMap<\"\n\
               }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn raw_strings_are_masked() {
    let src = "fn f() -> &'static str { r#\"x.unwrap() \"quoted\" panic!\"# }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn directive_inside_string_literal_is_not_a_directive() {
    let src = "fn f() -> &'static str { \"// kollaps-analyze: allow(bogus)\" }\n";
    assert!(rules_fired(CORE, src).is_empty());
}

#[test]
fn cfg_not_test_is_still_checked() {
    let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_fired(CORE, src), vec!["hot-path-panic"]);
}

// ---------------------------------------------------------------------------
// regression pins: real violations fixed in this tree stay fixed
// ---------------------------------------------------------------------------

/// The exact shapes that used to live in `crates/core` before the engine
/// landed; each must still fire so a reintroduction cannot land silently.
#[test]
fn regression_pre_fix_shapes_still_fire() {
    // manager.rs, the `egress` map while it was a `HashMap`: unsorted key
    // iteration escaping an accessor (fixed for good by making the map a
    // `BTreeMap`).
    let addrs = "struct M { egress: HashMap<u32, u32> }\n\
                 impl M { fn addrs(&self) -> Vec<u32> { self.egress.keys().copied().collect() } }\n";
    assert_eq!(rules_fired(CORE, addrs), vec!["hash-iteration"]);

    // manager.rs dequeue_ready(): expect() on a map lookup in the hot loop
    // (fixed with if-let).
    let expect = "struct M { egress: HashMap<u32, u32> }\n\
                  impl M { fn f(&mut self) -> u32 { *self.egress.get_mut(&0).expect(\"own tree\") } }\n";
    assert!(rules_fired(CORE, expect).contains(&"hot-path-panic"));

    // timeline.rs extend(): `events()[0]` behind an is_empty check (fixed
    // with `.first()`).
    let index = "fn f(events: &[u32]) -> u32 { if events.is_empty() { return 0; } events[0] }\n";
    assert_eq!(rules_fired(CORE, index), vec!["literal-index"]);
}

/// The shipped sources of the fixed files are clean *today*: this is the
/// self-check that the fixes in this tree stay in place even when run
/// against the live files rather than fixtures.
#[test]
fn fixed_files_are_clean_in_tree() {
    let root = workspace_root();
    for rel in [
        "crates/core/src/manager.rs",
        "crates/core/src/sharing.rs",
        "crates/core/src/timeline.rs",
        "crates/core/src/collapse.rs",
        "crates/metadata/src/codec.rs",
        "crates/metadata/src/bus.rs",
        "crates/scenario/src/session.rs",
        "crates/scenario/src/workload.rs",
        "crates/transport/src/tcp.rs",
        "crates/transport/src/ping.rs",
    ] {
        let source = std::fs::read_to_string(root.join(rel)).expect(rel);
        let errors: Vec<String> = analyze_source(rel, &source)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect();
        assert!(errors.is_empty(), "{rel} regressed: {errors:?}");
    }
}

// ---------------------------------------------------------------------------
// workspace self-check
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The shipped tree passes its own gate, warnings included — exactly what
/// the CI `static-analysis` job enforces.
#[test]
fn shipped_workspace_is_violation_free() {
    let diags = analyze_workspace(&workspace_root());
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(diags.is_empty(), "workspace violations: {rendered:#?}");
}
