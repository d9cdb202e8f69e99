//! Per-file rule passes. All matching happens on the masked text produced
//! by [`crate::scanner`], so string literals, comments and test-only code
//! never trip a rule.

use crate::scanner::{find_word, is_ident_byte, ScannedFile};
use crate::{Diagnostic, Severity};

/// Crates whose emulation results must be bit-reproducible: iterating a
/// hash container there is a determinism hazard.
pub const DETERMINISM_CRATES: &[&str] = &[
    "core",
    "sim",
    "dynamics",
    "scenario",
    "netmodel",
    "transport",
    "metadata",
    "baselines",
    "workloads",
];
/// Crates whose hot paths must not panic.
pub const PANIC_CRATES: &[&str] = &[
    "core",
    "sim",
    "metadata",
    "netmodel",
    "transport",
    "baselines",
    "workloads",
    "scenario",
];
/// Crates allowed to read the wall clock / OS entropy: they measure or
/// transport, never decide emulation results.
pub const WALL_CLOCK_ALLOWED: &[&str] = &["trace", "bench", "runtime", "analyze"];

/// Iterator-producing methods whose order is the hash map's bucket order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
];

/// Same-statement terminal adapters that make iteration order unobservable.
const ORDER_INSENSITIVE: &[&str] = &[
    ".sum()", ".sum::<", ".min()", ".max()", ".count()", ".any(", ".all(", ".len()",
];

/// Wall-clock / ambient-entropy constructors banned outside measurement
/// crates.
const WALL_CLOCK_CALLS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
];

/// Panicking constructs banned in hot paths.
const PANIC_CALLS: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];

/// The crate a workspace-relative path belongs to (`crates/<name>/...`).
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// True when the path is library source (not tests/, examples/, benches/).
fn is_library_source(rel_path: &str) -> bool {
    rel_path.contains("/src/") && !rel_path.contains("/tests/") && !rel_path.contains("/examples/")
}

/// Runs every per-file rule and returns raw (un-suppressed) diagnostics.
pub fn file_diagnostics(file: &ScannedFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let krate = crate_of(&file.rel_path);
    let library = is_library_source(&file.rel_path);

    if library {
        if let Some(k) = krate {
            if DETERMINISM_CRATES.contains(&k) {
                hash_iteration_rule(file, &mut diags);
            }
            if PANIC_CRATES.contains(&k) {
                panic_rule(file, &mut diags);
                literal_index_rule(file, &mut diags);
            }
            if !WALL_CLOCK_ALLOWED.contains(&k) {
                wall_clock_rule(file, &mut diags);
            }
        } else {
            // The umbrella crate's src/ gets the wall-clock rule too.
            wall_clock_rule(file, &mut diags);
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// determinism: hash-iteration / hash-drain
// ---------------------------------------------------------------------------

/// Identifiers bound to `HashMap`/`HashSet` anywhere in the file: struct
/// fields, fn params and let bindings (by type ascription or constructor).
fn hash_idents(masked: &str) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut names: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0usize;
        while let Some(at) = find_word(masked, ty, from) {
            from = at + ty.len();
            let after = skip_ws(bytes, at + ty.len());
            let generic = after < bytes.len() && bytes[after] == b'<';
            let ctor = masked[after..].starts_with("::");
            if generic {
                // Type position: `name: [&][mut] [path::]HashMap<..>`.
                if let Some(name) = binder_before_type(masked, at) {
                    push_unique(&mut names, name);
                }
            } else if ctor {
                // Constructor position: `let [mut] name [: ..] = HashMap::new()`.
                if let Some(name) = binder_before_ctor(masked, at) {
                    push_unique(&mut names, name);
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// Walks backwards from a `HashMap<`/`HashSet<` in type position to the
/// identifier being ascribed: skips path segments, `&`, `mut`, whitespace
/// until the `:`, then reads the identifier before it.
fn binder_before_type(masked: &str, ty_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut j = ty_at;
    // Skip the path prefix (`std::collections::`) and reference/mut noise.
    loop {
        let before = rskip_ws(bytes, j);
        if before == 0 {
            return None;
        }
        let b = bytes[before - 1];
        if b == b':' && before >= 2 && bytes[before - 2] == b':' {
            // `::` — skip the preceding path segment identifier.
            let seg_end = before - 2;
            let seg_start = rskip_ident(bytes, seg_end);
            if seg_start == seg_end {
                return None;
            }
            j = seg_start;
        } else if b == b'&' || b == b'<' {
            // `&HashMap<..>` reference, or a generic arg like
            // `Vec<HashMap<..>>` / `Option<&HashMap<..>>`: keep walking left
            // past the wrapper to reach the ascription.
            j = before - 1;
        } else if before >= 3
            && (masked[..before].ends_with("mut") || masked[..before].ends_with("dyn"))
        {
            j = before - 3;
        } else if b == b':' {
            // The ascription colon.
            let name_end = rskip_ws(bytes, before - 1);
            let name_start = rskip_ident(bytes, name_end);
            if name_start == name_end {
                return None;
            }
            return Some(masked[name_start..name_end].to_string());
        } else {
            return None;
        }
    }
}

/// Walks backwards from `HashMap::` in constructor position through
/// `let [mut] name =` to the binder.
fn binder_before_ctor(masked: &str, ty_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    // Skip the path prefix before the type, then expect `=`.
    let mut j = ty_at;
    loop {
        let before = rskip_ws(bytes, j);
        if before == 0 {
            return None;
        }
        if bytes[before - 1] == b':' && before >= 2 && bytes[before - 2] == b':' {
            let seg_end = before - 2;
            let seg_start = rskip_ident(bytes, seg_end);
            if seg_start == seg_end {
                return None;
            }
            j = seg_start;
            continue;
        }
        if bytes[before - 1] != b'=' {
            return None;
        }
        let name_end = rskip_ws(bytes, before - 1);
        let name_start = rskip_ident(bytes, name_end);
        if name_start == name_end {
            return None;
        }
        return Some(masked[name_start..name_end].to_string());
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Index of the first byte after trailing whitespace, scanning left of `i`.
fn rskip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i
}

/// Start offset of the identifier ending at `end`.
fn rskip_ident(bytes: &[u8], end: usize) -> usize {
    let mut i = end;
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    i
}

fn hash_iteration_rule(file: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    let masked = &file.masked;
    let bytes = masked.as_bytes();
    for name in hash_idents(masked) {
        let mut from = 0usize;
        while let Some(at) = find_word(masked, &name, from) {
            from = at + name.len();
            if file.offset_in_test(at) {
                continue;
            }
            let end = at + name.len();
            // `for .. in [&[mut]] [self.]name { .. }` — direct hash-order loop.
            let expr_start = if masked[..at].ends_with("self.") {
                at - 5
            } else {
                at
            };
            if preceded_by_in(bytes, expr_start) {
                let after = skip_ws(bytes, end);
                if after < bytes.len() && bytes[after] == b'{' {
                    if !loop_sorted_after(masked, after) {
                        diags.push(diag(
                            file,
                            at,
                            "hash-iteration",
                            Severity::Error,
                            format!(
                                "iterating hash container `{name}` in a result-affecting crate: \
                                 bucket order varies per process; use BTreeMap/BTreeSet or \
                                 collect-and-sort before iterating"
                            ),
                        ));
                    }
                    continue;
                }
            }
            // Method chain: `name.iter()`, possibly across lines.
            let dot = skip_ws(bytes, end);
            if dot >= bytes.len() || bytes[dot] != b'.' {
                continue;
            }
            let m_start = skip_ws(bytes, dot + 1);
            let m_end = skip_ident(bytes, m_start);
            let method = &masked[m_start..m_end];
            let call = skip_ws(bytes, m_end);
            if call >= bytes.len() || bytes[call] != b'(' {
                continue;
            }
            if method == "drain" && masked[call..].starts_with("()") {
                diags.push(diag(
                    file,
                    at,
                    "hash-drain",
                    Severity::Error,
                    format!(
                        "`{name}.drain()` yields entries in hash-bucket order; drain into a \
                         Vec and sort, or use a BTree container"
                    ),
                ));
                continue;
            }
            if !HASH_ITER_METHODS.contains(&method) {
                continue;
            }
            if statement_is_order_safe(masked, at, method, file, after_loop(bytes, at)) {
                continue;
            }
            diags.push(diag(
                file,
                at,
                "hash-iteration",
                Severity::Error,
                format!(
                    "`{name}.{method}()` iterates in hash-bucket order (varies per process); \
                     use a BTree container or sort the collected result"
                ),
            ));
        }
    }
}

fn skip_ident(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    i
}

/// True when the token immediately left of `at` (skipping `&`/`mut`) is the
/// keyword `in` — i.e. this is the iterable of a `for` loop.
fn preceded_by_in(bytes: &[u8], at: usize) -> bool {
    let mut i = rskip_ws(bytes, at);
    while i > 0 && bytes[i - 1] == b'&' {
        i = rskip_ws(bytes, i - 1);
    }
    if i >= 3 && &bytes[i - 3..i] == b"mut" && (i == 3 || !is_ident_byte(bytes[i - 4])) {
        i = rskip_ws(bytes, i - 3);
        while i > 0 && bytes[i - 1] == b'&' {
            i = rskip_ws(bytes, i - 1);
        }
    }
    i >= 2 && &bytes[i - 2..i] == b"in" && (i == 2 || !is_ident_byte(bytes[i - 3]))
}

fn after_loop(bytes: &[u8], at: usize) -> bool {
    preceded_by_in(bytes, at)
}

/// A flagged iteration is tolerated when the surrounding statement ends in
/// an order-insensitive reduction, or a `.sort*` call follows within the
/// same or next statement (the collect-then-sort idiom).
fn statement_is_order_safe(
    masked: &str,
    site: usize,
    _method: &str,
    _file: &ScannedFile,
    is_loop: bool,
) -> bool {
    if is_loop {
        return false;
    }
    // A statement window ends at the first `;`, `{` or `}` — braces bound
    // it so the window cannot leak across expression-bodied functions.
    let stmt_end = boundary(masked, site);
    let stmt = &masked[site..stmt_end];
    if ORDER_INSENSITIVE.iter().any(|p| stmt.contains(p)) {
        return true;
    }
    // Collect-then-sort: allow a `.sort` in this statement or the next one.
    let next_end = boundary(masked, (stmt_end + 1).min(masked.len()));
    let window = &masked[site..next_end.min(site + 600)];
    window.contains(".sort")
}

/// Offset of the first `;`, `{` or `}` at or after `from`.
fn boundary(masked: &str, from: usize) -> usize {
    masked[from..]
        .find([';', '{', '}'])
        .map(|p| from + p)
        .unwrap_or(masked.len())
}

/// For a `for .. in &hash {` loop: tolerate it when a `.sort` happens just
/// after the loop body closes (iterate-then-sort, e.g. filling a Vec that
/// is sorted before use).
fn loop_sorted_after(masked: &str, open_brace: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut depth = 0i32;
    let mut i = open_brace;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let tail = &masked[i..(i + 240).min(masked.len())];
                    return tail.contains(".sort");
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// determinism: wall-clock
// ---------------------------------------------------------------------------

fn wall_clock_rule(file: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    for call in WALL_CLOCK_CALLS {
        let mut from = 0usize;
        while let Some(at) = find_word(&file.masked, call, from) {
            from = at + call.len();
            if file.offset_in_test(at) {
                continue;
            }
            diags.push(diag(
                file,
                at,
                "wall-clock",
                Severity::Error,
                format!(
                    "`{call}` reads ambient wall-clock/entropy in a result-affecting crate; \
                     emulation must be a pure function of the scenario + seed (allowed only \
                     in {WALL_CLOCK_ALLOWED:?})"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// panic-freedom: hot-path-panic / literal-index
// ---------------------------------------------------------------------------

fn panic_rule(file: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    for call in PANIC_CALLS {
        let mut from = 0usize;
        while let Some(p) = file.masked[from..].find(call) {
            let at = from + p;
            from = at + call.len();
            // Word-bound the leading identifier of macro patterns.
            if !call.starts_with('.') {
                let b = file.masked.as_bytes();
                if at > 0 && is_ident_byte(b[at - 1]) {
                    continue;
                }
            }
            if file.offset_in_test(at) {
                continue;
            }
            let what = call.trim_start_matches('.').trim_end_matches('(');
            diags.push(diag(
                file,
                at,
                "hot-path-panic",
                Severity::Error,
                format!(
                    "`{what}` can panic in an emulation hot path; return an error, use a \
                     graceful fallback, or justify with an allow directive"
                ),
            ));
        }
    }
}

/// `const NAME: usize = N;` declarations with literal values — the array
/// sizes `array_decls` can resolve symbolically.
fn literal_consts(masked: &str) -> Vec<(String, u64)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = find_word(masked, "const", from) {
        from = at + 5;
        let name_at = skip_ws(bytes, at + 5);
        let name_end = skip_ident(bytes, name_at);
        if name_end == name_at {
            continue;
        }
        let colon = skip_ws(bytes, name_end);
        if colon >= bytes.len() || bytes[colon] != b':' {
            continue;
        }
        let ty_at = skip_ws(bytes, colon + 1);
        let ty_end = skip_ident(bytes, ty_at);
        let eq = skip_ws(bytes, ty_end);
        if eq >= bytes.len() || bytes[eq] != b'=' {
            continue;
        }
        let num_at = skip_ws(bytes, eq + 1);
        let mut num_end = num_at;
        while num_end < bytes.len() && (bytes[num_end].is_ascii_digit() || bytes[num_end] == b'_') {
            num_end += 1;
        }
        let semi = skip_ws(bytes, num_end);
        if num_end == num_at || semi >= bytes.len() || bytes[semi] != b';' {
            continue;
        }
        if let Ok(n) = masked[num_at..num_end].replace('_', "").parse::<u64>() {
            out.push((masked[name_at..name_end].to_string(), n));
        }
    }
    out
}

/// `name: [Ty; N]` fixed-size-array declarations, for exempting in-bounds
/// literal indexing. `N` may be a literal or a same-file literal `const`.
fn array_decls(masked: &str) -> Vec<(String, u64)> {
    let bytes = masked.as_bytes();
    let consts = literal_consts(masked);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if bytes[i] == b':' && (i == 0 || bytes[i - 1] != b':') {
            let open = skip_ws(bytes, i + 1);
            if open < bytes.len() && bytes[open] == b'[' {
                // Find `; N]` inside.
                if let Some(semi) = masked[open..].find(';') {
                    let num_at = skip_ws(bytes, open + semi + 1);
                    let num_end = skip_ident(bytes, num_at);
                    let close = skip_ws(bytes, num_end);
                    if close < bytes.len() && bytes[close] == b']' {
                        let token = masked[num_at..num_end].trim();
                        let size = token
                            .parse::<u64>()
                            .ok()
                            .or_else(|| consts.iter().find(|(n, _)| n == token).map(|&(_, v)| v));
                        if let Some(n) = size {
                            let name_end = rskip_ws(bytes, i);
                            let name_start = rskip_ident(bytes, name_end);
                            if name_start < name_end {
                                out.push((masked[name_start..name_end].to_string(), n));
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn literal_index_rule(file: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    let masked = &file.masked;
    let bytes = masked.as_bytes();
    let arrays = array_decls(masked);
    let mut i = 1usize;
    while i < bytes.len() {
        if bytes[i] == b'['
            && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
        {
            let num_at = skip_ws(bytes, i + 1);
            let mut num_end = num_at;
            while num_end < bytes.len() && bytes[num_end].is_ascii_digit() {
                num_end += 1;
            }
            let close = skip_ws(bytes, num_end);
            if num_end > num_at && close < bytes.len() && bytes[close] == b']' {
                if !file.offset_in_test(i) {
                    let idx: u64 = masked[num_at..num_end].parse().unwrap_or(u64::MAX);
                    let name_start = rskip_ident(bytes, i);
                    let name = &masked[name_start..i];
                    match arrays.iter().find(|(n, _)| n == name) {
                        Some(&(_, len)) if idx < len => {}
                        Some(&(_, len)) => diags.push(diag(
                            file,
                            i,
                            "literal-index",
                            Severity::Error,
                            format!("index {idx} is out of bounds for `{name}: [_; {len}]`"),
                        )),
                        None => diags.push(diag(
                            file,
                            i,
                            "literal-index",
                            Severity::Warning,
                            format!(
                                "literal index `[{idx}]` can panic in a hot path; prefer \
                                 `.get({idx})` or a fixed-size array the scanner can bound-check"
                            ),
                        )),
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

fn diag(
    file: &ScannedFile,
    offset: usize,
    rule: &'static str,
    severity: Severity,
    message: String,
) -> Diagnostic {
    Diagnostic {
        path: file.rel_path.clone(),
        line: file.line_of(offset),
        rule,
        severity,
        message,
    }
}
