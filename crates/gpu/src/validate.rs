//! A minimal in-repo WGSL validator.
//!
//! The build environment is offline (see `shims/`), so there is no
//! `naga`/`tint` to call; this module implements exactly the checks the
//! emitter's output must survive before any runtime would accept it:
//!
//! 1. lexical well-formedness (comments terminate, brackets balance);
//! 2. attribute sanity — known attribute names, exactly one `@compute`
//!    entry point, a `@workgroup_size` within the invocation limit,
//!    unique `@binding` slots per `@group`;
//! 3. workgroup-memory accounting — every `var<workgroup>` array is
//!    parsed and the total footprint checked against the device budget;
//! 4. identifier resolution — every identifier must be a keyword, a
//!    WGSL builtin, or declared somewhere in the module, so a typo'd
//!    emission fails validation instead of reaching a driver.
//!
//! This is deliberately not a full WGSL grammar: it accepts a superset
//! of valid WGSL, but it *rejects* every malformation class the test
//! suite injects (and that a template-splicing emitter can realistically
//! produce).

/// Tunable limits, defaulting to WebGPU's defaults where they exist.
#[derive(Debug, Clone, Copy)]
pub struct ValidateOptions {
    /// Maximum total `var<workgroup>` bytes
    /// (`maxComputeWorkgroupStorageSize`; WebGPU default 16 KiB, set to
    /// 64 KiB here — the limit a wgpu runtime would request on the
    /// discrete devices the simulator models).
    pub max_workgroup_bytes: usize,
    /// Maximum `@workgroup_size` product
    /// (`maxComputeInvocationsPerWorkgroup`).
    pub max_workgroup_invocations: u64,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        Self {
            max_workgroup_bytes: 64 * 1024,
            max_workgroup_invocations: 256,
        }
    }
}

/// What validation learned about a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShaderInfo {
    /// The entry point's `@workgroup_size` (missing axes default to 1).
    pub workgroup_size: (u64, u64, u64),
    /// Total `var<workgroup>` bytes.
    pub workgroup_bytes: usize,
    /// Distinct `@binding` declarations.
    pub bindings: usize,
    /// `fn` declarations (entry point included).
    pub functions: usize,
}

/// Validation failure: every problem found, not just the first.
#[derive(Debug, Clone)]
pub struct WgslError {
    /// Human-readable problems, each with a line number.
    pub messages: Vec<String>,
}

impl std::fmt::Display for WgslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid WGSL: {}", self.messages.join("; "))
    }
}

impl std::error::Error for WgslError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(String),
    Punct(char),
}

/// Lex into tokens with 1-based line numbers. Comments (`//`, `/* */`)
/// are stripped here.
fn lex(src: &str) -> Result<Vec<(Tok, usize)>, WgslError> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && bytes.get(i + 1) == Some(&'/') {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let start = line;
            i += 2;
            loop {
                match bytes.get(i) {
                    None => {
                        return Err(WgslError {
                            messages: vec![format!("unterminated block comment (line {start})")],
                        })
                    }
                    Some('\n') => line += 1,
                    Some('*') if bytes.get(i + 1) == Some(&'/') => {
                        i += 2;
                        break;
                    }
                    Some(_) => {}
                }
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            toks.push((Tok::Ident(bytes[start..i].iter().collect()), line));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || bytes[i] == '.'
                    || bytes[i] == 'u'
                    || bytes[i] == 'i'
                    || bytes[i] == 'f'
                    || bytes[i] == 'e')
            {
                i += 1;
            }
            toks.push((Tok::Number(bytes[start..i].iter().collect()), line));
        } else {
            toks.push((Tok::Punct(c), line));
            i += 1;
        }
    }
    Ok(toks)
}

const KEYWORDS: &[&str] = &[
    "fn",
    "let",
    "var",
    "const",
    "struct",
    "return",
    "if",
    "else",
    "loop",
    "break",
    "continue",
    "continuing",
    "for",
    "while",
    "switch",
    "case",
    "default",
    "true",
    "false",
    "discard",
    "u32",
    "i32",
    "f32",
    "f16",
    "bool",
    "vec2",
    "vec3",
    "vec4",
    "mat2x2",
    "mat3x3",
    "mat4x4",
    "array",
    "atomic",
    "ptr",
    "uniform",
    "storage",
    "read",
    "read_write",
    "write",
    "workgroup",
    "function",
    "private",
];

const BUILTIN_FNS: &[&str] = &[
    "fma",
    "min",
    "max",
    "abs",
    "clamp",
    "select",
    "workgroupBarrier",
    "storageBarrier",
    "textureBarrier",
    "dot",
    "floor",
    "ceil",
    "sqrt",
];

const ATTRIBUTES: &[&str] = &[
    "group",
    "binding",
    "compute",
    "workgroup_size",
    "builtin",
    "location",
    "vertex",
    "fragment",
    "align",
    "size",
];

/// Validate a WGSL module against `opts`.
///
/// # Errors
/// [`WgslError`] collecting every problem found: lexical errors,
/// unbalanced brackets, attribute misuse, duplicate bindings, an
/// oversized workgroup, over-budget workgroup memory, or unresolved
/// identifiers.
pub fn validate_wgsl(src: &str, opts: &ValidateOptions) -> Result<ShaderInfo, WgslError> {
    let toks = lex(src)?;
    let mut errors: Vec<String> = Vec::new();

    // --- bracket balance ------------------------------------------------
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (t, line) in &toks {
        if let Tok::Punct(c) = t {
            match c {
                '(' | '{' | '[' => stack.push((*c, *line)),
                ')' | '}' | ']' => {
                    let open = match c {
                        ')' => '(',
                        ']' => '[',
                        _ => '{',
                    };
                    match stack.pop() {
                        Some((o, _)) if o == open => {}
                        Some((o, l)) => errors.push(format!(
                            "mismatched `{c}` (line {line}) closing `{o}` (line {l})"
                        )),
                        None => errors.push(format!("unmatched `{c}` (line {line})")),
                    }
                }
                _ => {}
            }
        }
    }
    for (o, l) in &stack {
        errors.push(format!("unclosed `{o}` (line {l})"));
    }

    // --- attributes, bindings, workgroup size ---------------------------
    let mut compute_count = 0usize;
    let mut workgroup_size: Option<(u64, u64, u64)> = None;
    let mut bindings: Vec<(u64, u64)> = Vec::new();
    let mut current_group: Option<u64> = None;
    // Token indices that sit inside attribute parentheses (exempt from
    // identifier resolution: `@builtin(workgroup_id)` names a slot, not
    // a declaration).
    let mut attr_arg_idx: Vec<bool> = vec![false; toks.len()];

    let number = |t: &Tok| -> Option<u64> {
        match t {
            Tok::Number(n) => n.trim_end_matches(['u', 'i']).parse::<u64>().ok(),
            _ => None,
        }
    };

    let mut i = 0;
    while i < toks.len() {
        if toks[i].0 == Tok::Punct('@') {
            let line = toks[i].1;
            let Some((Tok::Ident(name), _)) = toks.get(i + 1) else {
                errors.push(format!("`@` without an attribute name (line {line})"));
                i += 1;
                continue;
            };
            if !ATTRIBUTES.contains(&name.as_str()) {
                errors.push(format!("unknown attribute `@{name}` (line {line})"));
            }
            // Collect parenthesized arguments, if any.
            let mut args: Vec<u64> = Vec::new();
            let mut j = i + 2;
            if toks.get(j).map(|t| &t.0) == Some(&Tok::Punct('(')) {
                let mut depth = 1;
                j += 1;
                while j < toks.len() && depth > 0 {
                    match &toks[j].0 {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => depth -= 1,
                        t => {
                            attr_arg_idx[j] = true;
                            if let Some(v) = number(t) {
                                args.push(v);
                            }
                        }
                    }
                    j += 1;
                }
            }
            match name.as_str() {
                "compute" => compute_count += 1,
                "group" => current_group = args.first().copied(),
                "binding" => {
                    let group = current_group.unwrap_or(0);
                    let Some(slot) = args.first().copied() else {
                        errors.push(format!("`@binding` without a slot (line {line})"));
                        i = j;
                        continue;
                    };
                    if bindings.contains(&(group, slot)) {
                        errors.push(format!(
                            "duplicate @binding({slot}) in @group({group}) (line {line})"
                        ));
                    } else {
                        bindings.push((group, slot));
                    }
                }
                "workgroup_size" => {
                    if args.is_empty() || args.len() > 3 {
                        errors.push(format!(
                            "`@workgroup_size` needs 1–3 literal axes (line {line})"
                        ));
                    } else {
                        let x = args.first().copied().unwrap_or(1).max(1);
                        let y = args.get(1).copied().unwrap_or(1).max(1);
                        let z = args.get(2).copied().unwrap_or(1).max(1);
                        if x * y * z > opts.max_workgroup_invocations {
                            errors.push(format!(
                                "workgroup size {x}x{y}x{z} exceeds the \
                                 {}-invocation limit (line {line})",
                                opts.max_workgroup_invocations
                            ));
                        }
                        workgroup_size = Some((x, y, z));
                    }
                }
                _ => {}
            }
            i = j.max(i + 2);
        } else {
            i += 1;
        }
    }
    if compute_count != 1 {
        errors.push(format!(
            "expected exactly one @compute entry point, found {compute_count}"
        ));
    }
    if compute_count == 1 && workgroup_size.is_none() {
        errors.push("the @compute entry point has no @workgroup_size".to_string());
    }

    // --- workgroup memory accounting ------------------------------------
    let mut workgroup_bytes = 0usize;
    let mut i = 0;
    while i + 3 < toks.len() {
        let is_wg_var = toks[i].0 == Tok::Ident("var".to_string())
            && toks[i + 1].0 == Tok::Punct('<')
            && toks[i + 2].0 == Tok::Ident("workgroup".to_string())
            && toks[i + 3].0 == Tok::Punct('>');
        if is_wg_var {
            let line = toks[i].1;
            // var<workgroup> NAME : array<ELEM, COUNT>
            let parsed = (|| {
                let mut j = i + 4;
                let Tok::Ident(_) = &toks.get(j)?.0 else {
                    return None;
                };
                j += 1;
                if toks.get(j)?.0 != Tok::Punct(':') {
                    return None;
                }
                j += 1;
                if toks.get(j)?.0 != Tok::Ident("array".to_string()) {
                    return None;
                }
                j += 1;
                if toks.get(j)?.0 != Tok::Punct('<') {
                    return None;
                }
                j += 1;
                let elem_bytes = match &toks.get(j)?.0 {
                    Tok::Ident(t) if t == "f32" || t == "u32" || t == "i32" => 4usize,
                    _ => return None,
                };
                j += 1;
                if toks.get(j)?.0 != Tok::Punct(',') {
                    return None;
                }
                j += 1;
                let count = number(&toks.get(j)?.0)?;
                Some(elem_bytes * count as usize)
            })();
            match parsed {
                Some(bytes) => workgroup_bytes += bytes,
                None => errors.push(format!(
                    "unparsable var<workgroup> declaration (line {line}); \
                     expected `var<workgroup> name : array<f32, N>`"
                )),
            }
        }
        i += 1;
    }
    if workgroup_bytes > opts.max_workgroup_bytes {
        errors.push(format!(
            "workgroup memory {workgroup_bytes} B exceeds the {} B budget",
            opts.max_workgroup_bytes
        ));
    }

    // --- identifier resolution ------------------------------------------
    let mut declared: Vec<String> = Vec::new();
    let mut functions = 0usize;
    for (i, (t, _)) in toks.iter().enumerate() {
        let Tok::Ident(name) = t else { continue };
        if name == "fn" {
            functions += 1;
        }
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        let declares = toks.get(i + 1).map(|t| &t.0) == Some(&Tok::Punct(':'))
            || matches!(
                toks.get(i.wrapping_sub(1)).map(|t| &t.0),
                Some(Tok::Ident(prev))
                    if prev == "fn" || prev == "struct" || prev == "let" || prev == "const"
            );
        if declares && !declared.contains(name) {
            declared.push(name.clone());
        }
    }
    for (i, (t, line)) in toks.iter().enumerate() {
        let Tok::Ident(name) = t else { continue };
        if KEYWORDS.contains(&name.as_str())
            || BUILTIN_FNS.contains(&name.as_str())
            || ATTRIBUTES.contains(&name.as_str())
            || attr_arg_idx[i]
            || declared.contains(name)
        {
            continue;
        }
        // Member access: `expr.field` — fields are declared by their
        // struct anyway, but stay permissive for builtin vector members
        // (`lid.x`).
        if i > 0 && toks[i - 1].0 == Tok::Punct('.') {
            continue;
        }
        errors.push(format!("unresolved identifier `{name}` (line {line})"));
    }

    if errors.is_empty() {
        Ok(ShaderInfo {
            workgroup_size: workgroup_size.unwrap_or((1, 1, 1)),
            workgroup_bytes,
            bindings: bindings.len(),
            functions,
        })
    } else {
        Err(WgslError { messages: errors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelFamily, KernelSpec};
    use crate::lower::lower;
    use crate::wgsl::emit_wgsl;
    use nm_core::pattern::NmConfig;

    fn good_shader() -> String {
        let ir = lower(&KernelSpec {
            family: KernelFamily::V3,
            cfg: NmConfig::new(2, 8, 32).unwrap(),
            n: 96,
            k: 100,
            w: 26,
            mb: 16,
            nb: 64,
            kb: 104,
            groups: 2,
            packed: true,
            fma: true,
        })
        .unwrap();
        emit_wgsl(&ir)
    }

    #[test]
    fn emitted_shader_validates() {
        let info = validate_wgsl(&good_shader(), &ValidateOptions::default()).unwrap();
        assert_eq!(info.workgroup_size, (32, 4, 1));
        assert_eq!(info.bindings, 7);
        assert_eq!(info.functions, 2);
        assert!(info.workgroup_bytes > 0);
    }

    #[test]
    fn unbalanced_braces_are_rejected() {
        let src = good_shader();
        let broken = src.replacen("}\n", "\n", 1);
        let err = validate_wgsl(&broken, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("unclosed"), "{err}");
    }

    #[test]
    fn unresolved_identifiers_are_rejected() {
        let src = good_shader().replacen("gather_idx[", "gather_idxx[", 1);
        let err = validate_wgsl(&src, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("gather_idxx"), "{err}");
    }

    #[test]
    fn duplicate_bindings_are_rejected() {
        let src = good_shader().replacen("@binding(2)", "@binding(1)", 1);
        let err = validate_wgsl(&src, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("duplicate @binding"), "{err}");
    }

    #[test]
    fn missing_entry_point_is_rejected() {
        let src = good_shader().replacen("@compute ", "", 1);
        let err = validate_wgsl(&src, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("@compute"), "{err}");
    }

    #[test]
    fn oversized_workgroups_are_rejected() {
        let src = good_shader().replacen("@workgroup_size(32, 4, 1)", "@workgroup_size(512)", 1);
        let err = validate_wgsl(&src, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn workgroup_memory_budget_is_enforced() {
        let tight = ValidateOptions {
            max_workgroup_bytes: 16,
            ..Default::default()
        };
        let err = validate_wgsl(&good_shader(), &tight).unwrap_err();
        assert!(err.to_string().contains("workgroup memory"), "{err}");
    }

    #[test]
    fn unterminated_comment_is_rejected() {
        let src = format!("{}\n/* dangling", good_shader());
        let err = validate_wgsl(&src, &ValidateOptions::default()).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }
}
