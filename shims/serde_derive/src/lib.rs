//! Offline stand-in for `serde_derive`.
//!
//! Generates `impl serde::Serialize` / `impl serde::Deserialize` against the
//! shim's simplified JSON data model (`to_json`/`from_json`). Parsing is done
//! with raw `proc_macro::TokenTree` walking (no `syn`/`quote`, which cannot be
//! fetched offline); code is generated as a string and re-parsed.
//!
//! Supported shapes — exactly what this workspace uses:
//! named structs, single-field tuple (newtype) structs, enums with unit /
//! struct / single-field tuple variants; container attributes `rename_all`
//! (`snake_case`, `SCREAMING_SNAKE_CASE`, `lowercase`, `UPPERCASE`),
//! `tag = "..."` (internal tagging), and `try_from`/`into` type conversions.
//! Generics are not supported.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derive `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

// ---------------------------------------------------------------------------
// Mini-AST
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    attrs: ContainerAttrs,
    data: Data,
}

#[derive(Default)]
struct ContainerAttrs {
    rename_all: Option<String>,
    tag: Option<String>,
    try_from: Option<String>,
    into: Option<String>,
}

enum Data {
    NamedStruct(Vec<Field>),
    /// Single-field tuple struct (newtype).
    NewtypeStruct,
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Named(Vec<Field>),
    /// Single-field tuple variant.
    Newtype,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = ContainerAttrs::default();

    // Leading attributes (doc comments, #[serde(...)], other derives' leftovers).
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    parse_serde_attr(g.stream(), &mut attrs);
                    i += 2;
                } else {
                    panic!("serde_derive: `#` not followed by attribute group");
                }
            }
            _ => break,
        }
    }

    // Visibility.
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }

    let keyword = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported (type {name})");
    }

    let data = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                match count_top_level_fields(g.stream()) {
                    1 => Data::NewtypeStruct,
                    n => panic!("serde_derive shim: tuple struct {name} has {n} fields; only newtype (1 field) supported"),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::UnitStruct,
            other => panic!("serde_derive: unexpected token after struct {name}: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive: unexpected token after enum {name}: {other:?}"),
        },
        kw => panic!("serde_derive: cannot derive for `{kw}` items"),
    };

    Item { name, attrs, data }
}

/// If the attribute group is `[serde(...)]`, fold its entries into `attrs`.
fn parse_serde_attr(stream: TokenStream, attrs: &mut ContainerAttrs) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return, // doc comment or unrelated attribute
    }
    let inner = match tokens.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().to_string()
        }
        _ => return,
    };
    for entry in inner.split(',') {
        let mut parts = entry.splitn(2, '=');
        let key = parts.next().unwrap_or("").trim().to_string();
        let val = parts
            .next()
            .map(|v| v.trim().trim_matches('"').to_string())
            .unwrap_or_default();
        match key.as_str() {
            "rename_all" => attrs.rename_all = Some(val),
            "tag" => attrs.tag = Some(val),
            "try_from" => attrs.try_from = Some(val),
            "into" => attrs.into = Some(val),
            other => panic!("serde_derive shim: unsupported serde attribute `{other}`"),
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Field attributes / doc comments.
        while matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '#') {
            i += 2;
        }
        // Visibility.
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, found {other}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field {name}, found {other}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or end)
        fields.push(Field { name });
    }
    fields
}

fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut trailing_comma = false;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = idx == tokens.len() - 1;
            }
            _ => {}
        }
    }
    commas + if trailing_comma { 0 } else { 1 }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '#') {
            i += 2;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, found {other}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                match count_top_level_fields(g.stream()) {
                    1 => VariantShape::Newtype,
                    n => panic!(
                        "serde_derive shim: tuple variant {name} has {n} fields; only 1 supported"
                    ),
                }
            }
            _ => VariantShape::Unit,
        };
        // Skip to past the separating comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------------------
// Name transforms
// ---------------------------------------------------------------------------

fn apply_rename(name: &str, rule: Option<&str>) -> String {
    match rule {
        None => name.to_string(),
        Some("lowercase") => name.to_lowercase(),
        Some("UPPERCASE") => name.to_uppercase(),
        Some("snake_case") => split_words(name).join("_"),
        Some("SCREAMING_SNAKE_CASE") => split_words(name)
            .iter()
            .map(|w| w.to_uppercase())
            .collect::<Vec<_>>()
            .join("_"),
        Some(other) => panic!("serde_derive shim: unsupported rename_all rule `{other}`"),
    }
}

/// Split a CamelCase identifier into lowercase words.
fn split_words(name: &str) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for c in name.chars() {
        if c.is_uppercase() || words.is_empty() {
            words.push(String::new());
        }
        let last = words.last_mut().expect("words non-empty");
        last.extend(c.to_lowercase());
    }
    words
}

// ---------------------------------------------------------------------------
// Codegen: Serialize
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(into_ty) = &item.attrs.into {
        format!(
            "let __s: {into_ty} = <Self as ::std::convert::Into<{into_ty}>>::into(::std::clone::Clone::clone(self));\n\
             ::serde::Serialize::to_json(&__s)"
        )
    } else {
        match &item.data {
            Data::NamedStruct(fields) => {
                let mut s = String::from("let mut __m = ::serde::Map::new();\n");
                for f in fields {
                    let fname = &f.name;
                    s.push_str(&format!(
                        "__m.insert(\"{fname}\".to_string(), ::serde::Serialize::to_json(&self.{fname}));\n"
                    ));
                }
                s.push_str("::serde::Value::Object(__m)");
                s
            }
            Data::NewtypeStruct => "::serde::Serialize::to_json(&self.0)".to_string(),
            Data::UnitStruct => "::serde::Value::Null".to_string(),
            Data::Enum(variants) => gen_serialize_enum(item, variants),
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_json(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_serialize_enum(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    let rule = item.attrs.rename_all.as_deref();
    let mut arms = String::new();
    for v in variants {
        let vname = &v.name;
        let wire = apply_rename(vname, rule);
        let arm = match (&v.shape, &item.attrs.tag) {
            (VariantShape::Unit, None) => format!(
                "{name}::{vname} => ::serde::Value::String(::serde::Str::from(\"{wire}\")),\n"
            ),
            (VariantShape::Unit, Some(tag)) => format!(
                "{name}::{vname} => {{\n\
                     let mut __m = ::serde::Map::new();\n\
                     __m.insert(\"{tag}\".to_string(), ::serde::Value::String(::serde::Str::from(\"{wire}\")));\n\
                     ::serde::Value::Object(__m)\n\
                 }}\n"
            ),
            (VariantShape::Named(fields), tag) => {
                let binders = fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ");
                let mut inserts = String::new();
                for f in fields {
                    let fname = &f.name;
                    inserts.push_str(&format!(
                        "__inner.insert(\"{fname}\".to_string(), ::serde::Serialize::to_json({fname}));\n"
                    ));
                }
                match tag {
                    // Internally tagged: fields inline next to the tag.
                    Some(tag) => format!(
                        "{name}::{vname} {{ {binders} }} => {{\n\
                             let mut __inner = ::serde::Map::new();\n\
                             __inner.insert(\"{tag}\".to_string(), ::serde::Value::String(::serde::Str::from(\"{wire}\")));\n\
                             {inserts}\
                             ::serde::Value::Object(__inner)\n\
                         }}\n"
                    ),
                    // Externally tagged: {"variant": {fields}}.
                    None => format!(
                        "{name}::{vname} {{ {binders} }} => {{\n\
                             let mut __inner = ::serde::Map::new();\n\
                             {inserts}\
                             let mut __m = ::serde::Map::new();\n\
                             __m.insert(\"{wire}\".to_string(), ::serde::Value::Object(__inner));\n\
                             ::serde::Value::Object(__m)\n\
                         }}\n"
                    ),
                }
            }
            (VariantShape::Newtype, None) => format!(
                "{name}::{vname}(__x) => {{\n\
                     let mut __m = ::serde::Map::new();\n\
                     __m.insert(\"{wire}\".to_string(), ::serde::Serialize::to_json(__x));\n\
                     ::serde::Value::Object(__m)\n\
                 }}\n"
            ),
            (VariantShape::Newtype, Some(_)) => panic!(
                "serde_derive shim: internally tagged newtype variant {name}::{vname} unsupported"
            ),
        };
        arms.push_str(&arm);
    }
    format!("match self {{\n{arms}}}")
}

// ---------------------------------------------------------------------------
// Codegen: Deserialize
// ---------------------------------------------------------------------------

/// Expression deserializing field `fname` out of object expression `obj`.
fn field_from_obj(obj: &str, fname: &str) -> String {
    format!(
        "::serde::Deserialize::from_json({obj}.get(\"{fname}\").unwrap_or(&::serde::Value::Null))\
         .map_err(|__e| ::serde::Error::in_field(__e, \"{fname}\"))?"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(from_ty) = &item.attrs.try_from {
        format!(
            "let __s: {from_ty} = <{from_ty} as ::serde::Deserialize>::from_json(__v)?;\n\
             <Self as ::std::convert::TryFrom<{from_ty}>>::try_from(__s)\
             .map_err(|__e| ::serde::Error::custom(::std::format!(\"{{}}\", __e)))"
        )
    } else {
        match &item.data {
            Data::NamedStruct(fields) => {
                let mut inits = String::new();
                for f in fields {
                    inits.push_str(&format!(
                        "{}: {},\n",
                        f.name,
                        field_from_obj("__obj", &f.name)
                    ));
                }
                format!(
                    "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::custom(\
                         ::std::format!(\"{name}: expected object, got {{}}\", __v)))?;\n\
                     ::std::result::Result::Ok({name} {{\n{inits}}})"
                )
            }
            Data::NewtypeStruct => {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_json(__v)?))")
            }
            Data::UnitStruct => format!("::std::result::Result::Ok({name})"),
            Data::Enum(variants) => gen_deserialize_enum(item, variants),
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_json(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize_enum(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    let rule = item.attrs.rename_all.as_deref();

    if let Some(tag) = &item.attrs.tag {
        // Internally tagged.
        let mut arms = String::new();
        for v in variants {
            let vname = &v.name;
            let wire = apply_rename(vname, rule);
            match &v.shape {
                VariantShape::Unit => {
                    arms.push_str(&format!("\"{wire}\" => ::std::result::Result::Ok({name}::{vname}),\n"));
                }
                VariantShape::Named(fields) => {
                    let mut inits = String::new();
                    for f in fields {
                        inits.push_str(&format!("{}: {},\n", f.name, field_from_obj("__obj", &f.name)));
                    }
                    arms.push_str(&format!(
                        "\"{wire}\" => ::std::result::Result::Ok({name}::{vname} {{\n{inits}}}),\n"
                    ));
                }
                VariantShape::Newtype => panic!(
                    "serde_derive shim: internally tagged newtype variant {name}::{vname} unsupported"
                ),
            }
        }
        return format!(
            "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::custom(\
                 ::std::format!(\"{name}: expected object, got {{}}\", __v)))?;\n\
             let __tag = __obj.get(\"{tag}\").and_then(::serde::Value::as_str).ok_or_else(|| \
                 ::serde::Error::custom(\"{name}: missing or non-string tag `{tag}`\"))?;\n\
             match __tag {{\n{arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                     ::std::format!(\"{name}: unknown variant `{{}}`\", __other))),\n\
             }}"
        );
    }

    // Externally tagged: unit variants appear as bare strings, data-carrying
    // variants as single-key objects.
    let mut string_arms = String::new();
    let mut object_arms = String::new();
    for v in variants {
        let vname = &v.name;
        let wire = apply_rename(vname, rule);
        match &v.shape {
            VariantShape::Unit => {
                string_arms.push_str(&format!(
                    "\"{wire}\" => return ::std::result::Result::Ok({name}::{vname}),\n"
                ));
                object_arms.push_str(&format!(
                    "\"{wire}\" => return ::std::result::Result::Ok({name}::{vname}),\n"
                ));
            }
            VariantShape::Named(fields) => {
                let mut inits = String::new();
                for f in fields {
                    inits.push_str(&format!(
                        "{}: {},\n",
                        f.name,
                        field_from_obj("__inner", &f.name)
                    ));
                }
                object_arms.push_str(&format!(
                    "\"{wire}\" => {{\n\
                         let __inner = __val.as_object().ok_or_else(|| ::serde::Error::custom(\
                             \"{name}::{vname}: expected object payload\"))?;\n\
                         return ::std::result::Result::Ok({name}::{vname} {{\n{inits}}});\n\
                     }}\n"
                ));
            }
            VariantShape::Newtype => {
                object_arms.push_str(&format!(
                    "\"{wire}\" => return ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::from_json(__val)?)),\n"
                ));
            }
        }
    }
    format!(
        "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
             match __s {{\n{string_arms}\
                 __other => return ::std::result::Result::Err(::serde::Error::custom(\
                     ::std::format!(\"{name}: unknown variant `{{}}`\", __other))),\n\
             }}\n\
         }}\n\
         if let ::std::option::Option::Some(__obj) = __v.as_object() {{\n\
             if let ::std::option::Option::Some((__k, __val)) = __obj.iter().next() {{\n\
                 match __k.as_str() {{\n{object_arms}\
                     __other => return ::std::result::Result::Err(::serde::Error::custom(\
                         ::std::format!(\"{name}: unknown variant `{{}}`\", __other))),\n\
                 }}\n\
             }}\n\
             return ::std::result::Result::Err(::serde::Error::custom(\"{name}: empty object\"));\n\
         }}\n\
         ::std::result::Result::Err(::serde::Error::custom(\
             ::std::format!(\"{name}: cannot deserialize from {{}}\", __v)))"
    )
}
