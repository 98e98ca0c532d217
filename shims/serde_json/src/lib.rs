//! Offline stand-in for `serde_json`.
//!
//! Re-exports the JSON tree types from the `serde` shim and provides the
//! parser, serializer entry points, and the `json!` macro. Behaviors the
//! workspace depends on are preserved: insertion order (`preserve_order`),
//! int/double distinction surviving round-trips (`float_roundtrip`-ish via
//! `{:?}` float formatting), and structural `1 != 1.0` equality.

mod parse;

pub use serde::{map, Error, FieldName, Map, Number, Str, Value};

pub use parse::from_str_value;

use serde::{Deserialize, Serialize};

/// Serialize any value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::value::json_to_string(&value.to_json()))
}

/// Serialize any value to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::value::json_to_string_pretty(&value.to_json()))
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_json())
}

/// Rebuild a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_json(&value)
}

/// Parse a JSON string into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse::from_str_value(s)?;
    T::from_json(&v)
}

/// Build a [`Value`] with JSON literal syntax.
///
/// Supports nested objects/arrays, trailing commas, expression values, and
/// expression keys (`json!({ field.as_str(): 1 })`).
///
/// An object is allocated at its final size: its entries are counted
/// before the first insert (one per top-level `:` — see [`json_count!`]),
/// so a nine-field document holds nine slots rather than the sixteen
/// that doubling growth would leave it with, and `{}` allocates nothing.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::json_internal!(@array () $($tt)*) };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __json_map =
            $crate::Map::with_capacity(0usize $(+ $crate::json_count!($tt))*);
        $crate::json_internal!(@object __json_map () $($tt)*);
        $crate::Value::Object(__json_map)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("json!: value failed to serialize")
    };
}

/// Implementation detail of [`json!`]: 1 for a `:` token, 0 for any
/// other token tree. Summed over an object's top-level tokens it counts
/// the entries — a flat repetition, one expansion per token, never a
/// recursion per token (`recursion_limit` is 128 and documents are
/// longer than that). Nested objects, arrays and calls are one token
/// tree each and `::` is its own token, so only a value that spells a
/// bare `:` at top level (a typed closure parameter, a block label) is
/// counted twice, which costs a spare slot and nothing else.
#[doc(hidden)]
#[macro_export]
macro_rules! json_count {
    (:) => {
        1usize
    };
    ($other:tt) => {
        0usize
    };
}

/// Implementation detail of [`json!`]; do not invoke directly.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ----- objects: `(key tokens so far)` accumulates until a top-level `:` -----
    // The key expression is borrowed, not rendered to a `String`: a name
    // the process already shares is inserted without copying it.
    (@insert $m:ident ($($k:tt)+) $v:expr) => {
        $m.insert_str(::core::convert::AsRef::<str>::as_ref(&($($k)+)), $v)
    };
    (@object $m:ident ()) => {};
    (@object $m:ident ($($k:tt)+) : null , $($rest:tt)*) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::Value::Null);
        $crate::json_internal!(@object $m () $($rest)*);
    };
    (@object $m:ident ($($k:tt)+) : null) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::Value::Null);
    };
    (@object $m:ident ($($k:tt)+) : { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!({ $($inner)* }));
        $crate::json_internal!(@object $m () $($rest)*);
    };
    (@object $m:ident ($($k:tt)+) : { $($inner:tt)* }) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!({ $($inner)* }));
    };
    (@object $m:ident ($($k:tt)+) : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!([ $($inner)* ]));
        $crate::json_internal!(@object $m () $($rest)*);
    };
    (@object $m:ident ($($k:tt)+) : [ $($inner:tt)* ]) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!([ $($inner)* ]));
    };
    (@object $m:ident ($($k:tt)+) : $v:expr , $($rest:tt)*) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!($v));
        $crate::json_internal!(@object $m () $($rest)*);
    };
    (@object $m:ident ($($k:tt)+) : $v:expr) => {
        $crate::json_internal!(@insert $m ($($k)+) $crate::json!($v));
    };
    (@object $m:ident ($($k:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_internal!(@object $m ($($k)* $next) $($rest)*);
    };

    // ----- arrays: `(elems so far,)` accumulates finished element exprs -----
    (@array ($($done:expr,)*)) => {
        $crate::Value::Array(vec![$($done,)*])
    };
    (@array ($($done:expr,)*) null , $($rest:tt)*) => {
        $crate::json_internal!(@array ($($done,)* $crate::Value::Null,) $($rest)*)
    };
    (@array ($($done:expr,)*) null) => {
        $crate::json_internal!(@array ($($done,)* $crate::Value::Null,))
    };
    (@array ($($done:expr,)*) { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!({ $($inner)* }),) $($rest)*)
    };
    (@array ($($done:expr,)*) { $($inner:tt)* }) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!({ $($inner)* }),))
    };
    (@array ($($done:expr,)*) [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!([ $($inner)* ]),) $($rest)*)
    };
    (@array ($($done:expr,)*) [ $($inner:tt)* ]) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!([ $($inner)* ]),))
    };
    (@array ($($done:expr,)*) $v:expr , $($rest:tt)*) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!($v),) $($rest)*)
    };
    (@array ($($done:expr,)*) $v:expr) => {
        $crate::json_internal!(@array ($($done,)* $crate::json!($v),))
    };
}
