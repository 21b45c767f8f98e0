//! Behavioural pins for the vendored serde stand-in's derive: the
//! attribute combinations the workspace uses must decode exactly like
//! upstream serde. In particular, `#[serde(default)]` only changes what
//! happens when the key is *absent* — a present key still decodes
//! through the field's `#[serde(with = "module")]` module.

use serde::{Deserialize, Serialize};

/// A `with`-module that puts a `u64` on the wire as a hex string, so a
/// plain `from_value` decode of the field is guaranteed to fail — any
/// path that skips the module is caught, not silently tolerated.
mod hex {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &u64, s: S) -> Result<S::Ok, S::Error> {
        format!("{v:x}").serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<u64, D::Error> {
        let s = String::deserialize(d)?;
        u64::from_str_radix(&s, 16).map_err(serde::de::Error::custom)
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    label: String,
    #[serde(default, with = "hex")]
    addr: u64,
}

#[test]
fn default_with_field_round_trips_through_the_with_module() {
    let rec = Record { label: "probe".to_string(), addr: 0xdead_beef };
    let json = serde_json::to_string(&rec).unwrap();
    assert!(json.contains("\"deadbeef\""), "serialized via the module: {json}");
    let back: Record = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec, "present key decodes through the with-module");
}

#[test]
fn default_with_field_still_defaults_when_absent() {
    // Wire compat: a record written before the field existed.
    let back: Record = serde_json::from_str(r#"{"label":"old"}"#).unwrap();
    assert_eq!(back, Record { label: "old".to_string(), addr: 0 });
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Middle {
    depth: u64,
    leaf: Record,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Outer {
    name: String,
    inner: Middle,
    #[serde(default)]
    more: Vec<Middle>,
}

#[test]
fn nested_structs_round_trip_byte_identically() {
    let middle = |depth: u64| Middle {
        depth,
        leaf: Record { label: format!("leaf ✓ \"{depth}\""), addr: depth * 0x1000 },
    };
    let outer =
        Outer { name: "outer".to_string(), inner: middle(1), more: vec![middle(2), middle(3)] };
    let json = serde_json::to_string(&outer).unwrap();
    let back: Outer = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outer);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn missing_nested_field_is_still_an_error() {
    let err = serde_json::from_str::<Middle>(r#"{"depth":1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `leaf`"), "{err}");
}
