//! A JSON-Schema-subset validator for the CI `profile-smoke` job.
//!
//! The schema for `PROFILE_<kernel>.json` is checked into
//! `docs/profile.schema.json`; CI validates freshly generated profiles
//! against it. We implement exactly the keywords that schema uses:
//! `type`, `required`, `properties`, `additionalProperties` (boolean),
//! `items`, `enum`, `const`, `minimum`, `minItems`. Unknown keywords
//! are ignored (as JSON Schema specifies).

use s2fa_trace::Json;

/// Validates `value` against `schema`, returning every violation as a
/// `path: message` string (empty vec = valid).
pub fn validate(schema: &Json, value: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    check(schema, value, "$", &mut errors);
    errors
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(n) => {
            if *n == n.trunc() {
                "integer"
            } else {
                "number"
            }
        }
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn type_matches(want: &str, v: &Json) -> bool {
    match want {
        "number" => matches!(v, Json::Num(_)),
        "integer" => matches!(v, Json::Num(n) if *n == n.trunc()),
        other => type_name(v) == other,
    }
}

fn check(s: &Json, value: &Json, path: &str, errors: &mut Vec<String>) {
    if s.as_obj().is_none() {
        return; // `true` / non-object schemas accept everything
    }

    if let Some(t) = s.get("type") {
        let allowed: Vec<&str> = match t {
            Json::Str(one) => vec![one.as_str()],
            Json::Arr(many) => many.iter().filter_map(|j| j.as_str()).collect(),
            _ => vec![],
        };
        if !allowed.iter().any(|want| type_matches(want, value)) {
            errors.push(format!(
                "{path}: expected type {}, got {}",
                allowed.join("|"),
                type_name(value)
            ));
            return; // structural keywords below assume the right type
        }
    }

    if let Some(c) = s.get("const") {
        if c != value {
            errors.push(format!(
                "{path}: does not match const {}",
                c.render_compact()
            ));
        }
    }

    if let Some(Json::Arr(options)) = s.get("enum") {
        if !options.contains(value) {
            errors.push(format!("{path}: not one of the enum values"));
        }
    }

    if let (Some(min), Some(n)) = (s.get("minimum").and_then(Json::as_f64), value.as_f64()) {
        if n < min {
            errors.push(format!("{path}: {n} is below minimum {min}"));
        }
    }

    if let Some(members) = value.as_obj() {
        if let Some(Json::Arr(required)) = s.get("required") {
            for key in required.iter().filter_map(|j| j.as_str()) {
                if value.get(key).is_none() {
                    errors.push(format!("{path}: missing required member `{key}`"));
                }
            }
        }
        let props = s.get("properties");
        for (key, sub) in props.and_then(Json::as_obj).unwrap_or_default() {
            if let Some(v) = value.get(key) {
                check(sub, v, &format!("{path}.{key}"), errors);
            }
        }
        if s.get("additionalProperties") == Some(&Json::Bool(false)) {
            for (key, _) in members {
                if props.and_then(|p| p.get(key)).is_none() {
                    errors.push(format!("{path}: unexpected member `{key}`"));
                }
            }
        }
    }

    if let Some(arr) = value.as_arr() {
        if let Some(min) = s.get("minItems").and_then(Json::as_u64) {
            if (arr.len() as u64) < min {
                errors.push(format!(
                    "{path}: {} items is below minItems {min}",
                    arr.len()
                ));
            }
        }
        if let Some(items) = s.get("items") {
            for (i, v) in arr.iter().enumerate() {
                check(items, v, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Json {
        Json::parse(
            r#"{
              "type": "object",
              "required": ["kernel", "spans"],
              "additionalProperties": false,
              "properties": {
                "kernel": {"type": "string"},
                "version": {"const": 1},
                "mode": {"enum": ["full", "metrics"]},
                "spans": {
                  "type": "array",
                  "minItems": 1,
                  "items": {
                    "type": "object",
                    "required": ["name", "duration_ns"],
                    "properties": {
                      "name": {"type": "string"},
                      "duration_ns": {"type": "integer", "minimum": 0}
                    }
                  }
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_a_conforming_document() {
        let doc = Json::parse(
            r#"{"kernel": "S-W", "version": 1, "mode": "full",
                "spans": [{"name": "dse", "duration_ns": 12}]}"#,
        )
        .unwrap();
        assert!(validate(&schema(), &doc).is_empty());
    }

    #[test]
    fn reports_each_violation_with_its_path() {
        let doc = Json::parse(
            r#"{"version": 2, "mode": "bogus", "extra": 0,
                "spans": [{"name": 5, "duration_ns": -1}]}"#,
        )
        .unwrap();
        let errs = validate(&schema(), &doc);
        let text = errs.join("\n");
        assert!(text.contains("missing required member `kernel`"), "{text}");
        assert!(text.contains("does not match const"), "{text}");
        assert!(text.contains("not one of the enum"), "{text}");
        assert!(text.contains("unexpected member `extra`"), "{text}");
        assert!(text.contains("$.spans[0].name"), "{text}");
        assert!(text.contains("below minimum"), "{text}");
    }

    #[test]
    fn wrong_type_short_circuits_structure_checks() {
        let doc = Json::parse(r#"{"kernel": "k", "spans": "oops"}"#).unwrap();
        let errs = validate(&schema(), &doc);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("$.spans: expected type array"));
    }

    #[test]
    fn integer_vs_number_distinction() {
        let s = Json::parse(r#"{"type": "integer"}"#).unwrap();
        assert!(validate(&s, &Json::Num(3.0)).is_empty());
        assert!(!validate(&s, &Json::Num(3.5)).is_empty());
        let n = Json::parse(r#"{"type": "number"}"#).unwrap();
        assert!(validate(&n, &Json::Num(3.5)).is_empty());
    }

    #[test]
    fn min_items_enforced() {
        let s = Json::parse(r#"{"type": "array", "minItems": 2}"#).unwrap();
        assert!(!validate(&s, &Json::Arr(vec![Json::Null])).is_empty());
        assert!(validate(&s, &Json::Arr(vec![Json::Null, Json::Null])).is_empty());
    }
}
