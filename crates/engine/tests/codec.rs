//! The direct JSON codec against the `Value` path.
//!
//! Every spec and result type derives a direct writer and reader
//! (`write_json` / `read_json`) next to its `Value` conversions. The
//! writer must write exactly the `Value` path's bytes; the reader may
//! fail where the `Value` path succeeds, but when it returns a value it
//! must be the `Value` path's, and `serde_json::from_str` must return
//! exactly what the `Value` path returns, error text included. These
//! tests hold both paths to that on every golden and shipped template,
//! on checkpoint lines, and on random mutations of them: changed
//! leaves, dropped, duplicated, unknown and `\u`-escaped keys, odd
//! number forms, byte flips and truncations.

use std::fmt::Debug;

use proptest::{RngExt, StdRng};
use serde::json::{write_value, MAX_DEPTH};
use serde::{Deserialize, Number, Serialize, Value};
use vardelay_engine::{
    checkpoint_line, join_checkpoint_line, CampaignResult, Checkpoint, OptimizationCampaign,
    OptimizationRunResult, ScenarioResult, Sweep, SweepResult,
};

/// What a document is read as.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Sweep,
    Campaign,
    SweepResult,
    CampaignResult,
    ScenarioLine,
    RunLine,
}

const TEMPLATES: [(&str, &str); 6] = [
    (
        "blockade_yield",
        include_str!("../../../examples/sweeps/blockade_yield.json"),
    ),
    (
        "netlist",
        include_str!("../../../examples/sweeps/netlist.json"),
    ),
    (
        "netlist_v3",
        include_str!("../../../examples/sweeps/netlist_v3.json"),
    ),
    (
        "optimize",
        include_str!("../../../examples/sweeps/optimize.json"),
    ),
    (
        "pipeline",
        include_str!("../../../examples/sweeps/pipeline.json"),
    ),
    (
        "stratified",
        include_str!("../../../examples/sweeps/stratified.json"),
    ),
];

/// Campaign templates list `runs`; sweep templates do not.
fn template_kind(text: &str) -> Kind {
    if text.contains("\"runs\"") {
        Kind::Campaign
    } else {
        Kind::Sweep
    }
}

const GOLDENS: [(Kind, &str); 10] = [
    (Kind::Campaign, include_str!("golden/campaign_spec.json")),
    (
        Kind::CampaignResult,
        include_str!("golden/campaign_result.json"),
    ),
    (Kind::Sweep, include_str!("golden/mc_matrix_spec.json")),
    (
        Kind::SweepResult,
        include_str!("golden/mc_matrix_result.json"),
    ),
    (
        Kind::Campaign,
        include_str!("golden/mc_matrix_campaign_spec.json"),
    ),
    (
        Kind::CampaignResult,
        include_str!("golden/mc_matrix_campaign_result.json"),
    ),
    (Kind::Sweep, include_str!("golden/v3_plans_spec.json")),
    (
        Kind::SweepResult,
        include_str!("golden/v3_plans_result.json"),
    ),
    (
        Kind::Campaign,
        include_str!("golden/v3_plans_campaign_spec.json"),
    ),
    (
        Kind::CampaignResult,
        include_str!("golden/v3_plans_campaign_result.json"),
    ),
];

fn show<T: Debug>(r: &Result<T, serde::Error>) -> String {
    // `Debug` tells `-0.0` from `0.0`, which `PartialEq` does not.
    format!("{r:?}")
}

/// Reads `text` as `T` on both paths and checks they agree: a direct
/// `Ok` is the `Value` path's value, and `parse` (the caller's entry
/// point, `serde_json::from_str` underneath) returns exactly the `Value`
/// path's result. Returns that result.
fn read_agrees<T: Deserialize + Debug>(
    text: &str,
    parse: fn(&str) -> Result<T, serde::Error>,
) -> Result<T, serde::Error> {
    let want = serde_json::from_str::<Value>(text).and_then(|v| T::from_value(&v));
    if let Ok(direct) = serde::json::Reader::new(text).read_all::<T>() {
        assert_eq!(show(&Ok(direct)), show(&want), "direct read of {text}");
    }
    assert_eq!(show(&parse(text)), show(&want), "parse of {text}");
    want
}

/// The direct writer's bytes are the `Value` writer's.
fn write_agrees<T: Serialize>(value: &T) {
    let mut want = String::new();
    let want = write_value(&mut want, &value.to_value()).map(|()| want);
    assert_eq!(serde_json::to_string(value), want);
}

/// Both reads of `text` as `T`; when they succeed, both writes of the
/// value. Returns whether the `Value` path accepted `text`.
fn codec_agrees<T: Deserialize + Serialize + Debug>(
    text: &str,
    parse: fn(&str) -> Result<T, serde::Error>,
) -> bool {
    match read_agrees(text, parse) {
        Ok(value) => {
            write_agrees(&value);
            true
        }
        Err(_) => false,
    }
}

/// A checkpoint line's parse through the `Value` tree of the whole line
/// — the parse every line had before the direct path.
fn line_by_value<R: Deserialize>(line: &str) -> Result<(u64, R), serde::Error> {
    let v: Value = serde_json::from_str(line)?;
    let id_hex = String::from_value(v.field("unit")?)?;
    let id = u64::from_str_radix(&id_hex, 16)
        .map_err(|_| serde::Error::new(format!("invalid unit id '{id_hex}'")))?;
    Ok((id, R::from_value(v.field("result")?)?))
}

/// `Checkpoint::parse` of `line` as a mid-file line (so a bad line is an
/// error, not a torn tail) against [`line_by_value`], and both writes
/// of a result that parsed. Returns whether the line parsed.
fn checkpoint_agrees<R: Deserialize + Serialize + Debug>(line: &str) -> bool {
    let want = line_by_value::<R>(line);
    // A second copy keeps the first off the final position; it carries
    // the same ID.
    let got = Checkpoint::<R>::parse(&format!("{line}\n{line}\n"));
    match (&want, &got) {
        (Ok((id, r)), Ok(ckpt)) => {
            assert_eq!(ckpt.len(), 1, "{line}");
            assert_eq!(format!("{:?}", ckpt.get(*id)), format!("{:?}", Some(r)));
            write_agrees(r);
            true
        }
        (Err(e), Err(g)) => {
            assert_eq!(g.to_string(), format!("checkpoint line 1: {e}"), "{line}");
            false
        }
        _ => panic!(
            "{line}: checkpoint parse {:?} but Value path {:?}",
            got.err(),
            want.err()
        ),
    }
}

fn check(kind: Kind, text: &str) -> bool {
    match kind {
        Kind::Sweep => codec_agrees(text, Sweep::from_json),
        Kind::Campaign => codec_agrees(text, OptimizationCampaign::from_json),
        Kind::SweepResult => codec_agrees(text, serde_json::from_str::<SweepResult>),
        Kind::CampaignResult => codec_agrees(text, serde_json::from_str::<CampaignResult>),
        Kind::ScenarioLine => checkpoint_agrees::<ScenarioResult>(text),
        Kind::RunLine => checkpoint_agrees::<OptimizationRunResult>(text),
    }
}

#[test]
fn goldens_and_templates_read_and_write_alike_on_both_paths() {
    for (name, text) in TEMPLATES {
        assert!(check(template_kind(text), text), "{name} parses");
    }
    for (kind, text) in GOLDENS {
        assert!(check(kind, text), "{kind:?} golden parses");
    }
    // The result goldens re-serialize to their own bytes through the
    // direct writer and the re-indenter.
    for (kind, text) in GOLDENS {
        let pretty = match kind {
            Kind::SweepResult => {
                serde_json::to_string_pretty(&serde_json::from_str::<SweepResult>(text).unwrap())
            }
            Kind::CampaignResult => {
                serde_json::to_string_pretty(&serde_json::from_str::<CampaignResult>(text).unwrap())
            }
            _ => continue,
        };
        assert_eq!(pretty.unwrap(), text, "{kind:?} golden bytes");
    }
}

#[test]
fn golden_checkpoint_lines_parse_alike_on_both_paths() {
    let mut lines = 0;
    for (kind, text) in GOLDENS {
        match kind {
            Kind::SweepResult => {
                let r: SweepResult = serde_json::from_str(text).unwrap();
                for (i, s) in r.scenarios.iter().enumerate() {
                    assert!(check(Kind::ScenarioLine, &checkpoint_line(i as u64, s)));
                    lines += 1;
                }
            }
            Kind::CampaignResult => {
                let r: CampaignResult = serde_json::from_str(text).unwrap();
                for (i, run) in r.runs.iter().enumerate() {
                    assert!(check(Kind::RunLine, &checkpoint_line(!(i as u64), run)));
                    lines += 1;
                }
            }
            _ => {}
        }
    }
    assert!(lines > 50, "{lines} lines");
}

/// A nesting of `depth` containers, the innermost holding a number.
fn nested(depth: usize) -> String {
    format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn nesting_deeper_than_128_fails_cleanly_in_specs_and_journal_lines() {
    assert_eq!(MAX_DEPTH, 128);
    // A spec whose `name` holds 127 more containers is 128 deep: it
    // parses as JSON and fails on its shape.
    let spec = |inner: usize| format!("{{\"name\":{},\"seed\":1}}", nested(inner));
    let err = Sweep::from_json(&spec(127)).unwrap_err().to_string();
    assert_eq!(err, "expected string, found array");
    for inner in [128, 200_000] {
        let err = Sweep::from_json(&spec(inner)).unwrap_err().to_string();
        assert_eq!(err, "nesting deeper than 128 at byte 135", "{inner}");
        let err = OptimizationCampaign::from_json(&spec(inner)).unwrap_err();
        assert_eq!(err.to_string(), "nesting deeper than 128 at byte 135");
    }
    // A journal line is one container itself: its result may nest 127
    // deep.
    let line = |inner: usize| join_checkpoint_line(7, &nested(inner));
    let ok = Checkpoint::<Value>::parse(&format!("{}\n", line(127))).unwrap();
    assert!(ok.get(7).is_some() && !ok.torn_tail());
    for inner in [128, 200_000] {
        // As the final line it is a torn tail, like any unparseable
        // last line ...
        let torn = Checkpoint::<Value>::parse(&format!("{}\n", line(inner))).unwrap();
        assert!(torn.torn_tail() && torn.is_empty(), "{inner}");
        // ... and anywhere else it is corruption.
        let text = format!("{}\n{}\n", line(inner), line(1));
        let err = Checkpoint::<Value>::parse(&text).unwrap_err().to_string();
        assert_eq!(
            err, "checkpoint line 1: nesting deeper than 128 at byte 163",
            "{inner}"
        );
    }
}

/// Characters a codec could mistake for structure or mis-escape.
const CHARS: &[char] = &[
    'a', 'Z', ' ', '"', '\\', '/', '[', ']', '{', '}', ',', ':', '\n', '\t', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', '€', '😀',
];

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..6usize);
    (0..len)
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

fn random_number(rng: &mut StdRng, like: Number) -> Number {
    const FLOATS: [f64; 8] = [
        0.0,
        -0.0,
        1.0,
        0.1,
        -2.5,
        1e-300,
        5e-324,
        1.7976931348623157e308,
    ];
    const UINTS: [u64; 8] = [0, 1, 2, 255, 256, 65_536, 1 << 32, u64::MAX];
    match (like, rng.random_range(0..4u32)) {
        (Number::F64(_), 0) => {
            let x = f64::from_bits(rng.random());
            Number::F64(if x.is_finite() { x } else { 0.5 })
        }
        (Number::F64(_), _) => Number::F64(FLOATS[rng.random_range(0..FLOATS.len())]),
        (_, 0) => Number::I64(-rng.random_range(1..i64::MAX)),
        (_, 1) => Number::U64(rng.random()),
        _ => Number::U64(UINTS[rng.random_range(0..UINTS.len())]),
    }
}

/// Every node's index path, root first.
fn paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, x)| x).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Array(items) => &mut items[i],
        Value::Object(fields) => &mut fields[i].1,
        _ => unreachable!("paths only index containers"),
    })
}

/// Changes one random node: mostly a same-kind leaf change (so the
/// result often still reads), sometimes a dropped, duplicated or
/// unknown key, a shortened or lengthened array, or a kind change.
fn mutate(v: &mut Value, rng: &mut StdRng) {
    let mut all = Vec::new();
    paths(v, &mut Vec::new(), &mut all);
    let node = node_mut(v, &all[rng.random_range(0..all.len())]);
    let roll = rng.random_range(0..10u32);
    match node {
        Value::Number(n) if roll < 8 => *n = random_number(rng, *n),
        Value::String(s) if roll < 8 => *s = random_string(rng),
        Value::Bool(b) if roll < 8 => *b = !*b,
        Value::Array(items) if roll < 8 && !items.is_empty() => {
            let i = rng.random_range(0..items.len());
            if rng.random() {
                items.remove(i);
            } else {
                let copy = items[i].clone();
                items.insert(i, copy);
            }
        }
        Value::Object(fields) if roll < 8 && !fields.is_empty() => {
            let i = rng.random_range(0..fields.len());
            match rng.random_range(0..4u32) {
                0 => {
                    fields.remove(i);
                }
                1 => {
                    let copy = fields[i].clone();
                    fields.push(copy);
                }
                2 => fields.insert(i, (random_string(rng), Value::Null)),
                _ => {
                    let j = rng.random_range(0..fields.len());
                    fields.swap(i, j);
                }
            }
        }
        _ => {
            *node = match rng.random_range(0..5u32) {
                0 => Value::Null,
                1 => Value::Number(Number::U64(3)),
                2 => Value::String("pipeline".to_owned()),
                3 => Value::Array(Vec::new()),
                _ => Value::Object(Vec::new()),
            }
        }
    }
}

/// Byte spans of the number tokens of compact or pretty JSON `text`.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push((start, i));
            continue;
        }
        i += 1;
    }
    spans
}

/// Number forms on the edge of the grammar or of a field's type.
const NUMBERS: [&str; 10] = [
    "-0",
    "1E+2",
    "01",
    "-0.0",
    "1e400",
    "18446744073709551616",
    "-1",
    "1.0",
    "0",
    "1.",
];

/// Rewrites `text` the way a hand-edited or damaged spec differs from
/// a written one: a byte flipped to a structural or number byte, a
/// truncation, a key spelled with a `\u` escape, or an odd number form.
fn mutate_text(text: &str, rng: &mut StdRng) -> String {
    const BYTES: &[u8] = b"{}[],:\"\\ 0123456789-+.eEtrunlfa\x01\n";
    match rng.random_range(0..4u32) {
        0 => {
            let ascii: Vec<usize> = (0..text.len())
                .filter(|&i| text.as_bytes()[i].is_ascii())
                .collect();
            let i = ascii[rng.random_range(0..ascii.len())];
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] = BYTES[rng.random_range(0..BYTES.len())];
            String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte")
        }
        1 => {
            let mut cut = rng.random_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }
        2 => {
            // `"label":` becomes e.g. `"la\u0062el":`, the same key.
            let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i).collect();
            let Some(&end) = keys.get(rng.random_range(0..keys.len().max(1))) else {
                return text.to_owned();
            };
            let start = text[..end].rfind('"').expect("a key's opening quote") + 1;
            let Some(at) = (start..end).find(|&i| text.as_bytes()[i].is_ascii_alphanumeric())
            else {
                return text.to_owned();
            };
            format!(
                "{}\\u{:04x}{}",
                &text[..at],
                text.as_bytes()[at],
                &text[at + 1..]
            )
        }
        _ => {
            let spans = number_spans(text);
            let Some(&(start, end)) = spans.get(rng.random_range(0..spans.len().max(1))) else {
                return text.to_owned();
            };
            let with = NUMBERS[rng.random_range(0..NUMBERS.len())];
            format!("{}{with}{}", &text[..start], &text[end..])
        }
    }
}

/// Serializes a mutated tree compactly or pretty, like the files the
/// readers see.
fn render(v: &Value, rng: &mut StdRng) -> String {
    let mut compact = String::new();
    write_value(&mut compact, v).unwrap();
    if rng.random() {
        compact
    } else {
        serde_json::to_string_pretty(v).unwrap()
    }
}

/// A random document to mutate: a template, a spec or campaign golden,
/// or one unit of a result golden — a whole result file, or a
/// checkpoint line of one of its units.
fn pick_document(rng: &mut StdRng) -> (Kind, Value) {
    let roll = rng.random_range(0..4u32);
    if roll == 0 {
        let (_, text) = TEMPLATES[rng.random_range(0..TEMPLATES.len())];
        return (template_kind(text), serde_json::from_str(text).unwrap());
    }
    let (kind, text) = GOLDENS[rng.random_range(0..GOLDENS.len())];
    let mut v: Value = serde_json::from_str(text).unwrap();
    let units = match &mut v {
        Value::Object(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == "scenarios" || k == "runs")
            .map(|(_, units)| units),
        _ => None,
    };
    let (Some(Value::Array(units)), Kind::SweepResult | Kind::CampaignResult) = (units, kind)
    else {
        return (kind, v);
    };
    // Keep the documents small: one or two units of a result file.
    let i = rng.random_range(0..units.len());
    let unit = units.swap_remove(i);
    if roll == 1 {
        let line_kind = match kind {
            Kind::SweepResult => Kind::ScenarioLine,
            _ => Kind::RunLine,
        };
        return (line_kind, unit);
    }
    units.truncate(1);
    units.push(unit);
    (kind, v)
}

proptest::proptest! {
    #[test]
    fn mutated_documents_read_and_write_alike(seed in proptest::any::<u64>()) {
        use proptest::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (kind, mut v) = pick_document(&mut rng);
        for _ in 0..rng.random_range(1..4u32) {
            mutate(&mut v, &mut rng);
        }
        let text = match kind {
            Kind::ScenarioLine | Kind::RunLine => {
                let mut compact = String::new();
                write_value(&mut compact, &v).unwrap();
                join_checkpoint_line(rng.random(), &compact)
            }
            _ => render(&v, &mut rng),
        };
        check(kind, &text);
        // The same document damaged as text.
        check(kind, &mutate_text(&text, &mut rng));
    }

    #[test]
    fn spec_reader_fuzz_matches_the_value_path(seed in proptest::any::<u64>()) {
        use proptest::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        for (_, template) in TEMPLATES {
            let kind = template_kind(template);
            let mut text = template.to_owned();
            if rng.random() {
                let mut v: Value = serde_json::from_str(&text).unwrap();
                mutate(&mut v, &mut rng);
                text = render(&v, &mut rng);
            }
            for _ in 0..rng.random_range(1..3u32) {
                text = mutate_text(&text, &mut rng);
            }
            check(kind, &text);
        }
    }
}
