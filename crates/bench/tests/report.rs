//! `Report` renderings and `median_by`, through the crate's public surface.

use dufs_bench::{fmt_ops, median_by, Report, Scale, Value};

/// A minimal JSON reader for the round-trip test: objects keep their
/// key order, numbers and literals stay as written.
#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Bare(String),
}

struct Reader<'a>(std::iter::Peekable<std::str::Chars<'a>>);

impl Reader<'_> {
    fn skip_space(&mut self) {
        while self.0.next_if(|c| c.is_whitespace()).is_some() {}
    }

    fn expect(&mut self, want: char) {
        self.skip_space();
        assert_eq!(self.0.next(), Some(want));
    }

    /// Comma-separated `item`s up to `close`.
    fn list<T>(&mut self, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.skip_space();
        while self.0.next_if_eq(&close).is_none() {
            out.push(item(self));
            self.skip_space();
            if self.0.peek() != Some(&close) {
                self.expect(',');
                self.skip_space();
            }
        }
        out
    }

    fn string(&mut self) -> String {
        self.expect('"');
        let mut out = String::new();
        loop {
            match self.0.next().expect("unterminated string") {
                '"' => return out,
                '\\' => match self.0.next().expect("dangling escape") {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map(|_| self.0.next().unwrap()).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                    }
                    c @ ('"' | '\\' | '/') => out.push(c),
                    c => panic!("bad escape \\{c}"),
                },
                c => {
                    assert!(c >= ' ', "raw control character {c:?} inside a string");
                    out.push(c);
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match *self.0.peek().expect("value") {
            '{' => {
                self.0.next();
                Json::Object(self.list('}', |r| {
                    let key = r.string();
                    r.expect(':');
                    (key, r.value())
                }))
            }
            '[' => {
                self.0.next();
                Json::Array(self.list(']', Self::value))
            }
            '"' => Json::String(self.string()),
            _ => {
                let mut bare = String::new();
                while let Some(c) = self.0.next_if(|c| !",]} \n".contains(*c)) {
                    bare.push(c);
                }
                let literal = ["true", "false", "null"].contains(&bare.as_str());
                assert!(literal || bare.parse::<f64>().is_ok(), "bad scalar {bare:?}");
                Json::Bare(bare)
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut r = Reader(text.chars().peekable());
    let v = r.value();
    r.skip_space();
    assert_eq!(r.0.next(), None, "trailing input");
    v
}

#[test]
fn json_round_trips_hostile_strings_and_keeps_key_order() {
    let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7} é — done";
    let mut r = Report::new(nasty, Scale::Full);
    r.field("zeta", 3usize);
    r.field("alpha", nasty);
    r.field("nan", Value::float(f64::NAN, 1));
    r.table("rows \"quoted\"", vec!["b", "a\\"]);
    r.row(vec![Value::ops(42_300.0), nasty.into()]);
    r.row(vec![Value::unit(1.5, 2, "x"), true.into()]);
    r.note("notes stay out of JSON");
    r.gate("must \"hold\"", false, nasty);
    r.check("shape", true, "");
    r.next_file();
    r.field("second_file_only", 1usize);

    let s = |v: &str| Json::String(v.into());
    let bare = |v: &str| Json::Bare(v.into());
    let gate = |name: &str, required: &str, pass: &str, detail: &str| {
        Json::Object(vec![
            ("name".into(), s(name)),
            ("required".into(), bare(required)),
            ("pass".into(), bare(pass)),
            ("detail".into(), s(detail)),
        ])
    };
    let expected = Json::Object(vec![
        ("title".into(), s(nasty)),
        ("scale".into(), s("FULL")),
        ("zeta".into(), bare("3")),
        ("alpha".into(), s(nasty)),
        ("nan".into(), bare("null")),
        (
            "rows \"quoted\"".into(),
            Json::Array(vec![
                Json::Object(vec![("b".into(), bare("42300.0")), ("a\\".into(), s(nasty))]),
                Json::Object(vec![("b".into(), bare("1.50")), ("a\\".into(), bare("true"))]),
            ]),
        ),
        (
            "gates".into(),
            Json::Array(vec![
                gate("must \"hold\"", "true", "false", nasty),
                gate("shape", "false", "true", ""),
            ]),
        ),
    ]);
    assert_eq!(parse(&r.json(0)), expected);
    assert_eq!(
        parse(&r.json(1)),
        Json::Object(vec![
            ("title".into(), s(nasty)),
            ("scale".into(), s("FULL")),
            ("second_file_only".into(), bare("1")),
            ("gates".into(), Json::Array(vec![])),
        ])
    );
    assert_eq!(r.failed_gates(), vec!["must \"hold\""]);
}

#[test]
fn text_aligns_tables_and_splits_by_file() {
    let mut r = Report::new("T", Scale::Quick);
    r.table("caption", vec!["a", "col"]);
    r.row(vec![1usize.into(), Value::ops(42_300.0)]);
    r.row(vec![333usize.into(), Value::unit(9.04, 1, "ms")]);
    r.check("shape", false, "1 vs 2");
    r.next_file();
    r.field("k", "v");
    let first = "T, quick scale\n\ncaption\n  a    col\n----------\n  1  42.3k\n333  9.0ms\n\
                 shape check: shape: 1 vs 2 => MISMATCH\n";
    assert_eq!(r.text(Some(0)), first);
    assert_eq!(r.text(Some(1)), "T, quick scale\nk: v\n");
    assert_eq!(r.text(None), format!("{first}k: v\n"));
}

#[test]
fn median_by_keeps_the_whole_cell() {
    let cells = |keys: &[f64]| keys.iter().map(|&k| (k, format!("cell {k}"))).collect();
    let median = |keys: &[f64]| median_by::<(f64, String)>(cells(keys), |c| c.0).1;
    assert_eq!(median(&[7.0]), "cell 7");
    assert_eq!(median(&[3.0, 1.0, 2.0]), "cell 2");
    // Even count: the upper of the two middle elements.
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), "cell 3");
}

#[test]
#[should_panic]
fn median_by_panics_on_an_empty_set() {
    median_by(Vec::<f64>::new(), |x| *x);
}

#[test]
fn ops_formatting() {
    assert_eq!(fmt_ops(950.0), "950");
    assert_eq!(fmt_ops(42_300.0), "42.3k");
}
