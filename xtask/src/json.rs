//! A strict reader for the JSON `xtask ab` consumes: `BENCHMARK.json` and
//! perfbench's result line. The workspace takes no dependencies, so this
//! is a small recursive-descent parser; what it does not know is an error.

/// A parsed JSON value (neither input uses `null`); objects keep their
/// keys in document order.
#[derive(Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one document; text after it is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value()?;
        if !text[p.i..].trim().is_empty() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(v)
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(kv) = self else { return None };
        kv.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn num(&self) -> Option<f64> {
        let Json::Num(x) = self else { return None };
        Some(*x)
    }

    pub fn str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

/// Parses one item of an array or object.
type Item<T> = fn(&mut Parser) -> Result<T, String>;

impl Parser<'_> {
    /// Skips white space, then `lit` if it comes next.
    fn eat(&mut self, lit: &str) -> bool {
        let rest = &self.s[self.i..];
        self.i += rest.len() - rest.trim_start().len();
        let hit = self.s[self.i..].starts_with(lit);
        self.i += if hit { lit.len() } else { 0 };
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            return Ok(());
        }
        Err(format!("expected `{lit}` at byte {}", self.i))
    }

    /// Comma-separated items up to `close`.
    fn items<T>(&mut self, close: &str, item: Item<T>) -> Result<Vec<T>, String> {
        let mut xs = Vec::new();
        while !self.eat(close) {
            if !xs.is_empty() {
                self.expect(",")?;
            }
            xs.push(item(self)?);
        }
        Ok(xs)
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat("{") {
            let entry: Item<(String, Json)> = |p| {
                let key = p.string()?;
                p.expect(":")?;
                Ok((key, p.value()?))
            };
            return self.items("}", entry).map(Json::Obj);
        }
        if self.eat("[") {
            return self.items("]", |p| p.value()).map(Json::Arr);
        }
        for (lit, v) in [("true", true), ("false", false)] {
            if self.eat(lit) {
                return Ok(Json::Bool(v));
            }
        }
        if self.s[self.i..].starts_with('"') {
            return self.string().map(Json::Str);
        }
        let rest = &self.s[self.i..];
        let len = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
        let len = len.unwrap_or(rest.len());
        let Ok(x) = rest[..len].parse() else {
            return Err(format!("no value at byte {}", self.i));
        };
        self.i += len;
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.s[self.i..].char_indices();
        while let Some((k, c)) = chars.next() {
            match c {
                '"' => {
                    self.i += k + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some(e @ ('"' | '\\' | '/')) => out.push(e),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    e => return Err(format!("unsupported escape {e:?} in a string")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}
