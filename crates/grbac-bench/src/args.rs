//! Command-line words of the harness binaries: `--flag`s,
//! `--option value` pairs and positional names.

use std::str::FromStr;

/// A binary's arguments, without the program name.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// Arguments from a list of words.
    pub fn new(words: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self(words.into_iter().map(Into::into).collect())
    }

    /// This process's arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|word| word == name)
    }

    /// The word after `name`, if `name` was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|word| word == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// The word after `name` parsed, or `default` when `name` was not
    /// given.
    ///
    /// # Panics
    ///
    /// If the word does not parse as a `T`.
    #[must_use]
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> T {
        self.value(name).map_or(default, |word| {
            word.parse().unwrap_or_else(|_| {
                panic!(
                    "{name} takes a {}, not {word:?}",
                    std::any::type_name::<T>()
                )
            })
        })
    }

    /// The positional words: every word that is neither a `--flag` nor
    /// the word after one of the `valued` options.
    ///
    /// # Errors
    ///
    /// A message naming the first positional word that is not in
    /// `valid`, and listing `valid`.
    pub fn names(&self, valued: &[&str], valid: &[&str]) -> Result<Vec<&str>, String> {
        let mut names = Vec::new();
        let mut words = self.0.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if valued.contains(&word) {
                words.next();
            } else if !word.starts_with("--") {
                if !valid.contains(&word) {
                    return Err(format!(
                        "unknown name {word:?}; valid names: {}",
                        valid.join(" ")
                    ));
                }
                names.push(word);
            }
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: [&str; 3] = ["e1", "e2", "all"];

    #[test]
    fn flags_values_and_defaults() {
        let args = Args::new(["--days", "3", "--json", "--rate", "0.5"]);
        assert!(args.flag("--json"));
        assert!(!args.flag("--trace"));
        assert_eq!(args.value("--days"), Some("3"));
        assert_eq!(args.parsed("--days", 7u32), 3);
        assert_eq!(args.parsed("--top", 10usize), 10);
        assert_eq!(args.parsed("--rate", 0.1f64), 0.5);
        assert_eq!(Args::new(["--days"]).value("--days"), None);
    }

    #[test]
    #[should_panic(expected = "--days takes a u32, not \"three\"")]
    fn an_unparsable_value_names_its_option() {
        let _ = Args::new(["--days", "three"]).parsed("--days", 7u32);
    }

    #[test]
    fn names_skip_flags_and_option_values() {
        let args = Args::new(["--bench-out", "e2", "e1", "--json"]);
        assert_eq!(args.names(&["--bench-out"], &VALID), Ok(vec!["e1"]));
        let none: Vec<&str> = Vec::new();
        assert_eq!(Args::new(["--json"]).names(&[], &VALID), Ok(none));
    }

    #[test]
    fn an_unknown_name_fails_and_lists_the_valid_ones() {
        for words in [vec!["e99"], vec!["e1", "e71", "--json"]] {
            let err = Args::new(words)
                .names(&["--bench-out"], &VALID)
                .unwrap_err();
            assert!(err.starts_with("unknown name \"e"), "{err}");
            assert!(err.ends_with("valid names: e1 e2 all"), "{err}");
        }
    }
}
