//! A small hand-rolled argument parser: subcommand, positionals,
//! `--key value` options and `--flag` booleans. No external dependencies.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    options: HashMap<String, String>,
    /// Bare `--flag`s.
    flags: Vec<String>,
}

/// Error from argument parsing or validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending text.
        value: String,
        /// Expected type/shape.
        expected: &'static str,
    },
    /// A required option is absent.
    Required(&'static str),
    /// A required positional argument is absent.
    MissingPositional(&'static str),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => f.write_str("no command given (try `pilfill help`)"),
            ArgError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} expects {expected}, got `{value}`"),
            ArgError::Required(o) => write!(f, "missing required option --{o}"),
            ArgError::MissingPositional(name) => {
                write!(f, "missing required argument <{name}>")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that never take a value (everything else consumes the next
/// token as its value).
const BOOLEAN_FLAGS: &[&str] = &[
    "weighted",
    "help",
    "quiet",
    "lp-budget",
    "by-hash",
    "shutdown",
];

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingCommand`] on empty input;
    /// [`ArgError::MissingValue`] when a non-boolean `--option` ends the
    /// input.
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    out.flags.push(name.to_string());
                } else {
                    match iter.next() {
                        Some(v) => {
                            out.options.insert(name.to_string(), v);
                        }
                        None => return Err(ArgError::MissingValue(name.to_string())),
                    }
                }
            } else if out.command.is_empty() {
                out.command = tok;
            } else {
                out.positional.push(tok);
            }
        }
        if out.command.is_empty() {
            if out.flags.iter().any(|f| f == "help") {
                out.command = "help".into();
                return Ok(out);
            }
            return Err(ArgError::MissingCommand);
        }
        Ok(out)
    }

    /// `true` if `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// [`ArgError::Required`] when absent.
    pub fn require(&self, name: &'static str) -> Result<&str, ArgError> {
        self.get(name).ok_or(ArgError::Required(name))
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: name.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingPositional`] when absent.
    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_flags_positionals() {
        let a = Args::parse([
            "fill",
            "design.pfl",
            "--window",
            "32000",
            "--weighted",
            "--method",
            "ilp2",
        ])
        .expect("parse");
        assert_eq!(a.command, "fill");
        assert_eq!(a.positional, vec!["design.pfl"]);
        assert_eq!(a.get("window"), Some("32000"));
        assert_eq!(a.get("method"), Some("ilp2"));
        assert!(a.flag("weighted"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(
            Args::parse(Vec::<String>::new()),
            Err(ArgError::MissingCommand)
        );
    }

    #[test]
    fn bare_help_flag_becomes_help_command() {
        let a = Args::parse(["--help"]).expect("parse");
        assert_eq!(a.command, "help");
    }

    #[test]
    fn option_without_value_rejected() {
        assert_eq!(
            Args::parse(["synth", "--seed"]),
            Err(ArgError::MissingValue("seed".into()))
        );
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let a = Args::parse(["x", "--r", "four"]).expect("parse");
        assert_eq!(
            a.get_parsed("window", 9i64, "an integer").expect("default"),
            9
        );
        assert!(matches!(
            a.get_parsed("r", 2usize, "an integer"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn require_and_positional_errors() {
        let a = Args::parse(["stats"]).expect("parse");
        assert_eq!(a.require("out"), Err(ArgError::Required("out")));
        assert_eq!(
            a.positional(0, "design"),
            Err(ArgError::MissingPositional("design"))
        );
    }
}
