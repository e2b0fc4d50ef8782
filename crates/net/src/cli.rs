//! The strict command-line parser `vcpsd` and `vcps-load` share.
//!
//! Every argument must be one of the binary's flags, every value flag
//! needs a value, and a value that does not parse is an error naming
//! its flag — never a silent fallback to the default. (A daemon that
//! read `--flush-every 64x` as "no flag" would write every record as its
//! own group while its operator counted on group commit.) The binaries print the error
//! and exit with status 2.

use std::collections::BTreeMap;
use std::str::FromStr;

/// A command line checked against one binary's flag table.
#[derive(Debug)]
pub struct Args {
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parses `argv` (program name first) against the binary's value
    /// flags, each followed by exactly one value, and its switches,
    /// which take none. A repeated value flag keeps its last value.
    ///
    /// # Errors
    ///
    /// An argument that is no known flag, or a value flag with nothing
    /// after it.
    pub fn parse(
        argv: &[String],
        value_flags: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Self, String> {
        let mut args = Self {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut rest = argv.iter().skip(1);
        while let Some(arg) = rest.next() {
            if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                args.switches.push(switch);
            } else if let Some(&flag) = value_flags.iter().find(|&&f| f == arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                args.values.insert(flag, value.clone());
            } else {
                return Err(format!("unknown flag {arg:?}"));
            }
        }
        Ok(args)
    }

    /// Whether `flag` was given, as a switch or with a value.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag) || self.values.contains_key(flag)
    }

    /// The raw value of `flag`, if given.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `flag` parsed as `T`, or `None` if it was not given.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`, naming the flag.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse().map_err(|_| {
                    let ty = std::any::type_name::<T>();
                    let ty = ty.rsplit_once("::").map_or(ty, |(_, name)| name);
                    format!("{flag} expects {ty}, got {v:?}")
                })
            })
            .transpose()
    }

    /// [`parsed`](Self::parsed), with `default` for a flag not given.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`, naming the flag.
    pub fn parsed_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(args.iter().copied())
            .map(String::from)
            .collect()
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&argv(args), &["--count", "--name"], &["--quiet"])
    }

    #[test]
    fn known_flags_parse_and_absent_ones_default() {
        let args = parse(&["--count", "7", "--quiet"]).unwrap();
        assert!(args.has("--quiet") && args.has("--count") && !args.has("--name"));
        assert_eq!(args.parsed_or("--count", 1u32), Ok(7));
        assert_eq!(args.parsed_or("--name", 5u32), Ok(5));
        assert_eq!(args.parsed::<u32>("--name"), Ok(None));
    }

    #[test]
    fn mistakes_name_their_flag() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--count"]).unwrap_err().contains("--count"));
        let args = parse(&["--count", "64x"]).unwrap();
        let err = args.parsed_or("--count", 1u32).unwrap_err();
        assert!(err.contains("--count") && err.contains("64x"), "{err}");
    }
}
