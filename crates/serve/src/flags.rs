//! The command-line flag cursor of the `vfps` and `vfps-router` binaries.
//!
//! A parse loop reads each argument with [`Flags::next_flag`] and matches
//! it; an arm that takes a value asks [`Flags::value`] or
//! [`Flags::parse`], which name the flag just read in their errors:
//! `--parties needs a value`, `bad --parties "abc": invalid digit found in
//! string`.
//!
//! ```
//! use vfps_serve::flags::Flags;
//!
//! let mut flags = Flags::new(["--parties", "4", "--once"].map(String::from));
//! let (mut parties, mut once) = (0usize, false);
//! while let Some(flag) = flags.next_flag() {
//!     match flag.as_str() {
//!         "--parties" => parties = flags.parse()?,
//!         "--once" => once = true,
//!         other => return Err(format!("unknown argument {other}")),
//!     }
//! }
//! assert_eq!((parties, once), (4, true));
//! # Ok::<(), String>(())
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// Arguments in order, remembering the flag read last.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// A cursor over `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags { args: args.into_iter().collect::<Vec<_>>().into_iter(), flag: String::new() }
    }

    /// The next argument, which becomes the current flag.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value: the argument after it.
    ///
    /// # Errors
    /// `<flag> needs a value` when the arguments end.
    pub fn value(&mut self) -> Result<String, String> {
        self.args.next().ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value, parsed.
    ///
    /// # Errors
    /// [`Flags::value`]'s, or `bad <flag> "<value>": <reason>` when the
    /// value does not parse.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self.value()?;
        raw.parse().map_err(|e| format!("bad {} {raw:?}: {e}", self.flag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn values_follow_their_flags_in_order() {
        let mut f = flags(&["--addr", "127.0.0.1:1", "--once", "--seed", "7"]);
        assert_eq!(f.next_flag().as_deref(), Some("--addr"));
        assert_eq!(f.value(), Ok("127.0.0.1:1".to_owned()));
        assert_eq!(f.next_flag().as_deref(), Some("--once"));
        assert_eq!(f.next_flag().as_deref(), Some("--seed"));
        assert_eq!(f.parse::<u64>(), Ok(7));
        assert_eq!(f.next_flag(), None);
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let mut f = flags(&["--parties"]);
        f.next_flag();
        assert_eq!(f.value(), Err("--parties needs a value".to_owned()));
        let mut f = flags(&["--k"]);
        f.next_flag();
        assert_eq!(f.parse::<usize>(), Err("--k needs a value".to_owned()));
    }

    #[test]
    fn an_unparsable_value_names_the_flag_and_the_value() {
        let mut f = flags(&["--parties", "abc"]);
        f.next_flag();
        assert_eq!(
            f.parse::<usize>(),
            Err("bad --parties \"abc\": invalid digit found in string".to_owned())
        );
    }

    /// A value that looks like a flag is still the value: flags never
    /// take their value from anywhere but the next argument.
    #[test]
    fn the_next_argument_is_the_value_whatever_it_looks_like() {
        let mut f = flags(&["--addr", "--once"]);
        f.next_flag();
        assert_eq!(f.value(), Ok("--once".to_owned()));
        assert_eq!(f.next_flag(), None);
    }
}
