//! One way to name a fabric — a checkpoint's or a scenario's `topo`
//! line, the `--topo` flag of the planner, replay, audit and lint:
//!
//! ```text
//! clos [small | medium | hosts N | key=value...]   pods leaves_per_pod tors_per_pod spines
//!                                                  hosts_per_tor; omitted ones are small's
//! fattree K
//! jellyfish [switches=N] [ports=P] [seed=S]        defaults 50 12 7; half the ports face hosts
//! bcube N K
//! file PATH                                        a `.topo` file (Topology::parse_spec)
//! ```
//!
//! A [`TopoSpec`] is generic over how its numbers are written (a
//! scenario's may be `$var`s, resolved by [`TopoSpec::try_map`]) and
//! keeps each number's span, so [`TopoSpec::build`] refuses what a
//! builder cannot take at the word to blame. `Display` renders the
//! canonical form: a Clos with all five keys, as checkpoints carry it.

use crate::failure::nearest;
use crate::span::{spanned_words, Span};
use crate::spec::SpecError;
use crate::{bcube, did_you_mean, fat_tree, ClosConfig, JellyfishConfig, Topology};
use std::fmt;

const FAMILIES: [&str; 5] = ["clos", "fattree", "jellyfish", "bcube", "file"];
const CLOS_KEYS: &[&str] = &[
    "pods",
    "leaves_per_pod",
    "tors_per_pod",
    "spines",
    "hosts_per_tor",
];

/// Most nodes plus links a spec may name, so that a mistyped dimension
/// is refused rather than allocated.
const MAX_SIZE: f64 = 16_777_216.0;

/// Which builder a spec names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// [`ClosConfig`]: `pods leaves_per_pod tors_per_pod spines hosts_per_tor`.
    Clos,
    /// [`ClosConfig::for_hosts`]: `hosts`.
    ClosHosts,
    /// [`fat_tree`]: `k`.
    FatTree,
    /// [`JellyfishConfig::half_servers`]: `switches ports seed`.
    Jellyfish,
    /// [`bcube`]: `n k`.
    BCube,
    /// A `.topo` file at this path.
    File(String),
}

impl Family {
    /// Its name, the names of its numbers, and their defaults — none
    /// when the numbers are positional and required.
    fn shape(&self) -> (&'static str, &'static [&'static str], Vec<usize>) {
        match self {
            Family::Clos => ("clos", CLOS_KEYS, clos_numbers(&ClosConfig::small())),
            Family::ClosHosts => ("clos hosts", &["hosts"], vec![]),
            Family::FatTree => ("fattree", &["k"], vec![]),
            Family::Jellyfish => ("jellyfish", &["switches", "ports", "seed"], vec![50, 12, 7]),
            Family::BCube => ("bcube", &["n", "k"], vec![]),
            Family::File(_) => ("file", &[], vec![]),
        }
    }
}

fn clos_numbers(c: &ClosConfig) -> Vec<usize> {
    let ClosConfig {
        pods,
        leaves_per_pod: l,
        tors_per_pod: t,
        spines,
        hosts_per_tor: h,
    } = *c;
    vec![pods, l, t, spines, h]
}

fn fail<T>(span: Span, message: impl Into<String>, hint: Option<String>) -> Result<T, SpecError> {
    let mut e = SpecError::new(span, message);
    e.hint = hint;
    Err(e)
}

/// A parsed fabric name: the builder and its numbers in the order
/// [`Family`] lists them, defaults filled in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoSpec<N = usize> {
    /// The builder.
    pub family: Family,
    /// Its numbers, each with the span it was written at (the family
    /// word's, or the preset's, for a default).
    pub args: Vec<(N, Span)>,
    /// The family word's span.
    pub span: Span,
}

impl<N: From<usize>> From<ClosConfig> for TopoSpec<N> {
    fn from(c: ClosConfig) -> Self {
        TopoSpec::with_numbers(Family::Clos, clos_numbers(&c), Span::whole_file())
    }
}

impl<N: From<usize>> TopoSpec<N> {
    fn with_numbers(family: Family, numbers: Vec<usize>, span: Span) -> Self {
        let args = numbers.into_iter().map(|v| (N::from(v), span)).collect();
        TopoSpec { family, args, span }
    }

    /// Parses a spec from the words [`spanned_words`] split it into on
    /// 1-based line `line`, reading each number with `num` (`None`
    /// refuses the word). Errors carry the offending word's span.
    pub fn parse_words(
        line: usize,
        words: &[(usize, &str)],
        num: impl Fn(&str) -> Option<N>,
    ) -> Result<Self, SpecError> {
        let at = |&(col, w): &(usize, &str)| Span::new(line, col, w.len());
        let families = || Some(format!("fabric families: {}", FAMILIES.join(", ")));
        let Some((first, rest)) = words.split_first() else {
            return fail(Span::line_start(line), "missing fabric spec", families());
        };
        let span = at(first);
        let (family, rest) = match (first.1, rest) {
            ("clos", [preset @ (_, "small" | "medium"), extra @ ..]) => {
                if let Some(word) = extra.first() {
                    let hint = format!("`clos {}` takes no more words", preset.1);
                    return fail(at(word), format!("unexpected {:?}", word.1), Some(hint));
                }
                let c = match preset.1 {
                    "small" => ClosConfig::small(),
                    _ => ClosConfig::medium(),
                };
                return Ok(Self::with_numbers(
                    Family::Clos,
                    clos_numbers(&c),
                    at(preset),
                ));
            }
            ("clos", [(_, "hosts"), rest @ ..]) => (Family::ClosHosts, rest),
            ("clos", _) => (Family::Clos, rest),
            ("fattree", _) => (Family::FatTree, rest),
            ("jellyfish", _) => (Family::Jellyfish, rest),
            ("bcube", _) => (Family::BCube, rest),
            ("file", [(_, path)]) => (Family::File(path.to_string()), &[][..]),
            ("file", _) => return fail(span, "`file` takes one path", None),
            (other, _) => {
                let hint = did_you_mean(&nearest(other, FAMILIES.into_iter())).or_else(families);
                return fail(span, format!("unknown fabric family {other:?}"), hint);
            }
        };
        let (name, keys, defaults) = family.shape();
        let positional = defaults.is_empty();
        if positional && rest.len() != keys.len() {
            let span = rest.get(keys.len()).map_or(span, at);
            return fail(span, format!("`{name}` takes {}", keys.join(" ")), None);
        }
        let mut spec = Self::with_numbers(family, defaults, span);
        let mut seen = vec![false; keys.len()];
        for (pos, word) in rest.iter().enumerate() {
            let all_keys = || Some(format!("`{name}` keys: {}", keys.join(" ")));
            let (i, value) = match word.1.split_once('=') {
                _ if positional => (pos, word.1),
                None => {
                    let message = format!("expected key=value, got {:?}", word.1);
                    return fail(at(word), message, all_keys());
                }
                Some((key, value)) => match keys.iter().position(|k| *k == key) {
                    Some(i) if !std::mem::replace(&mut seen[i], true) => (i, value),
                    Some(_) => return fail(at(word), format!("`{key}` given twice"), None),
                    None => {
                        let hint = did_you_mean(&nearest(key, keys.iter().copied()));
                        let message = format!("unknown `{name}` key {key:?}");
                        return fail(at(word), message, hint.or_else(all_keys));
                    }
                },
            };
            let Some(n) = num(value) else {
                let message = format!("{} wants a number, got {value:?}", keys[i]);
                return fail(at(word), message, None);
            };
            if positional {
                spec.args.push((n, at(word)));
            } else {
                spec.args[i] = (n, at(word));
            }
        }
        Ok(spec)
    }
}

impl<N> TopoSpec<N> {
    /// The same spec with every number mapped by `f`, or `f`'s first
    /// error — how a scenario resolves its `$var`s at one sweep point.
    pub fn try_map<M, E>(&self, mut f: impl FnMut(&N) -> Result<M, E>) -> Result<TopoSpec<M>, E> {
        let args = self.args.iter().map(|(n, span)| Ok((f(n)?, *span)));
        Ok(TopoSpec {
            family: self.family.clone(),
            args: args.collect::<Result<_, E>>()?,
            span: self.span,
        })
    }
}

impl std::str::FromStr for TopoSpec {
    type Err = SpecError;

    /// Parses a one-line spec, such as a `--topo` flag's value.
    fn from_str(text: &str) -> Result<Self, SpecError> {
        let words: Vec<(usize, &str)> = spanned_words(text).collect();
        TopoSpec::parse_words(1, &words, |w| w.parse().ok())
    }
}

impl<N: fmt::Display> fmt::Display for TopoSpec<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, keys, defaults) = self.family.shape();
        f.write_str(name)?;
        if let Family::File(path) = &self.family {
            return write!(f, " {path}");
        }
        for (key, (n, _)) in keys.iter().zip(&self.args) {
            if defaults.is_empty() {
                write!(f, " {n}")?;
            } else {
                write!(f, " {key}={n}")?;
            }
        }
        Ok(())
    }
}

impl TopoSpec {
    /// Builds the fabric. A dimension its builder cannot take, or a
    /// fabric of more than 2^24 nodes and links, is refused at the word
    /// to blame; a `file` spec's read or parse error at the family word.
    pub fn build(&self) -> Result<Topology, SpecError> {
        Ok(self.build_with_budget()?.0)
    }

    /// [`build`](Self::build), plus the lossless-priority budget a `file`
    /// spec declares with `priorities N`.
    pub fn build_with_budget(&self) -> Result<(Topology, Option<u16>), SpecError> {
        let v: Vec<usize> = self.args.iter().map(|&(n, _)| n).collect();
        let refuse = |i: usize, why: String| {
            let message = format!("{}={}: {why}", self.family.shape().1[i], v[i]);
            fail(self.args[i].1, message, None)
        };
        let f = |i: usize| v[i] as f64;
        let (size, build): (f64, Box<dyn Fn() -> Topology>) = match &self.family {
            Family::Clos | Family::ClosHosts => {
                let c = match v[..] {
                    [hosts] => ClosConfig::for_hosts(hosts),
                    [pods, leaves_per_pod, tors_per_pod, spines, hosts_per_tor] => ClosConfig {
                        pods,
                        leaves_per_pod,
                        tors_per_pod,
                        spines,
                        hosts_per_tor,
                    },
                    _ => unreachable!("a Clos spec has one number or five"),
                };
                let d = clos_numbers(&c);
                if let Some(i) = d.iter().position(|&d| d == 0) {
                    return refuse(i, "a Clos dimension must be at least 1".into());
                }
                let [p, l, t, s, h] = [0, 1, 2, 3, 4].map(|i| d[i] as f64);
                let size = s + p * (l + t) + p * l * (s + t) + 2.0 * p * t * h;
                (size, Box::new(move || c.build()))
            }
            Family::FatTree if v[0] < 2 || v[0] % 2 == 1 => {
                return refuse(0, "a fat-tree needs an even k of at least 2".into())
            }
            Family::FatTree => (2.0 * f(0).powi(3), Box::new(|| fat_tree(v[0]))),
            Family::Jellyfish => {
                let c = JellyfishConfig::half_servers(v[0], v[1], v[2] as u64);
                if c.network_degree < 2 {
                    return refuse(1, "a Jellyfish switch needs at least 4 ports".into());
                }
                if c.switches <= c.network_degree {
                    let d = c.network_degree;
                    return refuse(0, format!("needs more switches than its {d} network ports"));
                }
                (2.0 * f(0) * f(1), Box::new(move || c.build()))
            }
            Family::BCube if v[0] < 2 => {
                return refuse(0, "a BCube switch needs at least 2 ports".into())
            }
            Family::BCube => {
                let size = (f(1) + 2.0) * f(0).powf(f(1) + 1.0);
                (size, Box::new(|| bcube(v[0], v[1])))
            }
            Family::File(path) => {
                let refuse = |e: String| SpecError::new(self.span, e);
                let text = std::fs::read_to_string(path)
                    .map_err(|e| refuse(format!("cannot read {path}: {e}")))?;
                let file =
                    Topology::parse_spec(&text).map_err(|e| refuse(format!("{path}: {e}")))?;
                return Ok((file.topo, file.priorities));
            }
        };
        if size > MAX_SIZE {
            let message = format!("`{self}` names more than {MAX_SIZE} nodes and links");
            return fail(self.span, message, None);
        }
        Ok((build(), None))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn refusal(text: &str) -> SpecError {
        match text.parse::<TopoSpec>() {
            Ok(spec) => spec.build().unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn display_is_the_canonical_form_and_parses_back() {
        for (text, canonical) in [
            (
                "clos",
                "clos pods=2 leaves_per_pod=2 tors_per_pod=2 spines=2 hosts_per_tor=4",
            ),
            (
                "clos small",
                "clos pods=2 leaves_per_pod=2 tors_per_pod=2 spines=2 hosts_per_tor=4",
            ),
            (
                "clos medium",
                "clos pods=4 leaves_per_pod=4 tors_per_pod=4 spines=8 hosts_per_tor=8",
            ),
            (
                "clos  spines=3",
                "clos pods=2 leaves_per_pod=2 tors_per_pod=2 spines=3 hosts_per_tor=4",
            ),
            ("clos hosts 64", "clos hosts 64"),
            ("fattree 4", "fattree 4"),
            ("jellyfish ports=6", "jellyfish switches=50 ports=6 seed=7"),
            ("bcube 2 1", "bcube 2 1"),
            ("file x.topo", "file x.topo"),
        ] {
            let spec: TopoSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{text}");
            let again: TopoSpec = canonical.parse().unwrap();
            assert_eq!(again.to_string(), canonical);
            assert_eq!(again.family, spec.family);
        }
    }

    #[test]
    fn every_family_builds_what_its_builder_builds() {
        let same = |text: &str, want: Topology| {
            let got = text.parse::<TopoSpec>().unwrap().build().unwrap();
            assert_eq!(got.to_spec_text(), want.to_spec_text(), "{text}");
        };
        same("clos", ClosConfig::small().build());
        same("clos medium", ClosConfig::medium().build());
        same("clos hosts 64", ClosConfig::for_hosts(64).build());
        same("fattree 4", fat_tree(4));
        same(
            "jellyfish switches=16 ports=6",
            JellyfishConfig::half_servers(16, 6, 7).build(),
        );
        same("bcube 2 1", bcube(2, 1));
    }

    #[test]
    fn parse_errors_are_spanned_and_hinted() {
        for (text, span, shown) in [
            ("", Span::line_start(1), "line 1: missing fabric spec (fabric families: clos, fattree, jellyfish, bcube, file)"),
            ("clso", Span::new(1, 1, 4), "line 1: unknown fabric family \"clso\" (did you mean clos?)"),
            ("mesh 4", Span::new(1, 1, 4), "line 1: unknown fabric family \"mesh\" (fabric families: clos, fattree, jellyfish, bcube, file)"),
            ("jellyfish switchs=9", Span::new(1, 11, 9), "line 1:11: unknown `jellyfish` key \"switchs\" (did you mean switches?)"),
            ("clos pods=x", Span::new(1, 6, 6), "line 1:6: pods wants a number, got \"x\""),
            ("clos pods=2 pods=3", Span::new(1, 13, 6), "line 1:13: `pods` given twice"),
            ("clos smal", Span::new(1, 6, 4), "line 1:6: expected key=value, got \"smal\" (`clos` keys: pods leaves_per_pod tors_per_pod spines hosts_per_tor)"),
            ("clos small spines=3", Span::new(1, 12, 8), "line 1:12: unexpected \"spines=3\" (`clos small` takes no more words)"),
            ("bcube 2", Span::new(1, 1, 5), "line 1: `bcube` takes n k"),
            ("fattree 4 4", Span::new(1, 11, 1), "line 1:11: `fattree` takes k"),
            ("file", Span::new(1, 1, 4), "line 1: `file` takes one path"),
        ] {
            let e = text.parse::<TopoSpec>().unwrap_err();
            assert_eq!((e.span, e.to_string().as_str()), (span, shown), "{text:?}");
        }
    }

    #[test]
    fn build_refuses_what_a_builder_would_panic_on() {
        for (text, span, shown) in [
            (
                "clos spines=0",
                Span::new(1, 6, 8),
                "line 1:6: spines=0: a Clos dimension must be at least 1",
            ),
            (
                "clos hosts_per_tor=0",
                Span::new(1, 6, 15),
                "line 1:6: hosts_per_tor=0: a Clos dimension must be at least 1",
            ),
            (
                "fattree 3",
                Span::new(1, 9, 1),
                "line 1:9: k=3: a fat-tree needs an even k of at least 2",
            ),
            (
                "jellyfish switches=4 ports=2",
                Span::new(1, 22, 7),
                "line 1:22: ports=2: a Jellyfish switch needs at least 4 ports",
            ),
            (
                "jellyfish switches=4 ports=8",
                Span::new(1, 11, 10),
                "line 1:11: switches=4: needs more switches than its 4 network ports",
            ),
            (
                "bcube 1 1",
                Span::new(1, 7, 1),
                "line 1:7: n=1: a BCube switch needs at least 2 ports",
            ),
        ] {
            let e = refusal(text);
            assert_eq!((e.span, e.to_string().as_str()), (span, shown), "{text:?}");
        }
        for text in [
            "bcube 64 64",
            "clos pods=99999 spines=99999",
            "fattree 1000000",
        ] {
            let message = refusal(text).message;
            assert!(
                message.ends_with("names more than 16777216 nodes and links"),
                "{message}"
            );
        }
        let e = refusal("file /nonexistent/x.topo");
        assert!(
            e.message.starts_with("cannot read /nonexistent/x.topo"),
            "{e}"
        );
    }

    #[test]
    fn numbers_map_with_their_spans() {
        let spec: TopoSpec = "bcube 2 1".parse().unwrap();
        let mapped = spec.try_map(|&v| Ok::<_, ()>(v * 2)).unwrap();
        assert_eq!(mapped.to_string(), "bcube 4 2");
        assert_eq!(mapped.args[1].1, Span::new(1, 9, 1));
        assert_eq!(spec.try_map(|_| Err::<usize, _>("unbound")), Err("unbound"));
    }
}
