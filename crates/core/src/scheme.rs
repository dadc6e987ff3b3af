//! The scheme grammar: one text form for every [`PrefetcherConfig`],
//! shared by figure legends, the `xp` command line and the wire
//! protocol. `docs/DESIGN.md` ("Scheme grammar") is the normative table.
//!
//! `Display` writes the paper's legend head (`DP,256,D`, `ASP,64`,
//! `TP,8`, `EP:DP+ASP`, with `C+` for a confidence throttle), then one
//! `;key=value` field for each setting the head does not carry and that
//! differs from [`PrefetcherConfig::new`] of the same kind. `FromStr` is
//! its exact inverse, case-insensitive, and also takes the long names
//! (`distance`, `trend`, …) and bare `ep`. Parsing is syntax only:
//! [`PrefetcherConfig::validate`] judges the values.

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;

use crate::assoc::Associativity;
use crate::confidence::ConfidenceConfig;
use crate::config::{PrefetcherConfig, PrefetcherKind};

/// The settings the head of `kind` carries, in head order; the suffix
/// never repeats them.
fn head_keys(kind: PrefetcherKind) -> &'static [&'static str] {
    use PrefetcherKind as K;
    match kind {
        K::Stride => &["rows"],
        K::Markov | K::Distance => &["rows", "assoc"],
        K::TrendStride => &["window"],
        _ => &[],
    }
}

/// The text of every setting of `cfg`, in suffix order.
fn settings(cfg: &PrefetcherConfig) -> [(&'static str, String); 7] {
    let conf = cfg.confidence_config();
    let conf = conf.map(|c| format!("{}/{}", c.threshold, c.max_degree));
    [
        ("rows", cfg.row_count().to_string()),
        ("slots", cfg.slot_count().to_string()),
        ("assoc", cfg.associativity().to_string()),
        ("window", cfg.window_len().to_string()),
        ("pc", u8::from(cfg.is_pc_qualified()).to_string()),
        ("pair", u8::from(cfg.is_pair_indexed()).to_string()),
        ("conf", conf.unwrap_or_default()),
    ]
}

impl fmt::Display for PrefetcherConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = self.kind();
        let mut default = PrefetcherConfig::new(kind);
        if self.confidence_config().is_some() {
            f.write_str("C+")?;
            default.confidence(ConfidenceConfig::adaptive());
        }
        f.write_str(kind.abbrev())?;
        if kind == PrefetcherKind::Ensemble {
            let components = self.ensemble_components();
            let names: Vec<&str> = components.iter().map(|k| k.abbrev()).collect();
            write!(f, ":{}", names.join("+"))?;
        }
        let head = head_keys(kind);
        let ours = settings(self);
        for (key, value) in &ours {
            if head.contains(key) {
                write!(f, ",{value}")?;
            }
        }
        for ((key, value), (_, default)) in ours.iter().zip(settings(&default)) {
            if !head.contains(key) && *value != default {
                write!(f, ";{key}={value}")?;
            }
        }
        Ok(())
    }
}

fn kind(name: &str) -> Result<PrefetcherKind, String> {
    use PrefetcherKind as K;
    Ok(match name {
        "none" => K::None,
        "sp" | "sequential" => K::Sequential,
        "asp" | "stride" => K::Stride,
        "mp" | "markov" => K::Markov,
        "rp" | "recency" => K::Recency,
        "dp" | "distance" => K::Distance,
        "tp" | "trend" => K::TrendStride,
        "ep" => K::Ensemble,
        _ => return Err(format!("unknown mechanism {name:?}")),
    })
}

fn number<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{value:?} is not a number in range"))
}

/// Sets the setting `key` of `cfg` from its text.
fn set(cfg: &mut PrefetcherConfig, key: &str, value: &str) -> Result<(), String> {
    let flag = |value| match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{key} {value:?} is not 0 or 1")),
    };
    match key {
        "rows" => cfg.rows(number(value)?),
        "slots" => cfg.slots(number(value)?),
        "assoc" => cfg.assoc(match value {
            "d" => Associativity::Direct,
            "f" => Associativity::Full,
            ways => match NonZeroUsize::new(number(ways)?) {
                Some(ways) => Associativity::SetAssociative(ways),
                None => return Err("associativity of zero ways".to_owned()),
            },
        }),
        "window" => cfg.window(number(value)?),
        "pc" => cfg.pc_qualified(flag(value)?),
        "pair" => cfg.pair_indexed(flag(value)?),
        "conf" if cfg.confidence_config().is_some() => {
            let (threshold, max_degree) = value.split_once('/').unwrap_or((value, ""));
            cfg.confidence(ConfidenceConfig {
                threshold: number(threshold)?,
                max_degree: number(max_degree)?,
            })
        }
        "conf" => return Err("conf needs the C+ prefix".to_owned()),
        _ => return Err(format!("unknown setting {key:?}")),
    };
    Ok(())
}

impl FromStr for PrefetcherConfig {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        use PrefetcherKind as K;
        let lower = text.to_ascii_lowercase();
        let mut fields = lower.split(';');
        let prefixed = fields.next().unwrap_or_default();
        let head = prefixed.trim_start_matches("c+");
        let throttled = head.len() < prefixed.len();
        let mut values = head.split(',');
        let mut cfg = match values.next().unwrap_or_default() {
            // Bare `ep`: the paper's two strongest contenders.
            "ep" => PrefetcherConfig::ensemble_of(&[K::Distance, K::Stride]),
            name => match name.strip_prefix("ep:") {
                Some("") => PrefetcherConfig::ensemble_of(&[]),
                Some(list) => PrefetcherConfig::ensemble_of(
                    &list.split('+').map(kind).collect::<Result<Vec<_>, _>>()?,
                ),
                None => PrefetcherConfig::new(kind(name)?),
            },
        };
        if throttled {
            cfg.confidence(ConfidenceConfig::adaptive());
        }
        let mut seen = head_keys(cfg.kind()).to_vec();
        for (position, value) in values.enumerate() {
            let Some(key) = seen.get(position) else {
                return Err(format!("too many fields in {head:?}"));
            };
            set(&mut cfg, key, value)?;
        }
        for field in fields {
            let (key, value) = field.split_once('=').unwrap_or((field, ""));
            if seen.contains(&key) {
                return Err(format!("{key} is set twice"));
            }
            seen.push(key);
            set(&mut cfg, key, value)?;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_outside_the_grammar_is_rejected() {
        let rejected = "|xp|dp,256,d,7|rp,64|ep,4|ep:dp+|dp,256,0|dp;rows=512|sp;slots|tp,-1|\
                        sp;slots=4;slots=5|dp;conf=0/0|c+dp;conf=4|sp;pc=2|sp;colour=red";
        for text in rejected.split('|') {
            assert!(text.parse::<PrefetcherConfig>().is_err(), "{text:?}");
        }
    }
}
