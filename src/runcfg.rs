//! Shared run-directory configuration and flag scanning for the
//! `magellan` binaries.
//!
//! A run directory carries a `study.cfg` describing the CLI-settable
//! study parameters; `magellan study --resume`, `magellan replay`,
//! and the networked `magellan-traced` service all reconstruct the
//! exact configuration (and fingerprint) from it. Everything not
//! listed here stays at [`StudyConfig::default`]. Flags
//! ([`Args::params`]) and `study.cfg` are validated before anything
//! is written, and so is the flag list itself ([`Args::check`]).

use magellan_analysis::durable::DurableConfig;
use magellan_analysis::study::StudyConfig;
use magellan_netsim::SimDuration;
use magellan_trace::ArchiveConfig;
use std::path::{Path, PathBuf};

/// The CLI-settable subset of the study parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Experiment seed.
    pub seed: u64,
    /// Population scale factor relative to the paper's deployment.
    pub scale: f64,
    /// Study window length in days.
    pub days: u64,
    /// Figure sampling cadence in minutes.
    pub sample_every_mins: u64,
    /// Simulator ticks between durable checkpoints.
    pub checkpoint_every_ticks: u64,
    /// Archive segment roll size in bytes.
    pub segment_bytes: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            seed: 2006,
            scale: 0.002,
            days: 2,
            sample_every_mins: 60,
            checkpoint_every_ticks: 512,
            segment_bytes: 256 * 1024,
        }
    }
}

impl RunParams {
    /// Renders the stable `study.cfg` key-value format. The scale is
    /// persisted as raw bits so the round-trip is exact.
    pub fn render(&self) -> String {
        format!(
            "version 1\nseed {}\nscale_bits {:016x}\ndays {}\nsample_every_mins {}\n\
             checkpoint_every_ticks {}\nsegment_bytes {}\n",
            self.seed,
            self.scale.to_bits(),
            self.days,
            self.sample_every_mins,
            self.checkpoint_every_ticks,
            self.segment_bytes,
        )
    }

    /// Parses [`RunParams::render`] output.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = RunParams::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("study.cfg line {}: expected `key value`", i + 1))?;
            let num = |radix: u32| {
                u64::from_str_radix(value, radix)
                    .map_err(|e| format!("study.cfg line {}: {key}: {e}", i + 1))
            };
            match key {
                "version" => {
                    if value != "1" {
                        return Err(format!("study.cfg version {value} not supported"));
                    }
                }
                "seed" => p.seed = num(10)?,
                "scale_bits" => p.scale = f64::from_bits(num(16)?),
                "days" => p.days = num(10)?,
                "sample_every_mins" => p.sample_every_mins = num(10)?,
                "checkpoint_every_ticks" => p.checkpoint_every_ticks = num(10)?,
                "segment_bytes" => p.segment_bytes = num(10)?,
                _ => return Err(format!("study.cfg line {}: unknown key {key}", i + 1)),
            }
        }
        p.validated().map_err(|e| format!("study.cfg: {e}"))
    }

    /// These parameters, unless no study can run with them: a scale
    /// that is not a finite number above zero, an empty window, or a
    /// zero sampling cadence.
    fn validated(self) -> Result<Self, String> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            Err(format!("scale {} is not a finite number > 0", self.scale))
        } else if self.days == 0 {
            Err("days must be at least 1".into())
        } else if self.sample_every_mins == 0 {
            Err("sample_every_mins must be at least 1".into())
        } else {
            Ok(self)
        }
    }

    /// The full study configuration these parameters select.
    pub fn study_config(&self) -> StudyConfig {
        StudyConfig {
            seed: self.seed,
            scale: self.scale,
            window_days: self.days,
            sample_every: SimDuration::from_mins(self.sample_every_mins),
            ..StudyConfig::default()
        }
    }

    /// The durability configuration these parameters select.
    pub fn durable_config(&self) -> DurableConfig {
        DurableConfig {
            archive: ArchiveConfig {
                segment_bytes: self.segment_bytes,
            },
            checkpoint_every_ticks: self.checkpoint_every_ticks,
            keep_checkpoints: 2,
        }
    }
}

/// The study flags [`Args::params`] reads.
pub const PARAM_FLAGS: [&str; 5] = [
    "--seed",
    "--scale",
    "--days",
    "--sample-every-mins",
    "--segment-bytes",
];

/// Flag scanning shared by the binaries: `--name value` pairs and bare
/// `--name` switches, anywhere in the argument list.
pub struct Args<'a>(pub &'a [String]);

impl Args<'_> {
    /// Checks every `--flag` token against `known`, the flags the
    /// subcommand reads. The lookups below ignore what they are not
    /// asked for, so without this a misspelt or retired flag would
    /// run silently with defaults.
    ///
    /// # Errors
    ///
    /// Names the first flag not in `known`.
    pub fn check(&self, known: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
        {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }

    /// The value following flag `name`.
    pub fn get(&self, name: &str) -> Option<&String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
    }

    /// Whether switch `name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The `u64` following flag `name`; an error when it does not parse.
    pub fn num(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| v.parse::<u64>().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// `base` overridden by the study flags every binary shares, then
    /// validated: a malformed or rejected value is an error.
    pub fn params(&self, mut p: RunParams) -> Result<RunParams, String> {
        if let Some(v) = self.num("--seed")? {
            p.seed = v;
        }
        if let Some(v) = self.get("--scale") {
            p.scale = v.parse::<f64>().map_err(|e| format!("--scale: {e}"))?;
        }
        if let Some(v) = self.num("--days")? {
            p.days = v;
        }
        if let Some(v) = self.num("--sample-every-mins")? {
            p.sample_every_mins = v;
        }
        if let Some(v) = self.num("--segment-bytes")? {
            p.segment_bytes = v;
        }
        p.validated()
    }
}

/// The `study.cfg` path inside a run directory.
pub fn cfg_path(dir: &Path) -> PathBuf {
    dir.join("study.cfg")
}

/// Loads and parses a run directory's `study.cfg`.
///
/// # Errors
///
/// A human-readable message covering both I/O and parse failures.
pub fn load_params(dir: &Path) -> Result<RunParams, String> {
    let path = cfg_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (not a magellan run directory?)",
            path.display()
        )
    })?;
    RunParams::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_through_cfg_text() {
        let p = RunParams {
            seed: 7,
            scale: 0.000_8,
            days: 1,
            sample_every_mins: 120,
            checkpoint_every_ticks: 64,
            segment_bytes: 16 * 1024,
        };
        let back = RunParams::parse(&p.render()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.scale.to_bits(), p.scale.to_bits());
    }

    #[test]
    fn params_reject_garbage() {
        assert!(RunParams::parse("version 2\n").is_err());
        assert!(RunParams::parse("seed\n").is_err());
        assert!(RunParams::parse("mystery 4\n").is_err());
        // Values no study can run with, from study.cfg and from flags.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let text = format!("scale_bits {:016x}\n", f64::to_bits(bad));
            assert!(RunParams::parse(&text).is_err(), "scale {bad}");
        }
        assert!(RunParams::parse("days 0\n").is_err());
        assert!(RunParams::parse("sample_every_mins 0\n").is_err());
        for flags in [
            ["--scale", "0"],
            ["--scale", "-1"],
            ["--scale", "nan"],
            ["--days", "0"],
            ["--sample-every-mins", "0"],
        ] {
            let argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            let parsed = Args(&argv).params(RunParams::default());
            assert!(parsed.is_err(), "{flags:?}");
        }
    }

    #[test]
    fn check_names_the_first_unknown_flag() {
        let argv: Vec<String> = ["drive", "--seed", "9", "--resume", "--transport", "tcp"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args(&argv);
        let known = [PARAM_FLAGS.as_slice(), &["--resume"]].concat();
        assert_eq!(args.check(&known), Err("unknown flag --transport".into()));
        let known = [known.as_slice(), &["--transport"]].concat();
        assert_eq!(args.check(&known), Ok(()));
        assert_eq!(Args(&[]).check(&[]), Ok(()));
    }
}
