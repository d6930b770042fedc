//! Durable training state: the crash-recovery checkpoint.
//!
//! A live server replica owns the only state that matters across a crash —
//! the model vector, the optimizer's step count and momentum velocity, the
//! fault-injection RNG streams, and the round number. A [`Checkpoint`]
//! captures all of it in one compact, length-prefixed binary record:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GFCK"
//! 4       1     format version (= [`CHECKPOINT_VERSION`])
//! 5       1     system-name length s
//! 6       s     system name (UTF-8, e.g. "ssmw")
//! ..      8     experiment seed   (u64 LE)
//! ..      8     round             (u64 LE — next iteration to run)
//! ..      8     optimizer steps   (u64 LE)
//! ..      4+4d  model             (u32 LE length + f32 LE values)
//! ..      1     velocity flag     (+ 4+4d values when 1)
//! ..      1     fault-RNG flag    (+ 32 bytes: 4 u64 LE state words when 1)
//! ..      1     attack-RNG flag   (+ 32 bytes when 1)
//! ```
//!
//! Every float travels as its exact bit pattern (NaNs and infinities
//! included), so a resumed run continues **bit-identically** — the property
//! the kill-and-resume integration tests pin. Decoding is strict: wrong
//! magic, wrong version, truncation and trailing bytes are all errors.
//!
//! The same record has two transports:
//!
//! * **disk** — [`Checkpoint::save`] writes atomically (temp file + rename)
//!   so a crash mid-write can never corrupt the previous checkpoint, and
//!   `garfield-node --resume <dir>` picks the record back up;
//! * **wire** — [`Checkpoint::to_wire_words`] bit-casts the record into the
//!   `f32` payload of a `StateChunk` message, so a rejoining replica can
//!   catch up from the fastest live peer through the same pooled zero-copy
//!   decode path every gradient uses.

use crate::{CoreError, CoreResult};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint record ("GFCK").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GFCK";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// File name of the (single, latest) checkpoint inside a checkpoint
/// directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// When and where a live node persists its training state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint file lives in (created on first save).
    pub dir: PathBuf,
    /// Persist after every `every`-th completed iteration (at least 1).
    pub every: usize,
}

impl CheckpointPolicy {
    /// Creates a policy writing to `dir` every `every` iterations
    /// (`every` is clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// Whether the completed iteration `iteration` (0-based) is a cadence
    /// point.
    pub fn due(&self, iteration: usize) -> bool {
        (iteration + 1).is_multiple_of(self.every)
    }
}

/// One node's resumable training state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Name of the Garfield system that produced the state (e.g. `"ssmw"`);
    /// resuming under a different system is refused.
    pub system: String,
    /// Seed of the experiment configuration; resuming a different experiment
    /// is refused.
    pub seed: u64,
    /// The next iteration to run (every iteration below this completed).
    pub round: u64,
    /// Optimizer step count at the checkpoint.
    pub opt_steps: u64,
    /// Flat model parameters, exact bit patterns.
    pub model: Vec<f32>,
    /// Momentum velocity, if the optimizer has built one.
    pub velocity: Option<Vec<f32>>,
    /// State words of the node's fault-injection RNG stream.
    pub fault_rng: Option<[u64; 4]>,
    /// State words of the node's Byzantine-attack RNG stream.
    pub attack_rng: Option<[u64; 4]>,
}

fn bad(what: impl std::fmt::Display) -> CoreError {
    CoreError::Serialization(format!("checkpoint: {what}"))
}

/// A strict little-endian reader over the record.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| bad("truncated record"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> CoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32s(&mut self) -> CoreResult<Vec<f32>> {
        let len = self.u32()? as usize;
        let bytes = len
            .checked_mul(4)
            .ok_or_else(|| bad("vector length overflows"))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn rng_words(&mut self) -> CoreResult<Option<[u64; 4]>> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        Ok(Some([self.u64()?, self.u64()?, self.u64()?, self.u64()?]))
    }
}

impl Checkpoint {
    /// Encodes the checkpoint into its binary record.
    pub fn encode(&self) -> Vec<u8> {
        let d = self.model.len() + self.velocity.as_ref().map_or(0, Vec::len);
        let mut out = Vec::with_capacity(128 + 4 * d);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        let system = self.system.as_bytes();
        debug_assert!(system.len() <= u8::MAX as usize, "system name too long");
        out.push(system.len().min(u8::MAX as usize) as u8);
        out.extend_from_slice(&system[..system.len().min(u8::MAX as usize)]);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.opt_steps.to_le_bytes());
        // Grow once, then fill whole words: a loop the optimiser
        // vectorises, where one `extend_from_slice` per float does not.
        let write_f32s = |out: &mut Vec<u8>, values: &[f32]| {
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            let start = out.len();
            out.resize(start + 4 * values.len(), 0);
            for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        };
        write_f32s(&mut out, &self.model);
        match &self.velocity {
            Some(v) => {
                out.push(1);
                write_f32s(&mut out, v);
            }
            None => out.push(0),
        }
        for rng in [&self.fault_rng, &self.attack_rng] {
            match rng {
                Some(words) => {
                    out.push(1);
                    for w in words {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Decodes a binary record, validating magic, version and exact length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] on wrong magic/version, a
    /// truncated record or trailing bytes.
    pub fn decode(buf: &[u8]) -> CoreResult<Checkpoint> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(4)? != CHECKPOINT_MAGIC {
            return Err(bad("wrong magic (not a Garfield checkpoint)"));
        }
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!("unsupported format version {version}")));
        }
        let system_len = r.u8()? as usize;
        let system = std::str::from_utf8(r.take(system_len)?)
            .map_err(|_| bad("system name is not UTF-8"))?
            .to_string();
        let seed = r.u64()?;
        let round = r.u64()?;
        let opt_steps = r.u64()?;
        let model = r.f32s()?;
        let velocity = if r.u8()? == 1 { Some(r.f32s()?) } else { None };
        let fault_rng = r.rng_words()?;
        let attack_rng = r.rng_words()?;
        if r.pos != buf.len() {
            return Err(bad(format!(
                "{} trailing bytes after a well-formed record",
                buf.len() - r.pos
            )));
        }
        Ok(Checkpoint {
            system,
            seed,
            round,
            opt_steps,
            model,
            velocity,
            fault_rng,
            attack_rng,
        })
    }

    /// Bit-casts the record into `f32` payload words for a `StateChunk`
    /// wire message: word 0 is the byte length, the rest is the record
    /// zero-padded to a word boundary. The wire payload is bit-transparent,
    /// so arbitrary byte patterns (including ones that alias signaling
    /// NaNs) survive the trip exactly.
    pub fn to_wire_words(&self) -> Vec<f32> {
        let bytes = self.encode();
        let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(4));
        words.push(f32::from_bits(bytes.len() as u32));
        let word = |b: &[u8]| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4")));
        let chunks = bytes.chunks_exact(4);
        let tail = chunks.remainder();
        words.extend(chunks.map(word));
        if !tail.is_empty() {
            let mut padded = [0u8; 4];
            padded[..tail.len()].copy_from_slice(tail);
            words.push(word(&padded));
        }
        words
    }

    /// Decodes a record previously produced by
    /// [`Checkpoint::to_wire_words`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] when the declared byte length
    /// does not fit the words, or the record itself is malformed.
    pub fn from_wire_words(words: &[f32]) -> CoreResult<Checkpoint> {
        let Some((len_word, body)) = words.split_first() else {
            return Err(bad("empty state payload"));
        };
        let len = len_word.to_bits() as usize;
        if len > body.len() * 4 || body.len() * 4 >= len + 4 {
            return Err(bad(format!(
                "state payload declares {len} bytes but carries {} words",
                body.len()
            )));
        }
        let mut bytes = Vec::with_capacity(body.len() * 4);
        for w in body {
            bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        bytes.truncate(len);
        Checkpoint::decode(&bytes)
    }

    /// The path the checkpoint file occupies inside `dir`.
    pub fn path_in(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(CHECKPOINT_FILE)
    }

    /// Persists the checkpoint atomically: the record is written to a
    /// temporary file in `dir`, fsynced, and renamed over
    /// [`CHECKPOINT_FILE`] — a crash at any point leaves either the old or
    /// the new checkpoint intact, never a torn one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] wrapping any I/O failure.
    pub fn save(&self, dir: impl AsRef<Path>) -> CoreResult<PathBuf> {
        use std::io::Write as _;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| bad(format!("{}: {e}", dir.display())))?;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let target = Checkpoint::path_in(dir);
        let io = |e: std::io::Error| bad(format!("{}: {e}", tmp.display()));
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(&self.encode()).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        std::fs::rename(&tmp, &target)
            .map_err(|e| bad(format!("{} -> {}: {e}", tmp.display(), target.display())))?;
        // The rename itself lives in the directory: without syncing it, a
        // power failure can forget the rename (or, on first save, the file's
        // very existence) even though this call returned Ok — and --resume
        // would then silently start from scratch. Best-effort, since not
        // every platform allows opening a directory for fsync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(target)
    }

    /// Loads the checkpoint from `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] when the file is missing,
    /// unreadable or malformed. Use [`Checkpoint::load_if_present`] when a
    /// missing file means "fresh start".
    pub fn load(dir: impl AsRef<Path>) -> CoreResult<Checkpoint> {
        let path = Checkpoint::path_in(dir);
        let bytes = std::fs::read(&path).map_err(|e| bad(format!("{}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }

    /// Loads the checkpoint from `dir`, mapping "no checkpoint file yet" to
    /// `None` — this is what lets one `garfield-node --resume <dir>` command
    /// line serve both the first launch and every respawn after a kill.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] for a file that exists but
    /// cannot be read or decoded (a corrupt checkpoint must fail loudly,
    /// not silently restart training from scratch).
    pub fn load_if_present(dir: impl AsRef<Path>) -> CoreResult<Option<Checkpoint>> {
        let path = Checkpoint::path_in(dir);
        match std::fs::read(&path) {
            Ok(bytes) => Checkpoint::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(bad(format!("{}: {e}", path.display()))),
        }
    }

    /// Validates that this checkpoint belongs to the given experiment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a system or seed mismatch —
    /// resuming someone else's state would silently train a chimera.
    pub fn validate_for(&self, system: &str, seed: u64) -> CoreResult<()> {
        if self.system != system {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint was taken under system '{}', refusing to resume '{system}'",
                self.system
            )));
        }
        if self.seed != seed {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint seed {} does not match the experiment seed {seed}",
                self.seed
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            system: "ssmw".into(),
            seed: 42,
            round: 7,
            opt_steps: 7,
            model: vec![1.5, -0.0, f32::NAN, f32::INFINITY, 2.0e-38],
            velocity: Some(vec![0.25, f32::NEG_INFINITY]),
            fault_rng: Some([1, 2, 3, u64::MAX]),
            attack_rng: None,
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let cp = sample();
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back.system, cp.system);
        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.round, cp.round);
        assert_eq!(back.opt_steps, cp.opt_steps);
        assert_eq!(bits(&back.model), bits(&cp.model));
        assert_eq!(
            bits(back.velocity.as_ref().unwrap()),
            bits(cp.velocity.as_ref().unwrap())
        );
        assert_eq!(back.fault_rng, cp.fault_rng);
        assert_eq!(back.attack_rng, None);
    }

    #[test]
    fn wire_words_round_trip_any_record_length() {
        // The record length is rarely a multiple of 4: all four pad residues
        // must survive the bit-cast into f32 words.
        for extra in 0..4usize {
            let mut cp = sample();
            cp.system = "s".repeat(1 + extra);
            let words = cp.to_wire_words();
            let back = Checkpoint::from_wire_words(&words).unwrap();
            assert_eq!(back.system, cp.system);
            assert_eq!(bits(&back.model), bits(&cp.model));
        }
    }

    #[test]
    fn malformed_records_are_rejected() {
        let good = sample().encode();
        assert!(Checkpoint::decode(&[]).is_err());
        assert!(
            Checkpoint::decode(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Checkpoint::decode(&trailing).is_err(), "trailing bytes");
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(Checkpoint::decode(&magic).is_err(), "magic");
        let mut version = good.clone();
        version[4] = CHECKPOINT_VERSION + 1;
        assert!(Checkpoint::decode(&version).is_err(), "version");
        // A hostile vector length must not panic or over-read.
        let mut hostile = good;
        let model_len_at = 4 + 1 + 1 + 4 + 8 + 8 + 8;
        hostile[model_len_at..model_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&hostile).is_err(), "hostile length");
        // Wire payloads whose declared length disagrees with the word count.
        assert!(Checkpoint::from_wire_words(&[]).is_err());
        assert!(Checkpoint::from_wire_words(&[f32::from_bits(100), 0.0]).is_err());
    }

    #[test]
    fn save_is_atomic_and_load_matches() {
        let dir = std::env::temp_dir().join(format!("garfield-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cp = sample();
        let path = cp.save(&dir).unwrap();
        assert_eq!(path, Checkpoint::path_in(&dir));
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        let back = Checkpoint::load(&dir).unwrap();
        assert_eq!(bits(&back.model), bits(&cp.model));

        // Overwriting keeps the single-latest-file invariant.
        let mut newer = sample();
        newer.round = 9;
        newer.save(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap().round, 9);

        // load_if_present: present -> Some, absent -> None, corrupt -> error.
        assert!(Checkpoint::load_if_present(&dir).unwrap().is_some());
        let empty = dir.join("fresh");
        assert!(Checkpoint::load_if_present(&empty).unwrap().is_none());
        std::fs::write(Checkpoint::path_in(&dir), b"garbage").unwrap();
        assert!(Checkpoint::load_if_present(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_for_rejects_foreign_experiments() {
        let cp = sample();
        assert!(cp.validate_for("ssmw", 42).is_ok());
        assert!(cp.validate_for("msmw", 42).is_err());
        assert!(cp.validate_for("ssmw", 43).is_err());
    }

    #[test]
    fn policy_cadence() {
        let p = CheckpointPolicy::new("/tmp/x", 0);
        assert_eq!(p.every, 1, "cadence clamps to 1");
        assert!(p.due(0) && p.due(5));
        let p3 = CheckpointPolicy::new("/tmp/x", 3);
        assert!(!p3.due(0) && !p3.due(1) && p3.due(2) && p3.due(5));
    }
}
