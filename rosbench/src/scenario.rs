//! Workload inputs, generated from the seed alone.
//!
//! The program under test receives only what these functions produce:
//! a corridor configuration, or a list of drive-by scenarios whose
//! tags were fabricated through one geometry cache.

use ros_cache::GeomCache;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome};
use ros_core::stream::{PassId, SignRead};
use ros_core::tag::Tag;
use ros_scene::scenario::ScenePreset;
use ros_serve::CorridorConfig;

/// Decode threads of the one corridor shard: one producer thread plus
/// one decode thread.
pub const CORRIDOR_WORKERS: usize = 1;

/// The serving corridor: 5 radars × 10 vehicles × 4 tags = 200 passes
/// of 8-row tags read by the fast reader. The 2.5 m standoff is the
/// probed setting with the fewest wrong reads (1 in 2,000 passes over
/// ten seeds, against 3 in 1,200 at the 2 m default).
///
/// A tag's echo synthesis costs more the more stacks it mounts, so the
/// corridor seed is drawn until the 20 mounted words hold exactly half
/// their 80 bits set: every benchmark seed then asks for the same work.
pub fn corridor_config(seed: u64) -> CorridorConfig {
    let mut draw = Draw::new(seed, 0xc022);
    loop {
        let cfg = CorridorConfig {
            n_radars: 5,
            n_vehicles: 10,
            n_tags: 4,
            standoff_m: 2.5,
            seed: draw.next(),
            channel_capacity: 256,
            ..CorridorConfig::default()
        };
        let mounted: Vec<[bool; 4]> = cfg
            .encounters()
            .iter()
            .filter(|e| e.pass.vehicle == 0)
            .map(|e| e.word)
            .collect();
        if set_bits(&mounted) * 2 == mounted.len() * 4 {
            return cfg;
        }
    }
}

/// Set bits over a list of 4-bit words.
pub fn set_bits(words: &[[bool; 4]]) -> usize {
    words.iter().flatten().filter(|&&b| b).count()
}

/// SplitMix64: a small, fixed generator for drawing scenario
/// parameters from the seed.
pub struct Draw(u64);

impl Draw {
    /// A generator for `seed` under a workload-specific `domain`.
    pub fn new(seed: u64, domain: u64) -> Self {
        Draw(seed ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The 4-bit word with index `w` (bit `i` of `w` is slot `i`).
pub fn word(w: usize) -> [bool; 4] {
    [w & 1 != 0, w & 2 != 0, w & 4 != 0, w & 8 != 0]
}

/// All sixteen 4-bit designs of the paper's 32-row tag, fabricated
/// through `cache` (the cold table builds happen here).
pub fn paper_tags(cache: &GeomCache) -> Vec<Tag> {
    (0..16)
        .map(|w| {
            SpatialCode::paper_4bit()
                .encode_with(cache, &word(w))
                .expect("every 4-bit word encodes on the 4-bit code")
        })
        .collect()
}

/// One drive-by and the word its tag carries.
pub struct Drive {
    pub scenario: DriveBy,
    pub word: [bool; 4],
}

/// full_pipeline: 32 passes of 32-row tags (every word twice) in an
/// urban-curb clutter scene, 2 m standoff at 3 m/s (about 0.29 s per
/// pass at one exec thread). It is the probed setting where the reader
/// made no wrong read in 960 passes over 30 seeds; at 2.5 m and 5 m/s
/// the blank word misread about one seed in fifteen, and at 2 m and
/// 5 m/s one in two.
///
/// A drive-by costs more the more stacks its tag mounts, and a timed
/// run stops partway through the list, so the words come in
/// complementary pairs (0, 15, 1, 14, ..., 7, 8): every prefix of the
/// list mounts a balanced number of stacks, to within one drive.
pub fn full_pipeline_drives(seed: u64, tags: &[Tag]) -> Vec<Drive> {
    let mut draw = Draw::new(seed, 0xf011);
    (0..32)
        .map(|k| {
            let w = if k % 2 == 0 {
                k / 2 % 8
            } else {
                15 - k / 2 % 8
            };
            let scenario = DriveBy::new(tags[w].clone(), 2.0)
                .with_speed(3.0)
                .with_scene(ScenePreset::UrbanCurb, draw.next())
                .with_seed(draw.next());
            Drive {
                scenario,
                word: word(w),
            }
        })
        .collect()
}

/// fast_sweep: standoff {2, 3, 4} m × speed {2, 3, 4} m/s × 4 passes
/// = 36 passes of 32-row tags. The grid avoids the corners where the
/// fast reader makes most of its wrong reads; over seeds 1 to 100, 7
/// seeds misread one pass, always the blank word, which `failed`
/// reports. Each cell reads two drawn words and their complements, so
/// every cell mounts the same number of stacks whatever the seed.
pub fn fast_sweep_drives(seed: u64, tags: &[Tag]) -> Vec<Drive> {
    let mut draw = Draw::new(seed, 0xfa57);
    let mut out = Vec::new();
    for standoff in [2.0, 3.0, 4.0] {
        for speed in [2.0, 3.0, 4.0] {
            for _ in 0..2 {
                let w = (draw.next() % 16) as usize;
                for w in [w, w ^ 0b1111] {
                    let scenario = DriveBy::new(tags[w].clone(), standoff)
                        .with_speed(speed)
                        .with_seed(draw.next());
                    out.push(Drive {
                        scenario,
                        word: word(w),
                    });
                }
            }
        }
    }
    out
}

/// The identity a single drive-by's pass carries through the
/// streaming reader.
pub const SOLO_PASS: PassId = PassId {
    radar: 0,
    vehicle: 0,
    tag: 0,
    seq: 0,
};

/// What a read must reproduce exactly on every repetition and on
/// every equivalent path: bits, SNR bit pattern, verdict and frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadKey {
    pub bits: Option<Vec<bool>>,
    pub snr_bits: Option<u64>,
    pub verdict: String,
    pub n_frames: usize,
}

impl ReadKey {
    pub fn of_read(r: &SignRead) -> Self {
        ReadKey {
            bits: r.bits.clone(),
            snr_bits: r.snr_db.map(f64::to_bits),
            verdict: r.verdict.name().to_string(),
            n_frames: r.n_frames,
        }
    }

    pub fn of_outcome(o: &Outcome) -> Self {
        ReadKey {
            bits: o.decoded_bits().map(<[bool]>::to_vec),
            snr_bits: o.snr_db().map(f64::to_bits),
            verdict: o.verdict.name().to_string(),
            n_frames: o.rss_trace.len(),
        }
    }

    /// A read is wrong when it failed to decode or its bits differ
    /// from the mounted word.
    pub fn is_wrong(&self, word: &[bool; 4]) -> bool {
        self.bits.as_deref() != Some(&word[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut d = Draw::new(7, 1);
                move |_| d.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut d = Draw::new(7, 1);
                move |_| d.next()
            })
            .collect();
        let mut c = Draw::new(8, 1);
        assert_eq!(a, b);
        assert_ne!(a[0], c.next());
    }

    #[test]
    fn every_seed_asks_for_the_same_number_of_stacks() {
        for seed in [1, 2, 9001] {
            let cfg = corridor_config(seed);
            let mounted: Vec<[bool; 4]> = cfg
                .encounters()
                .iter()
                .filter(|e| e.pass.vehicle == 0)
                .map(|e| e.word)
                .collect();
            assert_eq!((mounted.len(), set_bits(&mounted)), (20, 40), "seed {seed}");
        }
        assert_ne!(corridor_config(1).seed, corridor_config(2).seed);
        let cache = GeomCache::new();
        let tags = paper_tags(&cache);
        for seed in [1, 2] {
            let drives = fast_sweep_drives(seed, &tags);
            let words: Vec<[bool; 4]> = drives.iter().map(|d| d.word).collect();
            assert_eq!((words.len(), set_bits(&words)), (36, 72));
            let drives = full_pipeline_drives(seed, &tags);
            let words: Vec<[bool; 4]> = drives.iter().map(|d| d.word).collect();
            for pair in words.chunks(2) {
                assert_eq!(set_bits(pair), 4, "seed {seed}");
            }
            for w in 0..16 {
                assert_eq!(words.iter().filter(|&&x| x == word(w)).count(), 2);
            }
        }
    }

    #[test]
    fn wrong_reads_count_failed_decodes_and_flipped_bits() {
        let key = |bits: Option<Vec<bool>>| ReadKey {
            bits,
            snr_bits: None,
            verdict: "clean".into(),
            n_frames: 10,
        };
        let w = word(0b1011);
        assert!(!key(Some(w.to_vec())).is_wrong(&w));
        assert!(key(Some(word(0b1010).to_vec())).is_wrong(&w));
        assert!(key(None).is_wrong(&w));
        let reads = [key(Some(w.to_vec())), key(None), key(Some(w.to_vec()))];
        let wrong = reads.iter().filter(|r| r.is_wrong(&w)).count();
        assert_eq!(
            crate::error_rate(wrong as u64, reads.len() as u64),
            1.0 / 3.0
        );
    }
}
