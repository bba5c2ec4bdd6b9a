//! Reference outputs for the output checks, computed without the program
//! under test: CRC-32 and Adler-32 from their definitions, and the analysis
//! job's expected results straight from the generated events, with no tree
//! reader, cache or basket decoder in between.

use davix_repro::ioapi::checksum;
use davix_repro::rootio::{BranchKind, Generator, JobReport};
use std::sync::OnceLock;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), eight bytes per
/// step with the slice-by-8 tables.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for i in 0..256 {
            for k in 1..8 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Adler-32 (RFC 1950 §8.2), reduced every 4096 bytes.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u64 = 65_521;
    let (mut a, mut b) = (1u64, 0u64);
    for chunk in data.chunks(4096) {
        for &byte in chunk {
            a += byte as u64;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    ((b << 16) | a) as u32
}

/// The library's checksum functions, which the store uses and the traced
/// run times, must agree with the known answers and with the functions
/// above on `sample`.
pub fn library_checksums_agree(sample: &[u8]) -> Result<(), String> {
    let known = b"123456789";
    let cases = [
        ("crc32", checksum::crc32(known), 0xCBF4_3926),
        ("adler32", checksum::adler32(known), 0x091E_01DE),
        ("crc32", checksum::crc32(sample), crc32(sample)),
        ("adler32", checksum::adler32(sample), adler32(sample)),
    ];
    for (name, got, want) in cases {
        if got != want {
            return Err(format!("ioapi::checksum::{name} gave {got:08x}, expected {want:08x}"));
        }
    }
    Ok(())
}

/// What an `AnalysisJob` over every event must report, with the calorimeter
/// read and a fixed event window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedJob {
    pub events: u64,
    /// The invariant-mass histogram: 100 bins over [0, 200).
    pub bins: Vec<u64>,
    pub underflow: u64,
    pub overflow: u64,
    pub cal_sum: i64,
    pub windows: u64,
}

const HIST_LO: f64 = 0.0;
const HIST_HI: f64 = 200.0;
const HIST_BINS: usize = 100;

impl ExpectedJob {
    /// Replay the job's event loop on the columns `generator` produces, in
    /// batches of `batch` events, as the tree writer draws them.
    pub fn generate(mut generator: Generator, events: u64, batch: usize, window: u64) -> Self {
        let schema = generator.schema().clone();
        let col = |name: &str| schema.index_of(name).expect("the HEP schema has the branch");
        let (px, py, pz, en, q, cal) =
            (col("px"), col("py"), col("pz"), col("energy"), col("charge"), col("cal"));
        let BranchKind::I16Array(cells) = schema.branches[cal].kind else {
            panic!("cal is an i16 array branch")
        };
        let mut exp = ExpectedJob {
            events,
            bins: vec![0; HIST_BINS],
            underflow: 0,
            overflow: 0,
            cal_sum: 0,
            windows: events.div_ceil(window),
        };
        let mut prev: Option<(f32, f32, f32, f32, i8)> = None;
        let mut first = 0u64;
        while first < events {
            let n = batch.min((events - first) as usize);
            let b = generator.batch(n);
            for i in 0..n {
                let e = (
                    b.f32_at(px, i),
                    b.f32_at(py, i),
                    b.f32_at(pz, i),
                    b.f32_at(en, i),
                    b.i8_at(q, i),
                );
                if let Some(p) = prev.filter(|p| p.4 != e.4) {
                    // Opposite charge: the pair's invariant mass, summed in
                    // f32 per component as the job does.
                    let e_tot = (p.3 + e.3) as f64;
                    let (x, y, z) = ((p.0 + e.0) as f64, (p.1 + e.1) as f64, (p.2 + e.2) as f64);
                    let m2 = e_tot * e_tot - (x * x + y * y + z * z);
                    if m2 > 0.0 {
                        exp.fill(m2.sqrt());
                    }
                }
                prev = Some(e);
                exp.cal_sum += b.i16_array_at(cal, i, cells).iter().map(|&v| v as i64).sum::<i64>();
            }
            first += n as u64;
        }
        exp
    }

    fn fill(&mut self, x: f64) {
        if x < HIST_LO {
            self.underflow += 1;
        } else if x >= HIST_HI {
            self.overflow += 1;
        } else {
            let idx = ((x - HIST_LO) / (HIST_HI - HIST_LO) * HIST_BINS as f64) as usize;
            self.bins[idx.min(HIST_BINS - 1)] += 1;
        }
    }

    /// How `r` differs from the expected results, if it does.
    pub fn differs(&self, r: &JobReport) -> Option<String> {
        let h = &r.mass_histogram;
        let entries = self.bins.iter().sum::<u64>() + self.underflow + self.overflow;
        let checks = [
            ("events", r.events_processed == self.events),
            ("histogram bins", h.bins() == &self.bins[..]),
            ("histogram underflow", h.underflow == self.underflow),
            ("histogram overflow", h.overflow == self.overflow),
            ("histogram entries", h.entries() == entries),
            ("cal_sum", r.cal_sum == self.cal_sum),
            ("windows loaded", r.windows_loaded == self.windows),
        ];
        let bad: Vec<&str> = checks.iter().filter(|(_, ok)| !ok).map(|(n, _)| *n).collect();
        (!bad.is_empty())
            .then(|| format!("job output differs from the expected {}", bad.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn checksums_match_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"123456789"), 0x091E_01DE);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn slice_by_8_agrees_with_the_bytewise_definition() {
        let data = Rng::new(3).bytes(1000);
        for len in [0, 1, 7, 8, 9, 63, 1000] {
            let mut crc = !0u32;
            for &b in &data[..len] {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
                }
            }
            assert_eq!(crc32(&data[..len]), !crc, "length {len}");
        }
    }

    #[test]
    fn adler32_stays_exact_on_long_runs_of_0xff() {
        // 65,521 bytes of 0xFF: a = 1 + 255 * 65521 ≡ 1, b by the closed form.
        let n = 65_521u64;
        let b = (n + 255 * n * (n + 1) / 2) % 65_521;
        assert_eq!(adler32(&vec![0xFF; n as usize]), ((b << 16) | 1) as u32);
    }
}
