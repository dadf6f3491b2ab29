//! Host-noise guard. Even confined to one CPU (see `host`), a shared guest
//! has noisy minutes: a neighbour on the same core slows every context
//! switch and cache miss, and `no2d_wire` point p50 reads 28 µs instead of
//! 18 µs for a whole run. Around every measured pass the benchmark takes two
//! readings that involve no program under test — a fixed CPU spin and a
//! loopback echo between two of its own threads — and compares them with
//! the best it has ever read in this checkout (kept in
//! `benchmark/target/host-baseline.json`). A reading far from the best means
//! a noisy host: the guard waits for it to pass, or the pass is measured
//! again. The readings decide *when* to measure; no metric is ever rescaled
//! by them.

use crate::json::Json;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A quiet reading is within these factors of the best ever read. The echo
/// sits at 5.6–7.5 µs when quiet and 10–12 µs in a noisy minute; the spin
/// reads 17–22 ms on its own, so only a gross slow-down counts.
const ECHO_QUIET_FACTOR: f64 = 1.45;
const CPU_QUIET_FACTOR: f64 = 1.40;
const RECHECK_EVERY: Duration = Duration::from_millis(500);

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub cpu_ms: f64,
    pub echo_rtt_us: f64,
}

impl Calibration {
    fn best_of(self, other: Calibration) -> Calibration {
        Calibration {
            cpu_ms: self.cpu_ms.min(other.cpu_ms),
            echo_rtt_us: self.echo_rtt_us.min(other.echo_rtt_us),
        }
    }

    /// Whether this reading is close enough to `best` to measure under.
    pub fn quiet_against(&self, best: &Calibration) -> bool {
        self.echo_rtt_us <= best.echo_rtt_us * ECHO_QUIET_FACTOR
            && self.cpu_ms <= best.cpu_ms * CPU_QUIET_FACTOR
    }
}

/// A fixed amount of dependent integer work; best of five.
fn cpu_spin_ms() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..8_000_000u64 {
                x = (x ^ (x >> 29))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// A one-byte echo over loopback TCP between two of the benchmark's own
/// threads, kept open so it can be asked again between passes.
#[derive(Debug)]
struct Echo {
    stream: TcpStream,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut byte = [0u8; 1];
            while stream.read(&mut byte)? == 1 {
                stream.write_all(&byte)?;
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            server: Some(server),
        })
    }

    /// Median round trip over `rounds` echoes (µs).
    fn rtt_us(&mut self, rounds: usize) -> std::io::Result<f64> {
        let mut byte = [7u8; 1];
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let start = Instant::now();
            self.stream.write_all(&byte)?;
            self.stream.read_exact(&mut byte)?;
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&samples))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // EOF ends the echo thread's loop.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// The guard: takes readings, remembers the best, and says when it is quiet.
#[derive(Debug)]
pub struct Guard {
    echo: Echo,
    best: Option<Calibration>,
    baseline_file: PathBuf,
}

fn load_baseline(path: &Path) -> Option<Calibration> {
    let record = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let field = |name: &str| record.get(name).and_then(Json::as_f64).filter(|v| *v > 0.0);
    Some(Calibration {
        cpu_ms: field("cpu_ms")?,
        echo_rtt_us: field("echo_rtt_us")?,
    })
}

impl Guard {
    /// Opens the echo and loads the checkout's baseline, if it has one.
    pub fn open(work_dir: &Path) -> std::io::Result<Guard> {
        let baseline_file = work_dir.join("host-baseline.json");
        Ok(Guard {
            echo: Echo::start()?,
            best: load_baseline(&baseline_file),
            baseline_file,
        })
    }

    /// Takes one reading and folds it into the best.
    pub fn read(&mut self) -> std::io::Result<Calibration> {
        let reading = Calibration {
            cpu_ms: cpu_spin_ms(),
            echo_rtt_us: self.echo.rtt_us(2000)?,
        };
        self.best = Some(self.best.map_or(reading, |best| best.best_of(reading)));
        Ok(reading)
    }

    pub fn is_quiet(&self, reading: &Calibration) -> bool {
        self.best.is_none_or(|best| reading.quiet_against(&best))
    }

    /// Reads until a reading is quiet or `give_up` has passed; returns the
    /// last reading either way.
    pub fn wait_for_quiet(&mut self, give_up: Instant) -> std::io::Result<Calibration> {
        loop {
            let reading = self.read()?;
            if self.is_quiet(&reading) || Instant::now() + RECHECK_EVERY > give_up {
                return Ok(reading);
            }
            std::thread::sleep(RECHECK_EVERY);
        }
    }

    /// Writes the best reading back for the checkout's later runs (through
    /// a temporary file, so a concurrent reader never sees half a record).
    pub fn save(&self) -> std::io::Result<()> {
        let Some(best) = self.best else {
            return Ok(());
        };
        let record = Json::obj([
            ("cpu_ms", Json::Num(best.cpu_ms)),
            ("echo_rtt_us", Json::Num(best.echo_rtt_us)),
        ]);
        let tmp = self
            .baseline_file
            .with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, record.encode())?;
        std::fs::rename(&tmp, &self.baseline_file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_means_close_to_the_best() {
        let best = Calibration {
            cpu_ms: 20.0,
            echo_rtt_us: 6.2,
        };
        let usual = Calibration {
            cpu_ms: 22.0,
            echo_rtt_us: 7.2,
        };
        let noisy_minute = Calibration {
            cpu_ms: 21.0,
            echo_rtt_us: 10.4,
        };
        let slow_cpu = Calibration {
            cpu_ms: 29.0,
            echo_rtt_us: 6.5,
        };
        assert!(usual.quiet_against(&best));
        assert!(!noisy_minute.quiet_against(&best));
        assert!(!slow_cpu.quiet_against(&best));
    }

    #[test]
    fn the_guard_keeps_and_persists_its_best_reading() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut guard = Guard::open(&dir).unwrap();
        let first = guard.read().unwrap();
        assert!(first.echo_rtt_us > 0.0 && first.cpu_ms > 0.0);
        assert!(guard.is_quiet(&first), "the only reading is its own best");
        guard.save().unwrap();
        let reopened = Guard::open(&dir).unwrap();
        assert_eq!(reopened.best, guard.best);
        let waited = guard.wait_for_quiet(Instant::now()).unwrap();
        assert!(waited.echo_rtt_us > 0.0, "gives up at once, with a reading");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
