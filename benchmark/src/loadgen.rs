//! LDS1 load generators: an open loop (requests on a schedule, each timed
//! from the instant it was due) and a closed loop (each connection sends
//! its next request when the previous reply has been read).

use crate::oracle;
use ld_core::LdMatrix;
use ld_serve::protocol::StatCode;
use ld_serve::{Client, Request, Status};
use std::time::{Duration, Instant};

/// What every request of a phase asks for.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Answered inline by the connection thread: no queue, no worker.
    Health,
    /// One r² of a uniform-random SNP pair.
    Pair,
    /// The pair table of a uniform-random window of this many rows.
    Region(usize),
}

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Fixed arrival rate in requests per second over all threads: one
    /// request per slot of `1/rate`, due at a random instant inside it.
    Open(f64),
    /// As fast as replies come back.
    Closed,
}

/// One phase of load.
#[derive(Clone, Copy, Debug)]
pub struct Plan<'a> {
    /// Daemon address.
    pub addr: &'a str,
    /// Request kind.
    pub op: Op,
    /// Pacing.
    pub pace: Pace,
    /// `true`: connect → request → close per request; `false`: one
    /// persistent connection per thread, opened before timing starts.
    pub fresh: bool,
    /// Generator threads (= connections when persistent).
    pub threads: usize,
    /// Untimed lead-in, seconds.
    pub warmup_s: f64,
    /// Timed length, seconds.
    pub seconds: f64,
    /// Seed of the request sequence.
    pub seed: u64,
    /// SNPs in the served panel.
    pub n_snps: usize,
}

/// What a phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Client-observed latency of each `Ok` response, µs: from the due
    /// instant (open loop) or from `connect()` / first byte sent (closed)
    /// to the last byte read.
    pub latency_us: Vec<f64>,
    /// Open loop only: how late after its due instant each request
    /// actually started, µs.
    pub late_us: Vec<f64>,
    /// Requests sent in the timed part.
    pub attempted: usize,
    /// Transport errors, non-`Ok` statuses and malformed bodies.
    pub failed: usize,
    /// Timed wall: phase start → last reply read, seconds.
    pub wall_s: f64,
    /// LD values carried by `Ok` responses.
    pub ld_values: u64,
    /// Body bytes of `Ok` responses.
    pub body_bytes: u64,
    /// Every 16th `Ok` response with its request, for [`Phase::mismatches`].
    pub kept: Vec<(Request, Vec<u8>)>,
}

const TIMEOUT: Duration = Duration::from_secs(5);

/// SplitMix64: request sequences must repeat for a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> u32 {
        (self.next() % n.max(1) as u64) as u32
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn request(op: Op, rng: &mut Rng, n: usize) -> Request {
    let (panel, stat) = (crate::workload::PANEL.to_string(), StatCode::RSquared);
    match op {
        Op::Health => Request::Health,
        Op::Pair => Request::Pair {
            panel,
            stat,
            i: rng.below(n),
            j: rng.below(n),
        },
        Op::Region(rows) => {
            let rows = rows.min(n);
            let row0 = rng.below(n - rows + 1);
            Request::Region {
                panel,
                stat,
                row0,
                row1: row0 + rows as u32,
                min_r2: 0.0,
            }
        }
    }
}

/// Sleeps to within a millisecond of `due`, then spins: a plain sleep
/// overshoots by more than the lateness the open loop must report.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one generator thread; `t` is its index among `plan.threads`.
fn generate(plan: &Plan<'_>, t: usize, t0: Instant) -> Phase {
    let mut out = Phase::default();
    let mut rng = Rng(plan.seed ^ (t as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let timed_from = t0 + Duration::from_secs_f64(plan.warmup_s);
    let end = timed_from + Duration::from_secs_f64(plan.seconds);
    let mut conn = match plan.fresh {
        true => None,
        false => Client::connect(plan.addr, TIMEOUT).ok(),
    };
    if !plan.fresh && conn.is_none() {
        out.attempted = 1;
        out.failed = 1;
        return out;
    }
    for k in 0usize.. {
        let start = match plan.pace {
            Pace::Open(rate) => {
                // Slot `k·threads + t` of length 1/rate, and a seed-chosen
                // instant inside it. A metronome would beat against the
                // daemon's 10 ms accept tick and visit only a few of its
                // phases, a different few in every run.
                let slot = (k * plan.threads + t) as f64;
                let due = t0 + Duration::from_secs_f64((slot + rng.unit()) / rate);
                if due >= end {
                    break;
                }
                wait_until(due);
                due
            }
            Pace::Closed => {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                now
            }
        };
        let timed = start >= timed_from;
        let req = request(plan.op, &mut rng, plan.n_snps);
        let began = Instant::now();
        let resp = match conn.as_mut() {
            Some(c) => c.request(&req),
            None => Client::connect(plan.addr, TIMEOUT).and_then(|mut c| c.request(&req)),
        };
        let done = Instant::now();
        if !timed {
            continue;
        }
        out.attempted += 1;
        out.wall_s = (done - timed_from).as_secs_f64();
        let body = match resp {
            Ok(r) if r.status == Status::Ok && well_formed(plan.op, &r.body) => r.body,
            _ => {
                out.failed += 1;
                if conn.is_some() {
                    // a broken persistent stream cannot be trusted further
                    break;
                }
                continue;
            }
        };
        out.latency_us.push((done - start).as_secs_f64() * 1e6);
        if matches!(plan.pace, Pace::Open(_)) {
            out.late_us.push((began - start).as_secs_f64() * 1e6);
        }
        out.body_bytes += body.len() as u64;
        out.ld_values += match plan.op {
            Op::Health => 0,
            Op::Pair => 1,
            Op::Region(rows) => (rows.min(plan.n_snps) * (rows.min(plan.n_snps) - 1) / 2) as u64,
        };
        if out.latency_us.len() % 16 == 1 {
            out.kept.push((req, body));
        }
    }
    out
}

/// Cheap shape check applied to every response.
fn well_formed(op: Op, body: &[u8]) -> bool {
    match op {
        Op::Health => !body.is_empty(),
        Op::Pair => body.len() == 8,
        Op::Region(_) => body.starts_with(b"SNP_A\tSNP_B\tR2\n") && body.ends_with(b"\n"),
    }
}

/// Runs `plan` on `plan.threads` generator threads and merges what they saw.
pub fn run(plan: &Plan<'_>) -> Phase {
    let t0 = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.threads)
            .map(|t| s.spawn(move || generate(plan, t, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all = Phase::default();
    for p in parts {
        all.latency_us.extend(p.latency_us);
        all.late_us.extend(p.late_us);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.wall_s = all.wall_s.max(p.wall_s);
        all.ld_values += p.ld_values;
        all.body_bytes += p.body_bytes;
        all.kept.extend(p.kept);
    }
    all
}

impl Phase {
    /// Re-derives every kept response from the oracle matrix and returns
    /// how many differ by more than the last printed place.
    pub fn mismatches(&self, m: &LdMatrix) -> usize {
        self.kept
            .iter()
            .filter(|(req, body)| match req {
                Request::Pair { i, j, .. } => {
                    let got = f64::from_le_bytes(body[..].try_into().expect("8-byte pair body"));
                    (got - m.get(*i as usize, *j as usize)).abs() > 1e-9
                }
                Request::Region {
                    row0, row1, min_r2, ..
                } => {
                    let table = oracle::pair_table(m, *row0 as usize, *row1 as usize, *min_r2);
                    !oracle::table_matches(body, &table, *min_r2)
                }
                _ => false,
            })
            .count()
    }
}
