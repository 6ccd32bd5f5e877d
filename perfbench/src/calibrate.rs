//! A fixed calibration kernel that measures how fast the host runs right
//! now.
//!
//! On a shared host other tenants slow every instruction for minutes at a
//! time: the fastest fig15_target sweep of a 10 s run took 0.46 s on a
//! quiet 2-vCPU VM and up to 0.90 s on the same VM when contended, with
//! on-CPU time inflated as much as wall time. That slowdown reaches the
//! benchmark's own code as much as the program's, so every timed set-up
//! and repetition is followed by a block of this kernel, and each time is
//! divided by the block's mean kernel time (see `run` in `main.rs`).
//!
//! The kernel is the benchmark's, not the program's: no change to the
//! program can move it. It mixes the kinds of work a sweep does — bit
//! matrix relation algebra (compose, transitive closure, acyclicity),
//! hashing and probing a map keyed by small byte strings, many small
//! allocations, and sorting — and keeps its footprint to a few hundred
//! KB. It has no dependent-load chase: timed on its own over thirty 10 s
//! fig15_target runs under heavy contention, such a section followed the
//! sweep's slowdown worst of all.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// About the mean wall time of one kernel run on the quiet reference host
/// (2-vCPU Intel Xeon VM), in seconds: 0.50–0.51 ms there under light
/// load, when the fastest fig15_target sweep took 0.50 s against 0.45 s
/// quiet. A time divided by the kernel's and multiplied by this reads
/// as seconds on that host when quiet.
pub const REFERENCE_S: f64 = 0.000_45;

/// Kernel runs timed together, as one block.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Mean wall seconds per kernel run.
    pub wall_s: f64,
    /// Mean on-CPU seconds per kernel run.
    pub cpu_s: f64,
}

/// Runs the kernel until `at_least_s` seconds have passed (at least
/// once) and returns the mean time per run.
pub fn block(at_least_s: f64, cpu_now: impl Fn() -> f64) -> Block {
    let cpu0 = cpu_now();
    let start = Instant::now();
    let mut runs = 0u32;
    loop {
        black_box(kernel(black_box(0x5eed)));
        runs += 1;
        if start.elapsed().as_secs_f64() >= at_least_s {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_now() - cpu0;
    Block {
        wall_s: wall_s / f64::from(runs),
        cpu_s: cpu_s / f64::from(runs),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A relation over 16 events: row `i` holds the successors of `i`.
type Rel = [u16; 16];

fn compose(a: &Rel, b: &Rel) -> Rel {
    let mut out = [0u16; 16];
    for (i, row) in a.iter().enumerate() {
        let mut bits = *row;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            out[i] |= b[j];
            bits &= bits - 1;
        }
    }
    out
}

fn closure(r: &Rel) -> Rel {
    let mut c = *r;
    for k in 0..16 {
        for i in 0..16 {
            if c[i] & (1 << k) != 0 {
                c[i] |= c[k];
            }
        }
    }
    c
}

fn acyclic(r: &Rel) -> bool {
    closure(r)
        .iter()
        .enumerate()
        .all(|(i, row)| row & (1 << i) == 0)
}

/// The work itself; the result depends on every step.
fn kernel(seed: u64) -> u64 {
    const RELS: usize = 96;
    const KEYS: usize = 1024;
    let mut state = seed;
    let mut acc = 0u64;

    // Relation algebra over sparse random relations.
    let rels: Vec<Rel> = (0..RELS)
        .map(|_| {
            let mut r = [0u16; 16];
            for row in &mut r {
                let x = splitmix(&mut state);
                *row = (x as u16) & ((x >> 16) as u16) & ((x >> 32) as u16);
            }
            r
        })
        .collect();
    for pair in rels.windows(2) {
        let mut u = pair[0];
        for (row, other) in u.iter_mut().zip(&pair[1]) {
            *row |= *other;
        }
        let c = compose(&pair[0], &pair[1]);
        acc += u64::from(acyclic(&u)) + u64::from(acyclic(&c));
        acc = acc.wrapping_add(u64::from(closure(&c)[(acc % 16) as usize]));
    }

    // A map keyed by small byte strings, with hits and misses.
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|_| {
            let x = splitmix(&mut state);
            let len = 4 + (x % 13) as usize;
            x.to_le_bytes().iter().cycle().take(len).copied().collect()
        })
        .collect();
    let mut map: HashMap<&[u8], u32> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        *map.entry(&k[..k.len() - (i % 2)]).or_insert(0) += i as u32;
    }
    for k in &keys {
        if let Some(v) = map.get(&k[..]) {
            acc = acc.wrapping_add(u64::from(*v));
        }
    }

    // Small allocations, freed in another order than made.
    let mut boxes: Vec<Vec<u64>> = keys.iter().map(|k| vec![acc; k.len()]).collect();
    for i in (0..boxes.len()).step_by(2) {
        boxes[i] = Vec::new();
    }
    acc = acc.wrapping_add(boxes.iter().map(Vec::len).sum::<usize>() as u64);
    drop(boxes);

    // Sorting small records.
    let mut records: Vec<(u32, u16, u64)> = (0..KEYS)
        .map(|_| {
            let x = splitmix(&mut state);
            ((x >> 40) as u32 % 64, x as u16, x)
        })
        .collect();
    records.sort_unstable();
    acc.wrapping_add(records[KEYS / 2].2)
}
