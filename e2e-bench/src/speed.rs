//! A fixed CPU probe that tracks how fast the machine runs right now.
//!
//! Shared VMs swing in speed by tens of percent within a minute, for every
//! program alike, as neighbours contend for the cores. A run therefore times a fixed probe before the first operation
//! and after each one, and multiplies the operation's wall time by
//! `PROBE_REF_S / (mean of the probe times around it)`: the wall time it
//! would have taken on a machine that runs the probe in exactly
//! `PROBE_REF_S`. The probe calls no library code, so a change to the
//! library moves the scaled time as much as the raw one; only the
//! machine's drift cancels. Raw wall times are kept in each run's result
//! record beside the scaled ones.
//!
//! The probe mixes the kinds of work the workloads do, because each kind
//! suffers differently from contention: a latency-bound f32 chain (scalar
//! host loops), a vectorisable f32 product (host GEMM) and a vectorisable
//! i8 x i8 -> i32 product (integer GEMM). Memory-bound parts (a 4 MiB
//! stream, a random walk) were tried and tracked the workloads worse.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The probe time scaled wall times are expressed at (near the probe's
/// median on a 2-core Xeon container).
pub const PROBE_REF_S: f64 = 1.5e-3;

const ROWS: usize = 64;
const INNER: usize = 128;
const COLS: usize = 64;
const BURSTS: usize = 3;

pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    qa: Vec<i8>,
    qb: Vec<i8>,
    out: Vec<f32>,
    acc: Vec<i32>,
    /// The latest probe time.
    last: Option<f64>,
}

impl Probe {
    #[must_use]
    pub fn new() -> Self {
        // Fixed inputs: the probe's work never changes.
        let mut probe = Probe {
            a: (0..ROWS * INNER)
                .map(|i| (i % 7) as f32 * 0.25 - 0.5)
                .collect(),
            b: (0..INNER * COLS)
                .map(|i| (i % 5) as f32 * 0.5 - 1.0)
                .collect(),
            qa: (0..ROWS * INNER).map(|i| (i % 251) as i8).collect(),
            qb: (0..INNER * COLS).map(|i| (i % 241) as i8).collect(),
            out: vec![0.0; ROWS * COLS],
            acc: vec![0; ROWS * COLS],
            last: None,
        };
        probe.burst(); // first touch of the buffers
        probe
    }

    fn burst(&mut self) -> f64 {
        let start = Instant::now();
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        for r in 0..ROWS {
            for c in 0..COLS {
                let mut acc = 0.0f32;
                for k in 0..INNER {
                    acc += a[r * INNER + k] * b[k * COLS + c];
                }
                self.out[r * COLS + c] = acc;
            }
        }
        black_box(&self.out);
        for _ in 0..2 {
            self.out.fill(0.0);
            for r in 0..ROWS {
                let row = &mut self.out[r * COLS..(r + 1) * COLS];
                for k in 0..INNER {
                    let x = a[r * INNER + k];
                    for (o, &y) in row.iter_mut().zip(&b[k * COLS..(k + 1) * COLS]) {
                        *o += x * y;
                    }
                }
            }
            black_box(&self.out);
        }
        let (qa, qb) = (black_box(&self.qa), black_box(&self.qb));
        for _ in 0..4 {
            self.acc.fill(0);
            for r in 0..ROWS {
                let row = &mut self.acc[r * COLS..(r + 1) * COLS];
                for k in 0..INNER {
                    let x = i32::from(qa[r * INNER + k]);
                    for (o, &y) in row.iter_mut().zip(&qb[k * COLS..(k + 1) * COLS]) {
                        *o += x * i32::from(y);
                    }
                }
            }
            black_box(&self.acc);
        }
        start.elapsed().as_secs_f64()
    }

    /// Times the probe now (median of a few bursts).
    fn sample(&mut self) -> f64 {
        let bursts: Vec<f64> = (0..BURSTS).map(|_| self.burst()).collect();
        let s = median(&bursts);
        self.last = Some(s);
        s
    }

    /// Runs `op` between two probe samples and returns its result with the
    /// factor that scales wall times measured inside it.
    pub fn measure<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(s) => s,
            None => self.sample(),
        };
        let out = op();
        let after = self.sample();
        (out, PROBE_REF_S / (0.5 * (before + after)))
    }
}
