//! Open-loop served decode: one generator thread submits at a fixed rate
//! whether or not earlier requests finished, and every latency is timed
//! from the request's due time, so a stalled generator or server charges
//! its delay to every request behind it.

use crate::model::{ATOL, RTOL};
use crate::trace::Tracer;
use nm_core::error::NmError;
use nm_core::matrix::MatrixF32;
use nm_serve::{Server, SubmitOptions, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The offered rates, lowest first, req/s.
pub const RATES: [f64; 4] = [250.0, 500.0, 1000.0, 2000.0];
/// Index of the nominal rate in [`RATES`].
pub const NOMINAL: usize = 1;
/// Index of the overload rate in [`RATES`].
pub const OVERLOAD: usize = 3;
/// Each request's deadline, and the limit on its tail latency.
pub const LIMIT: Duration = Duration::from_millis(20);

/// What one rate of the ladder measured.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: f64,
    /// From the first due time until the last request resolved.
    pub seconds: f64,
    /// Latency from due time of every request, ms; a failed request
    /// counts as infinitely late.
    pub latency_ms: Vec<f64>,
    /// Submission time minus due time, ms.
    pub late_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub batch_sizes: Vec<usize>,
    pub attempted: u64,
    pub shed: u64,
    pub rejected: u64,
    /// Requests that ended in any other error.
    pub errors: u64,
    /// Completions that disagree with the reference output.
    pub mismatched: u64,
    pub within_limit: u64,
}

impl Rung {
    /// Completions within the limit per second of the rung's wall time.
    pub fn goodput_rps(&self) -> f64 {
        self.within_limit as f64 / self.seconds
    }
}

enum Outcome {
    Done {
        latency: Duration,
        queue_wait: Duration,
        compute: Duration,
        batch: usize,
        correct: bool,
    },
    Shed,
    Rejected,
    Error,
}

/// Offer `rate` req/s for `seconds`, cycling through `requests`; check
/// every completion against `expected` as it arrives.
pub fn run_rung(
    server: &Server,
    requests: &[Vec<f32>],
    expected: &[Vec<f32>],
    rate: f64,
    seconds: f64,
    tr: &Tracer,
) -> Rung {
    let n = ((rate * seconds).round() as u64).max(1);
    let opts = SubmitOptions::default().with_deadline(LIMIT);
    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    // Start a little ahead so the first due time is not already past.
    let start = Instant::now() + Duration::from_millis(1);
    let (tx, rx) = mpsc::channel::<(u64, Duration, nm_core::error::Result<Ticket>)>();
    let outcomes = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (id, late, submitted) in rx {
                let outcome = match submitted {
                    Err(NmError::Overloaded { .. }) => Outcome::Rejected,
                    Err(_) => Outcome::Error,
                    Ok(ticket) => match tr.span("serve.wait", None, id, |_| ticket.wait()) {
                        Ok(done) => {
                            let want = &expected[id as usize % expected.len()];
                            let want = MatrixF32::from_vec(1, want.len(), want.clone());
                            Outcome::Done {
                                latency: late + done.timing.e2e(),
                                queue_wait: done.timing.queue_wait,
                                compute: done.timing.compute,
                                batch: done.dispatch.batch_size,
                                correct: done.c.allclose(&want, RTOL, ATOL),
                            }
                        }
                        Err(NmError::DeadlineExceeded { .. }) => Outcome::Shed,
                        Err(_) => Outcome::Error,
                    },
                };
                out.push(outcome);
            }
            out
        });
        for id in 0..n {
            let due = start + Duration::from_secs_f64(id as f64 / rate);
            // Spin rather than sleep: on a small VM a sleeping thread wakes
            // up to milliseconds late, which would be charged to requests.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let x = requests[id as usize % requests.len()].clone();
            let submit = Instant::now();
            let late = submit.saturating_duration_since(due);
            let res = tr.span("serve.submit", None, id, |_| server.submit_decode(x, opts));
            rung.late_ms.push(ms(late));
            tx.send((id, late, res))
                .expect("the collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    rung.seconds = start.elapsed().as_secs_f64();
    for o in outcomes {
        rung.attempted += 1;
        match o {
            Outcome::Done {
                latency,
                queue_wait,
                compute,
                batch,
                correct,
            } => {
                rung.queue_wait_ms.push(ms(queue_wait));
                rung.compute_ms.push(ms(compute));
                rung.batch_sizes.push(batch);
                if correct {
                    rung.latency_ms.push(ms(latency));
                    rung.within_limit += u64::from(latency <= LIMIT);
                } else {
                    rung.mismatched += 1;
                    rung.latency_ms.push(f64::INFINITY);
                }
            }
            Outcome::Shed => rung.shed += 1,
            Outcome::Rejected => rung.rejected += 1,
            Outcome::Error => rung.errors += 1,
        }
    }
    let lost = rung.shed + rung.rejected + rung.errors;
    rung.latency_ms
        .extend(std::iter::repeat_n(f64::INFINITY, lost as usize));
    rung
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
