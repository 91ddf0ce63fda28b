//! Brings the host into the state a long measuring session runs in,
//! before a run measures anything.
//!
//! Every request crosses two thread wake-ups (driver -> worker on
//! admission, worker -> driver on reply), so every latency here rides on
//! what it costs to wake a thread on the other core. On the reference
//! container (a 2-vCPU Firecracker guest) that cost has two regimes: an
//! idle guest wakes the other core in ~1.5 us, but after about two
//! seconds of both cores busy it takes ~20 us and stays there for as
//! long as load is sustained, returning only after a minute of idling.
//! The same binary answers a hot get in 12 us in the first regime and in
//! 98 us in the second; closed-loop throughput differs threefold. A
//! driver session of a hundred back-to-back runs lives in the second
//! regime, except for whichever runs follow a pause. So each run first
//! probes the wake-up cost and, while it still reads as the idle regime,
//! burns both cores a second at a time until it does not (or a cap is
//! reached: a host without the second regime is left as it is). What is
//! measured is then the sustained regime, whenever the run happens.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wake-ups slower than this are the sustained regime.
const SETTLED_WAKE_US: f64 = 8.0;
/// Burn at most this long; then measure whatever the host gives.
const MAX_BURN: Duration = Duration::from_secs(4);
const BURN_STEP: Duration = Duration::from_secs(1);
const PROBE_ROUNDS: usize = 200;
/// How long the prober spins before each wake-up, so the sleeper's core
/// has gone idle.
const PROBE_GAP: Duration = Duration::from_micros(150);

/// What [`settle`] found and did.
#[derive(Debug, Clone, Copy)]
pub struct Settled {
    /// Cross-core wake-up p50 when the run started, microseconds.
    pub wake_us_at_start: f64,
    /// The same after settling: the floor under every thread hand-off.
    pub wake_us: f64,
    pub burned: Duration,
}

/// Median time from notifying a thread blocked on a condvar (while this
/// thread keeps its own core busy) to that thread running, microseconds.
pub fn cross_core_wake_us() -> f64 {
    let epoch = Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    // (round to answer, quit) under the mutex; the sleeper stamps `woke`.
    let gate = Arc::new((Mutex::new((0usize, false)), Condvar::new()));
    let woke = Arc::new(AtomicU64::new(0));
    let sleeper = {
        let (gate, woke) = (Arc::clone(&gate), Arc::clone(&woke));
        std::thread::spawn(move || {
            let (lock, cv) = &*gate;
            let mut answered = 0usize;
            loop {
                let mut state = lock.lock().expect("probe lock");
                while state.0 == answered && !state.1 {
                    state = cv.wait(state).expect("probe wait");
                }
                if state.1 {
                    return;
                }
                answered = state.0;
                drop(state);
                woke.store(now_ns(), Ordering::SeqCst);
            }
        })
    };
    let (lock, cv) = &*gate;
    let mut samples = Vec::with_capacity(PROBE_ROUNDS);
    for round in 1..=PROBE_ROUNDS {
        let idle_from = Instant::now();
        while idle_from.elapsed() < PROBE_GAP {
            std::hint::spin_loop();
        }
        woke.store(0, Ordering::SeqCst);
        let sent = now_ns();
        lock.lock().expect("probe lock").0 = round;
        cv.notify_one();
        let stamp = loop {
            match woke.load(Ordering::SeqCst) {
                0 => std::hint::spin_loop(),
                stamp => break stamp,
            }
        };
        samples.push(stamp.saturating_sub(sent));
    }
    lock.lock().expect("probe lock").1 = true;
    cv.notify_one();
    sleeper.join().expect("probe thread");
    samples.sort_unstable();
    crate::stats::percentile(&samples, 50.0) as f64 / 1000.0
}

/// Keeps every core busy for `span`.
fn burn(span: Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let burners: Vec<_> = (0..cores)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // The flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    std::thread::sleep(span);
    stop.store(true, Ordering::Relaxed);
    for burner in burners {
        burner.join().expect("burner thread");
    }
}

pub fn settle() -> Settled {
    let wake_us_at_start = cross_core_wake_us();
    let mut wake_us = wake_us_at_start;
    let mut burned = Duration::ZERO;
    while wake_us < SETTLED_WAKE_US && burned < MAX_BURN {
        burn(BURN_STEP);
        burned += BURN_STEP;
        wake_us = cross_core_wake_us();
    }
    Settled {
        wake_us_at_start,
        wake_us,
        burned,
    }
}
