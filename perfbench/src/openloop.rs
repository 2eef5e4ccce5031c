//! The open-loop load generator: requests go out on a fixed schedule, not
//! when the previous reply arrives, and each is timed from the moment it was
//! due. A stalled reply therefore shows up as latency on every request that
//! had to wait behind it.
//!
//! Each connection is driven by one thread. The threads claim schedule
//! entries in order from one shared cursor, so with `k` connections the
//! generator behaves as a FIFO queue in front of `k` servers: a request is
//! sent at its due time if a connection is free, else as soon as one frees.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sleeps end this long before a request is due; the rest is spun, so a
/// request leaves on time rather than one timer slack late.
const SPIN: Duration = Duration::from_micros(300);

/// The timing of one scheduled request, as offsets from the run's start.
#[derive(Debug, Clone)]
pub struct Outcome<R> {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub result: R,
}

impl<R> Outcome<R> {
    /// Completion minus due time: includes any wait for a free connection.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends `items[i]` at offset `due[i]` over `conns`, one thread per
/// connection. When `abort_over` is set, the first reply later than that
/// stops further sends (the remaining entries come back `None`), so an
/// overloaded probe ends quickly instead of draining a huge backlog.
pub fn run<T, C, R>(
    due: &[Duration],
    items: &[T],
    conns: &mut [C],
    abort_over: Option<Duration>,
    send: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<Option<Outcome<R>>>
where
    T: Sync,
    C: Send,
    R: Send,
{
    assert_eq!(due.len(), items.len());
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let out: Mutex<Vec<Option<Outcome<R>>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (cursor, stop, out, send) = (&cursor, &stop, &out, &send);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() || stop.load(Ordering::SeqCst) {
                    return;
                }
                let wait = due[i].saturating_sub(start.elapsed());
                if wait > SPIN {
                    std::thread::sleep(wait - SPIN);
                }
                while start.elapsed() < due[i] {
                    std::hint::spin_loop();
                }
                let sent = start.elapsed();
                let result = send(conn, &items[i]);
                let done = start.elapsed();
                let outcome = Outcome {
                    due: due[i],
                    sent,
                    done,
                    result,
                };
                if abort_over.is_some_and(|limit| outcome.latency() > limit) {
                    stop.store(true, Ordering::SeqCst);
                }
                out.lock().expect("no sender panics while holding the lock")[i] = Some(outcome);
            });
        }
    });
    out.into_inner().expect("sender threads joined")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_stalled_reply_inflates_later_latencies() {
        // One request every 10 ms; the first reply stalls for 120 ms.
        let due: Vec<Duration> = (0..8).map(|i| ms(10 * i)).collect();
        let items: Vec<u64> = (0..8).collect();
        let mut conns = [()];
        let out = run(&due, &items, &mut conns, None, |_, &i| {
            if i == 0 {
                std::thread::sleep(ms(120));
            }
            i
        });
        let lat: Vec<Duration> = out.iter().map(|o| o.as_ref().unwrap().latency()).collect();
        assert!(lat[0] >= ms(120));
        // Request 1 was due at 10 ms but could only go out at ~120 ms.
        assert!(lat[1] >= ms(100), "{:?}", lat[1]);
        assert!(out[1].as_ref().unwrap().lateness() >= ms(100));
        // Every queued request pays part of the stall: latency falls by the
        // 10 ms spacing, never to zero, until the backlog is gone.
        for (i, l) in lat.iter().enumerate().skip(1) {
            assert!(*l + ms(10 * i as u64) >= ms(115), "request {i}: {l:?}");
        }
    }

    #[test]
    fn an_idle_second_connection_absorbs_one_stall() {
        let due: Vec<Duration> = (0..6).map(|i| ms(10 * i)).collect();
        let items: Vec<u64> = (0..6).collect();
        let mut conns = [(), ()];
        let out = run(&due, &items, &mut conns, None, |_, &i| {
            if i == 0 {
                std::thread::sleep(ms(100));
            }
            i
        });
        for o in &out[1..] {
            assert!(o.as_ref().unwrap().latency() < ms(50));
        }
    }

    #[test]
    fn abort_stops_further_sends() {
        let due: Vec<Duration> = (0..50).map(ms).collect();
        let items: Vec<u64> = (0..50).collect();
        let mut conns = [()];
        let out = run(&due, &items, &mut conns, Some(ms(20)), |_, _| {
            std::thread::sleep(ms(30));
        });
        assert!(out[0].is_some());
        assert!(out.iter().filter(|o| o.is_none()).count() > 40);
    }
}
