//! Runs this binary as a child process under budgets.
//!
//! A child reports on stdout in the [`crate::wire`] protocol. It is
//! killed if it is not done within its wall `budget`, or if it burns
//! `stall` of CPU time without reporting anything. Counting CPU rather
//! than wall time for the stall keeps a host that deschedules the child
//! from passing for a livelock. Either way the child is waited for
//! before this returns, so it cannot keep a core or memory while the
//! next one runs.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::wire::Wire;

/// How often a silent child is looked at.
const POLL: Duration = Duration::from_millis(50);

/// CPU seconds process `pid` has used, from `/proc/<pid>/stat` (`None`
/// where that is unavailable).
fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in USER_HZ ticks,
    // which Linux fixes at 100 per second.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 2..].split(' ').collect();
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Runs `exe args…` to completion. Returns what it reported and, if it
/// failed, why: an overrun budget, an exit before `done`, or the reason
/// it gave.
pub fn run(
    exe: &std::path::Path,
    args: &[&str],
    budget: Duration,
    stall: Duration,
) -> (Wire, Option<String>) {
    let mut wire = Wire::default();
    let spawned = Command::new(exe).args(args).stdin(Stdio::null()).stdout(Stdio::piped()).spawn();
    let mut proc = match spawned {
        Ok(p) => p,
        Err(e) => return (wire, Some(format!("cannot start {}: {e}", exe.display()))),
    };
    let pid = proc.id();
    let stdout = proc.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    // When the current silence began, and the child's CPU time then.
    let mut silent_since: Option<(Instant, Option<f64>)> = None;
    let mut why = None;
    loop {
        let left = budget.saturating_sub(started.elapsed());
        if left.is_zero() {
            why = Some(format!("overran its {budget:?} budget"));
            break;
        }
        match rx.recv_timeout(left.min(POLL)) {
            Ok(line) => {
                silent_since = None;
                if let Err(e) = wire.take_line(&line) {
                    why = Some(e);
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let (wall0, cpu0) =
                    *silent_since.get_or_insert_with(|| (Instant::now(), cpu_s(pid)));
                let stalled = match (cpu0, cpu_s(pid)) {
                    (Some(a), Some(b)) => b - a >= stall.as_secs_f64(),
                    _ => wall0.elapsed() >= stall,
                };
                if stalled {
                    why = Some(format!("used {stall:?} without reporting progress"));
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if why.is_some() {
        // Already exited is fine: `wait` below reaps it either way.
        let _ = proc.kill();
    }
    let status = proc.wait();
    reader.join().expect("the reader thread does not panic");
    if why.is_none() {
        why = match (&wire.error, status) {
            (Some(e), _) => Some(e.clone()),
            (None, Ok(s)) if s.success() && wire.done => None,
            (None, Ok(s)) => Some(format!("exited with {s} before reporting")),
            (None, Err(e)) => Some(format!("cannot wait for the child: {e}")),
        };
    }
    (wire, why)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_of_this_process_is_readable_and_grows() {
        let me = std::process::id();
        let Some(before) = cpu_s(me) else { return };
        // Spin until the kernel has charged 30 ms more CPU time to this
        // process, however busy the machine is.
        let t = Instant::now();
        let mut x = 0u64;
        while cpu_s(me).expect("readable once") < before + 0.03 {
            assert!(t.elapsed() < Duration::from_secs(10), "CPU time never grew");
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
            }
        }
    }
}
