//! Model-checked concurrency suite for the service crate: the
//! streaming `BodyPipe`, explored under the `retroweb_sync` checker.
//!
//! Built only under `RUSTFLAGS="--cfg conc_check"`; see
//! `docs/CONCURRENCY.md` for the invariants and how to replay a
//! failing schedule.
#![cfg(conc_check)]

use retroweb_service::pipe::BodyPipe;
use retroweb_sync::check::{model_with, Config};
use retroweb_sync::{thread, Arc};

/// The producer always unblocks when the connection dies: a producer
/// fills the pipe past budget while another thread aborts and the loop
/// side drains — on every interleaving the execution terminates (a
/// producer left waiting on `space` would be reported as a deadlock),
/// and any bytes the producer was told were accepted are actually
/// delivered by the drains.
#[test]
fn pipe_abort_always_unblocks_producer_and_loses_no_accepted_bytes() {
    let explored = model_with(Config::dfs(2), || {
        let pipe = Arc::new(BodyPipe::new(1));
        let budget = pipe.budget();
        let producer = {
            let pipe = Arc::clone(&pipe);
            thread::spawn(move || {
                if pipe.push(&vec![b'f'; budget]).is_err() {
                    return false;
                }
                // The pipe is now at budget: this push blocks until a
                // drain frees space or the abort fails it.
                pipe.push(b"x").is_ok()
            })
        };
        let aborter = {
            let pipe = Arc::clone(&pipe);
            thread::spawn(move || pipe.abort())
        };
        let (drained_early, _) = pipe.take();
        aborter.join().unwrap();
        let second_push_accepted = producer.join().unwrap();
        let (drained_late, _) = pipe.take();
        if second_push_accepted {
            let mut all = drained_early;
            all.extend_from_slice(&drained_late);
            assert!(all.ends_with(b"x"), "accepted byte vanished");
        }
    });
    assert!(!explored.truncated);
    assert!(explored.iterations > 1, "expected multiple interleavings");
}

/// `finish` after an abort still terminates and never un-aborts the
/// pipe: a late producer can always run its completion path without
/// blocking, and the loop side observes a consistent (done, aborted)
/// state on every schedule.
#[test]
fn pipe_finish_and_abort_commute_safely() {
    let explored = model_with(Config::dfs(2), || {
        let pipe = Arc::new(BodyPipe::new(1));
        let finisher = {
            let pipe = Arc::clone(&pipe);
            thread::spawn(move || {
                pipe.finish(Err(()));
            })
        };
        pipe.abort();
        finisher.join().unwrap();
        let (_, done) = pipe.take();
        assert_eq!(done, Some(Err(())), "completion lost");
        // Aborted stays aborted regardless of order.
        assert!(pipe.push(b"late").is_err(), "push succeeded on an aborted pipe");
    });
    assert!(!explored.truncated);
}
