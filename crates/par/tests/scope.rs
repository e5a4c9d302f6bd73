//! A map whose item panics re-raises the panic only after its other
//! chunks are done: they borrow the caller's stack, so the caller must not
//! unwind while one still runs.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use vfps_par::Pool;

#[test]
fn a_panicking_item_still_waits_for_the_other_chunks() {
    let (done, finished_in_time) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let pool = Pool::with_threads(2);
        let items: Vec<usize> = (0..128).collect();
        let last_finished = AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(&items, |_, &i| {
                if i == 0 {
                    panic!("boom");
                }
                if i == items.len() - 1 {
                    std::thread::sleep(Duration::from_millis(20));
                    last_finished.store(true, Ordering::SeqCst);
                }
                i
            })
        }));
        let _ = done.send(());
        (result.is_err(), last_finished.load(Ordering::SeqCst))
    });
    finished_in_time.recv_timeout(Duration::from_secs(30)).expect("the map returned within 30 s");
    let (propagated, last_finished) = body.join().expect("the test body");
    assert!(propagated, "the item's panic reached the caller");
    assert!(last_finished, "the map unwound before its last chunk finished");
}
