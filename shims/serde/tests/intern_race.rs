//! Threads that meet a new field name at the same moment agree on it:
//! every one of them ends up holding the name at the same address, and
//! their maps are equal. Run under ThreadSanitizer and Miri in CI.

use serde::{Map, Value};
use std::sync::Barrier;

#[test]
fn threads_entering_the_same_new_names_share_one_copy_of_each() {
    let threads = 4;
    let names: Vec<String> = (0..if cfg!(any(miri, tsan)) { 40 } else { 400 })
        .map(|i| format!("race_{i}"))
        .collect();
    let barrier = Barrier::new(threads);
    let built: Vec<(Map<String, Value>, Vec<usize>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (names, barrier) = (&names, &barrier);
                scope.spawn(move || {
                    let mut map = Map::new();
                    for (i, name) in names.iter().enumerate() {
                        // Released together onto a name none of them
                        // has seen; half borrow it, half own it.
                        barrier.wait();
                        let value = Value::from(i as u64);
                        if t % 2 == 0 {
                            map.insert_str(name, value);
                        } else {
                            map.insert(name.clone(), value);
                        }
                    }
                    let addresses = map.keys().map(|k| k as *const String as usize).collect();
                    (map, addresses)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let (first_map, first_addresses) = &built[0];
    assert!(first_map.keys().eq(names.iter()));
    for (map, addresses) in &built[1..] {
        assert_eq!(map, first_map);
        assert_eq!(addresses, first_addresses, "one address per name");
    }
    // And the copy they share is the one a later map is given.
    let mut later = Map::new();
    later.insert_str(&names[0], Value::Null);
    assert_eq!(
        later.keys().next().map(|k| k as *const String as usize),
        Some(first_addresses[0])
    );
}
