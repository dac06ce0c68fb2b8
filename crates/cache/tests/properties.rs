//! Property-based tests for the cache tier: the sharded store must behave
//! exactly like a sequential map under any operation sequence, optimistic
//! concurrency must never lose acknowledged versions, and absorb-based
//! replication must converge regardless of delivery order.

use bytes::Bytes;
use geometa_cache::{CacheEntry, CacheError, FxHashMap, Key, PutCondition, ShardedStore};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    PutIfAbsent(u8, u8),
    PutIfVersion(u8, u64, u8),
    Get(u8),
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 16, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::PutIfAbsent(k % 16, v)),
        (any::<u8>(), 0..5u64, any::<u8>()).prop_map(|(k, ver, v)| Op::PutIfVersion(
            k % 16,
            ver,
            v
        )),
        any::<u8>().prop_map(|k| Op::Get(k % 16)),
        any::<u8>().prop_map(|k| Op::Remove(k % 16)),
    ]
}

/// Mixed op stream for the interned-key equivalence test: the same op
/// space as `Op` plus verbatim `absorb` (the replication write path).
#[derive(Clone, Debug)]
enum KeyOp {
    Put(u8, u8),
    PutIfAbsent(u8, u8),
    PutIfVersion(u8, u64, u8),
    Absorb(u8, u64, u64, u8),
    Get(u8),
    Remove(u8),
}

fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| KeyOp::Put(k % 12, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| KeyOp::PutIfAbsent(k % 12, v)),
        (any::<u8>(), 0..5u64, any::<u8>()).prop_map(|(k, ver, v)| KeyOp::PutIfVersion(
            k % 12,
            ver,
            v
        )),
        (any::<u8>(), 1..8u64, 0..50u64, any::<u8>()).prop_map(|(k, ver, ts, v)| KeyOp::Absorb(
            k % 12,
            ver,
            ts,
            v
        )),
        any::<u8>().prop_map(|k| KeyOp::Get(k % 12)),
        any::<u8>().prop_map(|k| KeyOp::Remove(k % 12)),
    ]
}

/// A trivially correct sequential model of the store.
#[derive(Default)]
struct Model {
    map: FxHashMap<String, (Vec<u8>, u64)>, // key -> (value, version)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sharded store agrees with a sequential HashMap model on every
    /// operation outcome, for arbitrary operation sequences.
    #[test]
    fn store_matches_sequential_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let store = ShardedStore::new(8);
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            let now = i as u64 + 1;
            match op {
                Op::Put(k, v) => {
                    let key = format!("k{k}");
                    let got = store.put(&key, Bytes::from(vec![*v]), now).unwrap();
                    let e = model.map.entry(key).or_insert((vec![], 0));
                    e.0 = vec![*v];
                    e.1 += 1;
                    prop_assert_eq!(got, e.1);
                }
                Op::PutIfAbsent(k, v) => {
                    let key = format!("k{k}");
                    let got = store.put_if(&key, PutCondition::Absent, Bytes::from(vec![*v]), now);
                    match model.map.get(&key) {
                        Some((_, ver)) => prop_assert_eq!(got, Err(CacheError::AlreadyExists { version: *ver })),
                        None => {
                            prop_assert_eq!(got, Ok(1));
                            model.map.insert(key, (vec![*v], 1));
                        }
                    }
                }
                Op::PutIfVersion(k, expected, v) => {
                    let key = format!("k{k}");
                    let got = store.put_if(&key, PutCondition::VersionIs(*expected), Bytes::from(vec![*v]), now);
                    match model.map.get_mut(&key) {
                        Some((val, ver)) if *ver == *expected => {
                            *val = vec![*v];
                            *ver += 1;
                            prop_assert_eq!(got, Ok(*ver));
                        }
                        Some((_, ver)) => prop_assert_eq!(got, Err(CacheError::VersionMismatch { expected: *expected, actual: Some(*ver) })),
                        None => prop_assert_eq!(got, Err(CacheError::VersionMismatch { expected: *expected, actual: None })),
                    }
                }
                Op::Get(k) => {
                    let key = format!("k{k}");
                    let got = store.get(&key);
                    match model.map.get(&key) {
                        Some((val, ver)) => {
                            let e = got.unwrap();
                            prop_assert_eq!(e.value.as_ref(), val.as_slice());
                            prop_assert_eq!(e.version, *ver);
                        }
                        None => prop_assert_eq!(got.unwrap_err(), CacheError::NotFound),
                    }
                }
                Op::Remove(k) => {
                    let key = format!("k{k}");
                    let got = store.remove(&key);
                    match model.map.remove(&key) {
                        Some(_) => prop_assert!(got.is_ok()),
                        None => prop_assert_eq!(got.unwrap_err(), CacheError::NotFound),
                    }
                }
            }
        }
        prop_assert_eq!(store.len(), model.map.len());
    }

    /// Absorbing the same set of entries in any order converges every
    /// replica to the same state (last-writer-wins on version/timestamp).
    ///
    /// The value is derived from (key, version, timestamp): in the real
    /// system optimistic concurrency makes a (key, version) pair identify a
    /// unique write, so two distinct values can never share both version
    /// and timestamp — the generator upholds that invariant.
    #[test]
    fn absorb_converges_under_any_delivery_order(
        entries in prop::collection::vec((0..8u8, 1..20u64, 0..100u64), 1..40),
        seed in any::<u64>(),
    ) {
        let build = |order: &[usize]| {
            let store = ShardedStore::new(4);
            for &i in order {
                let (k, ver, ts) = entries[i];
                let v = (k as u64 ^ ver.wrapping_mul(31) ^ ts.wrapping_mul(7)) as u8;
                store.absorb(&format!("k{k}"), CacheEntry {
                    value: Bytes::from(vec![v]),
                    version: ver,
                    created_at: ts,
                    modified_at: ts,
                }).unwrap();
            }
            let mut snap = store.snapshot();
            snap.sort_by(|a, b| a.0.cmp(&b.0));
            snap
        };
        let order_a: Vec<usize> = (0..entries.len()).collect();
        // A deterministic permutation derived from the seed.
        let mut order_b = order_a.clone();
        let mut s = seed;
        for i in (1..order_b.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order_b.swap(i, (s as usize) % (i + 1));
        }
        prop_assert_eq!(build(&order_a), build(&order_b));
    }

    /// The interned-key store stays equivalent to a sequential model under
    /// mixed `put_if`/`absorb`/`remove`, and the `&str` view of the store
    /// agrees with the `Key` view after every operation.
    #[test]
    fn interned_store_matches_sequential_model(
        ops in prop::collection::vec(key_op_strategy(), 1..200),
    ) {
        let store = ShardedStore::new(8);
        let keys: Vec<Key> = (0..12).map(|k| Key::new(&format!("k{k}"))).collect();
        // key -> (value, version, modified_at)
        let mut model: FxHashMap<u8, (Vec<u8>, u64, u64)> = FxHashMap::default();
        for (i, op) in ops.iter().enumerate() {
            let now = i as u64 + 1;
            match op {
                KeyOp::Put(k, v) => {
                    let got = store.put_key(&keys[*k as usize], Bytes::from(vec![*v]), now).unwrap();
                    let e = model.entry(*k).or_insert((vec![], 0, 0));
                    *e = (vec![*v], e.1 + 1, now);
                    prop_assert_eq!(got, e.1);
                }
                KeyOp::PutIfAbsent(k, v) => {
                    let got = store.put_if_key(
                        &keys[*k as usize], PutCondition::Absent, Bytes::from(vec![*v]), now);
                    match model.get(k) {
                        Some((_, ver, _)) =>
                            prop_assert_eq!(got, Err(CacheError::AlreadyExists { version: *ver })),
                        None => {
                            prop_assert_eq!(got, Ok(1));
                            model.insert(*k, (vec![*v], 1, now));
                        }
                    }
                }
                KeyOp::PutIfVersion(k, expected, v) => {
                    let got = store.put_if_key(
                        &keys[*k as usize], PutCondition::VersionIs(*expected),
                        Bytes::from(vec![*v]), now);
                    match model.get_mut(k) {
                        Some(e) if e.1 == *expected => {
                            *e = (vec![*v], e.1 + 1, now);
                            prop_assert_eq!(got, Ok(e.1));
                        }
                        Some(e) => prop_assert_eq!(got, Err(CacheError::VersionMismatch {
                            expected: *expected, actual: Some(e.1) })),
                        None => prop_assert_eq!(got, Err(CacheError::VersionMismatch {
                            expected: *expected, actual: None })),
                    }
                }
                KeyOp::Absorb(k, ver, ts, v) => {
                    let incoming = CacheEntry {
                        value: Bytes::from(vec![*v]),
                        version: *ver,
                        created_at: *ts,
                        modified_at: *ts,
                    };
                    let won = store.absorb_key(&keys[*k as usize], incoming).unwrap();
                    match model.get_mut(k) {
                        Some(e) => {
                            let newer = (*ver, *ts) > (e.1, e.2);
                            prop_assert_eq!(won, newer);
                            if newer {
                                *e = (vec![*v], *ver, *ts);
                            }
                        }
                        None => {
                            prop_assert!(won);
                            model.insert(*k, (vec![*v], *ver, *ts));
                        }
                    }
                }
                KeyOp::Get(k) => {
                    let got = store.get_key(&keys[*k as usize]);
                    match model.get(k) {
                        Some((val, ver, _)) => {
                            let e = got.unwrap();
                            prop_assert_eq!(e.value.as_ref(), val.as_slice());
                            prop_assert_eq!(e.version, *ver);
                        }
                        None => prop_assert_eq!(got.unwrap_err(), CacheError::NotFound),
                    }
                }
                KeyOp::Remove(k) => {
                    let got = store.remove_key(&keys[*k as usize]);
                    match model.remove(k) {
                        Some(_) => prop_assert!(got.is_ok()),
                        None => prop_assert_eq!(got.unwrap_err(), CacheError::NotFound),
                    }
                }
            }
            // The &str path must observe the same state as the Key path.
            let k_probe = match op {
                KeyOp::Put(k, _) | KeyOp::PutIfAbsent(k, _) | KeyOp::PutIfVersion(k, _, _)
                | KeyOp::Absorb(k, _, _, _) | KeyOp::Get(k) | KeyOp::Remove(k) => *k,
            };
            prop_assert_eq!(
                store.get(&format!("k{k_probe}")),
                store.get_key(&keys[k_probe as usize])
            );
        }
        prop_assert_eq!(store.len(), model.len());
    }

    /// Grouped `multi_get` answers exactly like per-key `get`, for any key
    /// multiset (duplicates, misses, shard collisions).
    #[test]
    fn multi_get_agrees_with_single_gets(
        present in prop::collection::vec(0..32u8, 0..24),
        queried in prop::collection::vec(0..40u8, 1..64),
    ) {
        let store = ShardedStore::new(4);
        for k in &present {
            store.put(&format!("k{k}"), Bytes::from(vec![*k]), 0).unwrap();
        }
        let names: Vec<String> = queried.iter().map(|k| format!("k{k}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let batched = store.multi_get(&refs);
        prop_assert_eq!(batched.len(), refs.len());
        for (i, r) in batched.iter().enumerate() {
            prop_assert_eq!(r, &store.get(refs[i]));
        }
    }

    /// Versions only ever grow, under any single-threaded op sequence.
    #[test]
    fn versions_are_monotone(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let store = ShardedStore::new(4);
        let mut last_seen: FxHashMap<String, u64> = FxHashMap::default();
        for (i, op) in ops.iter().enumerate() {
            let key = match op {
                Op::Put(k, v) => { let key = format!("k{k}"); let _ = store.put(&key, Bytes::from(vec![*v]), i as u64); key }
                Op::PutIfAbsent(k, v) => { let key = format!("k{k}"); let _ = store.put_if(&key, PutCondition::Absent, Bytes::from(vec![*v]), i as u64); key }
                Op::PutIfVersion(k, ver, v) => { let key = format!("k{k}"); let _ = store.put_if(&key, PutCondition::VersionIs(*ver), Bytes::from(vec![*v]), i as u64); key }
                Op::Get(k) => format!("k{k}"),
                Op::Remove(k) => {
                    // Removal resets version history; drop from tracking.
                    let key = format!("k{k}");
                    let _ = store.remove(&key);
                    last_seen.remove(&key);
                    continue;
                }
            };
            if let Ok(e) = store.get(&key) {
                let prev = last_seen.insert(key, e.version).unwrap_or(0);
                prop_assert!(e.version >= prev, "version regressed: {} -> {}", prev, e.version);
            }
        }
    }
}

/// Concurrency stress for the shard-grouped batch paths: writer threads
/// hammer `multi_put` over overlapping key sets while reader threads issue
/// `multi_get` batches that straddle every shard. Each batch result must
/// be internally sane (right arity, every present value a valid writer
/// payload), and after the storm every key holds some writer's last-round
/// payload with version = total writes to that key.
#[test]
fn grouped_batch_ops_survive_concurrent_storm() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const ROUNDS: u64 = 200;
    const KEYS: usize = 64;

    let store = ShardedStore::new(8);
    let names: Vec<String> = (0..KEYS).map(|i| format!("b{i}")).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let (store, names) = (&store, &names);
            writers.push(s.spawn(move || {
                let keys: Vec<Key> = names.iter().map(Key::from).collect();
                for round in 0..ROUNDS {
                    let payload = ((w as u64) << 32) | round;
                    let items = keys
                        .iter()
                        .map(|k| (k.clone(), Bytes::from(payload.to_le_bytes().to_vec())));
                    let applied = store.multi_put(items, round).unwrap();
                    assert_eq!(applied, KEYS);
                }
            }));
        }
        for _ in 0..READERS {
            let (store, names, stop) = (&store, &names, &stop);
            s.spawn(move || {
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                while !stop.load(Ordering::Relaxed) {
                    let res = store.multi_get(&refs);
                    assert_eq!(res.len(), refs.len());
                    for r in res {
                        match r {
                            Ok(e) => {
                                let raw: [u8; 8] = e.value.as_ref().try_into().unwrap();
                                let payload = u64::from_le_bytes(raw);
                                assert!((payload >> 32) < WRITERS as u64, "garbage payload");
                                assert!((payload & 0xFFFF_FFFF) < ROUNDS, "garbage round");
                            }
                            Err(CacheError::NotFound) => {} // before first write
                            Err(e) => panic!("unexpected batch read error {e}"),
                        }
                    }
                }
            });
        }
        // Join writers first, then release the readers (scope joins them).
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(store.len(), KEYS);
    for name in names.iter() {
        let e = store.get(name).unwrap();
        let raw: [u8; 8] = e.value.as_ref().try_into().unwrap();
        let payload = u64::from_le_bytes(raw);
        assert_eq!(
            payload & 0xFFFF_FFFF,
            ROUNDS - 1,
            "final value must come from some writer's last round"
        );
        assert_eq!(
            e.version,
            (WRITERS as u64) * ROUNDS,
            "every batched write must have bumped the version exactly once"
        );
    }
}
