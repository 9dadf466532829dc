package workloads

// Sharded key-value layer: the paper's multi-pool scalability argument
// (Fig. 10–11 runs independent pools in parallel) applied to the KV
// store. The server partitions the keyspace by hash across N KVStores,
// each living in its own pool with its own journals and arenas, so
// transactions on different shards share no persistent state and commit
// in parallel. Atomicity is per shard: a batched run that spans shards
// is N independent failure-atomic transactions, which preserves the
// per-key linearizability contract (no operation spans shards).

// ShardFor routes a key to one of n shards. The mixer (splitmix64
// finalizer) is deliberately different from the store's in-shard bucket
// hash so shard choice and bucket choice stay independent — otherwise
// every shard would populate the same bucket residues.
func ShardFor(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}
