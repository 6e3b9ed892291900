package main

// pinned holds the SHA-256 output digest of each workload at the seed the
// benchmark was written on (42) and at a held-out seed (43), so a later
// speed-up can be re-checked on inputs no one tuned against. A change
// that alters a digest changed the simulator's results, not only its
// speed. Other seeds are checked for outputs that repeat across the
// run's executions.
var pinned = map[string]map[uint64]string{
	"fleet-churn": {
		42: "1f0ce08ba49dd40681a48230c10b14ca1009b669ba2cd1ca417b1de22c535821",
		43: "fe473c0daaff56d96cd61447162e919c541c542279e7cc6b066cae3eded3d2aa",
	},
	"tenant-service": {
		42: "689e692d4e545cfecedd86fb6bfa08c585cd776640b2c021cb6548b31cc34041",
		43: "84bc847d42071b48a2925bc9f7e1e8ace8e6e979cb10e26e3d79a516b20eba65",
	},
}

func pinnedDigest(workload string, seed uint64) (string, bool) {
	d, ok := pinned[workload][seed]
	return d, ok
}
