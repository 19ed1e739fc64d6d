package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx/internal/deploy"
	"etx/internal/kv"
)

// batchKnobs switches the whole commit path to group commit and batching on
// top of the usual fast test timings.
func batchKnobs(cfg *Config) {
	fastKnobs(cfg)
	cfg.AdaptiveWindows = true
}

// TestBatchingEngagesAndHoldsOracle: on one shard with a real fsync cost and
// 32 pipelined requests, the group-commit combiner must actually combine —
// fewer device forces than forced writes — while every request commits
// exactly once and the A.1/A.2/A.3/V.1 oracle holds.
func TestBatchingEngagesAndHoldsOracle(t *testing.T) {
	const requests = 32
	cfg := Config{
		Shards:       1,
		Logic:        transferKeyed(),
		ForceLatency: 2 * time.Millisecond,
		Tuning:       deploy.Tuning{Workers: requests},
	}
	batchKnobs(&cfg)
	accts := make([]string, requests)
	for i := range accts {
		accts[i] = fmt.Sprintf("b%02d", i)
		cfg.Seed = append(cfg.Seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(100)})
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st := c.Engine(1).StableStore()
	syncBase, forceBase := st.Syncs(), st.ForcedWrites()

	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		// Disjoint same-shard pairs (self-transfer): no lock contention, one
		// participant each — the commit path is the only bottleneck.
		req := accts[i] + ":" + accts[i] + ":1"
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	syncs := st.Syncs() - syncBase
	forces := st.ForcedWrites() - forceBase
	if syncs == 0 {
		t.Fatal("no device forces recorded: the commit path did not run")
	}
	// Serialized, every commit pays two device forces (prepare + commit).
	// Combining — whether through the force combiner (many forced writes
	// sharing a sync) or the batched vote/decide entry points (one Sync
	// covering a drained batch's unforced appends) — must land far below
	// that; anywhere near 2*requests means nothing combined.
	if syncs >= int64(requests) {
		t.Errorf("Syncs = %d for %d requests (forced writes = %d): group commit never combined", syncs, requests, forces)
	}
	mustOracle(t, c)
}

// TestBatchingShardedOracleUnderCrashRecovery reruns the sharded
// crash/recovery suite with the batching stack on: a 4-shard tier, mixed
// same- and cross-shard transfers, a database crash and recovery mid-run.
// Batched votes, acks and group-committed records must preserve money
// conservation and the oracle.
func TestBatchingShardedOracleUnderCrashRecovery(t *testing.T) {
	const shards = 4
	accts := make([]string, shards)
	for s := 0; s < shards; s++ {
		accts[s] = findAccount(shards, s, fmt.Sprintf("g%d-", s))
	}
	cfg := Config{
		Shards:       shards,
		Logic:        transferKeyed(),
		ForceLatency: time.Millisecond,
		Tuning:       deploy.Tuning{Workers: 4},
	}
	batchKnobs(&cfg)
	for _, a := range accts {
		cfg.Seed = append(cfg.Seed, kv.Write{Key: "acct/" + a, Val: kv.EncodeInt(1000)})
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const requests = 24
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		src, dst := accts[i%shards], accts[(i+i/shards)%shards]
		req := src + ":" + dst + ":1"
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- fmt.Errorf("issue %s: %w", req, err)
			}
		}()
		if i == requests/3 {
			c.CrashDB(2)
		}
		if i == 2*requests/3 {
			if err := c.RecoverDB(2); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(3 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var total int64
	for s := 0; s < shards; s++ {
		bal, err := c.Engine(s + 1).Store().GetInt("acct/" + accts[s])
		if err != nil {
			t.Fatalf("read %s: %v", accts[s], err)
		}
		total += bal
	}
	if total != int64(shards)*1000 {
		t.Errorf("total balance = %d, want %d", total, shards*1000)
	}
	mustOracle(t, c)
}
