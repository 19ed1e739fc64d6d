package etx

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRandomSeqBaseIsFreshPerIncarnation is the regression test for the
// client replay bug: the sequence base used to be time.Now().UnixNano(), so
// two dials within the clock's resolution — or a dial after a backwards
// clock step — reused a live incarnation's sequence numbers and were handed
// its cached results instead of executing. The crypto/rand derivation must
// produce distinct, bounded bases on every call, with no dependence on the
// wall clock at all.
func TestRandomSeqBaseIsFreshPerIncarnation(t *testing.T) {
	const draws = 256
	seen := make(map[uint64]bool, draws)
	for i := 0; i < draws; i++ {
		base, err := randomSeqBase()
		if err != nil {
			t.Fatal(err)
		}
		if base>>62 != 0 {
			t.Fatalf("base %d uses more than 62 bits; sequence headroom eroded", base)
		}
		if seen[base] {
			// 256 draws from 2^62 values collide with probability ~2^-48:
			// a duplicate here means the derivation is broken, not unlucky.
			t.Fatalf("draw %d repeated base %d", i, base)
		}
		seen[base] = true
	}
}

// TestReplayedResultsSurvivePromotion extends the replay guarantee above to
// the replicated data tier: results that committed on a shard's boot primary
// must be *replayed* — the same state, the same balance chain — by the
// promoted backup, never re-executed. The logic burns a strictly decreasing
// balance, so any re-execution after the promotion would restart the chain
// (a visible double-spend) rather than continue it.
func TestReplayedResultsSurvivePromotion(t *testing.T) {
	var executions atomic.Int64
	c, err := New(Config{
		DataServers:   1,
		Tuning:        Tuning{ReplicaFactor: 2, SuspectTimeout: 40 * time.Millisecond},
		Seed:          map[string]int64{"acct/alice": 100},
		ClientBackoff: 50 * time.Millisecond,
		Logic: func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
			executions.Add(1)
			bal, err := tx.Add(ctx, 0, "acct/alice", -10)
			if err != nil {
				return nil, err
			}
			if err := tx.CheckAtLeast(ctx, 0, "acct/alice", 0); err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("balance %d", bal)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	issue := func(i int) string {
		t.Helper()
		res, err := c.Issue(ctx, 1, []byte(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
		return string(res)
	}

	// Five sequential withdrawals on the boot primary: a deterministic
	// 90..50 balance chain.
	for i := 0; i < 5; i++ {
		if got, want := issue(i), fmt.Sprintf("balance %d", 90-10*i); got != want {
			t.Fatalf("pre-crash result %d = %q, want %q", i, got, want)
		}
	}

	// Kill the primary; the group's heartbeat detector must notice and the
	// backup (DBServer 2 of this 1-shard, factor-2 group) must take over.
	c.CrashDBServer(1)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if promos, _, _ := c.ReplicationStats(); promos == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup never promoted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The chain must continue exactly where the dead primary left it: the
	// promoted backup replayed the five committed withdrawals from its
	// streamed log. A re-execution would answer "balance 90" again.
	for i := 5; i < 10; i++ {
		if got, want := issue(i), fmt.Sprintf("balance %d", 90-10*i); got != want {
			t.Fatalf("post-promotion result %d = %q, want %q", i, got, want)
		}
	}
	if bal, err := c.ReadInt(2, "acct/alice"); err != nil || bal != 0 {
		t.Fatalf("promoted backup balance = %d, %v; want 0", bal, err)
	}

	// Effects are exactly-once even though compute may retry: ten committed
	// withdrawals of 10 drained the account exactly, and the logic ran at
	// least once per request (retries are legal, silent re-commits are not).
	if n := executions.Load(); n < 10 {
		t.Fatalf("logic ran %d times for 10 requests", n)
	}
	promos, lats, _ := c.ReplicationStats()
	if promos != 1 || len(lats) != 1 {
		t.Fatalf("promotions = %d (latencies %v), want exactly 1", promos, lats)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
