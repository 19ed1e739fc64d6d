package tcptransport_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx/internal/deploy"
	"etx/internal/stablestore"
	"etx/internal/transport/tcptransport"
)

// runBankWorkload stands up the full batched stack over loopback TCP with the
// given per-flush frame cap and runs a deterministic bank workload: worker i
// withdraws from its own account rounds times, sequentially. It returns every
// reply in (worker, round) order plus the final balances.
func runBankWorkload(t *testing.T, maxWritev int) (replies []string, balances []int64) {
	t.Helper()
	const workers = 8
	const rounds = 3
	cl, engine := startStack(t, tcptransport.Config{MaxWritev: maxWritev}, stablestore.New(500*time.Microsecond),
		deploy.Tuning{AdaptiveWindows: true, Workers: workers},
		accountSeed(workers), withdrawOne)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make([][]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		key := fmt.Sprintf("acct/a%02d", i)
		out[i] = make([]string, rounds)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := cl.Issue(ctx, []byte(key))
				if err != nil {
					t.Errorf("%s round %d: %v", key, r, err)
					return
				}
				out[i][r] = string(res)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		replies = append(replies, out[i]...)
		n, _ := engine.Store().GetInt(fmt.Sprintf("acct/a%02d", i))
		balances = append(balances, n)
	}
	return replies, balances
}

// TestWritevParityWithPerFrameWrites is the e2e parity gate of the transport
// rewrite: the batched commit path must produce byte-identical outcomes
// whether frames cross the wire one write per frame (MaxWritev 1 — the
// historical transport's behaviour) or packed many to a writev. Vectoring is
// a kernel-boundary optimization; nothing above the framing layer may be able
// to tell the difference.
func TestWritevParityWithPerFrameWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}
	perFrameReplies, perFrameBalances := runBankWorkload(t, 1)
	writevReplies, writevBalances := runBankWorkload(t, 64)

	if len(perFrameReplies) != len(writevReplies) {
		t.Fatalf("reply counts differ: %d vs %d", len(perFrameReplies), len(writevReplies))
	}
	for i := range perFrameReplies {
		if perFrameReplies[i] != writevReplies[i] {
			t.Errorf("reply %d: per-frame %q, writev %q", i, perFrameReplies[i], writevReplies[i])
		}
	}
	for i := range perFrameBalances {
		if perFrameBalances[i] != writevBalances[i] {
			t.Errorf("balance %d: per-frame %d, writev %d", i, perFrameBalances[i], writevBalances[i])
		}
	}
	// The workload is deterministic, so pin the absolute values too: each
	// account sees exactly rounds sequential withdrawals from 100.
	for i, r := range perFrameReplies {
		want := fmt.Sprintf("%d", 99-i%3)
		if r != want {
			t.Errorf("reply %d = %q, want %q", i, r, want)
		}
	}
	for i, b := range perFrameBalances {
		if b != 97 {
			t.Errorf("balance %d = %d, want 97", i, b)
		}
	}
}
