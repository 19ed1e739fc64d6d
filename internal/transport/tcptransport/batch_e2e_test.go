package tcptransport_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx/internal/deploy"
	"etx/internal/transport/tcptransport"
)

// TestBatchedCommitPathOverTCP runs the stack over real loopback TCP with the
// whole batching stack on — group-commit combiner at the store, batched serve
// loop at the database server, cohort consensus at the application servers —
// and pipelined concurrent requests, verifying batched replies survive the
// codec/framing path and that fsyncs were genuinely shared.
func TestBatchedCommitPathOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}

	const workers = 16
	store := journal(t, time.Millisecond)
	cl, engine := startStack(t, tcptransport.Config{}, store,
		deploy.Tuning{AdaptiveWindows: true, Workers: workers},
		accountSeed(workers), withdrawOne)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	syncBase, forceBase := store.Syncs(), store.ForcedWrites()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		key := fmt.Sprintf("acct/a%02d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := cl.Issue(ctx, []byte(key)); err != nil {
				errs <- fmt.Errorf("%s: %w", key, err)
			} else if string(res) != "99" {
				errs <- fmt.Errorf("%s -> %q, want 99", key, res)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < workers; i++ {
		if n, _ := engine.Store().GetInt(fmt.Sprintf("acct/a%02d", i)); n != 99 {
			t.Errorf("acct/a%02d = %d, want exactly one withdrawal", i, n)
		}
	}
	syncs := store.Syncs() - syncBase
	forces := store.ForcedWrites() - forceBase
	if forces == 0 {
		t.Fatal("no forced writes recorded")
	}
	// Unbatched, the 16 commits would pay 32 fsyncs (prepare + commit each).
	// Batched — drained mailbox batches sharing Syncs, Syncs sharing device
	// forces — they must land far below one fsync per commit.
	if syncs >= workers {
		t.Errorf("Syncs = %d for %d commits (ForcedWrites = %d): nothing combined over TCP", syncs, workers, forces)
	}
}
