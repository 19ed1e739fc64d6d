package woregister

import (
	"context"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
)

// TestDeepPipelineStillFormsCohorts: a depth sampler reporting a deep
// pipeline widens the cap, so concurrent writes must still share batch
// slots — adaptation never degrades the batching it exists to preserve.
func TestDeepPipelineStillFormsCohorts(t *testing.T) {
	r := newBatchedRig(t, func() int { return 8 })
	primary := r.regs[r.peers[0]]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const tries = 6
	commit := msg.Decision{Result: []byte("res"), Outcome: msg.OutcomeCommit}
	var wg sync.WaitGroup
	errs := make(chan error, 2*tries)
	for i := 0; i < tries; i++ {
		rid := testRID(uint64(i + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := primary.WriteA(ctx, rid, id.AppServer(1)); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := primary.WriteD(ctx, rid, commit); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := r.nodes[r.peers[0]].Stats()
	if st.Proposes >= 2*tries {
		t.Errorf("%d proposals for %d writes: depth-8 cohorts never formed", st.Proposes, 2*tries)
	}
	if st.BatchOps == 0 {
		t.Error("no ops decided through batch slots")
	}
}

// TestAdaptiveCap pins the cohort sequencer's cap curve: collapse to 1 at
// depth <= 1, then at least 8 and roughly 2x the depth, never past the
// configured cap.
func TestAdaptiveCap(t *testing.T) {
	cases := []struct {
		configured, depth, want int
	}{
		{64, 0, 1},
		{64, 1, 1},
		{64, 2, 8},  // floor: small pipelines still batch usefully
		{64, 4, 8},  // 2*4 = 8, at the floor
		{64, 8, 16}, // 2x headroom over the observed depth
		{64, 32, 64},
		{64, 64, 64}, // clamped to the configured cap
		{4, 64, 4},   // the configured cap always wins
	}
	for _, c := range cases {
		if got := AdaptiveCap(c.configured, c.depth); got != c.want {
			t.Errorf("AdaptiveCap(%d, %d) = %d, want %d", c.configured, c.depth, got, c.want)
		}
	}
}
