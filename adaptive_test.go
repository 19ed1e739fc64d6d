package etx_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx"
)

// TestPublicAPIAdaptiveWindows runs a full cluster through both regimes its
// self-tuning batch windows must serve: strictly sequential requests (where
// they collapse to the paper's one fsync per forced write and one instance
// per register write) and a concurrent burst (where they widen and batch).
// Correctness is the same in both — adaptation is timing only.
func TestPublicAPIAdaptiveWindows(t *testing.T) {
	perAcct := map[string]int64{}
	for i := 0; i < 8; i++ {
		perAcct[fmt.Sprintf("acct/a%02d", i)] = 100
	}
	logic := func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		bal, err := tx.Add(ctx, 0, string(req), -1)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", bal)), nil
	}
	c := newCluster(t, etx.Config{
		Seed:         perAcct,
		Logic:        logic,
		Tuning:       etx.Tuning{Workers: 8},
		FsyncLatency: 200 * time.Microsecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Sequential regime: one request in flight at a time.
	for r := 0; r < 3; r++ {
		res, err := c.Issue(ctx, 1, []byte("acct/a00"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d", 99-r); string(res) != want {
			t.Errorf("sequential round %d: %q, want %q", r, res, want)
		}
	}

	// Concurrent regime: all accounts at once, repeatedly.
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, 8*rounds)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("acct/a%02d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := c.Issue(ctx, 1, []byte(key)); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", key, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("acct/a%02d", i)
		want := int64(100 - rounds)
		if i == 0 {
			want -= 3 // the sequential warm-up drew on a00 too
		}
		if bal, _ := c.ReadInt(1, key); bal != want {
			t.Errorf("%s = %d, want %d", key, bal, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
