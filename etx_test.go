package etx_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"etx"
)

func bankLogic() etx.Logic {
	return func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		bal, err := tx.Add(ctx, 0, "acct/alice", -10)
		if err != nil {
			return nil, err
		}
		if err := tx.CheckAtLeast(ctx, 0, "acct/alice", 0); err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("balance %d", bal)), nil
	}
}

func newCluster(t *testing.T, cfg etx.Config) *etx.Cluster {
	t.Helper()
	cfg.SuspectTimeout = 40 * time.Millisecond
	cfg.ClientBackoff = 50 * time.Millisecond
	c, err := etx.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPIQuickstart(t *testing.T) {
	c := newCluster(t, etx.Config{
		Seed:  map[string]int64{"acct/alice": 100},
		Logic: bankLogic(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Issue(ctx, 1, []byte("withdraw"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "balance 90" {
		t.Errorf("result = %q", res)
	}
	if bal, _ := c.ReadInt(1, "acct/alice"); bal != 90 {
		t.Errorf("balance = %d", bal)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExactlyOnceAcrossPrimaryCrash(t *testing.T) {
	started := make(chan struct{}, 8)
	logic := func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		// Slow enough for the crash to land mid-compute.
		if err := tx.SimulateWork(ctx, 0, 80*time.Millisecond); err != nil {
			return nil, err
		}
		bal, err := tx.Add(ctx, 0, "acct/alice", -10)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("balance %d", bal)), nil
	}
	c := newCluster(t, etx.Config{
		Seed:  map[string]int64{"acct/alice": 100},
		Logic: logic,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	done := make(chan error, 1)
	var res []byte
	go func() {
		var err error
		res, err = c.Issue(ctx, 1, []byte("withdraw"))
		done <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	c.CrashAppServer(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(res) != "balance 90" {
		t.Errorf("result = %q", res)
	}
	if bal, _ := c.ReadInt(1, "acct/alice"); bal != 90 {
		t.Errorf("balance = %d, want exactly-once withdrawal", bal)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDBRecovery(t *testing.T) {
	c := newCluster(t, etx.Config{
		Seed:  map[string]int64{"acct/alice": 100},
		Logic: bankLogic(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Issue(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	c.CrashDBServer(1)
	if _, err := c.ReadInt(1, "x"); err == nil {
		t.Error("reads from a crashed database must fail")
	}
	if err := c.RecoverDBServer(1); err != nil {
		t.Fatal(err)
	}
	// Committed state survived; new requests work.
	if bal, _ := c.ReadInt(1, "acct/alice"); bal != 90 {
		t.Errorf("balance after recovery = %d", bal)
	}
	if _, err := c.Issue(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	if bal, _ := c.ReadInt(1, "acct/alice"); bal != 80 {
		t.Errorf("balance = %d", bal)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICheckFailedSurfacesToLogic(t *testing.T) {
	sawCheck := false
	var mu sync.Mutex
	logic := func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		_, err := tx.Add(ctx, 0, "seats", -1)
		if err != nil {
			return nil, err
		}
		if err := tx.CheckAtLeast(ctx, 0, "seats", 0); err != nil {
			if !errors.Is(err, etx.ErrCheckFailed) {
				return nil, err
			}
			mu.Lock()
			sawCheck = true
			mu.Unlock()
			// Footnote 4: compute an informational result instead; but since
			// the branch is poisoned, this try aborts and is retried — so
			// surface an error until a clean try can report sold-out.
			return []byte("sold-out"), nil
		}
		return []byte("booked"), nil
	}
	c := newCluster(t, etx.Config{
		Seed:  map[string]int64{"seats": 1},
		Logic: logic,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// First booking takes the last seat.
	res, err := c.Issue(ctx, 1, nil)
	if err != nil || string(res) != "booked" {
		t.Fatalf("first booking = %q, %v", res, err)
	}
	// Second booking trips the guard; the poisoned try is refused by the
	// database, retried, and every retry trips again — the delivered result
	// is the sold-out one ONLY when the logic eventually avoids poisoning.
	// Here the logic always poisons, so the databases keep refusing; the
	// client would retry forever. Use a short context to observe that the
	// at-most-once side holds: nothing committed.
	shortCtx, cancel2 := context.WithTimeout(ctx, 400*time.Millisecond)
	defer cancel2()
	if _, err := c.Issue(shortCtx, 1, nil); err == nil {
		t.Fatal("expected the poisoned-result request to time out")
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawCheck {
		t.Error("logic never observed ErrCheckFailed")
	}
	if seats, _ := c.ReadInt(1, "seats"); seats != 0 {
		t.Errorf("seats = %d, the refused tries must not commit", seats)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMultiDB(t *testing.T) {
	logic := func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		if tx.NumDBs() != 2 {
			return nil, fmt.Errorf("want 2 dbs, have %d", tx.NumDBs())
		}
		if _, err := tx.Add(ctx, 0, "left", 1); err != nil {
			return nil, err
		}
		if _, err := tx.Add(ctx, 1, "right", 1); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}
	c := newCluster(t, etx.Config{DataServers: 2, Logic: logic})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Issue(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	l, _ := c.ReadInt(1, "left")
	r, _ := c.ReadInt(2, "right")
	if l != 1 || r != 1 {
		t.Errorf("left=%d right=%d, want atomic commit on both", l, r)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := etx.New(etx.Config{}); err == nil {
		t.Fatal("missing Logic must be rejected")
	}
	c := newCluster(t, etx.Config{Logic: bankLogic(), Seed: map[string]int64{"acct/alice": 50}})
	if _, err := c.Issue(context.Background(), 99, nil); err == nil {
		t.Fatal("unknown client must be rejected")
	}
	// Out-of-range database index inside logic.
	c2 := newCluster(t, etx.Config{Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		_, _, err := tx.Get(ctx, 7, "k")
		if err == nil {
			return nil, errors.New("index 7 must fail")
		}
		return []byte("checked"), nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := c2.Issue(ctx, 1, nil); err != nil || string(res) != "checked" {
		t.Fatalf("res=%q err=%v", res, err)
	}
}

func TestPublicAPIRawPutGet(t *testing.T) {
	c := newCluster(t, etx.Config{Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
		if err := tx.Put(ctx, 0, "doc", req); err != nil {
			return nil, err
		}
		v, _, err := tx.Get(ctx, 0, "doc")
		if err != nil {
			return nil, err
		}
		return v, nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Issue(ctx, 1, []byte("payload"))
	if err != nil || string(res) != "payload" {
		t.Fatalf("res=%q err=%v", res, err)
	}
	v, ok := c.Read(1, "doc")
	if !ok || string(v) != "payload" {
		t.Fatalf("Read = %q,%v", v, ok)
	}
}

// TestPublicAPISharded: a 4-shard deployment routes the keyed Tx methods to
// each key's home shard, seeds each database with only the keys it owns,
// and keeps exactly-once semantics across a shard restart mid-run.
func TestPublicAPISharded(t *testing.T) {
	seed := map[string]int64{}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("cnt/%02d", i)
		// Seed the exact keys the workload increments, so the leak
		// assertion at the end truly checks that seeding was per-shard.
		seed["acct/"+keys[i]] = 0
	}
	c := newCluster(t, etx.Config{
		Shards: 4,
		Tuning: etx.Tuning{Workers: 4},
		Seed:   seed,
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			n, err := tx.AddKey(ctx, string(req), 1)
			if err != nil {
				return nil, err
			}
			return []byte(strconv.FormatInt(n, 10)), nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	reqs := make([][]byte, 0, 2*len(keys))
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			reqs = append(reqs, []byte("acct/"+k))
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Client(1).IssueBatch(ctx, reqs)
		done <- err
	}()
	// Restart one shard while the batch runs: in-flight tries against it
	// abort and retry; everything still commits exactly once.
	time.Sleep(20 * time.Millisecond)
	c.CrashDBServer(2)
	time.Sleep(20 * time.Millisecond)
	if err := c.RecoverDBServer(2); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	for _, k := range keys {
		key := "acct/" + k
		home := c.HomeDB(key)
		n, err := c.ReadInt(home, key)
		if err != nil {
			t.Fatalf("ReadInt(%d, %q): %v", home, key, err)
		}
		if n != 2 {
			t.Errorf("%q on home db %d = %d, want 2", key, home, n)
		}
		// Per-shard seeding: no other database ever held the key.
		for db := 1; db <= 4; db++ {
			if db == home {
				continue
			}
			if _, ok := c.Read(db, key); ok {
				t.Errorf("%q leaked onto non-home db %d", key, db)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
