package stablestore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitCombinesForces: group commit is the caller's — n records
// appended unforced and covered by one Sync cost one device force, in the
// time of one force.
func TestGroupCommitCombinesForces(t *testing.T) {
	const n = 16
	const latency = 20 * time.Millisecond
	s := New(latency)

	start := time.Now()
	for i := 0; i < n; i++ {
		s.Append("wal", []byte(fmt.Sprintf("rec-%d", i)), false)
	}
	s.Sync()
	elapsed := time.Since(start)

	if got := s.ForcedWrites(); got != 1 {
		t.Fatalf("ForcedWrites = %d, want 1 Sync", got)
	}
	if syncs := s.Syncs(); syncs != 1 {
		t.Errorf("Syncs = %d for one Sync over %d records, want 1", syncs, n)
	}
	if limit := 2 * latency; elapsed >= limit {
		t.Errorf("elapsed %v, want one force (%v), well under %v", elapsed, latency, limit)
	}
	if got := s.LogLen("wal"); got != n {
		t.Errorf("log has %d records, want %d", got, n)
	}
}

// TestGroupCommitLeaderNeverSleeps: no force waits for company. The batch
// knobs the benchmark still sets select nothing — a ten-second window
// included — so concurrent forced appends finish in one device force each.
func TestGroupCommitLeaderNeverSleeps(t *testing.T) {
	const n = 8
	s := New(time.Millisecond)
	s.SetBatchWindow(10 * time.Second)
	s.SetMaxBatch(64)
	s.SetAdaptive(true)

	var wg sync.WaitGroup
	start := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Append("wal", []byte("rec"), true)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	close(start)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("forced appends still blocked after 2s: a force waited on the window")
	}
	if syncs, forces := s.Syncs(), s.ForcedWrites(); syncs != forces || forces != n {
		t.Errorf("Syncs = %d, ForcedWrites = %d, want %d each: the store combined forces", syncs, forces, n)
	}
}

// TestBatchWindowZeroSerializes: every forced write pays its own device
// force, one after another on the one device.
func TestBatchWindowZeroSerializes(t *testing.T) {
	const n = 8
	const latency = 5 * time.Millisecond
	s := New(latency)

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Append("wal", []byte("rec"), true)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < n*latency {
		t.Errorf("elapsed %v < serialized %v: forces overlapped", elapsed, n*latency)
	}
	if syncs, forces := s.Syncs(), s.ForcedWrites(); syncs != forces {
		t.Errorf("Syncs = %d, ForcedWrites = %d: the store must not combine", syncs, forces)
	}
}

// TestMaxBatchCapsCohort: SetMaxBatch caps nothing because nothing is
// batched — with any cap, no device force covers two forced writes.
func TestMaxBatchCapsCohort(t *testing.T) {
	const n = 12
	s := New(2 * time.Millisecond)
	s.SetBatchWindow(5 * time.Millisecond)
	s.SetMaxBatch(2)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Append("wal", []byte("rec"), true)
		}()
	}
	wg.Wait()
	if syncs := s.Syncs(); syncs != n {
		t.Errorf("Syncs = %d for %d forces, want one each", syncs, n)
	}
}

// TestSyncCountsAsForcedWrite: the batch entry point pays and counts like
// one forced write.
func TestSyncCountsAsForcedWrite(t *testing.T) {
	s := New(0)
	s.Append("wal", []byte("a"), false)
	s.Append("wal", []byte("b"), false)
	s.Sync()
	if got := s.ForcedWrites(); got != 1 {
		t.Errorf("ForcedWrites = %d after one Sync, want 1", got)
	}
	if got := s.TotalWrites(); got != 2 {
		t.Errorf("TotalWrites = %d, want 2", got)
	}
}

// TestGroupCommitDurableAcrossCrash is the durability oracle of group
// commit as the data server runs it: writers append batches unforced and
// pay one Sync per batch, and every record whose Sync returned before the
// crash point must be recovered — including records a concurrent writer's
// Sync made durable. The crash is simulated by abandoning the store without
// flushing its journal buffer and reopening the file.
func TestGroupCommitDurableAcrossCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.journal")
	s, err := OpenFile(path, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}

	const writers, batches, perBatch = 8, 5, 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	returned := make(map[string]bool) // records whose batch's Sync completed
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var recs []string
				for i := 0; i < perBatch; i++ {
					rec := fmt.Sprintf("w%d-%d-%d", w, b, i)
					s.Append("wal", []byte(rec), false)
					recs = append(recs, rec)
				}
				s.Sync()
				mu.Lock()
				for _, rec := range recs {
					returned[rec] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if syncs, recs := s.Syncs(), int64(writers*batches*perBatch); syncs != writers*batches || syncs >= recs {
		t.Fatalf("Syncs = %d for %d batches of %d records: want one per batch", syncs, writers*batches, perBatch)
	}
	// Buffered-but-unsynced data must not be flushed by the "crash": append
	// an unforced record and drop the store without CloseFile.
	s.Append("wal", []byte("unforced-tail"), false)

	re, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseFile()
	recovered := make(map[string]bool)
	for _, rec := range re.ReadLog("wal") {
		recovered[string(rec)] = true
	}
	for rec := range returned {
		if !recovered[rec] {
			t.Errorf("record %q was synced before the crash but was not recovered", rec)
		}
	}
	if recovered["unforced-tail"] {
		t.Error("unforced unsynced record survived the crash: the test did not actually tear the buffer")
	}
}
