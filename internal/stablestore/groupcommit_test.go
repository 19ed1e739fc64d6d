package stablestore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitCombinesForces: with group commit on, N concurrent forced
// appends share device forces — the run finishes in a fraction of the
// serialized time and pays far fewer fsyncs than forces.
func TestGroupCommitCombinesForces(t *testing.T) {
	const n = 16
	const latency = 20 * time.Millisecond
	s := New(latency)
	s.SetBatchWindow(time.Millisecond)

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Append("wal", []byte(fmt.Sprintf("rec-%d", i)), true)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if got := s.ForcedWrites(); got != n {
		t.Fatalf("ForcedWrites = %d, want %d", got, n)
	}
	if syncs := s.Syncs(); syncs >= n {
		t.Errorf("Syncs = %d for %d forces: no combining happened", syncs, n)
	}
	// Serialized the run would take n*latency = 320ms; combined it needs a
	// handful of cohorts. Allow a wide margin for scheduling noise.
	if limit := n * latency / 2; elapsed >= limit {
		t.Errorf("elapsed %v, want well under the serialized %v", elapsed, n*latency)
	}
	if got := s.LogLen("wal"); got != n {
		t.Errorf("log has %d records, want %d", got, n)
	}
}

// TestGroupCommitLeaderNeverSleeps: the batch window's value is ignored. A
// cohort leader heads straight for the device, so concurrent forces finish
// in a few device forces even with a ten-second window, and still share
// them.
func TestGroupCommitLeaderNeverSleeps(t *testing.T) {
	const n = 8
	s := New(time.Millisecond)
	s.SetBatchWindow(10 * time.Second)

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
		t.Fatal("forced appends still blocked after 2s: a cohort leader waited on the window")
	}
	if syncs, forces := s.Syncs(), s.ForcedWrites(); syncs >= forces {
		t.Errorf("Syncs = %d, ForcedWrites = %d: no force rode another leader's fsync", syncs, forces)
	}
}

// TestBatchWindowZeroSerializes: window 0 is the pre-group-commit behaviour —
// every forced write pays its own device force.
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
		t.Errorf("elapsed %v < serialized %v: forces overlapped with window 0", elapsed, n*latency)
	}
	if syncs, forces := s.Syncs(), s.ForcedWrites(); syncs != forces {
		t.Errorf("Syncs = %d, ForcedWrites = %d: window 0 must not combine", syncs, forces)
	}
}

// TestMaxBatchCapsCohort: cohorts never exceed the configured cap.
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
	if syncs := s.Syncs(); syncs < n/2 {
		t.Errorf("Syncs = %d for %d forces with MaxBatch 2, want >= %d", syncs, n, n/2)
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

// TestGroupCommitDurableAcrossCrash is the durability oracle of the
// combiner: on a file-backed store with batching on, every record whose
// forced Append returned before the crash point must be recovered —
// including records that were committed as cohort followers of another
// leader's fsync. The crash is simulated by abandoning the store without
// flushing its journal buffer and reopening the file.
func TestGroupCommitDurableAcrossCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.journal")
	s, err := OpenFile(path, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBatchWindow(200 * time.Microsecond)

	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	returned := make(map[string]bool) // forced appends that completed
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				s.Append("wal", []byte(rec), true)
				mu.Lock()
				returned[rec] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if syncs, forces := s.Syncs(), s.ForcedWrites(); syncs >= forces {
		t.Fatalf("Syncs = %d, ForcedWrites = %d: no record ever rode another leader's fsync", syncs, forces)
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
			t.Errorf("forced record %q returned before the crash but was not recovered", rec)
		}
	}
	if recovered["unforced-tail"] {
		t.Error("unforced unsynced record survived the crash: the test did not actually tear the buffer")
	}
}
