package stablestore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1.Append("wal", []byte("r1"), true)
	s1.Append("wal", []byte("r2"), false)
	s1.Put("incarnation", []byte{1})
	if err := s1.CloseFile(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseFile()
	recs := s2.ReadLog("wal")
	if len(recs) != 2 || string(recs[0]) != "r1" || string(recs[1]) != "r2" {
		t.Fatalf("recovered log = %q", recs)
	}
	if v, ok := s2.Get("incarnation"); !ok || v[0] != 1 {
		t.Fatalf("recovered kv = %v,%v", v, ok)
	}
	// Appends after reopen extend the same journal.
	s2.Append("wal", []byte("r3"), true)
	if s2.LogLen("wal") != 3 {
		t.Fatal("append after reopen failed")
	}
}

func TestFileStoreUnforcedAppendsSurviveCleanClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, _ := OpenFile(path, 0)
	for i := 0; i < 10; i++ {
		s1.Append("wal", []byte{byte(i)}, false)
	}
	s1.CloseFile()
	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseFile()
	if s2.LogLen("wal") != 10 {
		t.Fatalf("recovered %d records, want 10", s2.LogLen("wal"))
	}
}

func TestFileStoreTruncateSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, _ := OpenFile(path, 0)
	s1.Append("wal", []byte("old"), true)
	s1.TruncateLog("wal")
	s1.Append("wal", []byte("new"), true)
	s1.CloseFile()

	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseFile()
	recs := s2.ReadLog("wal")
	if len(recs) != 1 || string(recs[0]) != "new" {
		t.Fatalf("recovered log = %q", recs)
	}
}

func TestFileStoreToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, _ := OpenFile(path, 0)
	s1.Append("wal", []byte("good"), true)
	s1.CloseFile()

	// Simulate a crash mid-append: garbage half-record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 200}) // tagAppend + huge name length, then EOF
	f.Close()

	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	defer s2.CloseFile()
	recs := s2.ReadLog("wal")
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("recovered log = %q", recs)
	}
}

// appendRaw appends raw bytes to the journal at path, as a crash leaves them.
func appendRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenLog reopens the journal at path and returns one log's records.
func reopenLog(t *testing.T, path string) []string {
	t.Helper()
	s, err := OpenFile(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.CloseFile()
	var out []string
	for _, r := range s.ReadLog("wal") {
		out = append(out, string(r))
	}
	return out
}

// TestFileStoreTornTailTruncatedBeforeNextAppend: a torn half-record is cut
// off on open, so a record forced after the restart is not swallowed as the
// torn record's body by the next replay.
func TestFileStoreTornTailTruncatedBeforeNextAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, _ := OpenFile(path, 0)
	s1.Append("wal", []byte("good"), true)
	s1.CloseFile()
	appendRaw(t, path, []byte{tagAppend, 200})

	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.Append("wal", []byte("after"), true)
	s2.CloseFile()

	if got := reopenLog(t, path); !reflect.DeepEqual(got, []string{"good", "after"}) {
		t.Fatalf("recovered log = %q, want [good after]", got)
	}
}

// TestFileStoreZeroFilledTailIsTorn: a zero-filled tail, left by a power cut
// after the file's size reached the disk and before its data did, is a torn
// tail, not corruption.
func TestFileStoreZeroFilledTailIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.journal")
	s1, _ := OpenFile(path, 0)
	s1.Append("wal", []byte("good"), true)
	s1.CloseFile()
	appendRaw(t, path, make([]byte, 16))

	if got := reopenLog(t, path); !reflect.DeepEqual(got, []string{"good"}) {
		t.Fatalf("recovered log = %q, want [good]", got)
	}
	s2, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.Append("wal", []byte("after"), true)
	s2.CloseFile()
	if got := reopenLog(t, path); !reflect.DeepEqual(got, []string{"good", "after"}) {
		t.Fatalf("recovered log = %q, want [good after]", got)
	}
}

// TestFileStoreRejectsCorruptTag: an unknown tag is corruption, and so is a
// zero tag with live bytes after it — only an all-zero tail is torn.
func TestFileStoreRejectsCorruptTag(t *testing.T) {
	for _, raw := range [][]byte{
		{99, 1, 1, 'x', 'y'},
		{0, 0, tagAppend, 1, 1, 'x', 'y'},
	} {
		path := filepath.Join(t.TempDir(), "db.journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path, 0); err == nil {
			t.Errorf("corrupt journal %v accepted", raw)
		}
	}
}

// mustPanic runs f and fails the test unless f panics with an error.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(error); !ok {
			t.Errorf("%s did not panic with an error after a journal I/O error, want a fail-stop panic", what)
		}
	}()
	f()
}

// TestFileStoreFailsStopOnIOError: with the journal's file closed under an
// open store, a forced Append and a Sync each panic — neither reports its
// record durable, and neither is counted as a force paid.
func TestFileStoreFailsStopOnIOError(t *testing.T) {
	s, err := OpenFile(filepath.Join(t.TempDir(), "db.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("wal", []byte("durable"), true)
	forced, syncs := s.ForcedWrites(), s.Syncs()
	if err := s.persist.f.Close(); err != nil {
		t.Fatal(err)
	}

	mustPanic(t, "forced Append", func() { s.Append("wal", []byte("lost"), true) })
	mustPanic(t, "Sync", s.Sync)
	if s.ForcedWrites() != forced || s.Syncs() != syncs {
		t.Errorf("forced writes %d->%d, syncs %d->%d: a failed force was counted",
			forced, s.ForcedWrites(), syncs, s.Syncs())
	}
}
