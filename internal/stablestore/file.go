package stablestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// filePersist journals every mutation to an append-only file so a Store can
// survive real process restarts (the multi-process TCP deployment). The
// in-memory Store stays the source of truth for reads; the journal is
// replayed on open.
type filePersist struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// Journal record tags.
const (
	tagAppend byte = 1
	tagPut    byte = 2
	tagTrunc  byte = 3
)

// OpenFile opens (or creates) a file-backed store at path. Forced appends
// additionally pay forceLatency, so the same cost model applies to real
// deployments. The journal is replayed into memory before returning, and a
// torn tail is cut off so later appends start on a record boundary.
func OpenFile(path string, forceLatency time.Duration) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stablestore: open %s: %w", path, err)
	}
	s := New(forceLatency)
	good, err := replay(f, s)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stablestore: replay %s: %w", path, err)
	}
	if err := cutTail(f, good); err != nil {
		f.Close()
		return nil, fmt.Errorf("stablestore: truncate %s: %w", path, err)
	}
	s.persist = &filePersist{f: f, w: bufio.NewWriter(f)}
	return s, nil
}

// cutTail truncates f to good, durably, when bytes follow it, and leaves
// the write offset at good.
func cutTail(f *os.File, good int64) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if good < end {
		if err := f.Truncate(good); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	_, err = f.Seek(good, io.SeekStart)
	return err
}

// CloseFile flushes and closes the backing file, if any.
func (s *Store) CloseFile() error {
	if s.persist == nil {
		return nil
	}
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	if err := s.persist.w.Flush(); err != nil {
		return err
	}
	return s.persist.f.Close()
}

// sync flushes the journal buffer and fsyncs the backing file: one device
// force covering every record journaled so far. The group-commit combiner
// calls it once per cohort.
func (p *filePersist) sync() {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Errors here would mean the simulated stable storage lost its backing
	// device; surfacing them to the protocol is out of scope, but flush
	// failures would repeat and be caught on close.
	_ = p.w.Flush()
	//etxlint:allow lockheld — p.mu serializes journal writers against the device force; holding it across fsync is the invariant
	_ = p.f.Sync()
}

// journal writes one record; sync selects fdatasync-like durability (forced
// appends instead journal unsynced and let Store.force pay one combined
// device force afterwards).
func (p *filePersist) journal(tag byte, name string, rec []byte, sync bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = tag
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(name)))
	n += binary.PutUvarint(hdr[n:], uint64(len(rec)))
	p.w.Write(hdr[:n])
	p.w.WriteString(name)
	p.w.Write(rec)
	if sync {
		_ = p.w.Flush()
		//etxlint:allow lockheld — a forced append is durable before the journal lock releases, by definition
		_ = p.f.Sync()
	}
}

// replay loads the journal into the in-memory maps and returns the offset
// just past its last whole record. A short final record (a crash
// mid-append) or an all-zero tail (the file's size reached the disk, its
// data did not) ends the journal there; any other unparseable record is
// corruption.
func replay(f *os.File, s *Store) (int64, error) {
	r := &countingReader{r: bufio.NewReader(f)}
	for {
		good := r.n
		tag, err := r.ReadByte()
		if errors.Is(err, io.EOF) {
			return good, nil
		}
		if err != nil {
			return good, err
		}
		if tag == 0 {
			rest, err := io.ReadAll(r)
			if err != nil {
				return good, err
			}
			if len(bytes.TrimLeft(rest, "\x00")) == 0 {
				return good, nil
			}
			return good, errors.New("corrupt journal: unknown tag 0")
		}
		nameLen, err := binary.ReadUvarint(r)
		if err != nil {
			return good, truncated(err)
		}
		recLen, err := binary.ReadUvarint(r)
		if err != nil {
			return good, truncated(err)
		}
		if nameLen > 1<<20 || recLen > 64<<20 {
			return good, errors.New("corrupt journal: oversized record")
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return good, truncated(err)
		}
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(r, rec); err != nil {
			return good, truncated(err)
		}
		switch tag {
		case tagAppend:
			s.logs[string(name)] = append(s.logs[string(name)], rec)
		case tagPut:
			s.kv[string(name)] = rec
		case tagTrunc:
			delete(s.logs, string(name))
		default:
			return good, fmt.Errorf("corrupt journal: unknown tag %d", tag)
		}
	}
}

// countingReader counts the bytes replay has consumed.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// truncated maps partial-final-record errors (a crash mid-append of an
// unforced record) to a clean stop: everything before the tear is intact,
// which is exactly the durability the protocols rely on (they only trust
// forced records).
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}
