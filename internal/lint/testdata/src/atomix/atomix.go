// Package atomix exercises the atomicmix analyzer: the untyped sync/atomic
// functions are flagged at every call, and the typed wrappers' methods are
// clean. The mixed accesses below are the bug shapes the rule exists for: a
// plain read or write of a word the package updates atomically. Each is
// caught through its atomic half, which the rule flags, and a copy of a
// typed atomic is go vet's copylocks finding (TestAtomicMixCopyIsVetFinding).
package atomix

import "sync/atomic"

// node mirrors a consensus node's watermark state: wm is written with
// atomic adds on the hot path; depth is a typed atomic wrapper.
type node struct {
	wm    uint64
	depth atomic.Int64
}

// newNode seeds the watermark before the node is shared; the annotation
// records the single-threaded window (suppression-survival case).
func newNode() *node {
	n := &node{}
	//etxlint:allow atomicmix — constructor runs before any goroutine shares n
	atomic.StoreUint64(&n.wm, 1)
	return n
}

// bump is the hot-path atomic write that makes every plain access of wm a
// race.
func (n *node) bump() {
	atomic.AddUint64(&n.wm, 1) // want `untyped sync/atomic function AddUint64`
}

// atomicRead is consistent with bump, and still an untyped call.
func (n *node) atomicRead() uint64 {
	return atomic.LoadUint64(&n.wm) // want `untyped sync/atomic function LoadUint64`
}

// mixedRead is the bug shape: a plain read of a field the package writes
// atomically. It cannot arise without bump's untyped call, flagged above.
func (n *node) mixedRead() uint64 {
	return n.wm
}

// mixedWrite is the write-side bug shape, caught the same way.
func (n *node) mixedWrite() {
	n.wm = 0
}

// teardownRead documents an intentionally missing justification so the
// suppression audit fixture test has an empty-justification case to catch.
func (n *node) teardownRead() uint64 {
	//etxlint:allow atomicmix
	return atomic.LoadUint64(&n.wm)
}

// depthOps uses the typed wrapper's method set: clean.
func (n *node) depthOps() int64 {
	n.depth.Add(1)
	return n.depth.Load()
}

// copyTyped copies a typed atomic out of its field: the copy races with
// concurrent writers and defeats the wrapper. go vet's copylocks reports it.
func (n *node) copyTyped() int64 {
	d := n.depth
	return d.Load()
}
